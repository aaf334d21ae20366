#include "spice/elements.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/units.h"

namespace nvsram::spice {

// ---- SourceSpec -------------------------------------------------------------

SourceSpec SourceSpec::dc(double value) {
  SourceSpec s;
  s.kind_ = Kind::kDc;
  s.dc_ = value;
  return s;
}

SourceSpec SourceSpec::pulse(const PulseSpec& spec) {
  SourceSpec s;
  s.kind_ = Kind::kPulse;
  s.pulse_ = spec;
  return s;
}

SourceSpec SourceSpec::pwl(std::vector<std::pair<double, double>> points) {
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (!(points[i].first > points[i - 1].first)) {
      throw std::invalid_argument("SourceSpec::pwl: times must increase");
    }
  }
  SourceSpec s;
  s.kind_ = Kind::kPwl;
  s.pwl_ = std::move(points);
  return s;
}

double SourceSpec::value(double time) const {
  switch (kind_) {
    case Kind::kDc:
      return dc_;
    case Kind::kPulse: {
      const PulseSpec& p = pulse_;
      if (time < p.delay) return p.v_initial;
      double t = time - p.delay;
      if (p.period > 0.0) t = std::fmod(t, p.period);
      if (t < p.rise) {
        return p.v_initial + (p.v_pulsed - p.v_initial) * (t / p.rise);
      }
      t -= p.rise;
      if (t < p.width) return p.v_pulsed;
      t -= p.width;
      if (t < p.fall) {
        return p.v_pulsed + (p.v_initial - p.v_pulsed) * (t / p.fall);
      }
      return p.v_initial;
    }
    case Kind::kPwl: {
      if (pwl_.empty()) return 0.0;
      if (time <= pwl_.front().first) return pwl_.front().second;
      if (time >= pwl_.back().first) return pwl_.back().second;
      const auto it = std::upper_bound(
          pwl_.begin(), pwl_.end(), time,
          [](double t, const std::pair<double, double>& p) { return t < p.first; });
      const auto& hi = *it;
      const auto& lo = *(it - 1);
      const double f = (time - lo.first) / (hi.first - lo.first);
      return lo.second + f * (hi.second - lo.second);
    }
  }
  return 0.0;
}

void SourceSpec::breakpoints(double t_stop, std::vector<double>& out) const {
  switch (kind_) {
    case Kind::kDc:
      return;
    case Kind::kPulse: {
      const PulseSpec& p = pulse_;
      const double cycle = p.rise + p.width + p.fall;
      double base = p.delay;
      do {
        for (double t : {base, base + p.rise, base + p.rise + p.width,
                         base + cycle}) {
          if (t > 0.0 && t < t_stop) out.push_back(t);
        }
        if (p.period <= 0.0) break;
        base += p.period;
      } while (base < t_stop);
      return;
    }
    case Kind::kPwl:
      for (const auto& [t, v] : pwl_) {
        (void)v;
        if (t > 0.0 && t < t_stop) out.push_back(t);
      }
      return;
  }
}

// ---- Resistor ----------------------------------------------------------------

Resistor::Resistor(std::string name, NodeId a, NodeId b, double resistance)
    : Device(std::move(name)), a_(a), b_(b), resistance_(resistance) {
  if (resistance_ <= 0.0) {
    throw std::invalid_argument("Resistor: resistance must be positive");
  }
}

void Resistor::set_resistance(double r) {
  if (r <= 0.0) throw std::invalid_argument("Resistor: resistance must be positive");
  resistance_ = r;
}

void Resistor::stamp(StampContext& ctx) {
  ctx.stamp_conductance(a_, b_, 1.0 / resistance_);
}

void Resistor::stamp_pattern(PatternContext& ctx) const { ctx.conductance(a_, b_); }

double Resistor::current(const SolutionView& s) const {
  return (s.node_voltage(a_) - s.node_voltage(b_)) / resistance_;
}

// ---- Capacitor -----------------------------------------------------------------

Capacitor::Capacitor(std::string name, NodeId a, NodeId b, double capacitance)
    : Device(std::move(name)), a_(a), b_(b), capacitance_(capacitance) {
  if (capacitance_ <= 0.0) {
    throw std::invalid_argument("Capacitor: capacitance must be positive");
  }
}

double Capacitor::companion_geq(double dt, IntegrationMethod m) const {
  return (m == IntegrationMethod::kTrapezoidal ? 2.0 : 1.0) * capacitance_ / dt;
}

void Capacitor::stamp(StampContext& ctx) {
  if (ctx.dc()) {
    // Open in DC; the analysis-level gmin keeps floating nodes solvable.
    geq_ = 0.0;
    ieq_ = 0.0;
    return;
  }
  geq_ = companion_geq(ctx.dt(), ctx.method());
  // i_n = geq * v_n - ieq_, with
  //   BE:   ieq = geq * v_prev
  //   TRAP: ieq = geq * v_prev + i_prev
  ieq_ = geq_ * v_prev_;
  if (ctx.method() == IntegrationMethod::kTrapezoidal) ieq_ += i_prev_;
  ctx.stamp_conductance(a_, b_, geq_);
  // History current enters node a (it is subtracted from the device current).
  ctx.stamp_current(b_, a_, ieq_);
}

void Capacitor::begin_transient(const SolutionView& s) {
  v_prev_ = s.node_voltage(a_) - s.node_voltage(b_);
  i_prev_ = 0.0;
}

bool Capacitor::accept_step(const SolutionView& s, double, double) {
  const double v = s.node_voltage(a_) - s.node_voltage(b_);
  i_prev_ = geq_ * v - ieq_;
  v_prev_ = v;
  return false;
}

double Capacitor::current(const SolutionView& s) const {
  const double v = s.node_voltage(a_) - s.node_voltage(b_);
  return geq_ * v - ieq_;
}

void Capacitor::stamp_pattern(PatternContext& ctx) const {
  // Open at DC: no matrix footprint (gmin keeps otherwise-floating nodes
  // solvable, but structurally the capacitor contributes nothing).
  if (!ctx.dc()) ctx.conductance(a_, b_);
}

double Capacitor::stored_energy(const SolutionView& s) const {
  const double v = s.node_voltage(a_) - s.node_voltage(b_);
  return 0.5 * capacitance_ * v * v;
}

// ---- VSource -------------------------------------------------------------------

VSource::VSource(std::string name, NodeId plus, NodeId minus, SourceSpec spec)
    : Device(std::move(name)), plus_(plus), minus_(minus), spec_(std::move(spec)) {}

void VSource::reserve(MnaLayout& layout) { branch_ = layout.allocate_branch(); }

void VSource::stamp(StampContext& ctx) {
  // KCL: branch current leaves the + node, enters the - node.
  ctx.mat_nb(plus_, branch_, 1.0);
  ctx.mat_nb(minus_, branch_, -1.0);
  // Branch equation: v(+) - v(-) = V(t) * source_scale.
  ctx.mat_bn(branch_, plus_, 1.0);
  ctx.mat_bn(branch_, minus_, -1.0);
  ctx.rhs_b(branch_, spec_.value(ctx.time()) * ctx.source_scale());
}

void VSource::stamp_pattern(PatternContext& ctx) const {
  ctx.mat_nb(plus_, branch_);
  ctx.mat_nb(minus_, branch_);
  ctx.mat_bn(branch_, plus_);
  ctx.mat_bn(branch_, minus_);
}

double VSource::current(const SolutionView& s) const {
  return s.value(branch_);
}

void VSource::breakpoints(double t_stop, std::vector<double>& out) const {
  spec_.breakpoints(t_stop, out);
}

double VSource::delivered_power(const SolutionView& s, double time) const {
  // Branch current is + -> - internally, so the current delivered out of the
  // + terminal is -i_branch.
  return spec_.value(time) * (-s.value(branch_));
}

// ---- ISource -------------------------------------------------------------------

ISource::ISource(std::string name, NodeId from, NodeId to, SourceSpec spec)
    : Device(std::move(name)), from_(from), to_(to), spec_(std::move(spec)) {}

void ISource::stamp(StampContext& ctx) {
  last_value_ = spec_.value(ctx.time()) * ctx.source_scale();
  ctx.stamp_current(from_, to_, last_value_);
}

void ISource::breakpoints(double t_stop, std::vector<double>& out) const {
  spec_.breakpoints(t_stop, out);
}

// ---- Diode ---------------------------------------------------------------------

Diode::Diode(std::string name, NodeId anode, NodeId cathode,
             double saturation_current, double emission, double temperature)
    : Device(std::move(name)), anode_(anode), cathode_(cathode),
      is_(saturation_current),
      n_vt_(emission * util::thermal_voltage(temperature)) {}

void Diode::stamp(StampContext& ctx) {
  const double v = ctx.node_voltage(anode_) - ctx.node_voltage(cathode_);
  // Junction exponential with a linear continuation above `v_crit` to keep
  // Newton steps bounded (classic SPICE junction limiting).
  const double v_crit = n_vt_ * std::log(n_vt_ / (is_ * std::sqrt(2.0)));
  double i, g;
  if (v <= v_crit) {
    const double e = std::exp(v / n_vt_);
    i = is_ * (e - 1.0);
    g = is_ * e / n_vt_;
  } else {
    const double e = std::exp(v_crit / n_vt_);
    const double g_crit = is_ * e / n_vt_;
    i = is_ * (e - 1.0) + g_crit * (v - v_crit);
    g = g_crit;
  }
  // Linearized companion: i(v) ~ i0 + g (v - v0).
  ctx.stamp_conductance(anode_, cathode_, g);
  ctx.stamp_current(anode_, cathode_, i - g * v);
}

void Diode::stamp_pattern(PatternContext& ctx) const {
  ctx.conductance(anode_, cathode_);
}

double Diode::current(const SolutionView& s) const {
  const double v = s.node_voltage(anode_) - s.node_voltage(cathode_);
  return is_ * (std::exp(std::min(v, 2.0) / n_vt_) - 1.0);
}

}  // namespace nvsram::spice
