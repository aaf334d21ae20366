#include "models/mtj.h"

#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>

#include "util/units.h"

namespace nvsram::models {

const char* to_string(MtjState s) {
  return s == MtjState::kParallel ? "P" : "AP";
}

double MTJParams::area() const {
  const double r = 0.5 * diameter;
  return std::numbers::pi * r * r;
}

double MTJParams::rp0() const { return ra_product / area(); }

double MTJParams::rap0() const { return rp0() * (1.0 + tmr0); }

double MTJParams::critical_current() const { return jc * area(); }

std::string MTJParams::describe() const {
  std::ostringstream os;
  os << "MTJ phi=" << util::si_format(diameter, "m")
     << " Rp=" << util::si_format(rp0(), "Ohm")
     << " Rap=" << util::si_format(rap0(), "Ohm")
     << " Ic=" << util::si_format(critical_current(), "A")
     << " TMR0=" << tmr0 * 100.0 << "%";
  return os.str();
}

MTJ::MTJ(MTJParams params) : params_(params) {
  if (params_.diameter <= 0.0 || params_.ra_product <= 0.0 ||
      params_.vh <= 0.0 || params_.jc <= 0.0 || params_.tau0 <= 0.0) {
    throw std::invalid_argument("MTJ: parameters must be positive");
  }
}

double MTJ::tmr(double voltage) const {
  const double x = voltage / params_.vh;
  return params_.tmr0 / (1.0 + x * x);
}

double MTJ::resistance(MtjState state, double voltage) const {
  const double rp = params_.rp0();
  if (state == MtjState::kParallel) return rp;
  return rp * (1.0 + tmr(voltage));
}

MTJ::IV MTJ::current(MtjState state, double voltage) const {
  if (state == MtjState::kParallel) {
    const double g = 1.0 / params_.rp0();
    return {voltage * g, g};
  }
  // AP branch: I = V / (Rp (1 + TMR0/(1+x^2))),  x = V/Vh.
  // Write as I = V (1 + x^2) / (Rp (1 + x^2 + TMR0)).
  const double rp = params_.rp0();
  const double x = voltage / params_.vh;
  const double x2 = x * x;
  const double denom = rp * (1.0 + x2 + params_.tmr0);
  const double current = voltage * (1.0 + x2) / denom;
  // dI/dV via quotient rule; let u = V (1 + x^2) = V + V^3/Vh^2,
  // du/dV = 1 + 3 x^2; let w = Rp (1 + x^2 + TMR0), dw/dV = 2 Rp x / Vh.
  const double du = 1.0 + 3.0 * x2;
  const double dw = 2.0 * rp * x / params_.vh;
  const double u = voltage * (1.0 + x2);
  const double conductance = (du * denom - u * dw) / (denom * denom);
  return {current, conductance};
}

bool MTJ::polarity_drives_switch(MtjState from, double current) {
  // Positive current (pinned -> free): AP -> P.  Negative: P -> AP.
  if (from == MtjState::kAntiparallel) return current > 0.0;
  return current < 0.0;
}

double MTJ::switching_time(MtjState from, double current) const {
  if (!polarity_drives_switch(from, current)) {
    return std::numeric_limits<double>::infinity();
  }
  const double overdrive = std::fabs(current) / params_.critical_current();
  if (overdrive <= 1.0) return std::numeric_limits<double>::infinity();
  return params_.tau0 / (overdrive - 1.0);
}

bool SwitchingState::advance(const MTJ& mtj, double current, double dt) {
  const double tsw = mtj.switching_time(state_, current);
  if (!std::isfinite(tsw)) {
    progress_ = 0.0;
    return false;
  }
  progress_ += dt / tsw;
  if (progress_ >= 1.0) {
    state_ = (state_ == MtjState::kParallel) ? MtjState::kAntiparallel
                                             : MtjState::kParallel;
    progress_ = 0.0;
    return true;
  }
  return false;
}

double MTJ::thermal_switching_tau(MtjState from, double current) const {
  if (!polarity_drives_switch(from, current)) {
    return std::numeric_limits<double>::infinity();
  }
  const double overdrive = std::fabs(current) / params_.critical_current();
  if (overdrive >= 1.0) return switching_time(from, current);
  return params_.attempt_time *
         std::exp(params_.thermal_stability * (1.0 - overdrive));
}

double MTJ::retention_time() const {
  return params_.attempt_time * std::exp(params_.thermal_stability);
}

double MTJ::disturb_probability(MtjState from, double current,
                                double duration) const {
  const double tau = thermal_switching_tau(from, current);
  if (!std::isfinite(tau)) return 0.0;
  return 1.0 - std::exp(-duration / tau);
}

double MTJ::write_error_rate(MtjState from, double current,
                             double pulse) const {
  if (!polarity_drives_switch(from, current)) return 1.0;
  const double overdrive = std::fabs(current) / params_.critical_current();
  if (overdrive <= 1.0) {
    // Sub-critical: only thermal activation completes the write.
    return 1.0 - disturb_probability(from, current, pulse);
  }
  const double t_sw = switching_time(from, current);
  if (pulse <= t_sw) return 1.0;
  return std::exp(-params_.error_tail_factor * (pulse - t_sw) / params_.tau0);
}

MTJParams paper_mtj(bool fast) {
  MTJParams p;
  p.tmr0 = 1.0;
  p.ra_product = 2.0e-12;  // 2 Ohm um^2
  p.vh = 0.5;
  p.jc = fast ? 1e10 : 5e10;  // 1e6 / 5e6 A/cm^2 in A/m^2
  p.diameter = 20e-9;
  p.tau0 = 3e-9;
  return p;
}

}  // namespace nvsram::models
