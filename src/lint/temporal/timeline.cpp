#include "lint/temporal/timeline.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <sstream>

#include "spice/circuit.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"

namespace nvsram::lint::temporal {

namespace {

// Comparing driver levels: anything closer than this is "the same level"
// (drivers in this technology move in >= 10 mV steps).
constexpr double kLevelEps = 1e-6;
// Distinguishing schedule times: edges in this code base are >= 1 ps apart.
constexpr double kTimeEps = 1e-15;

bool same_level(double a, double b) { return std::fabs(a - b) < kLevelEps; }
bool same_time(double a, double b) { return std::fabs(a - b) < kTimeEps; }

}  // namespace

double SignalTimeline::level_at(double t) const {
  double v = initial;
  for (const Transition& tr : transitions) {
    if (t < tr.t0) return v;
    if (t <= tr.t1) {
      if (tr.t1 <= tr.t0) return tr.v1;
      const double f = (t - tr.t0) / (tr.t1 - tr.t0);
      return tr.v0 + f * (tr.v1 - tr.v0);
    }
    v = tr.v1;
  }
  return v;
}

double SignalTimeline::max_level() const {
  double m = initial;
  for (const Transition& tr : transitions) m = std::max({m, tr.v0, tr.v1});
  return m;
}

double SignalTimeline::min_level() const {
  double m = initial;
  for (const Transition& tr : transitions) m = std::min({m, tr.v0, tr.v1});
  return m;
}

std::vector<Window> SignalTimeline::windows_above(double threshold,
                                                  double t_stop) const {
  // Walk the piecewise-linear corner list, interpolating crossings.
  std::vector<std::pair<double, double>> pts;
  pts.emplace_back(0.0, initial);
  for (const Transition& tr : transitions) {
    pts.emplace_back(tr.t0, tr.v0);
    pts.emplace_back(tr.t1, tr.v1);
  }
  pts.emplace_back(std::max(t_stop, pts.back().first), pts.back().second);

  std::vector<Window> out;
  bool high = pts.front().second >= threshold;
  double open = high ? 0.0 : -1.0;
  for (std::size_t i = 1; i < pts.size(); ++i) {
    const auto& [ta, va] = pts[i - 1];
    const auto& [tb, vb] = pts[i];
    const bool high_b = vb >= threshold;
    if (high_b == high) continue;
    double t_cross = tb;
    if (tb > ta && !same_level(va, vb)) {
      t_cross = ta + (threshold - va) / (vb - va) * (tb - ta);
    }
    if (high_b) {
      open = t_cross;
    } else if (open >= 0.0) {
      if (t_cross > open) out.push_back({open, t_cross});
      open = -1.0;
    }
    high = high_b;
  }
  if (high && open >= 0.0 && t_stop > open) out.push_back({open, t_stop});
  return out;
}

std::vector<Window> SignalTimeline::windows_below(double threshold,
                                                  double t_stop) const {
  // Complement of windows_above over [0, t_stop].
  const auto above = windows_above(threshold, t_stop);
  std::vector<Window> out;
  double cursor = 0.0;
  for (const Window& w : above) {
    if (w.t0 > cursor) out.push_back({cursor, w.t0});
    cursor = w.t1;
  }
  if (t_stop > cursor) out.push_back({cursor, t_stop});
  return out;
}

const SignalTimeline* Timeline::find_role(SignalRole role) const {
  for (const auto& s : signals) {
    if (s.role == role) return &s;
  }
  return nullptr;
}

std::vector<const SignalTimeline*> Timeline::with_role(SignalRole role) const {
  std::vector<const SignalTimeline*> out;
  for (const auto& s : signals) {
    if (s.role == role) out.push_back(&s);
  }
  return out;
}

double Timeline::nominal_rail() const {
  double vdd = 0.0;
  for (const auto& s : signals) {
    if (s.role == SignalRole::kPower) vdd = std::max(vdd, s.max_level());
  }
  return vdd > 0.0 ? vdd : 0.9;
}

std::string Timeline::phase_at(double t) const {
  for (const PhaseSpan& ph : phases) {
    if (t >= ph.t0 && t <= ph.t1) return ph.name;
  }
  return "";
}

namespace {

std::string ns(double t) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", t * 1e9);
  return buf;
}

std::string volts(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

}  // namespace

std::string Timeline::describe() const {
  std::ostringstream os;
  os << "timeline " << origin << " t_stop=" << ns(t_stop) << "ns mtj="
     << (has_mtj ? "yes" : "no") << "\n";
  for (const auto& s : signals) {
    os << "  " << s.name << " [" << to_string(s.role) << "] init="
       << volts(s.initial) << "V";
    if (s.transitions.empty()) {
      os << " (constant)\n";
      continue;
    }
    os << "\n";
    for (const Transition& tr : s.transitions) {
      os << "    " << ns(tr.t0) << ".." << ns(tr.t1) << "ns: "
         << volts(tr.v0) << " -> " << volts(tr.v1) << "V\n";
    }
  }
  for (const PhaseSpan& ph : phases) {
    os << "  phase " << ph.name << " " << ns(ph.t0) << ".." << ns(ph.t1)
       << "ns\n";
  }
  return os.str();
}

namespace {

// Reconstructs a SignalTimeline from a SourceSpec-backed source by sampling
// at breakpoints: corners of PULSE and PWL specs are exact there, and
// maximal monotone runs merge into single Transitions (a PULSE rise is one
// edge, not fifty).
void build_transitions(const spice::VSource& src, double t_stop,
                       SignalTimeline& out) {
  std::vector<double> times;
  src.breakpoints(t_stop > 0.0 ? t_stop : 1.0, times);
  times.push_back(0.0);
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end(),
                          [](double a, double b) { return same_time(a, b); }),
              times.end());

  out.initial = src.value(0.0);
  double prev_t = times.empty() ? 0.0 : times.front();
  double prev_v = out.initial;
  for (std::size_t i = 1; i < times.size(); ++i) {
    const double t = times[i];
    const double v = src.value(t);
    if (!same_level(v, prev_v)) {
      const double dir = v - prev_v;
      // Extend the previous transition while still moving the same way and
      // contiguous in breakpoint time.
      if (!out.transitions.empty()) {
        Transition& last = out.transitions.back();
        const double last_dir = last.v1 - last.v0;
        if (same_time(last.t1, prev_t) && last_dir * dir > 0.0) {
          last.t1 = t;
          last.v1 = v;
          prev_t = t;
          prev_v = v;
          continue;
        }
      }
      out.transitions.push_back({prev_t, t, prev_v, v});
    }
    prev_t = t;
    prev_v = v;
  }
}

}  // namespace

Timeline extract_timeline(const spice::ParsedNetlist& netlist) {
  Timeline tl;
  tl.origin = "netlist";
  if (const auto& tran = netlist.tran_card()) tl.t_stop = tran->t_stop;

  const spice::Circuit& ckt = netlist.circuit();
  double last_event = 0.0;
  for (const auto& dev : ckt.devices()) {
    const auto* src = spice::device_cast<spice::VSource>(dev.get());
    if (src == nullptr) {
      if (spice::device_cast<spice::MTJElement>(dev.get()) != nullptr) {
        tl.has_mtj = true;
      } else if (spice::device_cast<spice::FinFETElement>(dev.get()) !=
                 nullptr) {
        tl.has_fet = true;
      }
      continue;
    }
    SignalTimeline sig;
    sig.name = src->name();
    sig.line = netlist.device_line(src->name());
    // Positive terminal names the driven line.
    const auto terms = src->terminals();
    const std::string node_name =
        terms.empty() ? "" : ckt.node_name(terms.front().node);
    const std::string* annotated = netlist.role_annotation(src->name());
    if (annotated != nullptr) {
      sig.role = role_from_string(*annotated).value_or(SignalRole::kOther);
    } else {
      sig.role = classify_role(src->name(), node_name);
    }
    build_transitions(*src, tl.t_stop, sig);
    if (!sig.transitions.empty()) {
      last_event = std::max(last_event, sig.transitions.back().t1);
    }
    tl.signals.push_back(std::move(sig));
  }
  if (tl.t_stop <= 0.0) tl.t_stop = last_event;
  return tl;
}

}  // namespace nvsram::lint::temporal
