#include "lint/temporal/units_check.h"

#include <cmath>
#include <sstream>
#include <string>

#include "lint/rules.h"
#include "lint/temporal/timeline.h"
#include "models/mtj.h"
#include "models/paper_params.h"
#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"
#include "util/units.h"

namespace nvsram::lint::temporal {

namespace {

// Plausibility ranges for this technology (14 nm FinFET + 20 nm MTJ).
constexpr double kMaxBias = 1.5;          // V: beyond gate-oxide survival
constexpr double kJcMin = 1e9;            // A/m^2
constexpr double kJcMax = 1e12;           // A/m^2
constexpr double kIcMin = 1e-7;           // A: 100 nA
constexpr double kIcMax = 1e-2;           // A: 10 mA
constexpr double kMaxHorizon = 10e-3;     // s: schedules run ns..ms

Diagnostic make(const char* rule, std::string message, std::string device,
                int line) {
  Diagnostic d;
  d.rule = rule;
  d.severity = default_severity(rule);
  d.message = std::move(message);
  d.device = std::move(device);
  d.line = line;
  return d;
}

// Checks one MTJ parameter set; `where` and `line` attribute the finding to
// a netlist device or to the PaperParams bundle.
void check_mtj_params(const models::MTJParams& mtj, const std::string& where,
                      int line, std::vector<Diagnostic>& out) {
  if (mtj.jc < kJcMin || mtj.jc > kJcMax) {
    std::ostringstream msg;
    msg << where << ": critical current density jc=" << util::sci_format(mtj.jc)
        << " A/m^2 is outside [" << util::sci_format(kJcMin, 0) << ", "
        << util::sci_format(kJcMax, 0) << "]";
    if (mtj.jc >= 1e5 && mtj.jc < kJcMin) {
      msg << "; the value looks like A/cm^2 — multiply by 1e4 (the paper's "
          << "5e6 A/cm^2 is 5e10 A/m^2)";
    }
    out.push_back(make(rules::kUnitsCurrentDensity, msg.str(), where, line));
  }

  // Recompute Ic with explicit dimensions: [A/m^2] * [m^2] must close to [A]
  // and land in the range a 20 nm-class junction can carry.
  const util::Quantity jc{mtj.jc, util::dims::kCurrentDensity};
  const util::Quantity area{mtj.area(), util::dims::kArea};
  const util::Quantity ic = jc * area;
  if (ic.dim != util::dims::kAmpere) {
    out.push_back(make(rules::kUnitsDimension,
                       where + ": Ic = jc * area has dimension [" +
                           util::to_string(ic.dim) + "], expected [A]",
                       where, line));
  } else if (ic.value < kIcMin || ic.value > kIcMax) {
    std::ostringstream msg;
    msg << where << ": derived critical current Ic = jc * area = "
        << util::to_string(ic, "A") << " is outside ["
        << util::si_format(kIcMin, "A", 0) << ", "
        << util::si_format(kIcMax, "A", 0)
        << "]: some upstream parameter was entered in the wrong units";
    out.push_back(make(rules::kUnitsDimension, msg.str(), where, line));
  }

  if (mtj.tau0 > 0.0 && (mtj.tau0 < 1e-12 || mtj.tau0 > 1e-6)) {
    out.push_back(make(rules::kUnitsTimeScale,
                       where + ": MTJ tau0 = " +
                           util::si_format(mtj.tau0, "s") +
                           " is outside the ps..us switching-dynamics range "
                           "(wrong SI prefix?)",
                       where, line));
  }
}

}  // namespace

std::vector<Diagnostic> check_timeline_units(const Timeline& tl) {
  std::vector<Diagnostic> out;
  // The bias bound is a property of the 14 nm process; generic RLC circuits
  // (no FETs, no MTJs) may legitimately run at any voltage.
  const bool process_bound = tl.has_fet || tl.has_mtj;
  for (const SignalTimeline& s : tl.signals) {
    if (!process_bound) break;
    const double hi = std::max(std::fabs(s.max_level()),
                               std::fabs(s.min_level()));
    if (hi > kMaxBias) {
      std::ostringstream msg;
      msg << "driver '" << s.name << "' reaches " << util::si_format(hi, "V")
          << ", beyond the " << util::si_format(kMaxBias, "V", 1)
          << " survivable gate bias of the 14 nm process (value in mV "
          << "entered as V?)";
      Diagnostic d = make(rules::kUnitsVoltageRange, msg.str(), s.name,
                          s.line);
      d.phase = tl.phase_at(0.0);
      out.push_back(std::move(d));
    }
  }
  if (tl.t_stop > kMaxHorizon) {
    std::ostringstream msg;
    msg << "schedule horizon " << util::si_format(tl.t_stop, "s")
        << " exceeds " << util::si_format(kMaxHorizon, "s", 0)
        << ": time values likely entered without their SI prefix";
    out.push_back(make(rules::kUnitsTimeScale, msg.str(), "", -1));
  }
  return out;
}

std::vector<Diagnostic> check_netlist_units(const spice::ParsedNetlist& nl,
                                            const Timeline& timeline) {
  std::vector<Diagnostic> out = check_timeline_units(timeline);
  for (const auto& dev : nl.circuit().devices()) {
    const auto* mtj = spice::device_cast<spice::MTJElement>(dev.get());
    if (mtj == nullptr) continue;
    check_mtj_params(mtj->model().params(), mtj->name(),
                     nl.device_line(mtj->name()), out);
  }
  return out;
}

std::vector<Diagnostic> check_paper_params(const models::PaperParams& pp) {
  std::vector<Diagnostic> out;

  const struct {
    const char* name;
    double value;
  } biases[] = {
      {"vdd", pp.vdd},
      {"vsr", pp.vsr},
      {"vctrl_store", pp.vctrl_store},
      {"vctrl_normal", pp.vctrl_normal},
      {"vctrl_sleep", pp.vctrl_sleep},
      {"vvdd_sleep", pp.vvdd_sleep},
      {"vvdd_retention_floor", pp.vvdd_retention_floor},
      {"vpg_supercutoff", pp.vpg_supercutoff},
  };
  for (const auto& b : biases) {
    if (b.value < 0.0 || b.value > kMaxBias) {
      std::ostringstream msg;
      msg << "PaperParams." << b.name << " = " << util::si_format(b.value, "V")
          << " is outside the [0, " << util::si_format(kMaxBias, "V", 1)
          << "] process range (value in mV entered as V, or vice versa?)";
      out.push_back(make(rules::kUnitsVoltageRange, msg.str(), b.name, -1));
    }
  }
  if (pp.vvdd_sleep > pp.vdd) {
    out.push_back(make(rules::kUnitsVoltageRange,
                       "PaperParams.vvdd_sleep = " +
                           util::si_format(pp.vvdd_sleep, "V") +
                           " exceeds vdd = " + util::si_format(pp.vdd, "V") +
                           ": a sleep rail above the supply is meaningless",
                       "vvdd_sleep", -1));
  }

  const struct {
    const char* name;
    double value;
  } times[] = {
      {"store_pulse", pp.store_pulse},
      {"clock_period", pp.clock_period()},
  };
  for (const auto& t : times) {
    if (t.value < 1e-12 || t.value > 1e-3) {
      std::ostringstream msg;
      msg << "PaperParams." << t.name << " = " << util::si_format(t.value, "s")
          << " is outside the ps..ms range plausible for this technology "
          << "(wrong SI prefix?)";
      out.push_back(make(rules::kUnitsTimeScale, msg.str(), t.name, -1));
    }
  }

  check_mtj_params(pp.mtj, "PaperParams.mtj", -1, out);

  // Close the store-energy algebra symbolically:
  //   E = (factor * Ic) * VDD * t_pulse  must come out in joules.
  const util::Quantity ic{pp.mtj.jc * pp.mtj.area(), util::dims::kAmpere};
  const util::Quantity factor{pp.store_current_factor, util::dims::kScalar};
  const util::Quantity vdd{pp.vdd, util::dims::kVolt};
  const util::Quantity pulse{pp.store_pulse, util::dims::kSecond};
  const util::Quantity energy = factor * ic * vdd * pulse;
  if (energy.dim != util::dims::kJoule) {
    out.push_back(make(rules::kUnitsDimension,
                       "store energy factor*Ic*VDD*t has dimension [" +
                           util::to_string(energy.dim) +
                           "], expected [J]: unit algebra does not close",
                       "store_energy", -1));
  }
  return out;
}

}  // namespace nvsram::lint::temporal
