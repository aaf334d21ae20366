// Event-timeline model of a stimulus schedule, extracted statically.
//
// A Timeline is a piecewise-linear view of every independent driver in a
// simulation — built either from the parsed netlist's PWL/PULSE/DC sources
// or from a CellTestbench's scheduled tracks — plus the phase windows of the
// schedule when they are known.  The schedule model (lint/schedule.h) and
// the protocol checker (protocol.h) consume it; no transient solve is ever
// involved.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "lint/temporal/role.h"

namespace nvsram::spice {
class ParsedNetlist;
}  // namespace nvsram::spice

namespace nvsram::lint::temporal {

// A half-open interval of simulated time.
struct Window {
  double t0 = 0.0;
  double t1 = 0.0;
  double duration() const { return t1 - t0; }
};

// One monotone level change: the signal moves linearly from v0 at t0 to v1
// at t1.  Transitions are time-ordered and non-overlapping; between them the
// signal holds the previous v1.
struct Transition {
  double t0 = 0.0;
  double t1 = 0.0;
  double v0 = 0.0;
  double v1 = 0.0;
};

class SignalTimeline {
 public:
  std::string name;                 // driving source ("Vpg") or track name
  SignalRole role = SignalRole::kOther;
  int line = -1;                    // netlist source line, -1 for testbench
  double initial = 0.0;             // level before the first transition
  std::vector<Transition> transitions;

  // Piecewise-linear level at time t.
  double level_at(double t) const;
  double max_level() const;
  double min_level() const;

  // Maximal windows over [0, t_stop] where the level is >= / < `threshold`.
  // Crossing times are interpolated inside transitions.
  std::vector<Window> windows_above(double threshold, double t_stop) const;
  std::vector<Window> windows_below(double threshold, double t_stop) const;
};

struct PhaseSpan {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
};

struct Timeline {
  double t_stop = 0.0;      // schedule horizon (0 => no transient scheduled)
  bool has_mtj = false;     // retention devices present (gates NV rules)
  bool has_fet = false;     // FinFETs present (gates process-range rules)
  std::string origin;       // "netlist" or "testbench:6t"/"testbench:nvsram"
  std::vector<SignalTimeline> signals;
  std::vector<PhaseSpan> phases;  // testbench schedules only

  // First signal carrying `role`, nullptr when absent.
  const SignalTimeline* find_role(SignalRole role) const;
  std::vector<const SignalTimeline*> with_role(SignalRole role) const;

  // The nominal rail: the highest level of the power-role signals, 0.9 V
  // when there are none.
  double nominal_rail() const;

  // Name of the phase covering time t ("" when none / unknown).
  std::string phase_at(double t) const;

  // Deterministic human-readable rendering (times in ns, 3 decimals) used by
  // the golden-timeline tests and `nvlint --bench` verbose output.
  std::string describe() const;
};

// Builds the timeline of a parsed netlist: one SignalTimeline per
// independent voltage source, classified via `.role` annotations first and
// name heuristics second.  t_stop comes from the .tran card (0 when the
// netlist only runs DC/AC analyses — protocol checks are skipped then).
Timeline extract_timeline(const spice::ParsedNetlist& netlist);

}  // namespace nvsram::lint::temporal
