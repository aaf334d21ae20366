// Protocol state-machine checks over a Timeline.
//
// The paper's benchmark (Fig. 5) only means something when the stimulus
// schedule respects the architecture's power-gating protocol:
//
//   NVPG  read/write -> store -> gate off -> ... -> power up -> restore ->
//         first access.  The store must complete (every step at least the
//         MTJ write-pulse width at the configured overdrive) before the
//         gate-off edge; the restore pulse must still be asserted when the
//         virtual rail recovers; no word-line access may precede a
//         completed restore after power-up.
//   NOF   the store is embedded in every access cycle: each gate-off must
//         be preceded by a store since the previous power-up, and the clock
//         period must accommodate the store pulse.
//   OSR   sleep keeps the (virtual) rail above the bistable retention
//         floor; there is nothing nonvolatile to store.
//
// Violations surface as `protocol-*` lint diagnostics with netlist line or
// testbench phase attribution — before any transient solve runs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lint/diagnostic.h"
#include "lint/temporal/timeline.h"

namespace nvsram::models {
struct PaperParams;
}  // namespace nvsram::models

namespace nvsram::lint {
struct Schedule;
}  // namespace nvsram::lint

namespace nvsram::lint::temporal {

struct TemporalOptions {
  enum class Arch { kAuto, kNVPG, kNOF, kOSR };
  // kAuto infers which checks apply from the roles present in the timeline
  // (netlists); testbench exports pass the architecture explicitly.
  Arch arch = Arch::kAuto;

  double vdd = 0.9;                 // nominal rail
  // Minimum pulse width that completes a CIMS write at the configured store
  // overdrive: DataflowOptions::required_store_pulse.
  double mtj_write_pulse = 6e-9;
  double store_pulse = 10e-9;       // configured store step width
  // Access-cycle budget.  For arch kNOF this is the *effective* (stretched)
  // NOF cycle — the paper embeds the store by lengthening the cycle, so NOF
  // callers must pass clock + store here; protocol-clock-store fires when
  // even the stretched budget cannot fit the store pulse.
  double clock_period = 1.0 / 300e6;
  double retention_floor = 0.45;    // min rail that still holds the 6T core
  // A power-off window shorter than this cannot even complete the rail
  // collapse + recovery ramps (advisory).
  double min_shutdown = 2e-9;

  static TemporalOptions from_paper(const models::PaperParams& pp);
};

// Runs every protocol-* check that applies to this timeline.  Diagnostics
// carry the offending signal name (device), the time window in the message,
// the netlist line when known, and the covering phase name when the
// timeline came from a testbench schedule.  The off windows, accesses and
// SR pulses come from `schedule`, which must have been built over this
// timeline with `options.vdd` and `options.clock_period`; without it one is
// built here from the timeline alone.
std::vector<Diagnostic> check_timeline(const Timeline& timeline,
                                       const TemporalOptions& options,
                                       const Schedule* schedule = nullptr);

// Parses a `.arch` card value ("nvpg" / "nof" / "osr", case-insensitive)
// into the explicit architecture; nullopt for anything else.  kAuto is not
// spellable — omitting the card means auto-inference.
std::optional<TemporalOptions::Arch> arch_from_string(const std::string& s);

}  // namespace nvsram::lint::temporal
