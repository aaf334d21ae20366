// Classified driver events for the retention dataflow pass.
//
// Reduces a Timeline (netlist sources or exported testbench tracks) plus the
// power-intent off windows to a totally ordered stream of data-relevant
// events: writes, reads, store pulses, gate-off / power-up edges, and
// restore pulses.  The classification mirrors the protocol checker's
// evidence rules (write drivers first, bitline-near-wordline second,
// wordline fallback last) so the two passes never disagree about what an
// access is; the off windows come from lint/power/state when a circuit is
// available, unioned with the timeline-level rail/gate heuristics.
#pragma once

#include <vector>

#include "lint/temporal/timeline.h"

namespace nvsram::spice {
class Circuit;
class ParsedNetlist;
}  // namespace nvsram::spice

namespace nvsram::lint::power {
struct DomainMap;
}  // namespace nvsram::lint::power

namespace nvsram::lint::dataflow {

struct Event {
  enum class Kind {
    kWrite,    // new data latched into the cell
    kRead,     // word-line access that drives no new data
    kStore,    // powered SR pulse targeting the MTJs
    kGateOff,  // rail collapse begins (off-window start)
    kPowerUp,  // rail recovery completes (off-window end)
    kRestore,  // SR pulse straddling a rail recovery
  };
  Kind kind = Kind::kWrite;
  double t = 0.0;                 // event time (sort key)
  temporal::Window window;        // full extent for store/restore/off events
  // Store pulses cut by a gate-off edge never complete; the interpreter
  // skips the NV update without re-reporting (protocol-store-gate-overlap
  // owns the malformed pulse itself).
  bool cut_by_gate = false;
  // Attribution: the driving signal, nullptr for synthesized edges.
  const temporal::SignalTimeline* signal = nullptr;
};

// Rail-collapse windows of the schedule.  When `circuit` is given, each
// gated domain's off windows (abstract interpretation of its PS gate
// signals, lint/power/state) are unioned in, over `domains` when the caller
// already extracted them (power::extract_domains(*circuit, netlist)) and
// over a fresh extraction otherwise; the timeline-level heuristics
// (power-gate asserts, full rail collapses) always contribute, so
// ideal-source decks without a modeled power switch are still covered.
std::vector<temporal::Window> collect_off_windows(
    const temporal::Timeline& timeline, const spice::Circuit* circuit,
    const spice::ParsedNetlist* netlist, double vdd,
    const power::DomainMap* domains);

// Classifies every data-relevant event of the timeline against the given
// off windows, returned in event order (ties broken so that writes and
// stores precede the gate-off edge they abut, and restores precede reads).
std::vector<Event> extract_events(
    const temporal::Timeline& timeline,
    const std::vector<temporal::Window>& off_windows, double clock_period);

}  // namespace nvsram::lint::dataflow
