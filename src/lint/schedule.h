// One schedule model for the protocol, power and dataflow passes.
//
// The protocol-*, power-* and data-* rules all ask the same three questions
// of a stimulus schedule: when is the rail dark, which word-line accesses
// write new data, and what does each store-enable pulse do?  A Schedule
// answers them once, from the Timeline and, when a circuit is at hand, from
// its power-domain map and abstract power state (lint/power/state.h).  The
// three passes read it instead of deriving their own answers, so they cannot
// disagree about when the rail is dark or what counts as a write.
//
//   off        rail-off windows: the power-gate line asserted (high for a
//              PMOS header, low for an NMOS footer), the rail fully
//              collapsed, and every gated domain's off windows, each
//              widened to its transition edges, sorted and merged
//   accesses   every word-line assert, flagged write or read by the best
//              evidence the timeline carries: write drivers, then bitline
//              transitions within one clock period of the word-line rise,
//              then (no evidence) every access counts as a write
//   sr_pulses  every store-enable assert: a restore when it straddles a
//              rail recovery, a dead store when it lies inside an off
//              window, a store otherwise (cut when a gate-off edge lands
//              inside it)
#pragma once

#include <optional>
#include <vector>

#include "lint/power/domain.h"
#include "lint/power/state.h"
#include "lint/temporal/timeline.h"

namespace nvsram::spice {
class Circuit;
class ParsedNetlist;
}  // namespace nvsram::spice

namespace nvsram::lint {

// One assert window of a schedule signal.
struct Access {
  temporal::Window window;
  const temporal::SignalTimeline* signal = nullptr;
  bool write = false;  // drives new data into the cell
};

// A dip of the rail that stays above a full collapse: a sleep.
struct RailSag {
  temporal::Window window;
  double vmin = 0.0;  // lowest level inside the window
};

struct SrPulse {
  enum class Kind { kStore, kRestore, kDeadStore };
  temporal::Window window;
  const temporal::SignalTimeline* signal = nullptr;
  Kind kind = Kind::kStore;
  // A store begun with the rail up whose pulse a gate-off edge cuts: the
  // MTJ write current stops mid-pulse.
  bool cut_by_gate = false;
  // When a restore re-latches: the latest rail recovery inside the pulse
  // (the pulse's rise when that comes later).
  double recovery = 0.0;
};

struct Schedule {
  // `vdd` is the nominal rail the timeline-level heuristics compare
  // against; `clock_period` is how far before a word-line rise a bitline
  // transition still drives that access.  With `circuit`, the domain map
  // (power::extract_domains(*circuit, netlist)) and its power state are
  // derived here, and the gated domains' off windows join `off`.  The
  // Schedule points into the timeline and the circuit, which must outlive
  // it.
  Schedule(const temporal::Timeline& timeline, double vdd,
           double clock_period, const spice::Circuit* circuit = nullptr,
           const spice::ParsedNetlist* netlist = nullptr);

  std::optional<power::DomainMap> domains;  // set when built with a circuit
  power::PowerState power;                  // of `domains`
  std::vector<temporal::Window> off;        // sorted, disjoint
  std::vector<RailSag> sags;                // time order
  // Every word-line assert window, line by line in timeline order.
  std::vector<Access> accesses;
  // The writes: write-driver asserts when the timeline has write drivers,
  // else the accesses flagged write.
  std::vector<Access> writes;
  // Every store-enable assert window, signal by signal in timeline order.
  std::vector<SrPulse> sr_pulses;
};

}  // namespace nvsram::lint
