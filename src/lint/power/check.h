// The power-* rule family: power-intent checks over domains + power state.
//
//   power-wl-in-off-window    word line asserts while the domain holding the
//                             accessed storage nodes is gated off
//   power-sneak-path          a DC path conducts through an off domain
//                             between externally held nets (the leakage the
//                             gating was supposed to cut)
//   power-missing-isolation   an off-domain node drives the gate of a
//                             powered receiver with no isolation in between
//   power-domain-floating     a .domain-declared gated rail has no power
//                             switch on its supply path
//   power-shared-rail-conflict  one virtual rail fed by switches with
//                             different gating schedules
//
// All checks are static: the domain map comes from topology, the power state
// from abstract interpretation of the PS gate signals.  Diagnostics carry
// netlist lines (when a netlist is given) and the covering testbench phase —
// or the synthetic "power-off" phase for netlist-only timelines.
//
// Cost model, for a circuit of N nodes and D devices: one pass over the
// devices indexes the sources, the FETs and each held net's signal, and the
// word-line check then costs O(N + D) for all word lines together.  The
// sneak-path walk builds the DC conduction graph once, in O(N + D).  At
// each sample instant (at most 64 per gated domain) it re-filters the FET
// edges by gate level, in O(D), and runs one BFS per held net over scratch
// arrays reset by an epoch stamp.  A walk stops only at held nets, so an
// instant costs O(D) plus the sum of what each walk reaches.  That is O(D)
// only while a bounded number of held nets reach each gated domain, as on
// a clean schedule, where ground and a few other nets walk into the off
// domain.  When a word line asserts into an off domain, each bit line of
// that row reaches its cell through the open access FET and from there the
// whole domain, so the instant costs O(columns * D).  No loop over all
// nodes or all devices runs per word line or per held net.
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "lint/diagnostic.h"
#include "lint/temporal/timeline.h"

namespace nvsram::spice {
class Circuit;
class ParsedNetlist;
}  // namespace nvsram::spice

namespace nvsram::lint {
struct Schedule;
}  // namespace nvsram::lint

namespace nvsram::lint::power {

struct PowerCheckOptions {
  // Node names already reported by float-node / no-dc-path /
  // disconnected-block; power-domain-floating dedupes against these the way
  // the structural rules dedupe degree-0 nodes.
  std::unordered_set<std::string> already_reported_floating;
};

// Runs every power-* check.  `netlist` (nullable) supplies .domain
// annotations and line attribution; the timeline supplies the schedule
// (netlist sources or exported testbench tracks).  The domain map and the
// power state come from `schedule`, which must have been built over this
// timeline, circuit and netlist: the linter builds one and shares it with
// the protocol and dataflow passes.  Without it one is built here.
std::vector<Diagnostic> check_power(const spice::Circuit& circuit,
                                    const temporal::Timeline& timeline,
                                    const spice::ParsedNetlist* netlist,
                                    const PowerCheckOptions& options = {},
                                    const Schedule* schedule = nullptr);

}  // namespace nvsram::lint::power
