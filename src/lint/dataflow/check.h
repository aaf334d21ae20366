// The data-* rule family: retention-state dataflow over a schedule.
//
//   data-lost-in-off-window   a gate-off destroys latch data newer than the
//                             MTJ contents (no completed store covers the
//                             last write)
//   data-stale-restore        a restore re-latches an MTJ generation older
//                             than what the cell held at gate-off
//   data-read-before-restore  a read while the latch state is LOST (powered
//                             up again, but nothing re-latched the MTJs)
//   data-redundant-store      a store writes a generation the MTJs already
//                             hold (energy advisory, quantified from the
//                             characterization cache when available)
//   data-store-truncated      a store pulse shorter than the MTJ switching
//                             time (the NV generation does not advance)
//
// The pass is abstract interpretation over the schedule's events (writes,
// reads, stores, restores and the off windows' edges, lint/schedule.h) with
// the per-cell lattice of lattice.h: no transient is ever solved, so a
// violation is a *proof* that the schedule loses (or wastes) data for every
// device sizing.  Applies only to timelines that carry MTJ retention
// devices — a volatile-only deck has no nonvolatile contract to break.
#pragma once

#include <vector>

#include "lint/diagnostic.h"
#include "lint/temporal/timeline.h"

namespace nvsram::models {
struct PaperParams;
struct MTJParams;
}  // namespace nvsram::models

namespace nvsram::spice {
class Circuit;
class ParsedNetlist;
}  // namespace nvsram::spice

namespace nvsram::lint {
struct Schedule;
}  // namespace nvsram::lint

namespace nvsram::lint::dataflow {

struct DataflowOptions {
  double vdd = 0.9;               // nominal rail of the schedule built here
  // Minimum pulse that completes the CIMS switch at the configured store
  // overdrive: tau0 / (store_current_factor - 1), see models/mtj.h.
  double mtj_write_pulse = 6e-9;
  // Access-cycle budget: how far before a word-line rise a bitline
  // transition still counts as driving that access, in the schedule built
  // here.
  double clock_period = 1.0 / 300e6;
  // Energy of one completed store at the current parameter point (J);
  // 0 = unknown.  Fills the data-redundant-store advisory.  Callers peek
  // the characterization cache for it — never compute it here, or the
  // lint gate inside characterize() would recurse.
  double store_energy_hint = 0.0;

  static DataflowOptions from_paper(const models::PaperParams& pp);

  // CIMS switching time tau0 / (factor - 1) for a concrete MTJ parameter
  // set; falls back to `fallback` when the overdrive never switches.  The
  // protocol checker's TemporalOptions::from_paper reads it too.
  static double required_store_pulse(const models::MTJParams& mtj,
                                     double store_current_factor,
                                     double fallback);
};

// Runs the dataflow pass over `schedule`, which must have been built over
// this timeline; the linter shares the one the protocol and power passes
// read.  Without it one is built here from the timeline, `options.vdd`,
// `options.clock_period` and, when `circuit` is given, its power-domain off
// windows (`netlist`, nullable, supplies .role/.domain annotations).
// Diagnostics carry the driving signal (device), its netlist line when
// known, and the covering phase — real testbench phases, or synthesized
// ones ("power-off", "store", "restore", "active") for netlist timelines.
std::vector<Diagnostic> check_dataflow(
    const temporal::Timeline& timeline, const DataflowOptions& options,
    const spice::Circuit* circuit = nullptr,
    const spice::ParsedNetlist* netlist = nullptr,
    const Schedule* schedule = nullptr);

}  // namespace nvsram::lint::dataflow
