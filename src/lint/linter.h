// Lint entry points.
//
// lint_circuit() runs the structural rules on a bare Circuit (programmatic
// construction; no line numbers, no card context).  lint_netlist() runs the
// full rule set on a ParsedNetlist: circuit rules plus card/probe resolution
// and parser-recorded diagnostics, with source line attribution.
//
// ParsedNetlist::run_* call lint_netlist() by default and throw
// lint::LintError when any error-severity diagnostic is present, so bad
// inputs are rejected before the first Newton iteration instead of
// surfacing as a late `singular` flag or silently wrong energies.
#pragma once

#include <string>
#include <unordered_set>

#include "lint/report.h"
#include "lint/rules.h"

namespace nvsram::spice {
class Circuit;
class ParsedNetlist;
}  // namespace nvsram::spice

namespace nvsram::lint {

// Pass-group selection for lint_netlist_passes().  lint_circuit() and
// lint_netlist() run every group; the repository benchmark (bench/perf) runs
// the structural group and the rest as two calls to time lint layer by layer.
struct LintPasses {
  // float-node / no-dc-path / vsource-* / self-connected / structural-* /
  // nonphysical-value / sram-* (needs the CircuitGraph).
  bool structural = true;
  bool cards = true;     // card-unresolved
  bool probes = true;    // probe-unresolved
  bool temporal = true;  // protocol-* / units-* / power-* / data-*
  bool parse = true;     // parser-recorded diagnostics (subckt-unused-port, ...)

  // Names a separate structural call already reported floating; seeds the
  // dedupe set the power pass consumes when `structural` is false (the
  // structural group fills it when it runs in the same call).
  std::unordered_set<std::string> preset_floating;
};

LintReport lint_circuit(const spice::Circuit& circuit,
                        const LintOptions& options = {});

LintReport lint_netlist(const spice::ParsedNetlist& netlist,
                        const LintOptions& options = {});

// Runs only the selected pass groups over the parsed netlist.  With the
// structural group disabled the flat CircuitGraph is never built, so the
// call costs O(devices) dispatch plus the temporal passes.
LintReport lint_netlist_passes(const spice::ParsedNetlist& netlist,
                               const LintOptions& options,
                               LintPasses passes);

// Forwards to lint_netlist().  Kept only because the frozen benchmark probe
// bench/perf/lint_decks.cpp calls it; it goes with the next benchmark change.
LintReport lint_netlist_hier(const spice::ParsedNetlist& netlist,
                             const LintOptions& options = {});

}  // namespace nvsram::lint
