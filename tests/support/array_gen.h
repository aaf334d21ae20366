// Synthetic NV-SRAM array netlist generator for the array-scale lint tests
// (tests/test_lint.cpp, LintArrays.*) and the repository benchmark's
// lint_decks workload (bench/perf).
//
// Emits an N×M array of the paper's full NV-SRAM cell (netlists/
// nvsram_cell_full.cir) as a single `.subckt nvcell` definition instantiated
// rows×cols times: one shared power-switch + PS rail (vvdd), shared
// store/restore control (sr, ctrl), one wordline strap per row and one
// bit-line/bit-line-bar pair per column.  The schedule (write, store, power
// off, restore) is the single-cell deck's verbatim, so the generated array
// lints clean at every size.
//
// `defect` injects a definition-local fault replicated into every instance,
// for exact-findings and diagnostic-deduplication tests.
#pragma once

#include <string>

namespace nvsram::testsupport {

enum class ArrayDefect {
  kNone,           // clean array
  kFloatNode,      // dangling capacitor node inside the cell: float-node +
                   // no-dc-path once per instance
  kUnusedPort,     // extra .subckt port never referenced by the body:
                   // subckt-unused-port once per definition
  kBadValue,       // leak diode with negative saturation current inside the
                   // cell: nonphysical-value once per instance, structure
                   // intact
};

// SPICE deck text for a rows×cols NV-SRAM array (rows, cols >= 1).
std::string make_nvsram_array_netlist(int rows, int cols,
                                      ArrayDefect defect = ArrayDefect::kNone);

}  // namespace nvsram::testsupport
