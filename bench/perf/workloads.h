// The benchmark's workloads; README.md gives the reason for each.
#pragma once

#include "harness.h"

namespace nvsram::linalg {
class SparsityPattern;
}  // namespace nvsram::linalg

namespace perf {

// One new technology point: both cells characterized cold, then the
// Fig. 7/8/9 series.  Closed loop, one thread.
Measured run_tech_point(const Options& opt, Tracer& tr);

// Monte-Carlo mismatch points fanned out over the sweep runner's pool.
Measured run_mc_sweep(const Options& opt, Tracer& tr);

// A 2x16 NV-SRAM array store / shutdown / restore transient (sparse LU).
// Closed loop, one thread.
Measured run_array_tran(const Options& opt, Tracer& tr);

// nvlint's default path over generated 768-cell array decks.  Closed loop,
// one thread.
Measured run_lint_decks(const Options& opt, Tracer& tr);

// Probe spans for linalg::maximum_matching and, when the matching is
// perfect, min_degree_order over a structural report's pattern.
void probe_linalg(const nvsram::linalg::SparsityPattern& pattern, long item,
                  Tracer& tr);

}  // namespace perf
