// Per-architecture benchmark schedules (the stimulus side of Fig. 5).
//
// Builds a CellTestbench with one full benchmark cycle of the requested
// power-gating architecture scheduled: n_RW read/write repetitions followed
// by the architecture's long-idle strategy (NVPG store + shutdown + restore,
// NOF power-off around every access, OSR low-voltage sleep).  The result is
// *scheduled, not run* — callers either execute it (benches) or export its
// timeline for static protocol analysis (`nvlint --bench`, golden tests).
//
// Lives in sram (not core) so the lint CLI can build decks without linking
// the architecture-level energy model; the enum is therefore local.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "lint/dataflow/check.h"
#include "lint/diagnostic.h"
#include "lint/temporal/protocol.h"
#include "sram/testbench.h"

namespace nvsram::sram {

enum class BenchArch { kNVPG, kNOF, kOSR };

const char* to_string(BenchArch arch);
std::optional<BenchArch> bench_arch_from_string(const std::string& id);

struct ScheduleParams {
  int n_rw = 2;          // read/write repetitions before the long idle
  double t_sl = 100e-9;  // short sleep (OSR/NVPG) / short shutdown (NOF)
  double t_sd = 1e-6;    // long shutdown (NVPG/NOF) / long sleep (OSR)
};

// Returns the scheduled testbench; nothing is solved.
std::unique_ptr<CellTestbench> build_benchmark_schedule(
    BenchArch arch, const models::PaperParams& pp, const ScheduleParams& sp,
    TestbenchOptions opts = {});

// The static passes over a scheduled testbench's exported timeline, in
// order: protocol, units, the testbench's PaperParams, power intent (the
// domain behind the header switch against the schedule's off windows) and
// retention dataflow.  The protocol, power and dataflow passes share one
// lint::Schedule, built with `topt`'s rail and access cycle.  Nothing is
// solved.  Callers filter the findings or gate on them: CellCharacterizer
// throws on errors, nvlint --bench reports.
std::vector<lint::Diagnostic> lint_schedule(
    const CellTestbench& tb, const lint::temporal::TemporalOptions& topt,
    const lint::dataflow::DataflowOptions& dopt);

}  // namespace nvsram::sram
