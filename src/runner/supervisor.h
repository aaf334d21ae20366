// Process-isolated sweep execution: a supervisor that forks N worker
// subprocesses, hands out points over the runner/ipc.h frame protocol, and
// contains every worker failure class so one pathological point can never
// take the sweep down:
//
//   failure class                  containment
//   -----------------------------  -------------------------------------
//   nonzero exit / fatal signal    record the in-flight point with the
//   (SIGSEGV, SIGABRT, ...)        worker's last breadcrumb, respawn the
//                                  worker with exponential backoff +
//                                  deterministic jitter, retry the point
//   silent past the hang deadline  SIGKILL + respawn (a wedged solve that
//   (missed heartbeats)            ignores the cooperative watchdog)
//   allocation blow-up             RLIMIT_AS turns it into a recorded
//                                  bad_alloc failure or a contained death
//   point kills its worker twice   quarantined as `poison` in the failure
//                                  manifest; the sweep continues
//
// The supervisor is single-threaded (fork safety) and feeds the same
// Committer as the in-process pool, strictly in point order, so CSV,
// checkpoint, and failure manifest stay byte-identical to an in-process
// run at any worker count.
#pragma once

#include <cstddef>
#include <string>

#include "runner/committer.h"
#include "runner/sweep_runner.h"

namespace nvsram::runner::supervisor {

// True when this platform supports fork + pipes; when false, SweepRunner
// falls back cleanly to the in-process pool.
bool available();

// Runs the sweep's fresh points on up to `n_workers` supervised worker
// subprocesses; resumed points are replayed through the committer in
// order, interleaved exactly as the in-process paths do.  Sets `stopped`
// when the committer stopped the sweep (stop drill or harness error).
// Throws RunnerError for unrecoverable harness faults (e.g. fork failing
// persistently with work still pending).
void run(const std::string& name, const RunnerOptions& options,
         std::size_t n_points, const SweepRunner::PointFn& fn,
         std::size_t n_workers, Committer& committer, RunSummary& summary,
         bool& stopped);

}  // namespace nvsram::runner::supervisor
