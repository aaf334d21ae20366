// Checkpointed, fault-tolerant sweep execution for the bench binaries.
//
// A sweep is an ordered list of points; each point produces zero or more
// CSV rows.  The runner adds the resilience the figure sweeps need at
// scale:
//   * skip-and-record: a point whose callback throws is retried
//     (max_attempts, with exponential backoff + deterministic jitter seeded
//     from the point index, and the attempt number exposed so callbacks can
//     relax tolerances) and on terminal failure recorded in a failure
//     manifest — the rest of the sweep still completes and the CSV holds
//     every successful point.
//   * wall-clock watchdog: the per-point budget is handed to the callback
//     (wire it into TranOptions::max_wall_seconds); a util::WatchdogError
//     is recorded as a timeout, not a crash.
//   * checkpoint/resume: after every committed point the checkpoint file is
//     atomically rewritten (with per-row CRCs — a corrupted tail rewinds to
//     the last valid prefix), so an interrupted or crashed sweep resumes
//     from the last committed point and reproduces byte-identical CSV
//     output.
//   * worker pool: independent points fan out over RunnerOptions::threads
//     workers while the calling thread drains completed results through an
//     in-order reorder buffer.  Because commits are strictly sequential in
//     point order, the CSV, the checkpoint, and the failure manifest are
//     byte-identical to a serial run at any pool size, and the kill/resume
//     drills keep working mid-parallel-run (see docs/ROBUSTNESS.md).
//   * process isolation (Isolation::kProcess): the pool members become
//     supervised worker subprocesses (runner/supervisor.h) talking over a
//     pipe-based frame protocol (runner/ipc.h).  A point that segfaults,
//     aborts, exhausts its RLIMIT_AS, or hard-hangs kills only its worker:
//     the supervisor records the worker's last breadcrumb, respawns it with
//     exponential backoff, retries the point once, and quarantines it as
//     `poison` if it kills a second worker — the sweep always completes.
//     Output stays byte-identical to the in-process pool at any worker
//     count (same single committer).  Falls back to the in-process pool on
//     platforms without fork().
//
// Fault/kill hooks (NVSRAM_SWEEP_FAULT / NVSRAM_SWEEP_KILL) let tests and
// CI drill the failure paths on real benches; see RunnerOptions::apply_env.
#pragma once

#include <cstddef>
#include <functional>
#include <stdexcept>
#include <string>
#include <vector>

#include "runner/checkpoint.h"

namespace nvsram::runner {

// Harness-level configuration error (unwritable output, malformed
// NVSRAM_SWEEP_* value, fault kind that needs process isolation, ...) —
// distinct from per-point failures, which never throw.
class RunnerError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// How sweep points execute: in-process worker threads, or supervised
// worker subprocesses with crash containment.
enum class Isolation { kNone, kProcess };
const char* to_string(Isolation isolation);

// What NVSRAM_SWEEP_FAULT / RunnerOptions::fault_point injects at the
// chosen point.  kThrow is containable in-process; the other three kill or
// wedge the executing worker and therefore require Isolation::kProcess
// (run() rejects them otherwise — an in-process segfault would take the
// whole sweep down, which is exactly what the drill must prove cannot
// happen in isolation mode).
enum class FaultKind {
  kThrow,  // throw std::runtime_error on every attempt ("K")
  kSegv,   // write through a null pointer ("segv@K")
  kOom,    // allocate until bad_alloc, then abort ("oom@K"; bound it with
           // worker_rlimit_mb so the drill hits the rlimit, not the host)
  kHang,   // sleep forever, ignoring the cooperative watchdog ("hang@K")
};
const char* to_string(FaultKind kind);

struct RunnerOptions {
  // Output CSV (written in point order; truncated and rebuilt on resume).
  std::string csv_path;
  std::vector<std::string> csv_columns;

  // Checkpointing; the default path is csv_path + ".ckpt".  The checkpoint
  // is deleted after a fully successful sweep and kept when any point
  // failed, so a rerun retries only the failed points.
  bool checkpoint = true;
  std::string checkpoint_path;

  // Per-point wall-clock budget in seconds (0 = no watchdog).  Exposed to
  // the callback via PointContext::timeout_sec.
  double point_timeout_sec = 0.0;

  // Attempts per point; attempts > 0 are retries (callbacks should relax
  // tolerances based on PointContext::attempt).  Timeouts are not retried.
  int max_attempts = 2;

  // Retry backoff: before retry attempt a (1-based) the worker waits
  //   min(retry_backoff_ms * 2^(a-1), retry_backoff_cap_ms) * (1 + j/2)
  // where j in [0,1) is deterministic jitter seeded from (point index,
  // attempt) — so the schedule, which is recorded per-attempt in the
  // failure manifest, is identical across reruns, thread counts, and
  // isolation modes.  0 disables backoff (immediate retry).
  double retry_backoff_ms = 25.0;
  double retry_backoff_cap_ms = 2000.0;

  // Worker-pool size: 0 = one worker per hardware thread, 1 = serial
  // in-process execution (or a single worker subprocess under
  // Isolation::kProcess), N > 1 = fixed pool of N workers.  The pool is
  // capped at the number of points that actually need computing.  The
  // callback must be safe to invoke concurrently from several threads when
  // threads != 1 (per-point circuits / analyses; no shared mutable state).
  int threads = 0;

  // Execution mode; see Isolation.  Under kProcess the callback runs in
  // forked children: per-point side effects on parent memory are invisible
  // to the committer (results travel back over the pipe), which the sweep
  // callbacks already guarantee for thread-safety.
  Isolation isolation = Isolation::kNone;

  // Process-isolation tuning (ignored under Isolation::kNone):
  //   * heartbeat_timeout_sec: a worker silent this long while holding an
  //     in-flight point is presumed hung and SIGKILLed.  0 derives the
  //     deadline from the cooperative watchdog budget (point_timeout_sec,
  //     the same number wired into TranOptions::max_wall_seconds) with
  //     generous margin; with neither set, hang containment is off.
  //   * worker_rlimit_mb: RLIMIT_AS for each worker in MiB (0 = inherit),
  //     so one point's allocation blow-up becomes a recorded bad_alloc
  //     failure — or at worst a contained worker death — not a host OOM.
  //     Incompatible with AddressSanitizer (shadow memory needs the
  //     address space); leave 0 under ASan.
  //   * respawn_backoff_ms / respawn_backoff_cap_ms: exponential backoff
  //     (plus deterministic jitter seeded from the worker slot and respawn
  //     count) between a worker's death and its replacement, so a
  //     crash-looping environment cannot melt into a fork storm.
  double heartbeat_timeout_sec = 0.0;
  double worker_rlimit_mb = 0.0;
  double respawn_backoff_ms = 50.0;
  double respawn_backoff_cap_ms = 2000.0;

  // Synthetic per-point busy-work in milliseconds (0 = none).  Lets CI and
  // tests measure the harness's parallel scaling on benches whose real
  // points are too cheap to time (NVSRAM_SWEEP_SPIN_MS).
  double point_spin_ms = 0.0;

  // ---- failure drills (tests / CI smoke) ----
  int fault_point = -1;       // this point index hits fault_kind on every attempt
  FaultKind fault_kind = FaultKind::kThrow;
  int kill_after_point = -1;  // _Exit(3) right after checkpointing this point
  int stop_after_point = -1;  // graceful in-process stop after this point

  // Merges NVSRAM_SWEEP_* environment overrides:
  //   NVSRAM_SWEEP_CHECKPOINT=0        disable checkpointing
  //   NVSRAM_SWEEP_FAULT=SPEC | name:SPEC   inject a failure; SPEC is K
  //                                    (throw) or segv@K / oom@K / hang@K
  //   NVSRAM_SWEEP_KILL=K | name:K     simulate a crash after point K
  //   NVSRAM_SWEEP_TIMEOUT=SECONDS     per-point watchdog budget
  //   NVSRAM_SWEEP_RETRIES=N           attempts per point
  //   NVSRAM_SWEEP_BACKOFF_MS=MS       retry backoff base (0 = immediate)
  //   NVSRAM_SWEEP_THREADS=N           worker-pool size (0 = auto, 1 = serial)
  //   NVSRAM_SWEEP_ISOLATION=none|process   execution mode
  //   NVSRAM_SWEEP_HEARTBEAT=SECONDS   hang-containment deadline override
  //   NVSRAM_SWEEP_RLIMIT_MB=MB        per-worker RLIMIT_AS
  //   NVSRAM_SWEEP_SPIN_MS=MS          synthetic per-point load (scaling drills)
  // "name:K" scopes the drill to the runner with that name.  A value that
  // does not parse, or parses outside its sane range, throws RunnerError
  // naming the offending variable — drills must never silently degrade to
  // a default.
  void apply_env(const std::string& runner_name);
};

struct PointContext {
  std::size_t index = 0;
  int attempt = 0;          // 0 on the first try; >0 => relax and retry
  int max_attempts = 1;     // total attempt budget for this point
  double timeout_sec = 0.0; // 0 = unlimited
  int worker = 0;           // worker slot executing this point (0 in serial)
};

enum class PointStatus {
  kOk,
  kRecovered,
  kResumed,
  kFailed,
  kTimeout,
  kPoisoned,  // killed its worker subprocess twice; quarantined
};
const char* to_string(PointStatus status);

struct PointOutcome {
  std::size_t index = 0;
  PointStatus status = PointStatus::kOk;
  int attempts = 1;
  double seconds = 0.0;
  // Scheduled backoff delay before each retry attempt, in ms (empty when
  // the point succeeded first try).  Deterministic — see retry_backoff_ms.
  std::vector<double> backoff_ms;
  std::string error;

  bool ok() const {
    return status == PointStatus::kOk || status == PointStatus::kRecovered ||
           status == PointStatus::kResumed;
  }
};

// One computed point in transit between a worker and the committer.
struct PointResult {
  PointOutcome outcome;
  Rows rows;
  bool succeeded = false;
};

struct RunSummary {
  std::string name;
  std::vector<PointOutcome> outcomes;  // one per point, in order
  std::vector<Rows> rows;              // CSV rows per point (empty if failed)
  std::string csv_path;
  std::string manifest_path;
  std::size_t completed = 0;
  std::size_t resumed = 0;
  std::size_t failed = 0;   // terminal failures, incl. timeouts + poisoned
  std::size_t timeouts = 0;
  std::size_t poisoned = 0; // points quarantined after killing two workers
  bool interrupted = false;  // stop_after_point fired
  int threads = 1;           // worker-pool size actually used
  bool process_isolated = false;  // workers were subprocesses
  int respawns = 0;          // worker subprocesses respawned after death
  double wall_seconds = 0.0; // wall-clock time of the whole sweep

  bool all_ok() const { return failed == 0 && !interrupted; }
  bool point_ok(std::size_t index) const {
    return index < outcomes.size() && outcomes[index].ok();
  }
  // One-line account for bench stdout.
  std::string describe() const;
};

class SweepRunner {
 public:
  // The callback computes one sweep point and returns its CSV rows (each
  // row csv_columns.size() wide).  Throw to report failure.  With
  // threads != 1 the callback runs concurrently on worker threads and must
  // only touch per-point state (results are still committed in order).
  using PointFn = std::function<Rows(const PointContext&)>;

  SweepRunner(std::string name, RunnerOptions options);

  const std::string& name() const { return name_; }
  const RunnerOptions& options() const { return options_; }

  // Runs points 0..n_points-1; results are committed (CSV, checkpoint,
  // manifest accounting) strictly in point order regardless of the pool
  // size or isolation mode.  Never throws for per-point failures (they are
  // recorded); throws RunnerError / std::runtime_error only for
  // harness-level problems (unwritable CSV/checkpoint, bad row widths,
  // fault kinds that need isolation).
  RunSummary run(std::size_t n_points, const PointFn& fn);

 private:
  std::string name_;
  RunnerOptions options_;
};

namespace detail {

// Scheduled delay before retry attempt `attempt` (1-based) of `point`:
// exponential in the attempt with deterministic jitter seeded from
// (point, attempt).  Pure function of its arguments — recorded delays are
// reproducible across modes and reruns.
double retry_backoff_ms(const RunnerOptions& options, std::size_t point,
                        int attempt);

// Scheduled delay before respawning worker `slot` for the `respawn`-th
// time (0-based): exponential with deterministic jitter from (slot,
// respawn).
double respawn_backoff_ms(const RunnerOptions& options, int slot, int respawn);

// Runs one point's attempt loop (fault injection, retries with backoff,
// watchdog mapping).  Safe to call from any worker thread or subprocess:
// everything it touches is per-point.  `sleep_ms` performs the backoff
// waits; the default sleeps the calling thread (workers substitute a
// heartbeat-emitting sleeper).
PointResult solve_point(const RunnerOptions& options, std::size_t index,
                        int worker, const SweepRunner::PointFn& fn,
                        const std::function<void(double)>& sleep_ms = {});

}  // namespace detail

}  // namespace nvsram::runner
