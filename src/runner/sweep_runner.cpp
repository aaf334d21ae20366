#include "runner/sweep_runner.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "runner/committer.h"
#include "runner/supervisor.h"
#include "util/breadcrumb.h"
#include "util/log.h"
#include "util/watchdog.h"

namespace nvsram::runner {

namespace {

// ---- strict NVSRAM_SWEEP_* parsing ----
// Every drill variable either parses cleanly inside its sane range or the
// run aborts with a RunnerError naming the variable: a typo in a CI drill
// must never silently degrade into "no drill".

long long parse_env_int(const char* var, const std::string& text,
                        long long lo, long long hi) {
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(text.c_str(), &end, 10);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    throw RunnerError(std::string(var) + ": expected an integer, got '" +
                      text + "'");
  }
  if (v < lo || v > hi) {
    throw RunnerError(std::string(var) + ": value " + text +
                      " outside [" + std::to_string(lo) + ", " +
                      std::to_string(hi) + "]");
  }
  return v;
}

double parse_env_double(const char* var, const std::string& text, double lo,
                        double hi) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end == text.c_str() || *end != '\0') {
    throw RunnerError(std::string(var) + ": expected a number, got '" + text +
                      "'");
  }
  if (!(v >= lo && v <= hi)) {
    throw RunnerError(std::string(var) + ": value " + text + " outside [" +
                      std::to_string(lo) + ", " + std::to_string(hi) + "]");
  }
  return v;
}

// Splits an optional "name:" scope off a drill spec.  Returns false when
// the spec is scoped to a different runner (i.e. should be ignored).
bool unscope(const std::string& runner_name, std::string& text) {
  const std::size_t colon = text.find(':');
  if (colon == std::string::npos) return true;
  if (text.substr(0, colon) != runner_name) return false;
  text = text.substr(colon + 1);
  return true;
}

// Parses a fault spec: "K" (throw) or "segv@K" / "oom@K" / "hang@K" /
// "throw@K".
void parse_fault_spec(const char* var, const std::string& spec,
                      FaultKind& kind, int& point) {
  std::string kind_text = "throw";
  std::string index_text = spec;
  const std::size_t at = spec.find('@');
  if (at != std::string::npos) {
    kind_text = spec.substr(0, at);
    index_text = spec.substr(at + 1);
  }
  if (kind_text == "throw") {
    kind = FaultKind::kThrow;
  } else if (kind_text == "segv") {
    kind = FaultKind::kSegv;
  } else if (kind_text == "oom") {
    kind = FaultKind::kOom;
  } else if (kind_text == "hang") {
    kind = FaultKind::kHang;
  } else {
    throw RunnerError(std::string(var) + ": unknown fault kind '" + kind_text +
                      "' (expected throw, segv, oom, or hang)");
  }
  point = static_cast<int>(parse_env_int(var, index_text, 0, 1 << 28));
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

// Busy-wait keeping the core occupied, so scaling drills measure genuine
// CPU-bound parallelism rather than sleep overlap.
void spin_for_ms(double ms) {
  const auto t0 = std::chrono::steady_clock::now();
  while (seconds_since(t0) * 1e3 < ms) {
  }
}

// SplitMix64: cheap, well-mixed hash for deterministic backoff jitter.
std::uint64_t mix64(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

// Jitter in [0, 1), a pure function of the seed pair.
double jitter01(std::uint64_t a, std::uint64_t b) {
  return static_cast<double>(mix64(a * 0x100000001B3ull ^ mix64(b)) >> 11) /
         static_cast<double>(1ull << 53);
}

double backoff_schedule(double base_ms, double cap_ms, int step, double jitter) {
  if (base_ms <= 0.0) return 0.0;
  double delay = base_ms;
  for (int i = 0; i < step && delay < cap_ms; ++i) delay *= 2.0;
  if (delay > cap_ms) delay = cap_ms;
  return delay * (1.0 + 0.5 * jitter);
}

// ---- deterministic fault injection (see FaultKind) ----

[[noreturn]] void inject_segv() {
  util::breadcrumb::set_phase("injected-segv");
  volatile int* null_ptr = nullptr;
  *null_ptr = 42;                   // fatal: SIGSEGV (or an ASan report)
  std::abort();                     // unreachable; keeps [[noreturn]] honest
}

[[noreturn]] void inject_oom() {
  util::breadcrumb::set_phase("injected-oom");
  // Allocate-and-touch until the address-space limit bites, then die the
  // way a real noexcept-path allocation failure (or the kernel OOM killer)
  // would.  Run this only under Isolation::kProcess with worker_rlimit_mb
  // set, so the rlimit — not the host — bounds the blow-up.
  std::vector<std::unique_ptr<char[]>> hog;
  try {
    for (;;) {
      constexpr std::size_t kChunk = 16u << 20;
      hog.push_back(std::make_unique<char[]>(kChunk));
      std::memset(hog.back().get(), 0xA5, kChunk);
    }
  } catch (const std::bad_alloc&) {
    std::abort();
  }
}

[[noreturn]] void inject_hang() {
  util::breadcrumb::set_phase("injected-hang");
  // A wedged solve that never consults the cooperative watchdog: only the
  // supervisor's heartbeat deadline can end this.
  for (;;) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
}

}  // namespace

const char* to_string(PointStatus status) {
  switch (status) {
    case PointStatus::kOk: return "ok";
    case PointStatus::kRecovered: return "recovered";
    case PointStatus::kResumed: return "resumed";
    case PointStatus::kFailed: return "failed";
    case PointStatus::kTimeout: return "timeout";
    case PointStatus::kPoisoned: return "poison";
  }
  return "?";
}

const char* to_string(Isolation isolation) {
  switch (isolation) {
    case Isolation::kNone: return "none";
    case Isolation::kProcess: return "process";
  }
  return "?";
}

const char* to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kThrow: return "throw";
    case FaultKind::kSegv: return "segv";
    case FaultKind::kOom: return "oom";
    case FaultKind::kHang: return "hang";
  }
  return "?";
}

void RunnerOptions::apply_env(const std::string& runner_name) {
  if (const char* v = std::getenv("NVSRAM_SWEEP_CHECKPOINT")) {
    checkpoint = std::string(v) != "0";
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_TIMEOUT")) {
    point_timeout_sec = parse_env_double("NVSRAM_SWEEP_TIMEOUT", v, 0.0, 1e7);
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_RETRIES")) {
    max_attempts =
        static_cast<int>(parse_env_int("NVSRAM_SWEEP_RETRIES", v, 1, 1000));
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_BACKOFF_MS")) {
    retry_backoff_ms =
        parse_env_double("NVSRAM_SWEEP_BACKOFF_MS", v, 0.0, 1e7);
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_THREADS")) {
    threads =
        static_cast<int>(parse_env_int("NVSRAM_SWEEP_THREADS", v, 0, 4096));
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_ISOLATION")) {
    const std::string text(v);
    if (text == "none") {
      isolation = Isolation::kNone;
    } else if (text == "process") {
      isolation = Isolation::kProcess;
    } else {
      throw RunnerError("NVSRAM_SWEEP_ISOLATION: expected 'none' or "
                        "'process', got '" + text + "'");
    }
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_HEARTBEAT")) {
    heartbeat_timeout_sec =
        parse_env_double("NVSRAM_SWEEP_HEARTBEAT", v, 0.0, 1e7);
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_RLIMIT_MB")) {
    worker_rlimit_mb =
        parse_env_double("NVSRAM_SWEEP_RLIMIT_MB", v, 0.0, 1 << 20);
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_SPIN_MS")) {
    point_spin_ms = parse_env_double("NVSRAM_SWEEP_SPIN_MS", v, 0.0, 1e7);
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_FAULT")) {
    std::string text(v);
    if (unscope(runner_name, text)) {
      parse_fault_spec("NVSRAM_SWEEP_FAULT", text, fault_kind, fault_point);
    }
  }
  if (const char* v = std::getenv("NVSRAM_SWEEP_KILL")) {
    std::string text(v);
    if (unscope(runner_name, text)) {
      kill_after_point =
          static_cast<int>(parse_env_int("NVSRAM_SWEEP_KILL", text, 0, 1 << 28));
    }
  }
}

std::string RunSummary::describe() const {
  std::ostringstream os;
  os << "[sweep " << name << ": " << completed << " point"
     << (completed == 1 ? "" : "s") << " completed";
  if (wall_seconds > 0.0) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.3f", wall_seconds);
    os << " in " << buf << " s";
  }
  if (process_isolated) {
    os << " on " << threads << " isolated worker"
       << (threads == 1 ? "" : "s");
    if (respawns) os << " (" << respawns << " respawned)";
  } else if (threads > 1) {
    os << " on " << threads << " threads";
  }
  if (resumed) os << " (" << resumed << " resumed from checkpoint)";
  if (failed) {
    os << ", " << failed << " FAILED";
    if (timeouts || poisoned) {
      os << " (";
      if (timeouts) os << timeouts << " timeout";
      if (timeouts && poisoned) os << ", ";
      if (poisoned) os << poisoned << " poisoned";
      os << ")";
    }
    os << " -> " << manifest_path;
  }
  if (interrupted) os << ", INTERRUPTED";
  os << "]";
  return os.str();
}

namespace detail {

double retry_backoff_ms(const RunnerOptions& options, std::size_t point,
                        int attempt) {
  if (attempt < 1) return 0.0;
  return backoff_schedule(options.retry_backoff_ms,
                          options.retry_backoff_cap_ms, attempt - 1,
                          jitter01(point, static_cast<std::uint64_t>(attempt)));
}

double respawn_backoff_ms(const RunnerOptions& options, int slot, int respawn) {
  return backoff_schedule(
      options.respawn_backoff_ms, options.respawn_backoff_cap_ms, respawn,
      jitter01(static_cast<std::uint64_t>(slot) + 0x51AB51AB,
               static_cast<std::uint64_t>(respawn)));
}

PointResult solve_point(const RunnerOptions& options, std::size_t index,
                        int worker, const SweepRunner::PointFn& fn,
                        const std::function<void(double)>& sleep_ms) {
  PointResult res;
  PointOutcome& outcome = res.outcome;
  outcome.index = index;
  const auto t0 = std::chrono::steady_clock::now();
  if (options.point_spin_ms > 0.0) spin_for_ms(options.point_spin_ms);
  for (int attempt = 0; attempt < options.max_attempts; ++attempt) {
    if (attempt > 0) {
      // Exponential backoff with deterministic jitter before every retry;
      // the scheduled (not measured) delay is what lands in the manifest,
      // so the record is reproducible across modes and machines.
      const double delay = retry_backoff_ms(options, index, attempt);
      outcome.backoff_ms.push_back(delay);
      if (delay > 0.0) {
        if (sleep_ms) {
          sleep_ms(delay);
        } else {
          std::this_thread::sleep_for(
              std::chrono::duration<double, std::milli>(delay));
        }
      }
    }
    outcome.attempts = attempt + 1;
    util::breadcrumb::set_point(index, attempt);
    try {
      if (static_cast<int>(index) == options.fault_point) {
        switch (options.fault_kind) {
          case FaultKind::kThrow:
            throw std::runtime_error("injected sweep fault (fault_point=" +
                                     std::to_string(index) + ")");
          case FaultKind::kSegv: inject_segv();
          case FaultKind::kOom: inject_oom();
          case FaultKind::kHang: inject_hang();
        }
      }
      PointContext ctx;
      ctx.index = index;
      ctx.attempt = attempt;
      ctx.max_attempts = options.max_attempts;
      ctx.timeout_sec = options.point_timeout_sec;
      ctx.worker = worker;
      res.rows = fn(ctx);
      outcome.status = attempt > 0 ? PointStatus::kRecovered : PointStatus::kOk;
      outcome.error.clear();
      res.succeeded = true;
      break;
    } catch (const util::WatchdogError& e) {
      outcome.status = PointStatus::kTimeout;
      outcome.error = e.what();
      break;  // a timed-out point would time out again: no retry
    } catch (const std::exception& e) {
      outcome.status = PointStatus::kFailed;
      outcome.error = e.what();
    } catch (...) {
      outcome.status = PointStatus::kFailed;
      outcome.error = "non-standard exception";
    }
  }
  outcome.seconds = seconds_since(t0);
  return res;
}

}  // namespace detail

SweepRunner::SweepRunner(std::string name, RunnerOptions options)
    : name_(std::move(name)), options_(std::move(options)) {
  if (options_.csv_path.empty() || options_.csv_columns.empty()) {
    throw std::invalid_argument("SweepRunner: csv_path and csv_columns required");
  }
  if (options_.checkpoint_path.empty()) {
    options_.checkpoint_path = options_.csv_path + ".ckpt";
  }
  if (options_.max_attempts < 1) options_.max_attempts = 1;
}

RunSummary SweepRunner::run(std::size_t n_points, const PointFn& fn) {
  const auto run_t0 = std::chrono::steady_clock::now();

  // Fault kinds that kill or wedge their executor are only containable in a
  // worker subprocess; injecting them in-process would turn a drill into a
  // genuine crash of the whole sweep.
  Isolation isolation = options_.isolation;
  if (isolation == Isolation::kProcess && !supervisor::available()) {
    util::log_warn() << "sweep " << name_
                     << ": process isolation unavailable on this platform; "
                        "falling back to the in-process pool";
    isolation = Isolation::kNone;
  }
  if (options_.fault_point >= 0 && options_.fault_kind != FaultKind::kThrow &&
      isolation != Isolation::kProcess) {
    throw RunnerError(std::string("SweepRunner ") + name_ + ": fault kind '" +
                      to_string(options_.fault_kind) +
                      "' requires isolation=process");
  }

  RunSummary summary;
  summary.name = name_;
  summary.csv_path = options_.csv_path;
  summary.manifest_path = options_.csv_path + ".failures.csv";
  summary.outcomes.resize(n_points);
  summary.rows.resize(n_points);
  summary.process_isolated = isolation == Isolation::kProcess;

  std::map<std::size_t, Rows> done;
  if (options_.checkpoint) {
    done = checkpoint::load(options_.checkpoint_path, name_,
                            options_.csv_columns, n_points);
  }

  // Pool size: 0 = auto; always capped by the fresh (non-resumed) points so
  // a fully checkpointed sweep never spins up idle workers.
  std::size_t threads = options_.threads > 0
                            ? static_cast<std::size_t>(options_.threads)
                            : static_cast<std::size_t>(
                                  std::thread::hardware_concurrency());
  if (threads < 1) threads = 1;
  const std::size_t fresh =
      n_points > done.size() ? n_points - done.size() : 0;
  threads = std::min(threads, std::max<std::size_t>(fresh, 1));
  summary.threads = static_cast<int>(threads);

  Committer committer(name_, options_, summary, std::move(done));

  bool stopped = false;
  if (isolation == Isolation::kProcess) {
    supervisor::run(name_, options_, n_points, fn, threads, committer, summary,
                    stopped);
  } else if (threads <= 1) {
    for (std::size_t i = 0; i < n_points && !stopped; ++i) {
      if (committer.is_resumed(i)) {
        committer.commit_resumed(i);
        continue;
      }
      if (!committer.commit(i, detail::solve_point(options_, i, /*worker=*/0,
                                                   fn))) {
        stopped = true;
      }
    }
  } else {
    // Worker pool with an in-order reorder buffer: workers pull fresh point
    // indices from an atomic cursor and park results in `ready`; the calling
    // thread commits them strictly in point order.  Workers pause before
    // starting a new point when the buffer outruns the writer (bounded
    // memory even when point costs vary wildly).
    std::vector<std::size_t> pending;
    pending.reserve(fresh);
    for (std::size_t i = 0; i < n_points; ++i) {
      if (!committer.is_resumed(i)) pending.push_back(i);
    }

    std::mutex mu;
    std::condition_variable cv;
    std::map<std::size_t, PointResult> ready;  // guarded by mu
    std::atomic<std::size_t> cursor{0};
    std::atomic<bool> stop{false};
    const std::size_t ready_cap = threads * 4 + 8;

    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (std::size_t w = 0; w < threads; ++w) {
      pool.emplace_back([&, w] {
        for (;;) {
          {
            std::unique_lock<std::mutex> lock(mu);
            cv.wait(lock, [&] {
              return ready.size() < ready_cap ||
                     stop.load(std::memory_order_relaxed);
            });
          }
          if (stop.load(std::memory_order_relaxed)) return;
          const std::size_t k =
              cursor.fetch_add(1, std::memory_order_relaxed);
          if (k >= pending.size()) return;
          PointResult res = detail::solve_point(options_, pending[k],
                                                static_cast<int>(w), fn);
          {
            std::lock_guard<std::mutex> lock(mu);
            ready.emplace(pending[k], std::move(res));
          }
          cv.notify_all();
        }
      });
    }

    for (std::size_t i = 0; i < n_points && !stopped; ++i) {
      if (committer.is_resumed(i)) {
        committer.commit_resumed(i);
        continue;
      }
      PointResult res;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return ready.find(i) != ready.end(); });
        auto it = ready.find(i);
        res = std::move(it->second);
        ready.erase(it);
      }
      cv.notify_all();  // free a backpressure slot
      if (!committer.commit(i, std::move(res))) stopped = true;
    }

    // Drain: in-flight points finish and are discarded uncommitted, so the
    // checkpoint holds exactly the committed prefix (as a serial run would).
    stop.store(true, std::memory_order_relaxed);
    cv.notify_all();
    for (auto& t : pool) t.join();
  }

  if (!committer.harness_error().empty()) {
    throw RunnerError(committer.harness_error());
  }
  summary.wall_seconds = seconds_since(run_t0);
  if (summary.interrupted) return summary;

  committer.finalize();
  return summary;
}

}  // namespace nvsram::runner
