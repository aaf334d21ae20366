// Plumbing shared by the benchmark's workloads: run options, seeded inputs,
// spans around calls into the program's layers, the closed-loop item loop, and
// the metric record every run prints.
//
// Every timing is taken here, from outside the program: the benchmark wraps
// std::chrono::steady_clock around calls into each module's public
// functions and adds nothing to src/.
#pragma once

#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

namespace perf {

using Clock = std::chrono::steady_clock;

inline double ms_between(Clock::time_point t0, Clock::time_point t1) {
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}
inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  // The whole run — set-up rounds, measured loop, traced extras — is sized
  // to end within `seconds` of `started`; run.sh passes BENCHMARK.json's
  // run_seconds.
  double seconds = 0.0;
  Clock::time_point started = Clock::now();
  bool trace = false;        // per-layer run instead of the end-to-end run
  std::string trace_file;    // Chrome trace-event JSON written when tracing
  long items = 0;            // cap on measured items; 0 = bounded by time only
  std::string workdir = ".";  // where a workload may put temporary files
  std::string commit = "unknown";
};

// Item i's inputs come from (seed, stream, i) alone, so they do not depend
// on how many items ran before it or on the run length.  Set-up runs item
// kSetupItem, which never collides with a measured item.
std::mt19937_64 item_rng(std::uint64_t seed, std::uint64_t stream, long item);
inline constexpr long kSetupItem = -1;

// A failed output check; counts the item as failed.
class CheckError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
inline void expect(bool ok, const std::string& what) {
  if (!ok) throw CheckError(what);
}

// CRC-32 over the bytes of the outputs of the first few measured items, so
// two commits can be compared for identical results regardless of how many
// items each run managed.
class Digest {
 public:
  static constexpr long kItems = 3;
  void add(double v);
  void add(const std::string& s);
  std::uint32_t value() const;

 private:
  std::string bytes_;
};

// Spans kept in memory while the run goes and written out at the end.
// kItem spans bracket one item; kLayer spans bracket one call into a layer
// inside an item; kProbe spans are extra measurements made after the item
// (they do not count towards coverage).  Thread-safe.
class Tracer {
 public:
  enum class Kind { kItem, kLayer, kProbe };

  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  // `name` is kept by pointer: pass a string literal.
  void record(const char* name, long item, Kind kind, Clock::time_point t0,
              Clock::time_point t1);

  // Median over items of the per-item total of spans named `name` (ms);
  // 0 when no such span was recorded.
  double median_ms(const std::string& name) const;
  // Sum of layer spans over sum of item spans.
  double coverage() const;
  void write_chrome(const std::string& path, const std::string& workload) const;

 private:
  struct Span {
    const char* name;
    long item;
    Kind kind;
    double t0_us;
    double t1_us;
    int tid;
  };
  bool enabled_;
  Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;  // guards spans_
  std::vector<Span> spans_;
};

// Runs f() inside a span when `tr` is non-null and enabled; returns f()'s
// result either way.  The span is recorded even when f() throws.
template <class F>
decltype(auto) timed(Tracer* tr, const char* name, long item, F&& f,
                     Tracer::Kind kind = Tracer::Kind::kLayer) {
  if (tr == nullptr || !tr->enabled()) return f();
  struct Guard {
    Tracer* tr;
    const char* name;
    long item;
    Tracer::Kind kind;
    Clock::time_point t0 = Clock::now();
    ~Guard() { tr->record(name, item, kind, t0, Clock::now()); }
  } guard{tr, name, item, kind};
  return f();
}

// The machine's speed at the moment of measuring.  On a shared VM it moves
// by 15-40% within minutes, so a time measured in one run is compared with
// one measured minutes later at another speed.  An untraced run therefore
// times a fixed mix of small kernels owned by the benchmark (the reference
// mix: dense elimination, string-keyed map, sort, allocation; about 3 ms)
// next to every item and set-up round, and reports each time scaled to the
// reference speed: t * kReferenceMs / (the mix's time next to t).  A slower
// machine stretches both alike, and the scaled time stays put.  The mix is
// never changed by a change to the program, so a program that gets faster
// moves the scaled time by the same share as its wall time.
//
// reference_ms() runs the mix once on this thread and returns its wall
// time; reference_ms_parallel(n) runs it on n threads at once and returns
// the median.
double reference_ms();
double reference_ms_parallel(int threads);

// The mix's time on an idle core of the machine the benchmark was written
// on (Intel Xeon, nproc 4), so scaled times read close to wall times there.
inline constexpr double kReferenceMs = 3.0;

inline double at_reference(double t, double ref_ms) {
  return t * kReferenceMs / ref_ms;
}

// What one run measured, before it is turned into metrics.
struct Measured {
  std::vector<double> setup_s;         // wall time of each set-up round
  std::vector<double> setup_ref_ms;    // the mix's time before each round
  std::vector<double> latency_ms;      // untraced item latencies (wall)
  std::vector<double> latency_ref_ms;  // the mix's time next to each
  std::vector<double> traced_latency_ms;
  double loop_wall_s = 0.0;
  double loop_scaled_s = 0.0;  // busy time of the loop at the reference speed
  double reference_s = 0.0;    // time spent in the mix during the loop
  long attempted = 0;
  long failed = 0;
  bool setup_failed = false;
  std::vector<std::string> errors;    // first few failure messages
  Digest digest;
  long digest_items = 0;
  // Per-layer counts and ratios a workload computes itself (names as in
  // BENCHMARK.json); span times come from the Tracer.
  std::map<std::string, double> layer;
  // Numbers printed in the record only, with no regression bound.
  std::map<std::string, double> extra;

  void fail(long item, const std::string& what);
};

// True when work expected to take `ms` still ends within the run's budget.
inline bool fits(const Options& opt, double ms) {
  return seconds_since(opt.started) + ms / 1e3 <= opt.seconds;
}

// Set-up is one round of input generation plus one unmeasured warm-up item,
// the same item in every round, so the rounds time the same work (each
// forked round starts from nothing, so none finds another's results).
// An untraced run repeats it and reports the median as setup_s: at least
// kMinSetupRounds rounds, more (up to kMaxSetupRounds) while the rounds
// stay within kSetupShare of the run's budget.
inline constexpr int kMinSetupRounds = 3;
inline constexpr int kMaxSetupRounds = 9;
inline constexpr double kSetupShare = 0.1;

// Runs round(r) in a child forked before the workload has run anything in
// this process, so every round starts as cold as the first — lazy
// initialization, first-touch page faults and empty process-wide caches
// included — and returns its wall time.  A child that throws prints the
// error and exits nonzero.
template <class F>
double forked_round(int r, Measured& m, F& round) {
  const auto t0 = Clock::now();
  std::fflush(nullptr);
  const pid_t pid = ::fork();
  if (pid < 0) throw std::runtime_error("fork failed for a set-up round");
  if (pid == 0) {
    int code = 0;
    try {
      round(r);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: set-up round %d: %s\n", r, e.what());
      code = 1;
    }
    std::_Exit(code);
  }
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) throw std::runtime_error("waitpid failed");
  }
  const double s = seconds_since(t0);
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    m.setup_failed = true;
    m.errors.push_back("set-up round " + std::to_string(r) +
                       " failed in its child process");
  }
  return s;
}

// Times the set-up rounds into m.setup_s, each after the reference mix
// (untraced runs only).  There are only a few rounds to take a median over,
// so each round's reference is itself the median of kSetupReferenceRuns
// runs of the mix: one run, caught in a burst of neighbour load, moved
// tech_point's setup_s spread from 0.16 to 0.24 over ten seeds.  Every
// round but the last runs in a forked child; the last runs here and leaves
// this process ready to measure.  A traced run sets up once.  A throw marks
// the set-up failed.
inline constexpr int kSetupReferenceRuns = 5;

template <class F>
void run_setup(const Options& opt, Measured& m, F&& round) {
  const auto reference = [] {
    std::vector<double> ms;
    for (int k = 0; k < kSetupReferenceRuns; ++k) ms.push_back(reference_ms());
    return quantile(std::move(ms), 0.5);
  };
  int r = 0;
  for (; !opt.trace && r + 1 < kMaxSetupRounds; ++r) {
    if (r + 1 >= kMinSetupRounds) {
      // Room for one more forked round and the last one, at the median.
      double spent = 0.0;
      for (double s : m.setup_s) spent += s;
      const double next = quantile(m.setup_s, 0.5);
      if (spent + 2.0 * next > kSetupShare * opt.seconds) break;
    }
    m.setup_ref_ms.push_back(reference());
    m.setup_s.push_back(forked_round(r, m, round));
  }
  if (!opt.trace) m.setup_ref_ms.push_back(reference());
  const auto t0 = Clock::now();
  try {
    round(r);
  } catch (const std::exception& e) {
    m.setup_failed = true;
    m.errors.push_back(std::string("set-up: ") + e.what());
  }
  m.setup_s.push_back(seconds_since(t0));
}

// Drives a closed-loop workload: one item at a time, the next sent only
// after the previous completes, while the next item, at the median time an
// iteration has taken so far, still fits in the run's budget (the first
// item always runs).  W provides
//   Input  input(long item)                         untimed input build
//   void   prepare(int round)                       set-up work, if any
//   Output run(const Input&, long item, Tracer*)    the item (traced when
//                                                   the tracer is non-null)
//   void   check(const Input&, const Output&)       throws on a bad output
//   void   same(const Output& traced, const Output& untraced)
//   void   digest(const Output&, Digest&)
//   void   probe(const Input&, const Output& untraced, long item, Tracer&)
//                                                   traced-only extras
// In a traced run each item runs traced first, then untraced, and the two
// outputs must agree; the untraced latencies are the base of
// trace.overhead_frac.
template <class W>
Measured run_closed_loop(const Options& opt, W& w, Tracer& tr) {
  Measured m;
  run_setup(opt, m, [&](int round) {
    w.prepare(round);
    const auto in = w.input(kSetupItem);
    w.check(in, w.run(in, kSetupItem, nullptr));
  });

  Tracer* traced = tr.enabled() ? &tr : nullptr;
  std::vector<double> iteration_ms;
  const auto start = Clock::now();
  for (long i = 0;; ++i) {
    if (i > 0 && ((opt.items > 0 && i >= opt.items) ||
                  !fits(opt, quantile(iteration_ms, 0.5)))) {
      break;
    }
    const auto iteration_start = Clock::now();
    ++m.attempted;
    try {
      const auto in = w.input(i);
      if (traced != nullptr) {
        const auto t0 = Clock::now();
        const auto out_traced = timed(traced, "item", i, [&] {
          return w.run(in, i, traced);
        }, Tracer::Kind::kItem);
        m.traced_latency_ms.push_back(ms_between(t0, Clock::now()));
        w.check(in, out_traced);
        const auto t1 = Clock::now();
        const auto out = w.run(in, i, nullptr);
        m.latency_ms.push_back(ms_between(t1, Clock::now()));
        w.same(out_traced, out);
        w.probe(in, out, i, tr);
      } else {
        const double ref = reference_ms();
        m.reference_s += ref / 1e3;
        const auto t0 = Clock::now();
        const auto out = w.run(in, i, nullptr);
        const double ms = ms_between(t0, Clock::now());
        m.latency_ms.push_back(ms);
        m.latency_ref_ms.push_back(ref);
        m.loop_scaled_s += at_reference(ms, ref) / 1e3;
        w.check(in, out);
        if (i < Digest::kItems) {
          w.digest(out, m.digest);
          ++m.digest_items;
        }
      }
    } catch (const std::exception& e) {
      m.fail(i, e.what());
    }
    iteration_ms.push_back(ms_between(iteration_start, Clock::now()));
  }
  m.loop_wall_s = seconds_since(start);
  return m;
}

}  // namespace perf
