// mc_sweep: the only parallel workload.  Monte-Carlo mismatch points fan out
// over runner::SweepRunner's in-process pool (threads = min(4, nproc)) with
// CSV and checkpoint written under the work directory, so the pool, the
// in-order committer and the checkpoint all run.  A point is hold SNM, read
// SNM and store margin with 20 samples each: DC Newton and SNM sweeps, no
// transient and no lint gate.  Item latency is timed inside the point
// callback; throughput is points over the wall time of the measured sweeps.
#include <algorithm>
#include <cmath>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "models/paper_params.h"
#include "runner/sweep_runner.h"
#include "sram/montecarlo.h"
#include "workloads.h"

namespace perf {
namespace {

namespace fs = std::filesystem;
using nvsram::runner::PointContext;
using nvsram::runner::Rows;
using nvsram::runner::RunSummary;

constexpr std::uint64_t kStream = 0x3c5;
constexpr double kSigmas[] = {0.010, 0.020, 0.030, 0.050};  // V
constexpr int kSamples = 20;
// Points per sweep: 12 per worker at 4 threads, so the drain at the end of
// a sweep is a small part of its wall time.
constexpr long kSweepPoints = 48;
// Points timed serially and in parallel for runner.speedup_vs_serial: 6 per
// worker at 4 threads, so the four timing sweeps leave most of a traced
// run's budget to the traced sweeps.
constexpr long kSpeedupPoints = 24;

double sigma_of(long item) { return kSigmas[((item % 4) + 4) % 4]; }

// One sweep point: row = {sigma, hold mean, hold yield, read mean, read
// yield, store mean, store yield}.
Rows compute_point(std::uint64_t seed, long item, Tracer* tr) {
  nvsram::sram::VariationSpec spec;
  spec.vth_sigma = sigma_of(item);
  spec.seed = static_cast<unsigned>(item_rng(seed, kStream, item)());
  nvsram::sram::MonteCarlo mc(nvsram::models::PaperParams::table1(), spec);
  const auto hold =
      timed(tr, "sram.hold_snm", item, [&] { return mc.hold_snm(kSamples); });
  const auto read =
      timed(tr, "sram.read_snm", item, [&] { return mc.read_snm(kSamples); });
  const auto store = timed(tr, "sram.store_margin", item,
                           [&] { return mc.store_margin(kSamples); });
  return {{spec.vth_sigma, hold.stats.mean(), hold.yield(), read.stats.mean(),
           read.yield(), store.stats.mean(), store.yield()}};
}

void check_point(const Rows& rows) {
  expect(rows.size() == 1 && rows[0].size() == 7, "malformed point rows");
  const auto& r = rows[0];
  for (double v : r) expect(std::isfinite(v), "non-finite point value");
  for (int k : {2, 4, 6}) {
    expect(r[k] >= 0.0 && r[k] <= 1.0, "yield outside [0, 1]");
  }
  if (r[0] == kSigmas[0]) {
    expect(r[1] > 0.1, "hold-SNM mean " + std::to_string(r[1]) +
                           " V not above 0.1 V at 10 mV");
  }
}

struct Sweep {
  RunSummary summary;
  std::vector<double> latency_ms;  // per point, timed in the callback
};

class McSweep {
 public:
  explicit McSweep(const Options& opt)
      : opt_(opt),
        dir_(fs::path(opt.workdir) /
             ("mc_sweep-" + std::to_string(::getpid()))) {}
  McSweep(const McSweep&) = delete;
  McSweep& operator=(const McSweep&) = delete;
  ~McSweep() {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void prepare() { fs::create_directories(dir_); }

  // Runs points [first, first + n) as one sweep with its own CSV and
  // checkpoint; the options are set here, never from the environment.
  Sweep sweep(long first, long n, int threads, Tracer* tr) {
    const fs::path csv = dir_ / ("sweep" + std::to_string(sweeps_++) + ".csv");
    nvsram::runner::RunnerOptions ro;
    ro.csv_path = csv.string();
    ro.csv_columns = {"sigma",     "hold_mean",  "hold_yield", "read_mean",
                      "read_yield", "store_mean", "store_yield"};
    ro.checkpoint = true;
    ro.max_attempts = 1;
    ro.threads = threads;
    Sweep s;
    s.latency_ms.assign(static_cast<std::size_t>(n), 0.0);
    nvsram::runner::SweepRunner runner("mc_sweep", ro);
    s.summary = runner.run(static_cast<std::size_t>(n),
                           [&](const PointContext& pc) {
      const long item = first + static_cast<long>(pc.index);
      const auto t0 = Clock::now();
      Rows rows = timed(tr, "item", item, [&] {
        return compute_point(opt_.seed, item, tr);
      }, Tracer::Kind::kItem);
      s.latency_ms[pc.index] = ms_between(t0, Clock::now());
      return rows;
    });
    std::error_code ec;
    for (const char* suffix : {"", ".ckpt", ".failures.csv"}) {
      fs::remove(csv.string() + suffix, ec);
    }
    return s;
  }

  // Counts and checks every point of a finished untraced sweep.
  void account(const Sweep& s, long first, bool digest, Measured& m) const {
    for (std::size_t k = 0; k < s.summary.outcomes.size(); ++k) {
      const long item = first + static_cast<long>(k);
      ++m.attempted;
      m.latency_ms.push_back(s.latency_ms[k]);
      try {
        const auto& outcome = s.summary.outcomes[k];
        expect(outcome.ok(), "point failed: " + outcome.error);
        check_point(s.summary.rows[k]);
        if (digest && item < Digest::kItems) {
          for (double v : s.summary.rows[k][0]) m.digest.add(v);
          ++m.digest_items;
        }
      } catch (const std::exception& e) {
        m.fail(item, e.what());
      }
    }
  }

 private:
  const Options& opt_;
  fs::path dir_;
  int sweeps_ = 0;
};

}  // namespace

Measured run_mc_sweep(const Options& opt, Tracer& tr) {
  const int threads = static_cast<int>(
      std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
  McSweep w(opt);
  Measured m;
  run_setup(opt, m, [&](int /*round*/) {
    w.prepare();
    check_point(compute_point(opt.seed, kSetupItem, nullptr));
  });
  const long per_sweep =
      opt.items > 0 ? std::min(opt.items, kSweepPoints) : kSweepPoints;

  if (tr.enabled()) {
    // The same points serially and on the pool, before the measured loop,
    // in the order serial, pooled, pooled, serial so that a drift in machine
    // speed over the four sweeps cancels out of the ratio.
    const long n = opt.items > 0 ? opt.items : kSpeedupPoints;
    const auto wall = [&](int t) {
      return w.sweep(0, n, t, nullptr).summary.wall_seconds;
    };
    double serial = wall(1);
    double pooled = wall(threads);
    pooled += wall(threads);
    serial += wall(1);
    m.layer["runner.speedup_vs_serial"] = serial / pooled;
  }

  double busy_ms = 0.0;
  double traced_wall_s = 0.0;
  std::vector<double> iteration_ms;
  const auto start = Clock::now();
  for (long first = 0;; first += per_sweep) {
    if (first > 0 && ((opt.items > 0 && first >= opt.items) ||
                      !fits(opt, quantile(iteration_ms, 0.5)))) {
      break;
    }
    const auto iteration_start = Clock::now();
    if (!tr.enabled()) {
      // The reference mix on as many threads as the pool, just before the
      // sweep.
      const auto r0 = Clock::now();
      const double ref = reference_ms_parallel(threads);
      m.reference_s += seconds_since(r0);
      const Sweep s = w.sweep(first, per_sweep, threads, nullptr);
      w.account(s, first, true, m);
      m.latency_ref_ms.resize(m.latency_ms.size(), ref);
      m.loop_scaled_s += at_reference(s.summary.wall_seconds, ref);
      iteration_ms.push_back(ms_between(iteration_start, Clock::now()));
      continue;
    }
    // Traced and untraced sweeps over the same points; the traced rows must
    // equal the untraced ones.
    const Sweep traced = w.sweep(first, per_sweep, threads, &tr);
    const Sweep plain = w.sweep(first, per_sweep, threads, nullptr);
    traced_wall_s += traced.summary.wall_seconds;
    for (double ms : traced.latency_ms) {
      busy_ms += ms;
      m.traced_latency_ms.push_back(ms);
    }
    w.account(plain, first, false, m);
    for (std::size_t k = 0; k < plain.summary.rows.size(); ++k) {
      if (plain.summary.point_ok(k) &&
          (!traced.summary.point_ok(k) ||
           traced.summary.rows[k] != plain.summary.rows[k])) {
        m.fail(first + static_cast<long>(k), "traced point differs");
      }
    }
    iteration_ms.push_back(ms_between(iteration_start, Clock::now()));
  }
  m.loop_wall_s = seconds_since(start);
  if (tr.enabled() && traced_wall_s > 0.0) {
    m.layer["runner.parallel_eff"] =
        busy_ms / 1e3 / (traced_wall_s * threads);
  }
  m.extra["threads"] = threads;
  return m;
}

}  // namespace perf
