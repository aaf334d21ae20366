// Worker-pool execution of SweepRunner: byte-identical output at any pool
// size, kill/stop drills mid-parallel-run, concurrent solver fault
// injection (TSan stress), synthetic-load scaling, and the per-point
// watchdog reaching into the SPICE-characterization phase.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/analyzer.h"
#include "models/paper_params.h"
#include "runner/checkpoint.h"
#include "runner/sweep_runner.h"
#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/fault.h"
#include "util/watchdog.h"

namespace nvsram::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string tmp_csv(const std::string& tag) {
  return ::testing::TempDir() + "psweep_" + tag + ".csv";
}

// Failed sweeps intentionally leave their checkpoint behind, so a rerun of
// this binary would otherwise resume it: each test scrubs its tags first.
void scrub(const std::string& tag) {
  const std::string csv = tmp_csv(tag);
  std::remove(csv.c_str());
  std::remove((csv + ".ckpt").c_str());
  std::remove((csv + ".failures.csv").c_str());
}

RunnerOptions options_for(const std::string& tag, int threads) {
  RunnerOptions opts;
  opts.csv_path = tmp_csv(tag);
  opts.csv_columns = {"x", "y"};
  opts.threads = threads;
  return opts;
}

Rows square_point(const PointContext& pc) {
  const double x = static_cast<double>(pc.index);
  return {{x, x * x}};
}

// A real (if tiny) SPICE solve per point, with deterministic index-keyed
// fault injection: points divisible by 5 stall on their first attempt and
// recover on the retry; points congruent to 3 mod 7 take a nan-stamp that
// the recovery ladder absorbs within the same attempt.
Rows divider_point(const PointContext& pc) {
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add<spice::VSource>("V1", a, spice::kGround, spice::SourceSpec::dc(1.0));
  ckt.add<spice::Resistor>("R1", a, b, 1e3);
  ckt.add<spice::Resistor>("R2", b, spice::kGround, 3e3);
  if (pc.attempt == 0 && pc.index % 5 == 0) {
    ckt.set_fault_plan(spice::FaultPlan::parse("stall@0x-1"));
  } else if (pc.index % 7 == 3) {
    ckt.set_fault_plan(spice::FaultPlan::parse("nan-stamp@0"));
  }
  spice::DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  if (!sol) throw std::runtime_error("injected stall");
  return {{static_cast<double>(pc.index), sol->node_voltage(b)}};
}

// ---- byte-identity across pool sizes ----

TEST(SweepParallel, OutputBytesIdenticalAcrossPoolSizes) {
  // One failing point keeps the manifest non-trivial and the checkpoint
  // alive, so all three artifacts can be compared.
  auto point = [](const PointContext& pc) -> Rows {
    if (pc.index == 5) throw std::runtime_error("synthetic failure");
    return square_point(pc);
  };
  const std::size_t n = 12;
  for (const char* tag : {"ident_t1", "ident_t2", "ident_t8"}) scrub(tag);

  auto ref_opts = options_for("ident_t1", 1);
  const auto ref = SweepRunner("ident", ref_opts).run(n, point);
  EXPECT_EQ(ref.threads, 1);
  EXPECT_EQ(ref.failed, 1u);

  for (int threads : {2, 8}) {
    auto opts = options_for("ident_t" + std::to_string(threads), threads);
    const auto s = SweepRunner("ident", opts).run(n, point);
    EXPECT_EQ(s.threads, threads);
    EXPECT_EQ(s.completed, ref.completed);
    EXPECT_EQ(s.failed, ref.failed);
    // CSV, failure manifest, and retained checkpoint: byte-identical.
    EXPECT_EQ(slurp(s.csv_path), slurp(ref.csv_path)) << threads;
    EXPECT_EQ(slurp(s.manifest_path), slurp(ref.manifest_path)) << threads;
    EXPECT_EQ(slurp(opts.csv_path + ".ckpt"),
              slurp(ref_opts.csv_path + ".ckpt"))
        << threads;
    // Outcome bookkeeping matches point by point.
    ASSERT_EQ(s.outcomes.size(), ref.outcomes.size());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(s.outcomes[i].status, ref.outcomes[i].status) << i;
    }
  }
}

TEST(SweepParallel, PoolIsCappedAtPointCount) {
  scrub("cap");
  auto opts = options_for("cap", 8);
  const auto s = SweepRunner("cap", opts).run(2, square_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_LE(s.threads, 2);
}

TEST(SweepParallel, EnvOverridesThreadsAndSpin) {
  ::setenv("NVSRAM_SWEEP_THREADS", "3", 1);
  ::setenv("NVSRAM_SWEEP_SPIN_MS", "1.5", 1);
  RunnerOptions opts;
  opts.apply_env("envthreads");
  EXPECT_EQ(opts.threads, 3);
  EXPECT_EQ(opts.point_spin_ms, 1.5);
  ::unsetenv("NVSRAM_SWEEP_THREADS");
  ::unsetenv("NVSRAM_SWEEP_SPIN_MS");
}

// ---- drills under parallelism ----

TEST(SweepParallel, StopDrillCommitsExactPrefixThenResumes) {
  scrub("pstop_ref");
  scrub("pstop");
  auto ref_opts = options_for("pstop_ref", 1);
  const auto ref = SweepRunner("pstop", ref_opts).run(10, square_point);

  // Stop after point 4 with 4 workers in flight: the checkpoint must hold
  // exactly points 0..4 even though later points may already have solved.
  auto opts = options_for("pstop", 4);
  opts.stop_after_point = 4;
  const auto s1 = SweepRunner("pstop", opts).run(10, square_point);
  EXPECT_TRUE(s1.interrupted);
  EXPECT_EQ(s1.completed, 5u);
  EXPECT_EQ(
      checkpoint::load(opts.csv_path + ".ckpt", "pstop", {"x", "y"}, 10).size(),
      5u);

  auto opts2 = options_for("pstop", 4);
  std::atomic<int> fresh{0};
  const auto s2 =
      SweepRunner("pstop", opts2).run(10, [&](const PointContext& pc) {
        ++fresh;
        EXPECT_GT(pc.index, 4u);
        return square_point(pc);
      });
  EXPECT_TRUE(s2.all_ok());
  EXPECT_EQ(s2.resumed, 5u);
  EXPECT_EQ(fresh.load(), 5);
  EXPECT_EQ(slurp(s2.csv_path), slurp(ref.csv_path));
}

TEST(SweepParallel, KillDrillUnderParallelismResumesByteIdentical) {
  // Workers are already running when _Exit fires; the threadsafe style
  // re-executes the test binary for the death statement.
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  scrub("pkill_ref");
  scrub("pkill");
  auto ref_opts = options_for("pkill_ref", 1);
  const auto ref = SweepRunner("pkill", ref_opts).run(10, square_point);

  auto kill_opts = options_for("pkill", 4);
  kill_opts.kill_after_point = 3;
  EXPECT_EXIT((void)SweepRunner("pkill", kill_opts).run(10, square_point),
              ::testing::ExitedWithCode(3), "");

  // The simulated crash happened right after checkpointing point 3: the
  // committed prefix survives, nothing later leaked in.
  EXPECT_EQ(checkpoint::load(kill_opts.csv_path + ".ckpt", "pkill", {"x", "y"},
                             10)
                .size(),
            4u);

  auto resume_opts = options_for("pkill", 4);
  const auto s = SweepRunner("pkill", resume_opts).run(10, square_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(s.resumed, 4u);
  EXPECT_EQ(slurp(s.csv_path), slurp(ref.csv_path));
}

// ---- concurrent solver work (the TSan beat) ----

TEST(SweepParallel, ConcurrentFaultInjectionStressMatchesSerial) {
  const std::size_t n = 24;
  scrub("stress_t1");
  scrub("stress_t8");

  auto ref_opts = options_for("stress_t1", 1);
  ref_opts.max_attempts = 2;
  const auto ref = SweepRunner("stress", ref_opts).run(n, divider_point);
  EXPECT_TRUE(ref.all_ok());
  EXPECT_EQ(ref.outcomes[5].status, PointStatus::kRecovered);
  EXPECT_EQ(ref.outcomes[10].status, PointStatus::kRecovered);
  // nan-stamp points recover inside the solver, not via a runner retry.
  EXPECT_EQ(ref.outcomes[3].status, PointStatus::kOk);

  auto opts = options_for("stress_t8", 8);
  opts.max_attempts = 2;
  const auto s = SweepRunner("stress", opts).run(n, divider_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(slurp(s.csv_path), slurp(ref.csv_path));
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(s.outcomes[i].status, ref.outcomes[i].status) << i;
  }
}

TEST(SweepParallel, RowWidthMismatchSurfacesFromWorkers) {
  scrub("pwidth");
  auto opts = options_for("pwidth", 4);
  SweepRunner run("pwidth", opts);
  EXPECT_THROW((void)run.run(8,
                             [](const PointContext&) -> Rows {
                               return {{1.0, 2.0, 3.0}};  // 3 values, 2 cols
                             }),
               std::runtime_error);
}

// ---- scaling on the synthetic load ----

// The runner's point_spin_ms load: a busy wait on the wall clock.
void spin_for_ms(double ms) {
  const auto t0 = std::chrono::steady_clock::now();
  while (std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - t0)
             .count() < ms) {
  }
}

// Wall seconds for `points` spins of `ms` each, dealt out over `threads`
// raw threads with no runner in between.
double raw_spin_seconds(std::size_t threads, std::size_t points, double ms) {
  const auto t0 = std::chrono::steady_clock::now();
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < threads; ++t) {
      pool.emplace_back([=] {
        for (std::size_t i = t; i < points; i += threads) spin_for_ms(ms);
      });
    }
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TEST(SweepParallel, SpinLoadScalesWithPoolSize) {
  const std::size_t n = 24;
  // Whether four threads run faster than one depends on the CPU time the
  // machine grants at the moment, so the same load runs on raw threads
  // right before the sweeps: the pool's miss is excused only when the raw
  // threads missed too.
  const double raw_serial = raw_spin_seconds(1, n, 4.0);
  const double raw_ratio = raw_spin_seconds(4, n, 4.0) / raw_serial;
  scrub("spin_t1");
  scrub("spin_t4");
  auto serial_opts = options_for("spin_t1", 1);
  serial_opts.point_spin_ms = 4.0;
  const auto serial = SweepRunner("spin", serial_opts).run(n, square_point);
  EXPECT_GE(serial.wall_seconds, 0.9 * n * 4.0e-3);

  auto par_opts = options_for("spin_t4", 4);
  par_opts.point_spin_ms = 4.0;
  const auto par = SweepRunner("spin", par_opts).run(n, square_point);
  EXPECT_EQ(slurp(par.csv_path), slurp(serial.csv_path));

  const double pool_ratio = par.wall_seconds / serial.wall_seconds;
  if (pool_ratio >= 0.75 && raw_ratio >= 0.75) {
    GTEST_SKIP() << "4 raw threads took " << raw_ratio
                 << " x the serial time, the 4-thread pool " << pool_ratio
                 << " x: no 4-thread speedup to hold the pool to";
  }
  EXPECT_LT(par.wall_seconds, 0.75 * serial.wall_seconds);
}

// ---- the per-point watchdog reaches the characterization phase ----

TEST(SweepParallel, PointTimeoutCoversAnalyzerCharacterization) {
  scrub("chartimeout");
  auto opts = options_for("chartimeout", 2);
  opts.point_timeout_sec = 0.02;  // far below the ~0.3 s characterization
  opts.max_attempts = 3;
  std::atomic<int> calls{0};
  const auto s =
      SweepRunner("chartimeout", opts).run(1, [&](const PointContext& pc) -> Rows {
        ++calls;
        core::PowerGatingAnalyzer an(models::PaperParams::table1(),
                                     pc.timeout_sec);
        return {{0.0, an.cell_6t().e_read}};
      });
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(calls.load(), 1);  // a timeout is terminal, not retried
  EXPECT_EQ(s.outcomes[0].status, PointStatus::kTimeout);
  EXPECT_NE(slurp(s.manifest_path).find("0,timeout,1,"), std::string::npos);
}

}  // namespace
}  // namespace nvsram::runner
