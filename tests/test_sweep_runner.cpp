// SweepRunner resilience: skip-and-record, retries, watchdog timeouts,
// checkpoint/resume byte-identity, staleness rejection, env-var drills.
//
// The default RunnerOptions run the worker pool (threads = 0 = auto), so
// these callbacks execute concurrently: captured counters are atomic.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "runner/checkpoint.h"
#include "runner/sweep_runner.h"
#include "util/watchdog.h"

namespace nvsram::runner {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Each test gets its own CSV path under the gtest temp dir.
std::string tmp_csv(const std::string& tag) {
  return ::testing::TempDir() + "sweep_" + tag + ".csv";
}

RunnerOptions base_options(const std::string& tag) {
  RunnerOptions opts;
  opts.csv_path = tmp_csv(tag);
  opts.csv_columns = {"x", "y"};
  return opts;
}

// y = x^2, one row per point.
Rows square_point(const PointContext& pc) {
  const double x = static_cast<double>(pc.index);
  return {{x, x * x}};
}

TEST(SweepRunner, AllPointsSucceed) {
  SweepRunner run("ok", base_options("ok"));
  const auto s = run.run(5, square_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(s.completed, 5u);
  EXPECT_EQ(s.failed, 0u);
  ASSERT_EQ(s.rows.size(), 5u);
  EXPECT_EQ(s.rows[3].front()[1], 9.0);
  // CSV: header + 5 rows; empty manifest (header only).
  EXPECT_EQ(slurp(s.csv_path).substr(0, 4), "x,y\n");
  EXPECT_EQ(slurp(s.manifest_path), "point,status,attempts,backoff_ms,error\n");
  // Fully successful sweep leaves no checkpoint behind.
  EXPECT_TRUE(checkpoint::load(run.options().checkpoint_path(), "ok",
                               {"x", "y"}, 5)
                  .empty());
}

TEST(SweepRunner, FailingPointIsSkippedAndRecorded) {
  auto opts = base_options("fail");
  opts.max_attempts = 2;
  SweepRunner run("fail", opts);
  std::atomic<int> attempts_at_2{0};
  const auto s = run.run(5, [&](const PointContext& pc) -> Rows {
    if (pc.index == 2) {
      ++attempts_at_2;
      throw std::runtime_error("synthetic, failure");
    }
    return square_point(pc);
  });
  EXPECT_FALSE(s.all_ok());
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(s.completed, 4u);
  EXPECT_EQ(attempts_at_2.load(), 2);  // retried once
  EXPECT_FALSE(s.point_ok(2));
  EXPECT_TRUE(s.rows[2].empty());
  EXPECT_EQ(s.outcomes[2].status, PointStatus::kFailed);
  // The CSV holds every other point, in order.
  EXPECT_EQ(slurp(s.csv_path),
            "x,y\n"
            "0.000000e+00,0.000000e+00\n"
            "1.000000e+00,1.000000e+00\n"
            "3.000000e+00,9.000000e+00\n"
            "4.000000e+00,1.600000e+01\n");
  // Manifest lists the point with its scheduled backoff delay; the comma
  // inside the message is sanitized.
  const std::string manifest = slurp(s.manifest_path);
  char expect[128];
  std::snprintf(expect, sizeof(expect), "2,failed,2,%.6g,synthetic; failure",
                detail::retry_backoff_ms(run.options(), 2, 1));
  EXPECT_NE(manifest.find(expect), std::string::npos) << manifest;
}

TEST(SweepRunner, RetrySucceedsAndCountsAsRecovered) {
  auto opts = base_options("retry");
  opts.max_attempts = 3;
  SweepRunner run("retry", opts);
  const auto s = run.run(3, [&](const PointContext& pc) -> Rows {
    if (pc.index == 1 && pc.attempt == 0) throw std::runtime_error("flaky");
    return square_point(pc);
  });
  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(s.outcomes[1].status, PointStatus::kRecovered);
  EXPECT_EQ(s.outcomes[1].attempts, 2);
}

TEST(SweepRunner, WatchdogTimeoutIsTerminalAndNotRetried) {
  auto opts = base_options("timeout");
  opts.max_attempts = 3;
  opts.point_timeout_sec = 0.25;
  SweepRunner run("timeout", opts);
  std::atomic<int> attempts_at_1{0};
  const auto s = run.run(3, [&](const PointContext& pc) -> Rows {
    EXPECT_EQ(pc.timeout_sec, 0.25);
    if (pc.index == 1) {
      ++attempts_at_1;
      throw util::WatchdogError("test point", pc.timeout_sec);
    }
    return square_point(pc);
  });
  EXPECT_EQ(s.timeouts, 1u);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_EQ(attempts_at_1.load(), 1);  // timeouts are not retried
  EXPECT_EQ(s.outcomes[1].status, PointStatus::kTimeout);
  EXPECT_NE(slurp(s.manifest_path).find("1,timeout,1,"), std::string::npos);
}

TEST(SweepRunner, InterruptedRunResumesByteIdentical) {
  // Reference: one uninterrupted run.
  SweepRunner ref("resume", base_options("resume_ref"));
  const auto s_ref = ref.run(6, square_point);

  // Drill: stop after point 2, then rerun the same sweep to completion.
  auto opts = base_options("resume");
  opts.stop_after_point = 2;
  const auto s1 = SweepRunner("resume", opts).run(6, square_point);
  EXPECT_TRUE(s1.interrupted);
  EXPECT_EQ(s1.completed, 3u);

  auto opts2 = base_options("resume");
  std::atomic<int> fresh_calls{0};
  const auto s2 = SweepRunner("resume", opts2).run(6, [&](const PointContext& pc) {
    ++fresh_calls;
    EXPECT_GT(pc.index, 2u);  // completed points must not be recomputed
    return square_point(pc);
  });
  EXPECT_TRUE(s2.all_ok());
  EXPECT_EQ(s2.resumed, 3u);
  EXPECT_EQ(fresh_calls.load(), 3);
  EXPECT_EQ(s2.outcomes[0].status, PointStatus::kResumed);
  EXPECT_EQ(slurp(s2.csv_path), slurp(s_ref.csv_path));
}

TEST(SweepRunner, StaleCheckpointIsIgnored) {
  // Complete half a sweep under one name, then reuse the checkpoint path
  // for a different runner name and for different columns: both must
  // recompute from scratch instead of splicing foreign rows in.
  auto opts = base_options("stale");
  opts.stop_after_point = 1;
  (void)SweepRunner("stale", opts).run(4, square_point);

  const std::string ckpt = opts.csv_path + ".ckpt";
  // Sanity: the matching (name, columns) pair does load...
  EXPECT_EQ(checkpoint::load(ckpt, "stale", {"x", "y"}, 4).size(), 2u);
  // ...but a column mismatch is stale,
  EXPECT_TRUE(
      checkpoint::load(ckpt, "stale", {"different", "columns"}, 4).empty());
  // and so is a name mismatch: the foreign runner recomputes every point.
  auto opts2 = base_options("stale");
  const auto s = SweepRunner("other-name", opts2).run(4, square_point);
  EXPECT_EQ(s.resumed, 0u);
}

TEST(SweepRunner, CheckpointingCanBeDisabled) {
  auto opts = base_options("nockpt");
  opts.checkpoint = false;
  opts.stop_after_point = 1;
  (void)SweepRunner("nockpt", opts).run(4, square_point);

  auto opts2 = base_options("nockpt");
  opts2.checkpoint = false;
  const auto s = SweepRunner("nockpt", opts2).run(4, square_point);
  EXPECT_EQ(s.resumed, 0u);
  EXPECT_EQ(s.completed, 4u);
}

TEST(SweepRunner, EnvDrillsAreScopedByRunnerName) {
  ::setenv("NVSRAM_SWEEP_FAULT", "envtest:1", 1);
  ::setenv("NVSRAM_SWEEP_RETRIES", "1", 1);
  auto opts = base_options("env");
  opts.apply_env("envtest");
  EXPECT_EQ(opts.fault_point, 1);
  EXPECT_EQ(opts.max_attempts, 1);
  auto other = base_options("env2");
  other.apply_env("otherrunner");  // fault scoped to "envtest" only
  EXPECT_EQ(other.fault_point, -1);
  ::unsetenv("NVSRAM_SWEEP_FAULT");
  ::unsetenv("NVSRAM_SWEEP_RETRIES");

  const auto s = SweepRunner("envtest", opts).run(3, square_point);
  EXPECT_EQ(s.failed, 1u);
  EXPECT_FALSE(s.point_ok(1));
}

// ---- retry backoff (exponential + deterministic jitter) ----

TEST(SweepBackoff, ScheduleIsDeterministicAndExponential) {
  RunnerOptions opts;
  opts.retry_backoff_ms = 10.0;
  // Pure function of (options, point, attempt): identical on every call.
  for (std::size_t p : {0u, 3u, 17u}) {
    for (int a = 1; a <= 4; ++a) {
      EXPECT_EQ(detail::retry_backoff_ms(opts, p, a),
                detail::retry_backoff_ms(opts, p, a));
    }
  }
  // Exponential envelope: base * 2^(a-1) <= delay <= 1.5x that (jitter).
  for (int a = 1; a <= 4; ++a) {
    const double d = detail::retry_backoff_ms(opts, 5, a);
    const double lo = 10.0 * (1 << (a - 1));
    EXPECT_GE(d, lo);
    EXPECT_LE(d, 1.5 * lo);
  }
  // Jitter is seeded from the point index: distinct points decorrelate.
  EXPECT_NE(detail::retry_backoff_ms(opts, 1, 1),
            detail::retry_backoff_ms(opts, 2, 1));
  // The cap bounds the exponential.
  EXPECT_GE(detail::retry_backoff_ms(opts, 1, 30), kRetryBackoffCapMs);
  EXPECT_LE(detail::retry_backoff_ms(opts, 1, 30), 1.5 * kRetryBackoffCapMs);
  // Attempt 0 (first try) and disabled backoff cost nothing.
  EXPECT_EQ(detail::retry_backoff_ms(opts, 1, 0), 0.0);
  opts.retry_backoff_ms = 0.0;
  EXPECT_EQ(detail::retry_backoff_ms(opts, 1, 3), 0.0);
}

TEST(SweepBackoff, DelaysAreRecordedPerAttempt) {
  auto opts = base_options("backoff");
  opts.max_attempts = 3;
  opts.retry_backoff_ms = 1.0;  // fast but nonzero
  SweepRunner run("backoff", opts);
  const auto s = run.run(3, [&](const PointContext& pc) -> Rows {
    if (pc.index == 1) throw std::runtime_error("always fails");
    return square_point(pc);
  });
  ASSERT_EQ(s.outcomes[1].attempts, 3);
  ASSERT_EQ(s.outcomes[1].backoff_ms.size(), 2u);  // before attempts 1 and 2
  EXPECT_EQ(s.outcomes[1].backoff_ms[0], detail::retry_backoff_ms(opts, 1, 1));
  EXPECT_EQ(s.outcomes[1].backoff_ms[1], detail::retry_backoff_ms(opts, 1, 2));
  // Successful points record no delays.
  EXPECT_TRUE(s.outcomes[0].backoff_ms.empty());
}

// ---- strict NVSRAM_SWEEP_* parsing ----

TEST(SweepEnv, MalformedValuesThrowNamingTheVariable) {
  auto check_throws = [](const char* var, const char* value,
                         const char* needle) {
    ::setenv(var, value, 1);
    RunnerOptions opts;
    try {
      opts.apply_env("envstrict");
      ADD_FAILURE() << var << "=" << value << " did not throw";
    } catch (const RunnerError& e) {
      EXPECT_NE(std::string(e.what()).find(var), std::string::npos)
          << e.what();
      EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
          << e.what();
    }
    ::unsetenv(var);
  };
  check_throws("NVSRAM_SWEEP_THREADS", "four", "expected an integer");
  check_throws("NVSRAM_SWEEP_THREADS", "4x", "expected an integer");
  check_throws("NVSRAM_SWEEP_THREADS", "-2", "outside");
  check_throws("NVSRAM_SWEEP_RETRIES", "0", "outside");
  check_throws("NVSRAM_SWEEP_TIMEOUT", "soon", "expected a number");
  check_throws("NVSRAM_SWEEP_TIMEOUT", "-1", "outside");
  check_throws("NVSRAM_SWEEP_SPIN_MS", "", "expected a number");
  check_throws("NVSRAM_SWEEP_CHECKPOINT", "off", "expected 0 or 1");
  check_throws("NVSRAM_SWEEP_FAULT", "envstrict:segv@3", "expected an integer");
  check_throws("NVSRAM_SWEEP_KILL", "envstrict:last", "expected an integer");
}

TEST(SweepEnv, FaultKindVocabularyParses) {
  // The throw fault is the only kind: its spec is K or name:K.
  ::setenv("NVSRAM_SWEEP_FAULT", "4", 1);
  RunnerOptions plain;
  plain.apply_env("anyrunner");  // unscoped: applies to every runner
  EXPECT_EQ(plain.fault_point, 4);

  ::setenv("NVSRAM_SWEEP_FAULT", "scoped:2", 1);
  RunnerOptions scoped;
  scoped.apply_env("scoped");
  EXPECT_EQ(scoped.fault_point, 2);
  RunnerOptions other;
  other.apply_env("otherrunner");  // scoped away: untouched
  EXPECT_EQ(other.fault_point, -1);

  // A kind prefix, even the throw fault's own name, is malformed.
  ::setenv("NVSRAM_SWEEP_FAULT", "throw@4", 1);
  RunnerOptions kind;
  EXPECT_THROW(kind.apply_env("x"), RunnerError);
  ::unsetenv("NVSRAM_SWEEP_FAULT");
}

// ---- checkpoint CRC ----

TEST(SweepCheckpoint, V1FilesReadAsStale) {
  // Only v2 (rows with CRCs) is read: a v1 file is stale, and its sweep
  // recomputes every point to the same CSV as a clean run.
  const auto s_ref =
      SweepRunner("v1stale", base_options("v1stale_ref")).run(4, square_point);
  const auto opts = base_options("v1stale");
  {
    std::ofstream out(opts.checkpoint_path(), std::ios::trunc);
    out << "nvsram-sweep-checkpoint v1\n"
        << "name=v1stale\n"
        << "columns=x,y\n"
        << "point=0 rows=1\n"
        << "0 0\n"
        << "point=2 rows=1\n"
        << "2 4\n"
        << "end\n";
  }
  EXPECT_TRUE(
      checkpoint::load(opts.checkpoint_path(), "v1stale", {"x", "y"}, 4)
          .empty());
  const auto s = SweepRunner("v1stale", opts).run(4, square_point);
  EXPECT_TRUE(s.all_ok());
  EXPECT_EQ(s.resumed, 0u);
  EXPECT_EQ(slurp(s.csv_path), slurp(s_ref.csv_path));
}

TEST(SweepCheckpoint, CorruptTailRewindsToValidPrefix) {
  // Write a real v2 checkpoint with 3 points, then corrupt point 1's row.
  const std::string path = tmp_csv("crc") + ".ckpt";
  std::map<std::size_t, Rows> done;
  done[0] = {{0.0, 0.0}};
  done[1] = {{1.0, 1.0}};
  done[2] = {{2.0, 4.0}};
  checkpoint::store(path, "crc", {"x", "y"}, done);
  ASSERT_EQ(checkpoint::load(path, "crc", {"x", "y"}, 3).size(), 3u);

  std::string text = slurp(path);
  const std::size_t row1 = text.find("\n1 1 *");
  ASSERT_NE(row1, std::string::npos);
  text[row1 + 1] = '7';  // flip the first value byte of point 1's row
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text;
  }
  const auto loaded = checkpoint::load(path, "crc", {"x", "y"}, 3);
  // Point 0 survives; the corrupted record and everything after rewind.
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.count(0), 1u);
}

TEST(SweepCheckpoint, TruncatedMidRowRewinds) {
  const std::string path = tmp_csv("trunc") + ".ckpt";
  std::map<std::size_t, Rows> done;
  done[0] = {{0.0, 0.0}};
  done[1] = {{1.0, 1.0}};
  checkpoint::store(path, "trunc", {"x", "y"}, done);
  std::string text = slurp(path);
  const std::size_t cut = text.find("point=1");
  ASSERT_NE(cut, std::string::npos);
  {
    std::ofstream out(path, std::ios::trunc | std::ios::binary);
    out << text.substr(0, cut + 10);  // torn mid-record
  }
  const auto loaded = checkpoint::load(path, "trunc", {"x", "y"}, 2);
  ASSERT_EQ(loaded.size(), 1u);
  EXPECT_EQ(loaded.count(0), 1u);
}

TEST(SweepCheckpoint, CorruptionHealsToByteIdenticalResume) {
  // Reference: clean uninterrupted run.
  SweepRunner ref("crcresume", base_options("crcresume_ref"));
  const auto s_ref = ref.run(5, square_point);

  // Interrupted run leaves a checkpoint with 3 points; corrupt its tail.
  auto opts = base_options("crcresume");
  opts.stop_after_point = 2;
  (void)SweepRunner("crcresume", opts).run(5, square_point);
  const std::string ckpt = opts.csv_path + ".ckpt";
  std::string text = slurp(ckpt);
  ASSERT_FALSE(text.empty());
  text[text.size() - 8] ^= 0x20;  // garble inside the trailing bytes
  {
    std::ofstream out(ckpt, std::ios::trunc | std::ios::binary);
    out << text;
  }

  // Resume recomputes whatever rewound and still matches byte-for-byte.
  auto opts2 = base_options("crcresume");
  const auto s2 = SweepRunner("crcresume", opts2).run(5, square_point);
  EXPECT_TRUE(s2.all_ok());
  EXPECT_EQ(slurp(s2.csv_path), slurp(s_ref.csv_path));

  // No CRC covers a record header: a row count no allocation could hold
  // must rewind to the records before it, not abort the sweep.
  (void)SweepRunner("crcresume", opts).run(5, square_point);
  text = slurp(ckpt);
  const std::string header = "point=1 rows=1\n";
  const std::size_t at = text.find(header);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, header.size(), "point=1 rows=100000000000000\n");
  {
    std::ofstream out(ckpt, std::ios::trunc | std::ios::binary);
    out << text;
  }
  EXPECT_EQ(checkpoint::load(ckpt, "crcresume", {"x", "y"}, 5).size(), 1u);
  const auto s3 = SweepRunner("crcresume", opts2).run(5, square_point);
  EXPECT_TRUE(s3.all_ok());
  EXPECT_EQ(s3.resumed, 1u);
  EXPECT_EQ(slurp(s3.csv_path), slurp(s_ref.csv_path));
}

TEST(SweepRunner, RowWidthMismatchIsAHarnessError) {
  SweepRunner run("width", base_options("width"));
  EXPECT_THROW((void)run.run(1,
                             [](const PointContext&) -> Rows {
                               return {{1.0, 2.0, 3.0}};  // 3 values, 2 cols
                             }),
               std::runtime_error);
}

}  // namespace
}  // namespace nvsram::runner
