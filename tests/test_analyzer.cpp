// End-to-end: SPICE characterization feeding the architecture model — the
// paper's evaluation claims on the real simulated numbers.
#include <gtest/gtest.h>

#include "core/analyzer.h"
#include "lint/report.h"
#include "sram/characterize.h"
#include "sram/characterize_cache.h"
#include "util/stats.h"
#include "util/watchdog.h"

namespace nvsram {
namespace {

using core::Architecture;
using core::BenchmarkParams;
using core::PowerGatingAnalyzer;

class AnalyzerTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    analyzer_ = new PowerGatingAnalyzer(models::PaperParams::table1());
  }
  static void TearDownTestSuite() {
    delete analyzer_;
    analyzer_ = nullptr;
  }
  static PowerGatingAnalyzer* analyzer_;
};

PowerGatingAnalyzer* AnalyzerTest::analyzer_ = nullptr;

TEST_F(AnalyzerTest, CharacterizationVerified) {
  EXPECT_TRUE(analyzer_->cell_nv().store_verified);
  EXPECT_TRUE(analyzer_->cell_nv().restore_verified);
}

TEST_F(AnalyzerTest, Fig7aShapes) {
  BenchmarkParams base;
  base.t_sl = 100e-9;
  base.t_sd = 0.0;
  const std::vector<int> grid{1, 3, 10, 30, 100, 300, 1000, 3000, 10000};
  const auto osr = analyzer_->ecyc_vs_nrw(Architecture::kOSR, grid, base);
  const auto nvpg = analyzer_->ecyc_vs_nrw(Architecture::kNVPG, grid, base);
  const auto nof = analyzer_->ecyc_vs_nrw(Architecture::kNOF, grid, base);

  // NVPG -> OSR asymptotically (the residual few-percent gap is the NV
  // cell's slightly higher leakage/capacitance); NOF stays well above.
  EXPECT_GT(nvpg.front().second / osr.front().second, 2.0);
  EXPECT_LT(nvpg.back().second / osr.back().second, 1.10);
  EXPECT_GE(nvpg.back().second / osr.back().second, 1.0);
  for (std::size_t i = 0; i < grid.size(); ++i) {
    EXPECT_GT(nof[i].second / osr[i].second, 2.5) << "n_rw=" << grid[i];
  }
  // NVPG ~ NOF at n_RW = 1 (same store count).
  EXPECT_NEAR(nvpg.front().second / nof.front().second, 1.0, 0.4);
}

TEST_F(AnalyzerTest, Fig7bLargeDomainCrossover) {
  BenchmarkParams base;
  base.t_sl = 100e-9;
  base.cols = 32;
  base.rows = 2048;  // 8 kB domain
  base.n_rw = 1;
  const double nvpg1 = analyzer_->model().e_cyc(Architecture::kNVPG, base);
  const double nof1 = analyzer_->model().e_cyc(Architecture::kNOF, base);
  EXPECT_GT(nvpg1, nof1);  // NVPG briefly loses for huge domains

  base.n_rw = 100;
  const double nvpg100 = analyzer_->model().e_cyc(Architecture::kNVPG, base);
  const double nof100 = analyzer_->model().e_cyc(Architecture::kNOF, base);
  EXPECT_LT(nvpg100, nof100);  // ...but recovers quickly
}

TEST_F(AnalyzerTest, Fig8NormalizedCurvesCrossUnity) {
  BenchmarkParams base;
  base.n_rw = 100;
  base.t_sl = 100e-9;
  const auto t_grid = util::logspace(1e-6, 1e-1, 26);
  const auto norm =
      analyzer_->ecyc_vs_tsd_normalized(Architecture::kNVPG, t_grid, base);
  // Starts above 1 (extra store energy), ends below 1 (leakage saved).
  EXPECT_GT(norm.front().second, 1.0);
  EXPECT_LT(norm.back().second, 1.0);
  std::vector<double> values;
  for (const auto& [t, v] : norm) values.push_back(v);
  EXPECT_TRUE(util::is_monotone_nonincreasing(values, 1e-9));
}

TEST_F(AnalyzerTest, BetInPaperBand) {
  BenchmarkParams base;
  base.n_rw = 10;
  base.rows = 32;
  base.t_sl = 100e-9;
  const auto bet = analyzer_->model().break_even_time(Architecture::kNVPG, base);
  ASSERT_TRUE(bet.has_value());
  EXPECT_GT(*bet, 10e-6);   // several 10 us
  EXPECT_LT(*bet, 200e-6);
}

TEST_F(AnalyzerTest, Fig9aBetVsRows) {
  BenchmarkParams base;
  base.n_rw = 100;
  base.t_sl = 100e-9;
  const std::vector<int> rows{32, 64, 128, 256, 512, 1024, 2048};
  const auto bets = analyzer_->bet_vs_rows(Architecture::kNVPG, rows, base);
  ASSERT_EQ(bets.size(), rows.size());
  std::vector<double> values;
  for (const auto& b : bets) values.push_back(b.bet);
  EXPECT_TRUE(util::is_monotone_nondecreasing(values));

  // Store-free shutdown: dramatically shorter BET.
  base.store_free_shutdown = true;
  const auto sf = analyzer_->bet_vs_rows(Architecture::kNVPG, rows, base);
  ASSERT_EQ(sf.size(), rows.size());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    EXPECT_LT(sf[i].bet, 0.75 * bets[i].bet) << "rows=" << rows[i];
  }
  // The paper's "several us" band is reached at light inner loops (its
  // bottom Fig. 9(a) curve is n_RW = 10).
  BenchmarkParams light = base;
  light.n_rw = 10;
  light.rows = 32;
  const auto bet_light =
      analyzer_->model().break_even_time(Architecture::kNVPG, light);
  ASSERT_TRUE(bet_light.has_value());
  EXPECT_LT(*bet_light, 10e-6);
}

TEST_F(AnalyzerTest, NofSlowdownIsSevere) {
  BenchmarkParams base;
  base.n_rw = 100;
  base.t_sl = 0.0;
  EXPECT_GT(analyzer_->cycle_time_ratio(Architecture::kNOF, base), 3.0);
  EXPECT_LT(analyzer_->cycle_time_ratio(Architecture::kNVPG, base), 1.05);
}

TEST(AnalyzerFast, Fig9bFastTechnologyShrinksBet) {
  PowerGatingAnalyzer slow(models::PaperParams::table1());
  PowerGatingAnalyzer fast(models::PaperParams::table1_fast());
  BenchmarkParams base;
  base.n_rw = 100;
  base.rows = 256;
  base.t_sl = 100e-9;
  const auto bet_slow = slow.model().break_even_time(Architecture::kNVPG, base);
  const auto bet_fast = fast.model().break_even_time(Architecture::kNVPG, base);
  ASSERT_TRUE(bet_slow && bet_fast);
  EXPECT_LT(*bet_fast, 0.6 * *bet_slow);
}

// Every field, by ==: the concurrent characterization must not move a bit.
void expect_same_cell(const sram::CellEnergetics& a,
                      const sram::CellEnergetics& b) {
  EXPECT_EQ(a.t_clk, b.t_clk);
  EXPECT_EQ(a.e_read, b.e_read);
  EXPECT_EQ(a.e_write, b.e_write);
  EXPECT_EQ(a.p_static_normal, b.p_static_normal);
  EXPECT_EQ(a.p_static_sleep, b.p_static_sleep);
  EXPECT_EQ(a.p_static_shutdown, b.p_static_shutdown);
  EXPECT_EQ(a.e_store, b.e_store);
  EXPECT_EQ(a.t_store, b.t_store);
  EXPECT_EQ(a.e_restore, b.e_restore);
  EXPECT_EQ(a.t_restore, b.t_restore);
  EXPECT_EQ(a.e_sleep_transition, b.e_sleep_transition);
  EXPECT_EQ(a.store_verified, b.store_verified);
  EXPECT_EQ(a.restore_verified, b.restore_verified);
  EXPECT_EQ(a.gmin_recoveries, b.gmin_recoveries);
  EXPECT_EQ(a.source_recoveries, b.source_recoveries);
}

TEST(AnalyzerConcurrent, CellsMatchCharacterizerOnTheCallingThread) {
  for (const auto& pp : {models::PaperParams::table1(),
                         models::PaperParams::table1_fast()}) {
    // Cold: the analyzer must compute both cells itself, on two threads.
    sram::characterize_cache_clear();
    const PowerGatingAnalyzer an(pp);
    EXPECT_EQ(sram::characterize_cache_stats().misses, 2u);
    const sram::CellCharacterizer ch(pp);
    SCOPED_TRACE(pp == models::PaperParams::table1() ? "table1" : "fast");
    {
      SCOPED_TRACE("6T");
      expect_same_cell(an.cell_6t(), ch.characterize(sram::CellKind::k6T));
    }
    {
      SCOPED_TRACE("NV-SRAM");
      expect_same_cell(an.cell_nv(), ch.characterize(sram::CellKind::kNvSram));
    }
  }
}

TEST(AnalyzerConcurrent, NvCellLintErrorSurfacesFromTheWorkerThread) {
  // A 2 ns store pulse is shorter than the MTJ switching time: the NV-SRAM
  // cell's lint gate refuses its schedule, while the 6T cell, which never
  // stores, characterizes.  So the LintError is thrown on the NV-SRAM
  // cell's thread and must reach the analyzer's caller.
  auto pp = models::PaperParams::table1();
  pp.store_pulse = 2e-9;
  const sram::CellCharacterizer ch(pp);
  EXPECT_NO_THROW(ch.characterize(sram::CellKind::k6T));
  EXPECT_THROW(ch.characterize(sram::CellKind::kNvSram), lint::LintError);
  EXPECT_THROW(PowerGatingAnalyzer{pp}, lint::LintError);
}

TEST(AnalyzerWatchdog, TinyBudgetExpiresInsideCharacterization) {
  // The characterization takes a few hundred ms; a 10 ms budget must fire
  // inside the SPICE phase (transient steps / ladder rungs check the
  // deadline) instead of letting construction run to completion.
  EXPECT_THROW(PowerGatingAnalyzer(models::PaperParams::table1(), 0.01),
               util::WatchdogError);
}

TEST(AnalyzerWatchdog, UnlimitedBudgetStillCharacterizes) {
  // 0 = unlimited is the default path every other test exercises; a large
  // finite budget must behave identically.
  PowerGatingAnalyzer an(models::PaperParams::table1(), 300.0);
  EXPECT_TRUE(an.cell_nv().store_verified);
}

}  // namespace
}  // namespace nvsram
