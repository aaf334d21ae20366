// Paper-figure golden-regression tier.
//
// Two layers of protection for the headline results:
//  * shape claims — the qualitative statements of Figs. 7-9 (NVPG converges
//    to OSR at large n_RW, the large-domain NOF crossover dies by
//    n_RW ~ 10, BET bands) asserted directly on the energy model, so a
//    physics regression fails with a readable message;
//  * golden values — the characterized cell energetics and derived
//    headline numbers pinned against tests/golden/paper_golden.csv with a
//    relative tolerance, so silent numeric drift anywhere in the
//    device-model / solver / characterization stack is caught.
//
// Regenerate the goldens after an *intentional* physics change with
//   NVSRAM_UPDATE_GOLDENS=1 ./test_paper_golden
// and commit the rewritten CSV alongside the change.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/analyzer.h"
#include "models/paper_params.h"
#include "sram/array.h"
#include "sram/nvff.h"

namespace nvsram::core {
namespace {

// Characterization costs a few hundred ms: share one analyzer per process.
const PowerGatingAnalyzer& analyzer() {
  static const PowerGatingAnalyzer an(models::PaperParams::table1());
  return an;
}

BenchmarkParams base_params() {
  BenchmarkParams p;
  p.n_rw = 100;
  p.t_sl = 100e-9;
  p.t_sd = 0.0;
  p.rows = 32;
  p.cols = 32;
  return p;
}

double ratio(Architecture a, const BenchmarkParams& p) {
  return analyzer().model().e_cyc(a, p) /
         analyzer().model().e_cyc(Architecture::kOSR, p);
}

// ---- Fig. 7(a): NVPG converges to OSR, NOF stays above ----

TEST(PaperGolden, Fig7aNvpgConvergesToOsrAtLargeNrw) {
  BenchmarkParams p = base_params();
  double prev = 1e300;
  for (int n_rw : {10, 100, 1000, 10000}) {
    p.n_rw = n_rw;
    const double r = ratio(Architecture::kNVPG, p);
    EXPECT_GE(r, 1.0) << "n_rw=" << n_rw;  // the store overhead never pays off
                                           // without a shutdown to amortize
    EXPECT_LE(r, prev * (1.0 + 1e-12)) << "n_rw=" << n_rw;
    prev = r;
  }
  // By n_RW = 10000 the one-off store/restore is fully amortized; what is
  // left is the NV cell's slightly higher access energy (a few percent).
  p.n_rw = 10000;
  EXPECT_NEAR(ratio(Architecture::kNVPG, p), 1.0, 0.10);
}

TEST(PaperGolden, Fig7aNofStaysFarAboveOsr) {
  // NOF pays a store per write and a wake-up per access, so unlike NVPG its
  // penalty is per inner-loop iteration and never amortizes: the NOF/OSR
  // ratio stays an order of magnitude above 1 at every n_RW, and above the
  // NVPG ratio everywhere.
  BenchmarkParams p = base_params();
  for (int n_rw : {1, 10, 100, 1000, 10000}) {
    p.n_rw = n_rw;
    const double r = ratio(Architecture::kNOF, p);
    EXPECT_GT(r, 10.0) << "n_rw=" << n_rw;
    EXPECT_GT(r, ratio(Architecture::kNVPG, p)) << "n_rw=" << n_rw;
  }
}

// ---- Fig. 7(b): the large-domain NOF advantage dies by n_RW ~ 10 ----

TEST(PaperGolden, Fig7bNofCrossoverDeadByNrw10) {
  BenchmarkParams p = base_params();
  for (int rows : {256, 2048}) {
    p.rows = rows;
    for (int n_rw : {10, 30, 100}) {
      p.n_rw = n_rw;
      EXPECT_LE(analyzer().model().e_cyc(Architecture::kNVPG, p),
                analyzer().model().e_cyc(Architecture::kNOF, p))
          << "rows=" << rows << " n_rw=" << n_rw;
    }
  }
  // ...and the crossover is real: at N = 2048 and a single access burst the
  // row-serialized store wait makes NVPG lose to NOF.
  p.rows = 2048;
  p.n_rw = 1;
  EXPECT_GT(analyzer().model().e_cyc(Architecture::kNVPG, p),
            analyzer().model().e_cyc(Architecture::kNOF, p));
}

// ---- Fig. 8: break-even-time bands ----

TEST(PaperGolden, Fig8NvpgBetInTensOfMicroseconds) {
  const auto bet =
      analyzer().model().break_even_time(Architecture::kNVPG, base_params());
  ASSERT_TRUE(bet.has_value());
  EXPECT_GE(*bet, 1e-5);
  EXPECT_LE(*bet, 1e-4);
}

TEST(PaperGolden, Fig8NofBetIsNrwDependentAndLonger) {
  BenchmarkParams p = base_params();
  const auto bet_nvpg = analyzer().model().break_even_time(Architecture::kNVPG, p);
  const auto bet_nof_100 = analyzer().model().break_even_time(Architecture::kNOF, p);
  ASSERT_TRUE(bet_nvpg.has_value());
  ASSERT_TRUE(bet_nof_100.has_value());
  // NOF accumulates a store per write across the whole inner loop, so its
  // crossing is far beyond NVPG's...
  EXPECT_GT(*bet_nof_100, 2.0 * *bet_nvpg);
  // ...and strongly n_RW dependent, unlike NVPG's.
  p.n_rw = 10;
  const auto bet_nof_10 = analyzer().model().break_even_time(Architecture::kNOF, p);
  const auto bet_nvpg_10 = analyzer().model().break_even_time(Architecture::kNVPG, p);
  ASSERT_TRUE(bet_nof_10.has_value());
  ASSERT_TRUE(bet_nvpg_10.has_value());
  p.n_rw = 1000;
  const auto bet_nof_1000 = analyzer().model().break_even_time(Architecture::kNOF, p);
  const auto bet_nvpg_1000 = analyzer().model().break_even_time(Architecture::kNVPG, p);
  ASSERT_TRUE(bet_nof_1000.has_value());
  ASSERT_TRUE(bet_nvpg_1000.has_value());
  const double nof_spread =
      std::max(*bet_nof_10, *bet_nof_1000) / std::min(*bet_nof_10, *bet_nof_1000);
  const double nvpg_spread = std::max(*bet_nvpg_10, *bet_nvpg_1000) /
                             std::min(*bet_nvpg_10, *bet_nvpg_1000);
  EXPECT_GT(nof_spread, 2.0);
  EXPECT_LT(nvpg_spread, nof_spread);
}

// ---- Fig. 9(a): store-free shutdown cuts BET to a few microseconds ----

TEST(PaperGolden, Fig9aStoreFreeShutdownBetFewMicroseconds) {
  BenchmarkParams p = base_params();
  const auto with_store =
      analyzer().model().break_even_time(Architecture::kNVPG, p);
  p.store_free_shutdown = true;
  const auto store_free =
      analyzer().model().break_even_time(Architecture::kNVPG, p);
  ASSERT_TRUE(with_store.has_value());
  ASSERT_TRUE(store_free.has_value());
  EXPECT_GE(*store_free, 1e-7);
  EXPECT_LE(*store_free, 2e-5);
  EXPECT_LT(*store_free, 0.5 * *with_store);
}

// ---- golden values ----

std::map<std::string, double> compute_goldens(const PowerGatingAnalyzer& an) {
  const auto& c6 = an.cell_6t();
  const auto& cn = an.cell_nv();
  std::map<std::string, double> g;

  g["6t.t_clk"] = c6.t_clk;
  g["6t.e_read"] = c6.e_read;
  g["6t.e_write"] = c6.e_write;
  g["6t.p_static_normal"] = c6.p_static_normal;
  g["6t.p_static_sleep"] = c6.p_static_sleep;
  g["6t.p_static_shutdown"] = c6.p_static_shutdown;

  g["nv.e_read"] = cn.e_read;
  g["nv.e_write"] = cn.e_write;
  g["nv.e_store"] = cn.e_store;
  g["nv.t_store"] = cn.t_store;
  g["nv.e_restore"] = cn.e_restore;
  g["nv.t_restore"] = cn.t_restore;
  g["nv.e_sleep_transition"] = cn.e_sleep_transition;
  g["nv.p_static_normal"] = cn.p_static_normal;
  g["nv.p_static_sleep"] = cn.p_static_sleep;
  g["nv.p_static_shutdown"] = cn.p_static_shutdown;

  BenchmarkParams p = base_params();
  p.t_sd = 100e-6;
  g["fig8.ecyc_osr_tsd100us"] = an.model().e_cyc(Architecture::kOSR, p);
  g["fig8.ecyc_nvpg_tsd100us"] = an.model().e_cyc(Architecture::kNVPG, p);
  g["fig8.ecyc_nof_tsd100us"] = an.model().e_cyc(Architecture::kNOF, p);

  p = base_params();
  g["fig8.bet_nvpg_nrw100"] =
      an.model().break_even_time(Architecture::kNVPG, p).value_or(-1.0);
  g["fig8.bet_nof_nrw100"] =
      an.model().break_even_time(Architecture::kNOF, p).value_or(-1.0);
  p.store_free_shutdown = true;
  g["fig9.bet_nvpg_storefree_nrw100"] =
      an.model().break_even_time(Architecture::kNVPG, p).value_or(-1.0);
  p = base_params();
  p.rows = 1024;
  g["fig9.bet_nvpg_rows1024"] =
      an.model().break_even_time(Architecture::kNVPG, p).value_or(-1.0);

  // The NV-FF script (sram/nvff.cpp): register-bank energies and times.
  const auto ff = sram::characterize_nvff(models::PaperParams::table1());
  g["nvff.e_clock"] = ff.e_clock;
  g["nvff.e_store"] = ff.e_store;
  g["nvff.t_store"] = ff.t_store;
  g["nvff.e_restore"] = ff.e_restore;
  g["nvff.t_restore"] = ff.t_restore;
  g["nvff.p_static_hold"] = ff.p_static_hold;
  g["nvff.p_static_shutdown"] = ff.p_static_shutdown;

  // The array script (sram/array.cpp): every phase of a 2x2 NV round trip.
  // A repeated phase name gets its occurrence as a suffix (idle, idle_1).
  sram::ArrayOptions ao;
  ao.rows = 2;
  ao.cols = 2;
  sram::ArrayTestbench tb(models::PaperParams::table1(), ao);
  tb.op_write_row(0, {true, false});
  tb.op_write_row(1, {false, true});
  tb.op_idle(1e-9);
  tb.op_store_all_rows();
  tb.op_shutdown_all(3e-6);
  tb.op_restore_all_rows();
  tb.op_idle(2e-9);
  const auto res = tb.run();
  std::map<std::string, int> seen;
  for (const auto& ph : res.phases) {
    std::string key = "array2x2.e_" + ph.name;
    if (const int n = seen[ph.name]++; n > 0) {
      key += '_';
      key += std::to_string(n);
    }
    g[key] = res.energy(ph.t0, ph.t1);
  }
  g["array2x2.e_total"] = res.total_energy();
  return g;
}

std::string golden_path() {
  return std::string(NVSRAM_GOLDEN_DIR) + "/paper_golden.csv";
}

std::map<std::string, double> load_goldens(const std::string& path) {
  std::ifstream in(path);
  std::map<std::string, double> g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line == "key,value") continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    g[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
  }
  return g;
}

TEST(PaperGolden, GoldenValuesMatchCheckedInFile) {
  const auto computed = compute_goldens(analyzer());

  if (std::getenv("NVSRAM_UPDATE_GOLDENS")) {
    std::ofstream out(golden_path(), std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << golden_path();
    out << "# Golden headline values; regenerate with "
           "NVSRAM_UPDATE_GOLDENS=1 ./test_paper_golden\n"
        << "key,value\n";
    char buf[64];
    for (const auto& [key, value] : computed) {
      std::snprintf(buf, sizeof(buf), "%.17g", value);
      out << key << ',' << buf << '\n';
    }
    GTEST_SKIP() << "goldens regenerated at " << golden_path();
  }

  const auto golden = load_goldens(golden_path());
  ASSERT_FALSE(golden.empty())
      << "missing " << golden_path()
      << " — run NVSRAM_UPDATE_GOLDENS=1 ./test_paper_golden once";

  // Exact key-set match: a new metric must be recorded, a dropped one
  // deliberately removed from the golden file.
  for (const auto& [key, value] : golden) {
    EXPECT_TRUE(computed.count(key)) << "stale golden key: " << key;
  }
  constexpr double kRtol = 1e-3;
  for (const auto& [key, value] : computed) {
    ASSERT_TRUE(golden.count(key)) << "unrecorded golden key: " << key;
    const double want = golden.at(key);
    const double tol = kRtol * std::max(std::fabs(want), std::fabs(value));
    EXPECT_NEAR(value, want, tol) << key;
  }
}

}  // namespace
}  // namespace nvsram::core
