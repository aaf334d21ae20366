// NV-SRAM cell behaviour: the store (2-step CIMS) and restore operations,
// the V_CTRL leakage-control mechanism of Fig. 3(a), the store-current
// margins of Figs. 3(b)/(c), and the power-switch design curve of Fig. 4.
#include <gtest/gtest.h>

#include <cmath>
#include <string>

#include "models/paper_params.h"
#include "sram/characterize.h"
#include "sram/testbench.h"
#include "util/stats.h"

namespace nvsram {
namespace {

using models::MtjState;
using models::PaperParams;
using sram::CellKind;
using sram::CellTestbench;

// Full power-gating round trip for one data value.
void round_trip(bool data) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(data);
  tb.op_idle(1e-9);
  tb.op_store();
  tb.op_shutdown(3e-6);  // VVDD fully collapses
  tb.op_restore();
  tb.op_idle(2e-9);
  auto res = tb.run();

  // MTJ states after store: H side AP, L side P.
  EXPECT_EQ(tb.mtj_q()->state(),
            data ? MtjState::kAntiparallel : MtjState::kParallel)
      << "data=" << data;
  EXPECT_EQ(tb.mtj_qb()->state(),
            data ? MtjState::kParallel : MtjState::kAntiparallel);

  // Virtual VDD must have collapsed during shutdown (real power-off).
  const auto& sd = res.phase("shutdown");
  EXPECT_LT(res.wave.value_at("V(VVDD)", sd.t1 - 1e-9), 0.25);

  // Data recovered after wake-up.
  const double t_end = tb.now() - 0.5e-9;
  const double q = res.wave.value_at("V(Q)", t_end);
  const double qb = res.wave.value_at("V(QB)", t_end);
  if (data) {
    EXPECT_GT(q, 0.8);
    EXPECT_LT(qb, 0.1);
  } else {
    EXPECT_LT(q, 0.1);
    EXPECT_GT(qb, 0.8);
  }
}

TEST(NvSramCell, StoreShutdownRestoreDataOne) { round_trip(true); }
TEST(NvSramCell, StoreShutdownRestoreDataZero) { round_trip(false); }

TEST(NvSramCell, StoreIsTwoStep) {
  // After step 1 (H-store) only the H-side MTJ has switched; the L-side
  // switches in step 2.
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(true);
  tb.op_idle(1e-9);
  tb.op_store();
  auto res = tb.run();
  (void)res;
  EXPECT_EQ(tb.mtj_q()->state(), MtjState::kAntiparallel);
  EXPECT_EQ(tb.mtj_qb()->state(), MtjState::kParallel);
  EXPECT_EQ(tb.mtj_q()->switch_count() + tb.mtj_qb()->switch_count(), 1)
      << "both MTJs started P: only the H-store switch happens for data=1";
}

TEST(NvSramCell, StoreOverwritesOppositeData) {
  // Store 1, then write 0 and store again: both MTJs must flip.
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(true);
  tb.op_idle(1e-9);
  tb.op_store();
  tb.op_idle(1e-9);
  tb.op_write(false);
  tb.op_idle(1e-9);
  tb.op_store();
  auto res = tb.run();
  (void)res;
  EXPECT_EQ(tb.mtj_q()->state(), MtjState::kParallel);
  EXPECT_EQ(tb.mtj_qb()->state(), MtjState::kAntiparallel);
}

TEST(NvSramCell, NormalOperationDoesNotDisturbMtjs) {
  // Reads and writes with SR low must never switch an MTJ (the electrical
  // separation that defines the NVPG architecture).
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(true);
  tb.op_write(false);
  tb.op_read();
  tb.op_write(true);
  tb.op_read();
  tb.op_idle(2e-9);
  auto res = tb.run();
  (void)res;
  EXPECT_EQ(tb.mtj_q()->switch_count(), 0);
  EXPECT_EQ(tb.mtj_qb()->switch_count(), 0);
}

TEST(NvSramCell, RestoreWithoutStoreRecoversMtjData) {
  // "Store-free shutdown": MTJs already hold 1; write 0 but shut down
  // WITHOUT storing — wake-up must bring back the OLD data (1).
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(true);
  tb.op_idle(1e-9);
  tb.op_store();
  tb.op_idle(1e-9);
  tb.op_write(false);  // volatile only
  tb.op_idle(1e-9);
  tb.op_shutdown(3e-6);
  tb.op_restore();
  tb.op_idle(2e-9);
  auto res = tb.run();
  const double t_end = tb.now() - 0.5e-9;
  EXPECT_GT(res.wave.value_at("V(Q)", t_end), 0.8);  // old data back
}

TEST(NvSramCell, StoreCurrentExceedsMarginAtPaperBias) {
  // Both store steps must reach the 1.5 x Ic design margin at the Table I
  // bias point (V_SR = 0.65 V, V_CTRL = 0.5 V).
  const auto pp = PaperParams::table1();
  sram::CellCharacterizer ch(pp);
  const double target = pp.store_current_factor * pp.mtj.critical_current();

  const auto h = ch.store_current_vs_vsr({pp.vsr});
  ASSERT_EQ(h.size(), 1u);
  EXPECT_GE(h[0].second, target * 0.95);

  const auto l = ch.store_current_vs_vctrl({pp.vctrl_store});
  ASSERT_EQ(l.size(), 1u);
  EXPECT_GE(l[0].second, target * 0.95);
}

TEST(NvSramCell, Fig3bStoreCurrentMonotoneInVsr) {
  sram::CellCharacterizer ch(PaperParams::table1());
  const auto pts = ch.store_current_vs_vsr(util::linspace(0.2, 0.9, 8));
  std::vector<double> currents;
  for (const auto& [v, i] : pts) currents.push_back(i);
  EXPECT_TRUE(util::is_monotone_nondecreasing(currents, 1e-6));
  EXPECT_LT(pts.front().second, 0.5 * pts.back().second);
}

TEST(NvSramCell, Fig3cStoreCurrentMonotoneInVctrl) {
  sram::CellCharacterizer ch(PaperParams::table1());
  const auto pts = ch.store_current_vs_vctrl(util::linspace(0.1, 0.7, 7));
  std::vector<double> currents;
  for (const auto& [v, i] : pts) currents.push_back(i);
  EXPECT_TRUE(util::is_monotone_nondecreasing(currents, 1e-6));
}

TEST(NvSramCell, Fig3aVctrlControlsLeakage) {
  sram::CellCharacterizer ch(PaperParams::table1());
  const auto sweep = ch.leakage_vs_vctrl({0.0, 0.07, 0.15});
  ASSERT_EQ(sweep.points.size(), 3u);
  // Grounded CTRL leaks noticeably more than the optimized 0.07 V bias.
  EXPECT_GT(sweep.points[0].current_nv, 1.1 * sweep.points[1].current_nv);
  // At the optimized bias the NV cell is comparable to the 6T cell (< 10%).
  EXPECT_LT(sweep.points[1].current_nv, 1.10 * sweep.current_6t);
  EXPECT_GT(sweep.points[1].current_nv, sweep.current_6t);  // but not below
  // A point that does not solve names itself in the error.
  try {
    ch.leakage_vs_vctrl({std::nan("")});
    ADD_FAILURE() << "a NaN CTRL bias solved";
  } catch (const spice::SolverError& e) {
    EXPECT_NE(std::string(e.what()).find("vctrl=nan, data=1"),
              std::string::npos)
        << e.what();
  }
}

TEST(NvSramCell, Fig4VvddDegradesWithFewerFins) {
  sram::CellCharacterizer ch(PaperParams::table1());
  const auto pts = ch.vvdd_vs_switch_fins({1, 3, 7});
  ASSERT_EQ(pts.size(), 3u);
  // Normal mode barely loads the switch.
  for (const auto& p : pts) EXPECT_GT(p.vvdd_normal, 0.89);
  // Store mode: droop shrinks with fin count; 7 fins >= 97% VDD (Fig. 4).
  EXPECT_LT(pts[0].vvdd_store, pts[1].vvdd_store);
  EXPECT_LT(pts[1].vvdd_store, pts[2].vvdd_store);
  EXPECT_GT(pts[2].vvdd_store, 0.97 * 0.9);
}

TEST(NvSramCell, SleepModeRetainsDataWithoutMtj) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(false);
  tb.op_idle(1e-9);
  tb.op_sleep(300e-9);
  tb.op_idle(2e-9);
  auto res = tb.run();
  EXPECT_LT(res.wave.value_at("V(Q)", tb.now() - 0.5e-9), 0.1);
  EXPECT_GT(res.wave.value_at("V(QB)", tb.now() - 0.5e-9), 0.8);
  EXPECT_EQ(tb.mtj_q()->switch_count(), 0);
}

TEST(NvSramCell, StoreEnergyDominatesAccessEnergy) {
  // The paper's core quantitative point: one MTJ store costs ~two orders
  // more than a volatile access, which is why NOF run-time energy explodes.
  sram::CellCharacterizer ch(PaperParams::table1());
  const auto nv = ch.characterize(CellKind::kNvSram);
  EXPECT_GT(nv.e_store, 20.0 * nv.e_write);
  EXPECT_GT(nv.e_store, 20.0 * nv.e_read);
}

}  // namespace
}  // namespace nvsram
