// CellCharacterizer: sanity and consistency of the quantities handed to the
// architecture-level energy model.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <utility>

#include "lint/report.h"
#include "lint/rules.h"
#include "models/paper_params.h"
#include "sram/characterize.h"
#include "sram/testbench.h"

namespace nvsram {
namespace {

using models::PaperParams;
using sram::CellCharacterizer;
using sram::CellEnergetics;
using sram::CellKind;
using sram::CellTestbench;
using sram::TestbenchOptions;

class CharacterizeTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    const auto pp = PaperParams::table1();
    CellCharacterizer ch(pp);
    cell_6t_ = new CellEnergetics(ch.characterize(CellKind::k6T));
    cell_nv_ = new CellEnergetics(ch.characterize(CellKind::kNvSram));
  }
  static void TearDownTestSuite() {
    delete cell_6t_;
    delete cell_nv_;
    cell_6t_ = nullptr;
    cell_nv_ = nullptr;
  }
  static CellEnergetics* cell_6t_;
  static CellEnergetics* cell_nv_;
};

CellEnergetics* CharacterizeTest::cell_6t_ = nullptr;
CellEnergetics* CharacterizeTest::cell_nv_ = nullptr;

TEST_F(CharacterizeTest, ClockPeriodMatchesTable1) {
  EXPECT_NEAR(cell_6t_->t_clk, 1.0 / 300e6, 1e-12);
}

TEST_F(CharacterizeTest, AccessEnergiesFemtojouleScale) {
  for (const auto* c : {cell_6t_, cell_nv_}) {
    EXPECT_GT(c->e_read, 0.1e-15);
    EXPECT_LT(c->e_read, 100e-15);
    EXPECT_GT(c->e_write, 0.1e-15);
    EXPECT_LT(c->e_write, 100e-15);
  }
}

TEST_F(CharacterizeTest, NvAccessCostsSlightlyMore) {
  // Extra junction/MTJ loading on the storage nodes.
  EXPECT_GE(cell_nv_->e_read, cell_6t_->e_read);
  EXPECT_GE(cell_nv_->e_write, cell_6t_->e_write);
  EXPECT_LT(cell_nv_->e_write, 2.0 * cell_6t_->e_write);
}

TEST_F(CharacterizeTest, StaticPowerLadder) {
  for (const auto* c : {cell_6t_, cell_nv_}) {
    EXPECT_GT(c->p_static_normal, c->p_static_sleep);
    EXPECT_GT(c->p_static_sleep, c->p_static_shutdown);
    // Super cutoff: at least two orders below sleep (Fig. 6(c)).
    EXPECT_LT(c->p_static_shutdown, 0.01 * c->p_static_sleep);
  }
}

TEST_F(CharacterizeTest, NvLeakageComparableTo6T) {
  // V_CTRL control makes the NV-SRAM static power comparable (Fig. 6(c)).
  EXPECT_LT(cell_nv_->p_static_normal, 1.10 * cell_6t_->p_static_normal);
  EXPECT_GE(cell_nv_->p_static_normal, cell_6t_->p_static_normal);
}

TEST_F(CharacterizeTest, StoreTimingMatchesTable1) {
  // Two steps of (10 ns pulse + margin).
  EXPECT_GE(cell_nv_->t_store, 2 * 10e-9);
  EXPECT_LT(cell_nv_->t_store, 2 * 16e-9);
}

TEST_F(CharacterizeTest, StoreAndRestoreVerifiedBySimulation) {
  EXPECT_TRUE(cell_nv_->store_verified);
  EXPECT_TRUE(cell_nv_->restore_verified);
}

TEST_F(CharacterizeTest, StoreEnergyScale) {
  // ~ 2 x (VDD * 1.5 Ic * 10 ns) plus overheads: hundreds of fJ.
  EXPECT_GT(cell_nv_->e_store, 100e-15);
  EXPECT_LT(cell_nv_->e_store, 2000e-15);
}

TEST_F(CharacterizeTest, RestoreCheaperThanStore) {
  EXPECT_LT(cell_nv_->e_restore, 0.3 * cell_nv_->e_store);
  EXPECT_GT(cell_nv_->e_restore, 0.0);
}

TEST_F(CharacterizeTest, SixTHasNoNonvolatileNumbers) {
  EXPECT_DOUBLE_EQ(cell_6t_->e_store, 0.0);
  EXPECT_DOUBLE_EQ(cell_6t_->t_store, 0.0);
  EXPECT_DOUBLE_EQ(cell_6t_->e_restore, 0.0);
  EXPECT_FALSE(cell_6t_->store_verified);
}

TEST_F(CharacterizeTest, SleepTransitionIsSmall) {
  for (const auto* c : {cell_6t_, cell_nv_}) {
    EXPECT_GE(c->e_sleep_transition, 0.0);
    EXPECT_LT(c->e_sleep_transition, 50e-15);
  }
}

TEST_F(CharacterizeTest, DescribeMentionsVerification) {
  const auto text = cell_nv_->describe();
  EXPECT_NE(text.find("[verified]"), std::string::npos);
  EXPECT_EQ(text.find("NOT VERIFIED"), std::string::npos);
}

TEST(CharacterizeHot, TemperatureRaisesLeakageAndShrinksBet) {
  auto hot_pp = PaperParams::table1();
  hot_pp.temperature = 358.0;  // 85 C
  CellCharacterizer cold(PaperParams::table1());
  CellCharacterizer hot(hot_pp);
  const auto nv_cold = cold.characterize(CellKind::kNvSram);
  const auto nv_hot = hot.characterize(CellKind::kNvSram);
  EXPECT_TRUE(nv_hot.store_verified);
  EXPECT_TRUE(nv_hot.restore_verified);
  EXPECT_GT(nv_hot.p_static_normal, 3.0 * nv_cold.p_static_normal);
  EXPECT_GT(nv_hot.p_static_sleep, 3.0 * nv_cold.p_static_sleep);
}

TEST(CharacterizeFast, FastVariantStoresLess) {
  // Fig. 9(b) technology: Jc = 1e6 A/cm^2 -> 5x lower Ic -> cheaper store.
  CellCharacterizer slow(PaperParams::table1());
  CellCharacterizer fast(PaperParams::table1_fast());
  const auto nv_slow = slow.characterize(CellKind::kNvSram);
  const auto nv_fast = fast.characterize(CellKind::kNvSram);
  EXPECT_TRUE(nv_fast.store_verified);
  EXPECT_TRUE(nv_fast.restore_verified);
  EXPECT_LT(nv_fast.e_store, 0.5 * nv_slow.e_store);
  EXPECT_NEAR(nv_fast.t_clk, 1e-9, 1e-12);
}

// characterize(kind) replayed on one thread through CellTestbench::run()
// with full waveforms: the op script, then the sleep script with its DC
// subtraction, then the five static-power corners.
CellEnergetics serial_replay(const PaperParams& pp, CellKind kind) {
  using SM = CellTestbench::StaticMode;
  CellEnergetics out;
  out.t_clk = pp.clock_period();
  {
    CellTestbench tb(kind, pp);
    tb.op_write(true);
    tb.op_write(false);
    tb.op_write(true);
    tb.op_read();
    tb.op_read();
    tb.op_idle(2e-9);
    if (kind == CellKind::kNvSram) {
      tb.op_store();
      tb.op_shutdown(3e-6);
      tb.op_restore();
      tb.op_idle(2e-9);
    }
    const auto res = tb.run();
    EXPECT_FALSE(res.wave.thinned());
    out.gmin_recoveries += res.stats.gmin_recoveries;
    out.source_recoveries += res.stats.source_recoveries;
    out.e_write = res.energy(res.phase("write1", 1));
    out.e_read = res.energy(res.phase("read", 1));
    if (kind == CellKind::kNvSram) {
      const auto& sh = res.phase("store_h");
      const auto& sl = res.phase("store_l");
      out.e_store = res.energy(sh.t0, sl.t1);
      out.t_store = sl.t1 - sh.t0;
      const auto& rs = res.phase("restore");
      out.e_restore = res.energy(rs);
      out.t_restore = rs.duration();
      out.store_verified =
          tb.mtj_q()->state() == models::MtjState::kAntiparallel &&
          tb.mtj_qb()->state() == models::MtjState::kParallel;
      const auto& sd = res.phase("shutdown");
      const double vv = res.wave.value_at("V(VVDD)", sd.t1 - 1e-9);
      const double q = res.wave.value_at("V(Q)", tb.now() - 0.5e-9);
      const double qb = res.wave.value_at("V(QB)", tb.now() - 0.5e-9);
      out.restore_verified =
          vv < 0.25 * pp.vdd && q > 0.8 * pp.vdd && qb < 0.2 * pp.vdd;
    }
  }
  {
    CellTestbench tbs(kind, pp);
    tbs.op_write(true);
    tbs.op_idle(2e-9);
    tbs.op_sleep(60e-9);
    tbs.op_idle(2e-9);
    const auto rs = tbs.run();
    out.gmin_recoveries += rs.stats.gmin_recoveries;
    out.source_recoveries += rs.stats.source_recoveries;
    const auto& slp = rs.phase("sleep");
    CellTestbench tbd(kind, pp, TestbenchOptions{.ideal_bitlines = true});
    const double p_slp = tbd.static_power(SM::kSleep);
    out.e_sleep_transition =
        std::max(0.0, rs.energy(slp) - p_slp * slp.duration());
  }
  CellTestbench tbd(kind, pp, TestbenchOptions{.ideal_bitlines = true});
  const std::pair<SM, bool> corners[] = {{SM::kNormal, true},
                                         {SM::kNormal, false},
                                         {SM::kSleep, true},
                                         {SM::kSleep, false},
                                         {SM::kShutdown, true}};
  double p[5] = {};
  for (int i = 0; i < 5; ++i) {
    p[i] = tbd.static_power(corners[i].first, corners[i].second);
  }
  out.p_static_normal = 0.5 * (p[0] + p[1]);
  out.p_static_sleep = 0.5 * (p[2] + p[3]);
  out.p_static_shutdown = p[4];
  return out;
}

// Bitwise, so -0.0 differs from 0.0 and a NaN equals only itself.
void expect_same_bits(const CellEnergetics& a, const CellEnergetics& b) {
  const std::pair<const char*, double CellEnergetics::*> fields[] = {
      {"t_clk", &CellEnergetics::t_clk},
      {"e_read", &CellEnergetics::e_read},
      {"e_write", &CellEnergetics::e_write},
      {"p_static_normal", &CellEnergetics::p_static_normal},
      {"p_static_sleep", &CellEnergetics::p_static_sleep},
      {"p_static_shutdown", &CellEnergetics::p_static_shutdown},
      {"e_store", &CellEnergetics::e_store},
      {"t_store", &CellEnergetics::t_store},
      {"e_restore", &CellEnergetics::e_restore},
      {"t_restore", &CellEnergetics::t_restore},
      {"e_sleep_transition", &CellEnergetics::e_sleep_transition}};
  for (const auto& [name, field] : fields) {
    EXPECT_EQ(std::memcmp(&(a.*field), &(b.*field), sizeof(double)), 0)
        << name << ": " << a.*field << " against " << b.*field;
  }
  EXPECT_EQ(a.store_verified, b.store_verified);
  EXPECT_EQ(a.restore_verified, b.restore_verified);
  EXPECT_EQ(a.gmin_recoveries, b.gmin_recoveries);
  EXPECT_EQ(a.source_recoveries, b.source_recoveries);
}

// characterize() runs its two halves on two threads and reads a thinned op
// waveform; neither may move a bit of what the serial, full-waveform
// characterization computes.
TEST(CharacterizeConcurrent, MatchesSerialFullWaveformReplay) {
  for (const auto& pp : {PaperParams::table1(), PaperParams::table1_fast()}) {
    SCOPED_TRACE(pp == PaperParams::table1() ? "table1" : "table1_fast");
    const CellCharacterizer ch(pp);
    for (const CellKind kind : {CellKind::k6T, CellKind::kNvSram}) {
      SCOPED_TRACE(kind == CellKind::k6T ? "6T" : "NV-SRAM");
      expect_same_bits(ch.characterize(kind), serial_replay(pp, kind));
    }
  }
}

TEST(CharacterizeConcurrent, SleepScriptLintErrorSurfacesFromTheSideThread) {
  // A 0.3 V sleep rail sits below the 0.45 V retention floor but above a
  // full collapse (0.1 VDD): only the sleep script's lint gate refuses it,
  // so the op script runs to completion and the error comes from the
  // thread that runs the sleep script.
  auto pp = PaperParams::table1();
  pp.vvdd_sleep = 0.3;
  ASSERT_LT(pp.vvdd_sleep, pp.vvdd_retention_floor);
  ASSERT_GT(pp.vvdd_sleep, 0.1 * pp.vdd);
  const CellCharacterizer ch(pp);
  for (const CellKind kind : {CellKind::k6T, CellKind::kNvSram}) {
    SCOPED_TRACE(kind == CellKind::k6T ? "6T" : "NV-SRAM");
    try {
      ch.characterize(kind);
      FAIL() << "characterize() accepted a sub-retention sleep rail";
    } catch (const lint::LintError& e) {
      const auto found = e.report().by_rule(lint::rules::kProtocolSleepRetention);
      ASSERT_EQ(found.size(), 1u) << e.report().format();
      EXPECT_EQ(found[0].phase, "sleep");
    }
  }
}

}  // namespace
}  // namespace nvsram
