// Property-based parameterized sweeps: model invariants that must hold at
// EVERY point of a benchmark-parameter grid, and device-model properties
// over a bias/geometry grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <tuple>
#include <vector>

#include "core/energy_model.h"
#include "models/finfet.h"
#include "models/mtj.h"
#include "util/stats.h"

namespace nvsram {
namespace {

using core::Architecture;
using core::BenchmarkParams;
using core::EnergyModel;

sram::CellEnergetics grid_6t() {
  sram::CellEnergetics c;
  c.t_clk = 1.0 / 300e6;
  c.e_read = 3.8e-15;
  c.e_write = 4.9e-15;
  c.p_static_normal = 23.2e-9;
  c.p_static_sleep = 9.5e-9;
  c.p_static_shutdown = 30e-12;
  c.e_sleep_transition = 1e-15;
  return c;
}

sram::CellEnergetics grid_nv() {
  sram::CellEnergetics c = grid_6t();
  c.p_static_normal = 23.9e-9;
  c.p_static_sleep = 10.2e-9;
  c.e_store = 400e-15;
  c.t_store = 24e-9;
  c.e_restore = 33e-15;
  c.t_restore = 2.1e-9;
  return c;
}

// ---- energy-model grid: (architecture, n_rw, rows, t_sl) -----------------

using GridPoint = std::tuple<Architecture, int, int, double>;

class ModelGrid : public ::testing::TestWithParam<GridPoint> {
 protected:
  ModelGrid() : model_(grid_6t(), grid_nv()) {}
  BenchmarkParams params() const {
    const auto [a, n_rw, rows, t_sl] = GetParam();
    BenchmarkParams p;
    p.n_rw = n_rw;
    p.rows = rows;
    p.t_sl = t_sl;
    return p;
  }
  Architecture arch() const { return std::get<0>(GetParam()); }
  EnergyModel model_;
};

TEST_P(ModelGrid, BreakdownNonNegativeAndSumsToTotal) {
  const auto b = model_.cycle_energy(arch(), params());
  for (double part : {b.access, b.standby, b.sleep, b.store, b.store_wait,
                      b.shutdown, b.restore, b.restore_wait, b.peripheral}) {
    EXPECT_GE(part, 0.0);
  }
  const double sum = b.access + b.standby + b.sleep + b.store + b.store_wait +
                     b.shutdown + b.restore + b.restore_wait + b.peripheral;
  EXPECT_NEAR(b.total(), sum, 1e-24);
  EXPECT_GT(b.duration, 0.0);
}

TEST_P(ModelGrid, EnergyAffineInShutdownTime) {
  // E(t_sd) must be exactly affine: E(2t) - E(t) == E(t) - E(0).
  auto p = params();
  p.t_sd = 0.0;
  const double e0 = model_.e_cyc(arch(), p);
  p.t_sd = 1e-4;
  const double e1 = model_.e_cyc(arch(), p);
  p.t_sd = 2e-4;
  const double e2 = model_.e_cyc(arch(), p);
  EXPECT_NEAR(e2 - e1, e1 - e0, 1e-9 * std::max(e1, 1e-20));
}

TEST_P(ModelGrid, SlopeMatchesDeclaredShutdownPower) {
  auto p = params();
  p.t_sd = 0.0;
  const double e0 = model_.e_cyc(arch(), p);
  p.t_sd = 1e-3;
  const double slope = (model_.e_cyc(arch(), p) - e0) / 1e-3;
  EXPECT_NEAR(slope, model_.shutdown_slope(arch()),
              1e-6 * model_.shutdown_slope(arch()) + 1e-18);
}

TEST_P(ModelGrid, StoreFreeNeverCostsMore) {
  auto p = params();
  const double full = model_.e_cyc(arch(), p);
  p.store_free_shutdown = true;
  EXPECT_LE(model_.e_cyc(arch(), p), full * (1.0 + 1e-12));
}

TEST_P(ModelGrid, EnergyLinearInNrwWhenPhasesFixed) {
  // With t_sl folded in, the inner loop repeats identically:
  // E(2n) - E(n) == E(3n) - E(2n).
  auto p = params();
  const int n = p.n_rw;
  const double e1 = model_.e_cyc(arch(), p);
  p.n_rw = 2 * n;
  const double e2 = model_.e_cyc(arch(), p);
  p.n_rw = 3 * n;
  const double e3 = model_.e_cyc(arch(), p);
  EXPECT_NEAR(e3 - e2, e2 - e1, 1e-9 * std::max(e2, 1e-20));
}

TEST_P(ModelGrid, BetConsistentWithCurveCrossing) {
  if (arch() == Architecture::kOSR) return;
  const auto bet = model_.break_even_time(arch(), params());
  if (!bet || *bet == 0.0) return;
  auto p = params();
  p.t_sd = *bet * 0.5;
  EXPECT_GT(model_.e_cyc(arch(), p), model_.e_cyc(Architecture::kOSR, p));
  p.t_sd = *bet * 2.0;
  EXPECT_LT(model_.e_cyc(arch(), p), model_.e_cyc(Architecture::kOSR, p));
}

INSTANTIATE_TEST_SUITE_P(
    Grid, ModelGrid,
    ::testing::Combine(
        ::testing::Values(Architecture::kOSR, Architecture::kNVPG,
                          Architecture::kNOF),
        ::testing::Values(1, 10, 1000),
        ::testing::Values(1, 32, 1024),
        ::testing::Values(0.0, 100e-9, 1e-6)));

// ---- FinFET geometry grid --------------------------------------------------

class FinGeometryGrid : public ::testing::TestWithParam<std::tuple<int, double>> {};

TEST_P(FinGeometryGrid, CurrentScalesWithEffectiveWidth) {
  const auto [fins, height] = GetParam();
  auto base = models::ptm20_nmos(1);
  auto scaled = base;
  scaled.fin_count = fins;
  scaled.fin_height = height;
  const models::FinFET f_base(base), f_scaled(scaled);
  const double width_ratio =
      scaled.effective_width() / base.effective_width();
  EXPECT_NEAR(f_scaled.on_current() / f_base.on_current(), width_ratio, 1e-9);
  EXPECT_NEAR(f_scaled.off_current() / f_base.off_current(), width_ratio,
              1e-9);
}

TEST_P(FinGeometryGrid, CapacitanceGrowsWithWidth) {
  const auto [fins, height] = GetParam();
  auto p = models::ptm20_nmos(1);
  const double c1 = p.cgs();
  p.fin_count = fins;
  p.fin_height = height;
  EXPECT_GE(p.cgs(), c1 * 0.999);
}

INSTANTIATE_TEST_SUITE_P(Geometry, FinGeometryGrid,
                         ::testing::Combine(::testing::Values(1, 2, 4, 7),
                                            ::testing::Values(28e-9, 35e-9,
                                                              45e-9)));

// ---- MTJ scaling grid --------------------------------------------------------

class MtjDiameterGrid : public ::testing::TestWithParam<double> {};

TEST_P(MtjDiameterGrid, ResistanceAndIcScaleWithArea) {
  const double d = GetParam();
  auto p = models::paper_mtj();
  p.diameter = d;
  const models::MTJ m(p);
  // R ~ 1/A, Ic ~ A: their product is diameter-independent.
  const double product = p.rp0() * p.critical_current();
  auto ref = models::paper_mtj();
  const double ref_product = ref.rp0() * ref.critical_current();
  EXPECT_NEAR(product, ref_product, 1e-9 * ref_product);
  // The half-TMR voltage is geometry-independent by construction.
  EXPECT_NEAR(m.tmr(p.vh), 0.5 * p.tmr0, 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Diameters, MtjDiameterGrid,
                         ::testing::Values(10e-9, 20e-9, 30e-9, 45e-9));

// ---- device closures: invariants along seeded bias samples ----------------
//
// The physical invariants (monotonicity, continuity under bias and
// parameter perturbation) must hold along seeded random bias samples.

constexpr unsigned kSharedSeed = 0x5eed;  // one seed for every property

std::vector<double> random_biases(std::size_t n, double lo, double hi) {
  std::mt19937 rng(kSharedSeed);
  std::uniform_real_distribution<double> dist(lo, hi);
  std::vector<double> out(n);
  for (auto& v : out) v = dist(rng);
  return out;
}

class FinFetPolarity : public ::testing::TestWithParam<bool> {
 protected:
  models::FinFETParams params() const {
    return GetParam() ? models::ptm20_pmos(2) : models::ptm20_nmos(2);
  }
};

TEST_P(FinFetPolarity, DrainCurrentMonotonicInGateOverdrive) {
  const bool pmos = GetParam();
  const models::FinFET fet(params());
  // |Ids| must be nondecreasing in gate overdrive at fixed |Vds|.
  for (double vds_mag : {0.05, 0.45, 0.9}) {
    std::vector<models::FinFETOutput> out(181);
    for (std::size_t i = 0; i < out.size(); ++i) {
      const double mag = static_cast<double>(i) * 0.005;  // 0 .. 0.9 V
      out[i] = fet.evaluate(pmos ? -mag : mag, pmos ? -vds_mag : vds_mag);
    }
    for (std::size_t i = 1; i < out.size(); ++i) {
      EXPECT_GE(std::abs(out[i].ids), std::abs(out[i - 1].ids) * (1.0 - 1e-12))
          << "vgs step " << i << " at |vds| = " << vds_mag;
    }
  }
}

TEST_P(FinFetPolarity, ContinuousUnderBiasPerturbation) {
  const models::FinFET fet(params());
  const auto vgs = random_biases(64, -0.9, 0.9);
  auto vds = random_biases(64, -0.9, 0.9);
  std::reverse(vds.begin(), vds.end());
  const double h = 1e-7;
  for (std::size_t i = 0; i < vgs.size(); ++i) {
    const auto a = fet.evaluate(vgs[i], vds[i]);
    const auto b = fet.evaluate(vgs[i] + h, vds[i]);
    const auto c = fet.evaluate(vgs[i], vds[i] + h);
    // A step of h along either axis moves Ids by at most the local slope
    // times h (EKV is C-infinity; factor 10 absorbs curvature over h).
    const double slope_bound =
        10.0 * h * (std::abs(a.gm) + std::abs(a.gds)) + 1e-15;
    EXPECT_LE(std::abs(b.ids - a.ids), slope_bound) << "vgs step, sample " << i;
    EXPECT_LE(std::abs(c.ids - a.ids), slope_bound) << "vds step, sample " << i;
  }
}

TEST_P(FinFetPolarity, ContinuousUnderParameterPerturbation) {
  // A 1 nV threshold shift cannot move any current by more than a sliver:
  // the model responds continuously to its parameters.
  auto p1 = params();
  auto p2 = p1;
  p2.vth0 += 1e-9;
  const models::FinFET f1(p1), f2(p2);
  const auto vgs = random_biases(64, -0.9, 0.9);
  auto vds = random_biases(64, -0.9, 0.9);
  std::reverse(vds.begin(), vds.end());
  for (std::size_t i = 0; i < vgs.size(); ++i) {
    const auto a = f1.evaluate(vgs[i], vds[i]);
    const auto b = f2.evaluate(vgs[i], vds[i]);
    EXPECT_LE(std::abs(b.ids - a.ids),
              1e-6 * std::abs(a.ids) + 10.0 * std::abs(a.gm) * 1e-9 + 1e-18)
        << "sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Polarities, FinFetPolarity, ::testing::Bool());

class MtjStateGrid : public ::testing::TestWithParam<models::MtjState> {};

TEST_P(MtjStateGrid, CurrentMonotonicOddAndPositiveConductance) {
  const models::MTJ mtj(models::paper_mtj());
  std::vector<double> volts(241);
  std::vector<models::MTJ::IV> out(volts.size());
  for (std::size_t i = 0; i < volts.size(); ++i) {
    volts[i] = -0.6 + 0.005 * static_cast<double>(i);
    out[i] = mtj.current(GetParam(), volts[i]);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_GT(out[i].conductance, 0.0) << "v = " << volts[i];
    if (volts[i] != 0.0) {
      EXPECT_EQ(std::signbit(out[i].current), std::signbit(volts[i]))
          << "v = " << volts[i];
    }
    if (i > 0) {
      EXPECT_GT(out[i].current, out[i - 1].current)
          << "I(V) not strictly increasing at v = " << volts[i];
    }
  }
}

TEST_P(MtjStateGrid, ContinuousUnderBiasAndTmrPerturbation) {
  auto p1 = models::paper_mtj();
  auto p2 = p1;
  p2.tmr0 += 1e-9;
  const models::MTJ m1(p1), m2(p2);
  const auto volts = random_biases(64, -0.6, 0.6);
  const double h = 1e-7;
  for (double v : volts) {
    const auto a = m1.current(GetParam(), v);
    const auto b = m1.current(GetParam(), v + h);
    EXPECT_LE(std::abs(b.current - a.current),
              10.0 * h * a.conductance + 1e-15)
        << "bias step at v = " << v;
    const auto c = m2.current(GetParam(), v);
    EXPECT_LE(std::abs(c.current - a.current),
              1e-6 * std::abs(a.current) + 1e-15)
        << "tmr0 perturbation at v = " << v;
  }
}

TEST(MtjStates, ParallelConductsMoreThanAntiparallel) {
  const models::MTJ mtj(models::paper_mtj());
  for (double v : random_biases(64, -0.6, 0.6)) {
    if (v == 0.0) continue;
    const auto p = mtj.current(models::MtjState::kParallel, v);
    const auto ap = mtj.current(models::MtjState::kAntiparallel, v);
    EXPECT_GE(std::abs(p.current), std::abs(ap.current)) << "v = " << v;
  }
}

INSTANTIATE_TEST_SUITE_P(States, MtjStateGrid,
                         ::testing::Values(models::MtjState::kParallel,
                                           models::MtjState::kAntiparallel));

}  // namespace
}  // namespace nvsram
