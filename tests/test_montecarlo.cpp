// Monte-Carlo mismatch analysis: reproducibility, device draws bit for bit
// against the seed_seq reference, sane distributions, and the expected
// qualitative effects of variation knobs.
#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <random>
#include <string>
#include <vector>

#include "models/paper_params.h"
#include "sram/montecarlo.h"

namespace nvsram {
namespace {

using models::PaperParams;
using sram::CellKind;
using sram::MonteCarlo;
using sram::VariationSpec;

TEST(MonteCarloTest, ZeroSigmaReproducesNominal) {
  VariationSpec spec;
  spec.vth_sigma = 0.0;
  spec.kp_rel_sigma = 0.0;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto nominal = sram::hold_snm(PaperParams::table1(), CellKind::kNvSram);
  const auto summary = mc.hold_snm(3, CellKind::kNvSram);
  EXPECT_EQ(summary.samples, 3);
  EXPECT_EQ(summary.failures, 0);
  EXPECT_NEAR(summary.stats.mean(), nominal.snm, 2e-3);
  EXPECT_LT(summary.stats.stddev(), 1e-6);
}

TEST(MonteCarloTest, SameSeedSameResults) {
  VariationSpec spec;
  spec.seed = 77;
  MonteCarlo a(PaperParams::table1(), spec);
  MonteCarlo b(PaperParams::table1(), spec);
  const auto ra = a.hold_snm(5);
  const auto rb = b.hold_snm(5);
  EXPECT_DOUBLE_EQ(ra.stats.mean(), rb.stats.mean());
  EXPECT_DOUBLE_EQ(ra.stats.min(), rb.stats.min());
}

TEST(MonteCarloTest, MismatchSpreadsAndDegradesSnm) {
  VariationSpec spec;
  spec.vth_sigma = 0.03;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto nominal = sram::hold_snm(PaperParams::table1(), CellKind::kNvSram);
  const auto summary = mc.hold_snm(24);
  EXPECT_GT(summary.stats.stddev(), 1e-3);      // variation spreads the SNM
  EXPECT_LT(summary.stats.min(), nominal.snm);  // mismatch only hurts
  // Mean of mismatched SNM sits below the nominal (min of two lobes).
  EXPECT_LT(summary.stats.mean(), nominal.snm + 1e-3);
}

TEST(MonteCarloTest, LargerSigmaLowersYield) {
  VariationSpec small;
  small.vth_sigma = 0.01;
  VariationSpec large;
  large.vth_sigma = 0.08;
  MonteCarlo mc_small(PaperParams::table1(), small);
  MonteCarlo mc_large(PaperParams::table1(), large);
  const auto rs = mc_small.hold_snm(24, CellKind::kNvSram, 0.18);
  const auto rl = mc_large.hold_snm(24, CellKind::kNvSram, 0.18);
  EXPECT_LE(rs.failures, rl.failures);
  EXPECT_GT(rl.stats.stddev(), rs.stats.stddev());
}

TEST(MonteCarloTest, StoreMarginDistribution) {
  VariationSpec spec;
  MonteCarlo mc(PaperParams::table1(), spec);
  const auto summary = mc.store_margin(16);
  EXPECT_EQ(summary.samples, 16);
  // Nominal overdrive is ~1.45-1.6x; variation spreads but rarely breaks it.
  EXPECT_GT(summary.stats.mean(), 1.2);
  EXPECT_LT(summary.stats.mean(), 2.0);
  EXPECT_GT(summary.yield(), 0.85);
  EXPECT_GT(summary.stats.stddev(), 0.005);
}

TEST(MonteCarloTest, ReadSnmWorseThanHoldUnderVariation) {
  VariationSpec spec;
  MonteCarlo mc_h(PaperParams::table1(), spec);
  MonteCarlo mc_r(PaperParams::table1(), spec);
  const auto h = mc_h.hold_snm(10);
  const auto r = mc_r.read_snm(10);
  EXPECT_LT(r.stats.mean(), h.stats.mean());
}

TEST(MonteCarloTest, RelaxAttemptReachesSnmSweeps) {
  // A retry loosens the DC sweeps' Newton tolerances: the same draws give
  // slightly different VTCs, so the SNM moves, but by far less than 1 mV.
  VariationSpec spec;
  VariationSpec relaxed = spec;
  relaxed.relax_attempt = 1;
  MonteCarlo mc0(PaperParams::table1(), spec);
  MonteCarlo mc1(PaperParams::table1(), relaxed);
  const double hold0 = mc0.hold_snm(2).stats.mean();
  const double hold1 = mc1.hold_snm(2).stats.mean();
  const double read0 = mc0.read_snm(2).stats.mean();
  const double read1 = mc1.read_snm(2).stats.mean();
  EXPECT_NE(hold0, hold1);
  EXPECT_NE(read0, read1);
  EXPECT_NEAR(hold0, hold1, 1e-3);
  EXPECT_NEAR(read0, read1, 1e-3);
}

// The per-device draws as they were written before the seeded twister: a
// std::seed_seq and a full std::mt19937 per device.  The hooks must perturb
// every parameter to the same double.
void reference_fet_vary(unsigned sample_seed, const VariationSpec& spec,
                        const std::string& name, models::FinFETParams& params) {
  std::seed_seq seq{sample_seed,
                    static_cast<unsigned>(std::hash<std::string>{}(name))};
  std::mt19937 dev_rng(seq);
  std::normal_distribution<double> g;
  params.vth0 += spec.vth_sigma * g(dev_rng);
  params.kp *= std::max(0.2, 1.0 + spec.kp_rel_sigma * g(dev_rng));
}

void reference_mtj_vary(unsigned sample_seed, const VariationSpec& spec,
                        const std::string& name, models::MTJParams& params) {
  std::seed_seq seq{sample_seed + 1u,
                    static_cast<unsigned>(std::hash<std::string>{}(name))};
  std::mt19937 dev_rng(seq);
  std::normal_distribution<double> g;
  params.ra_product *= std::max(0.3, 1.0 + spec.ra_rel_sigma * g(dev_rng));
  params.jc *= std::max(0.3, 1.0 + spec.jc_rel_sigma * g(dev_rng));
}

TEST(MonteCarloTest, DeviceDrawsMatchSeedSeqReference) {
  const auto pp = PaperParams::table1();
  const std::vector<std::string> names = {
      "pu", "pd", "ax", "ps", "c.PUL", "c.PDR", "c.AXL", "c.PSR", "c.MTJQ",
      "c.MTJQB", "", "a-much-longer-device-name-than-the-cell-uses"};
  int compared = 0;
  for (const unsigned seed : {0u, 1u, 12345u, 77u, 0xFFFFFFFFu}) {
    VariationSpec spec;
    spec.seed = seed;
    spec.vth_sigma = 0.03;
    spec.ra_rel_sigma = 0.4;  // large enough that some draws hit the clamp
    MonteCarlo mc(pp, spec);
    std::mt19937 sample_rng(seed);  // MonteCarlo's own per-draw seeds
    for (int draw = 0; draw < 20; ++draw) {
      const bool fet = draw % 2 == 0;
      const unsigned sample_seed = sample_rng();
      if (fet) {
        const auto vary = mc.draw_fet_vary();
        for (const auto& name : names) {
          for (const auto& base : {pp.nmos(1), pp.pmos(2)}) {
            auto got = base;
            auto want = base;
            vary(name, got);
            reference_fet_vary(sample_seed, spec, name, want);
            EXPECT_EQ(got.vth0, want.vth0) << seed << " " << draw << " " << name;
            EXPECT_EQ(got.kp, want.kp) << seed << " " << draw << " " << name;
            EXPECT_NE(got.vth0, base.vth0);
            ++compared;
          }
        }
      } else {
        const auto vary = mc.draw_mtj_vary();
        for (const auto& name : names) {
          auto got = pp.mtj;
          auto want = pp.mtj;
          vary(name, got);
          reference_mtj_vary(sample_seed, spec, name, want);
          EXPECT_EQ(got.ra_product, want.ra_product)
              << seed << " " << draw << " " << name;
          EXPECT_EQ(got.jc, want.jc) << seed << " " << draw << " " << name;
          EXPECT_TRUE(got == want) << seed << " " << draw << " " << name;
          EXPECT_NE(got.ra_product, pp.mtj.ra_product);
          ++compared;
        }
      }
    }
  }
  EXPECT_EQ(compared, 5 * (10 * 12 * 2 + 10 * 12));
}

TEST(MonteCarloTest, YieldAccounting) {
  sram::MonteCarloSummary s;
  s.samples = 10;
  s.failures = 2;
  EXPECT_DOUBLE_EQ(s.yield(), 0.8);
  sram::MonteCarloSummary empty;
  EXPECT_DOUBLE_EQ(empty.yield(), 0.0);
}

}  // namespace
}  // namespace nvsram
