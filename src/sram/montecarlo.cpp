#include "sram/montecarlo.h"

#include <algorithm>
#include <cmath>
#include <memory>

#include "util/seed_seq_mt.h"

namespace nvsram::sram {

MonteCarlo::MonteCarlo(models::PaperParams pp, VariationSpec spec)
    : pp_(pp), spec_(spec), rng_(spec.seed) {}

FetVary MonteCarlo::draw_fet_vary() {
  // Materialize one mismatch draw per call site: each device gets its own
  // deviate, deterministic per (seed, call order, device name hash) so a
  // sample is reproducible regardless of device instantiation order.
  const unsigned sample_seed = rng_();
  const double vth_sigma = spec_.vth_sigma;
  const double kp_sigma = spec_.kp_rel_sigma;
  return [sample_seed, vth_sigma, kp_sigma](const std::string& name,
                                            models::FinFETParams& params) {
    util::SeedSeqMt19937 dev_rng(
        sample_seed, static_cast<unsigned>(std::hash<std::string>{}(name)));
    std::normal_distribution<double> g;
    params.vth0 += vth_sigma * g(dev_rng);
    params.kp *= std::max(0.2, 1.0 + kp_sigma * g(dev_rng));
  };
}

MtjVary MonteCarlo::draw_mtj_vary() {
  const unsigned sample_seed = rng_();
  const double ra_sigma = spec_.ra_rel_sigma;
  const double jc_sigma = spec_.jc_rel_sigma;
  return [sample_seed, ra_sigma, jc_sigma](const std::string& name,
                                           models::MTJParams& params) {
    util::SeedSeqMt19937 dev_rng(
        sample_seed + 1u, static_cast<unsigned>(std::hash<std::string>{}(name)));
    std::normal_distribution<double> g;
    params.ra_product *= std::max(0.3, 1.0 + ra_sigma * g(dev_rng));
    params.jc *= std::max(0.3, 1.0 + jc_sigma * g(dev_rng));
  };
}

MonteCarloSummary MonteCarlo::hold_snm(int samples, CellKind kind,
                                       double min_snm) {
  MonteCarloSummary out;
  for (int s = 0; s < samples; ++s) {
    SnmOptions a, b;
    a.relax_attempt = b.relax_attempt = spec_.relax_attempt;
    a.fet_vary = draw_fet_vary();
    b.fet_vary = draw_fet_vary();
    const auto vtc_a = inverter_vtc(pp_, kind, a);
    const auto vtc_b = inverter_vtc(pp_, kind, b);
    const auto r = compute_snm(vtc_a, vtc_b);
    out.stats.add(r.snm);
    ++out.samples;
    if (r.snm < min_snm) ++out.failures;
  }
  return out;
}

MonteCarloSummary MonteCarlo::read_snm(int samples, CellKind kind,
                                       double min_snm) {
  MonteCarloSummary out;
  for (int s = 0; s < samples; ++s) {
    SnmOptions a, b;
    a.access_on = b.access_on = true;
    a.relax_attempt = b.relax_attempt = spec_.relax_attempt;
    a.fet_vary = draw_fet_vary();
    b.fet_vary = draw_fet_vary();
    const auto r =
        compute_snm(inverter_vtc(pp_, kind, a), inverter_vtc(pp_, kind, b));
    out.stats.add(r.snm);
    ++out.samples;
    if (r.snm < min_snm) ++out.failures;
  }
  return out;
}

MonteCarloSummary MonteCarlo::store_margin(int samples, double min_overdrive) {
  MonteCarloSummary out;
  for (int s = 0; s < samples; ++s) {
    TestbenchOptions opts;
    opts.ideal_bitlines = true;
    opts.relax_attempt = spec_.relax_attempt;
    opts.fet_vary = draw_fet_vary();
    opts.mtj_vary = draw_mtj_vary();
    CellTestbench tb(CellKind::kNvSram, pp_, opts);

    ++out.samples;
    // H-store current (Q-side MTJ still parallel).  Evaluate the current
    // while the forced state is still in effect — solve_dc re-forces states.
    auto sol_h = tb.solve_dc(tb.bias_store_h(), /*data=*/true,
                             models::MtjState::kParallel,
                             models::MtjState::kAntiparallel);
    if (!sol_h) {
      ++out.failures;
      continue;
    }
    const double ih = std::fabs(tb.mtj_q()->current(sol_h->view()));

    // L-store current (QB-side MTJ antiparallel).
    auto sol_l = tb.solve_dc(tb.bias_store_l(), /*data=*/true,
                             models::MtjState::kAntiparallel,
                             models::MtjState::kAntiparallel);
    if (!sol_l) {
      ++out.failures;
      continue;
    }
    const double il = tb.mtj_qb()->current(sol_l->view());
    const double ic_h = tb.mtj_q()->model().params().critical_current();
    const double ic_l = tb.mtj_qb()->model().params().critical_current();
    const double overdrive = std::min(ih / ic_h, il / ic_l);
    out.stats.add(overdrive);
    if (overdrive < min_overdrive) ++out.failures;
  }
  return out;
}

}  // namespace nvsram::sram
