// Extension study: process-variation Monte Carlo on the NV-SRAM cell.
//
// Not a paper figure — the paper notes that the aggressive (1,1) fin sizing
// lowers stability and defers to bias-assist techniques; this bench
// quantifies the margin distributions that claim rests on.
//
// Each Vth-sigma point is hundreds of SPICE solves, so the sweep runs
// through runner::SweepRunner ("montecarlo"): a diverging sample is skipped
// and recorded instead of sinking the whole study, NVSRAM_SWEEP_TIMEOUT
// puts a wall-clock budget on every point, and the four sigma points fan
// out over the worker pool (each point builds its own MonteCarlo engines,
// so the callback is thread-safe; see docs/ROBUSTNESS.md).
#include <array>
#include <iostream>

#include "bench_common.h"
#include "sram/montecarlo.h"

int main() {
  using namespace nvsram;
  bench::print_header(
      "Monte-Carlo mismatch (extension)",
      "hold/read SNM and store-margin distributions of the (1,1,1,1) cell "
      "under Vth / kp / RA / Jc variation");

  const int kSamples = 60;
  const std::array<double, 4> sigmas{0.01, 0.02, 0.03, 0.05};
  // Row order within each point; metric[0] doubles as the CSV tag.
  const std::array<const char*, 3> metrics{"hold SNM", "read SNM",
                                           "store overdrive"};
  const std::array<const char*, 3> units{"V", "V", "x Ic"};

  runner::SweepRunner run(
      "montecarlo",
      bench::sweep_options("montecarlo", "bench_montecarlo.csv",
                           {"vth_sigma_mv", "metric", "mean", "sigma", "min",
                            "yield"}));
  const auto summary =
      run.run(sigmas.size(), [&](const runner::PointContext& pc) {
        sram::VariationSpec spec;
        spec.vth_sigma = sigmas[pc.index];
        // Retry of a failed point re-runs with looser shared tolerances.
        spec.relax_attempt = pc.attempt;
        sram::MonteCarlo mc1(models::PaperParams::table1(), spec);
        sram::MonteCarlo mc2(models::PaperParams::table1(), spec);
        sram::MonteCarlo mc3(models::PaperParams::table1(), spec);
        const std::array<sram::MonteCarloSummary, 3> s{
            mc1.hold_snm(kSamples), mc2.read_snm(kSamples),
            mc3.store_margin(kSamples)};
        runner::Rows rows;
        for (std::size_t m = 0; m < s.size(); ++m) {
          rows.push_back({sigmas[pc.index] * 1e3,
                          static_cast<double>(metrics[m][0]),
                          s[m].stats.mean(), s[m].stats.stddev(),
                          s[m].stats.min(), s[m].yield()});
        }
        return rows;
      });

  util::print_banner(std::cout, "SNM and store margin vs Vth sigma");
  util::TablePrinter t({"Vth sigma", "metric", "mean", "sigma", "min",
                        "yield"});
  for (std::size_t i = 0; i < sigmas.size(); ++i) {
    if (!summary.point_ok(i)) {
      t.row({util::si_format(sigmas[i], "V", 0), "(all)", "FAILED", "FAILED",
             "FAILED", "FAILED"});
      continue;
    }
    for (std::size_t m = 0; m < metrics.size(); ++m) {
      const auto& r = summary.rows[i][m];
      t.row({util::si_format(sigmas[i], "V", 0), metrics[m],
             util::si_format(r[2], units[m]), util::si_format(r[3], units[m]),
             util::si_format(r[4], units[m]), bench::ratio_fmt(r[5], 3)});
    }
  }
  t.print(std::cout);
  bench::print_sweep_summary(summary);
  std::cout << "\nReading: hold SNM stays healthy, but the read SNM tail is\n"
               "what forces the paper's word-line-underdrive caveat; store\n"
               "margins survive variation thanks to the 1.5 x Ic design "
               "point.\n";
  bench::print_footer("bench_montecarlo.csv");
  return 0;
}
