// Fig. 8 reproduction: E_cyc vs t_SD and the break-even time.
//   (a) absolute E_cyc(t_SD) for OSR / NVPG / NOF at n_RW = 100
//   (b) OSR-normalized E_cyc(t_SD) for n_RW in {10, 100, 1000}
// The crossing of each curve with the OSR baseline is the BET.
//
// Both sweeps execute through runner::SweepRunner ("fig8a" / "fig8b"), so
// a failing point is skipped and recorded in bench_fig8{a,b}.csv.failures.csv
// while the rest of the figure still comes out, an interrupted run resumes
// from its checkpoint, and independent points fan out over the worker pool
// (NVSRAM_SWEEP_THREADS) with byte-identical output at any pool size (see
// docs/ROBUSTNESS.md).
#include <array>
#include <iostream>

#include "bench_common.h"
#include "core/analyzer.h"
#include "util/stats.h"

int main() {
  using namespace nvsram;
  using core::Architecture;
  using core::BenchmarkParams;

  bench::print_header(
      "Fig. 8 — E_cyc vs t_SD and break-even times",
      "NVPG breaks even after several 10 us; NOF needs a much longer shutdown "
      "and the crossing is strongly n_RW dependent");

  // The per-point watchdog budget (NVSRAM_SWEEP_TIMEOUT) also covers the
  // up-front SPICE characterization both sweeps share.
  runner::RunnerOptions probe;
  probe.apply_env("fig8");
  core::PowerGatingAnalyzer an(models::PaperParams::table1(),
                               probe.point_timeout_sec);
  bench::print_characterization_telemetry("6T", an.cell_6t());
  bench::print_characterization_telemetry("NV-SRAM", an.cell_nv());
  const auto t_grid = util::logspace(1e-6, 1e-1, 21);

  // ---- (a) absolute curves at n_RW = 100 ----
  runner::SweepRunner run_a(
      "fig8a", bench::sweep_options("fig8a", "bench_fig8a.csv",
                                    {"t_sd", "e_osr", "e_nvpg", "e_nof"}));
  const auto sum_a =
      run_a.run(t_grid.size(), [&](const runner::PointContext& pc) {
        BenchmarkParams p;
        p.n_rw = 100;
        p.t_sl = 100e-9;
        p.t_sd = t_grid[pc.index];
        return runner::Rows{{p.t_sd, an.model().e_cyc(Architecture::kOSR, p),
                             an.model().e_cyc(Architecture::kNVPG, p),
                             an.model().e_cyc(Architecture::kNOF, p)}};
      });

  util::print_banner(std::cout, "Fig. 8(a): E_cyc vs t_SD (n_RW = 100)");
  util::TablePrinter ta({"t_SD", "OSR", "NVPG", "NOF"});
  for (std::size_t i = 0; i < t_grid.size(); ++i) {
    if (!sum_a.point_ok(i)) {
      ta.row({util::si_format(t_grid[i], "s", 1), "FAILED", "FAILED",
              "FAILED"});
      continue;
    }
    const auto& r = sum_a.rows[i].front();
    ta.row({util::si_format(r[0], "s", 1), util::si_format(r[1], "J"),
            util::si_format(r[2], "J"), util::si_format(r[3], "J")});
  }
  ta.print(std::cout);
  bench::print_sweep_summary(sum_a);

  // ---- (b) normalized curves for n_RW in {10, 100, 1000} ----
  const std::array<int, 3> nrws{10, 100, 1000};
  runner::SweepRunner run_b(
      "fig8b", bench::sweep_options("fig8b", "bench_fig8b.csv",
                                    {"n_rw", "t_sd", "nvpg_norm", "nof_norm"}));
  const auto sum_b = run_b.run(
      nrws.size() * t_grid.size(), [&](const runner::PointContext& pc) {
        BenchmarkParams p;
        p.n_rw = nrws[pc.index / t_grid.size()];
        p.t_sl = 100e-9;
        p.t_sd = t_grid[pc.index % t_grid.size()];
        const double e_osr = an.model().e_cyc(Architecture::kOSR, p);
        return runner::Rows{
            {static_cast<double>(p.n_rw), p.t_sd,
             an.model().e_cyc(Architecture::kNVPG, p) / e_osr,
             an.model().e_cyc(Architecture::kNOF, p) / e_osr}};
      });

  for (std::size_t s = 0; s < nrws.size(); ++s) {
    const int n_rw = nrws[s];
    util::print_banner(std::cout, "Fig. 8(b): E_cyc normalized to OSR, n_RW = " +
                                      std::to_string(n_rw));
    util::TablePrinter t({"t_SD", "NVPG/OSR", "NOF/OSR"});
    for (std::size_t i = 0; i < t_grid.size(); ++i) {
      const std::size_t point = s * t_grid.size() + i;
      if (!sum_b.point_ok(point)) {
        t.row({util::si_format(t_grid[i], "s", 1), "FAILED", "FAILED"});
        continue;
      }
      const auto& r = sum_b.rows[point].front();
      t.row({util::si_format(r[1], "s", 1), util::si_format(r[2], "", 4),
             util::si_format(r[3], "", 4)});
    }
    t.print(std::cout);

    BenchmarkParams base;
    base.n_rw = n_rw;
    base.t_sl = 100e-9;
    const auto bet_nvpg = an.model().break_even_time(Architecture::kNVPG, base);
    const auto bet_nof = an.model().break_even_time(Architecture::kNOF, base);
    std::cout << "BET(NVPG) = "
              << (bet_nvpg ? util::si_format(*bet_nvpg, "s") : "never")
              << "   BET(NOF) = "
              << (bet_nof ? util::si_format(*bet_nof, "s") : "never") << "\n";
  }
  bench::print_sweep_summary(sum_b);

  bench::print_footer("bench_fig8{a,b}.csv");
  return 0;
}
