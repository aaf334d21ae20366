// Fig. 7 reproduction: per-cell benchmark-cycle energy E_cyc vs n_RW.
//   (a) t_SD = 0, t_SL swept 0 .. 1 us       — NVPG converges to OSR
//   (b) M = 32, N swept 32 .. 2048           — large-domain crossover vs NOF
//   (c) t_SD swept 10 us .. 10 ms            — nonlinear n_RW dependence
//
// Each subfigure is one runner::SweepRunner sweep ("fig7a".."fig7c") over
// the flattened (series, n_RW) grid: failed points are skipped and recorded
// in bench_fig7*.csv.failures.csv, interrupted sweeps resume from their
// checkpoint, and independent points fan out over the worker pool
// (NVSRAM_SWEEP_THREADS) with byte-identical output at any pool size (see
// docs/ROBUSTNESS.md).
#include <iostream>
#include <vector>

#include "bench_common.h"
#include "core/analyzer.h"

namespace {

using namespace nvsram;
using core::Architecture;
using core::BenchmarkParams;

const std::vector<int> kNrwGrid{1, 3, 10, 30, 100, 300, 1000, 3000, 10000};

// Runs one subfigure: the flattened (series x n_RW) sweep through the
// runner, then one table per series from the collected rows.
void run_subfigure(const core::PowerGatingAnalyzer& an,
                   const std::string& runner_name, const std::string& csv_path,
                   const std::vector<std::string>& columns,
                   const std::vector<double>& tags,
                   const std::vector<BenchmarkParams>& series_base,
                   const std::vector<std::string>& titles) {
  runner::SweepRunner run(
      runner_name, bench::sweep_options(runner_name, csv_path, columns));
  const auto summary = run.run(
      tags.size() * kNrwGrid.size(), [&](const runner::PointContext& pc) {
        BenchmarkParams p = series_base[pc.index / kNrwGrid.size()];
        p.n_rw = kNrwGrid[pc.index % kNrwGrid.size()];
        return runner::Rows{{tags[pc.index / kNrwGrid.size()],
                             static_cast<double>(p.n_rw),
                             an.model().e_cyc(Architecture::kOSR, p),
                             an.model().e_cyc(Architecture::kNVPG, p),
                             an.model().e_cyc(Architecture::kNOF, p)}};
      });

  for (std::size_t s = 0; s < tags.size(); ++s) {
    util::print_banner(std::cout, titles[s]);
    util::TablePrinter t({"n_RW", "E_cyc OSR", "E_cyc NVPG", "E_cyc NOF",
                          "NVPG/OSR", "NOF/OSR"});
    for (std::size_t i = 0; i < kNrwGrid.size(); ++i) {
      const std::size_t point = s * kNrwGrid.size() + i;
      if (!summary.point_ok(point)) {
        t.row({std::to_string(kNrwGrid[i]), "FAILED", "FAILED", "FAILED",
               "FAILED", "FAILED"});
        continue;
      }
      const auto& r = summary.rows[point].front();
      t.row({std::to_string(kNrwGrid[i]), util::si_format(r[2], "J"),
             util::si_format(r[3], "J"), util::si_format(r[4], "J"),
             util::si_format(r[3] / r[2], "", 3),
             util::si_format(r[4] / r[2], "", 3)});
    }
    t.print(std::cout);
  }
  bench::print_sweep_summary(summary);
}

}  // namespace

int main() {
  using namespace nvsram;
  bench::print_header(
      "Fig. 7 — E_cyc per cell vs n_RW",
      "NVPG E_cyc approaches OSR as n_RW grows; NOF rises monotonically above "
      "OSR; large domains briefly favour NOF at tiny n_RW");

  // The per-point watchdog budget (NVSRAM_SWEEP_TIMEOUT) also covers the
  // up-front SPICE characterization the sweeps share.
  runner::RunnerOptions probe;
  probe.apply_env("fig7");
  core::PowerGatingAnalyzer an(models::PaperParams::table1(),
                               probe.point_timeout_sec);
  bench::print_characterization_telemetry("6T", an.cell_6t());
  bench::print_characterization_telemetry("NV-SRAM", an.cell_nv());

  // ---- (a): t_SD = 0, t_SL in {0, 100 ns, 1 us} ----
  {
    std::vector<double> tags;
    std::vector<BenchmarkParams> bases;
    std::vector<std::string> titles;
    for (double t_sl : {0.0, 100e-9, 1e-6}) {
      BenchmarkParams base;
      base.t_sl = t_sl;
      base.t_sd = 0.0;
      tags.push_back(t_sl);
      bases.push_back(base);
      titles.push_back("Fig. 7(a): t_SD = 0, t_SL = " +
                       util::si_format(t_sl, "s", 0));
    }
    run_subfigure(an, "fig7a", "bench_fig7a.csv",
                  {"t_sl", "n_rw", "e_osr", "e_nvpg", "e_nof"}, tags, bases,
                  titles);
  }

  // ---- (b): M = 32, N in {32 .. 2048}, t_SL = 100 ns ----
  {
    std::vector<double> tags;
    std::vector<BenchmarkParams> bases;
    std::vector<std::string> titles;
    for (int rows : {32, 256, 2048}) {
      BenchmarkParams base;
      base.t_sl = 100e-9;
      base.t_sd = 0.0;
      base.rows = rows;
      base.cols = 32;
      tags.push_back(rows);
      bases.push_back(base);
      titles.push_back("Fig. 7(b): N = " + std::to_string(rows) + " (" +
                       util::si_format(base.domain_bytes(), "B", 0) +
                       " domain), t_SL = 100 ns");
    }
    run_subfigure(an, "fig7b", "bench_fig7b.csv",
                  {"rows", "n_rw", "e_osr", "e_nvpg", "e_nof"}, tags, bases,
                  titles);
  }

  // ---- (c): t_SD in {10 us, 100 us, 1 ms, 10 ms} ----
  {
    std::vector<double> tags;
    std::vector<BenchmarkParams> bases;
    std::vector<std::string> titles;
    for (double t_sd : {10e-6, 100e-6, 1e-3, 10e-3}) {
      BenchmarkParams base;
      base.t_sl = 100e-9;
      base.t_sd = t_sd;
      tags.push_back(t_sd);
      bases.push_back(base);
      titles.push_back("Fig. 7(c): t_SD = " + util::si_format(t_sd, "s", 0) +
                       ", t_SL = 100 ns");
    }
    run_subfigure(an, "fig7c", "bench_fig7c.csv",
                  {"t_sd", "n_rw", "e_osr", "e_nvpg", "e_nof"}, tags, bases,
                  titles);
  }

  bench::print_footer("bench_fig7{a,b,c}.csv");
  return 0;
}
