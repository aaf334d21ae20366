// Fig. 9 reproduction: BET vs domain size N.
//   (a) Table I technology (300 MHz, Jc = 5e6 A/cm^2): BET vs N for n_RW in
//       {10, 100, 1000}, with and without store-free shutdown
//   (b) fast technology (1 GHz, Jc = 1e6 A/cm^2): much shorter BET / larger
//       feasible domains even without store-free shutdown
//
// All four tables share one CSV, so the whole figure is one SweepRunner
// sweep ("fig9") over the flattened (tech, store_free, N) grid; failed
// points land in bench_fig9.csv.failures.csv and interrupted runs resume
// from the checkpoint (see docs/ROBUSTNESS.md).  Points are independent, so
// the sweep fans out over the worker pool (NVSRAM_SWEEP_THREADS) with
// byte-identical output at any pool size.
#include <array>
#include <iostream>
#include <optional>

#include "bench_common.h"
#include "core/analyzer.h"

int main() {
  using namespace nvsram;
  using core::Architecture;
  using core::BenchmarkParams;

  bench::print_header(
      "Fig. 9 — BET vs domain size N",
      "BET grows with N and n_RW; store-free shutdown cuts it to a few us; "
      "the 1 GHz / low-Jc technology shortens BET further");

  // Options first: the per-point watchdog budget also covers the SPICE
  // characterization of the two technologies below.
  runner::RunnerOptions opts = bench::sweep_options(
      "fig9", "bench_fig9.csv",
      {"tech", "store_free", "rows", "bet_nrw10", "bet_nrw100", "bet_nrw1000"});

  // Both technologies are characterized up front; sweep points only evaluate
  // the closed-form BET on top of them.
  const std::array<core::PowerGatingAnalyzer, 2> tech{
      core::PowerGatingAnalyzer(models::PaperParams::table1(),
                                opts.point_timeout_sec),
      core::PowerGatingAnalyzer(models::PaperParams::table1_fast(),
                                opts.point_timeout_sec)};
  bench::print_characterization_telemetry("Table I / 6T", tech[0].cell_6t());
  bench::print_characterization_telemetry("Table I / NV-SRAM",
                                          tech[0].cell_nv());
  bench::print_characterization_telemetry("fast / 6T", tech[1].cell_6t());
  bench::print_characterization_telemetry("fast / NV-SRAM",
                                          tech[1].cell_nv());

  const std::vector<int> row_grid{32, 64, 128, 256, 512, 1024, 2048};
  // Series order matches the printed tables: (tech, store_free) major,
  // N minor.
  struct Series {
    std::size_t tech;
    bool store_free;
    const char* title;
  };
  const std::array<Series, 4> series{{
      {0, false, "Fig. 9(a): Table I technology, with store"},
      {0, true, "Fig. 9(a): Table I technology, store-free shutdown"},
      {1, false, "Fig. 9(b): fast technology, with store"},
      {1, true, "Fig. 9(b): fast technology, store-free shutdown"},
  }};

  runner::SweepRunner run("fig9", opts);
  const auto summary = run.run(
      series.size() * row_grid.size(), [&](const runner::PointContext& pc) {
        const Series& s = series[pc.index / row_grid.size()];
        BenchmarkParams base;
        base.rows = row_grid[pc.index % row_grid.size()];
        base.cols = 32;
        base.t_sl = 100e-9;
        base.store_free_shutdown = s.store_free;
        std::vector<double> row{static_cast<double>(s.tech),
                                s.store_free ? 1.0 : 0.0,
                                static_cast<double>(base.rows)};
        for (int n_rw : {10, 100, 1000}) {
          base.n_rw = n_rw;
          const auto bet =
              tech[s.tech].model().break_even_time(Architecture::kNVPG, base);
          row.push_back(bet ? *bet : -1.0);
        }
        return runner::Rows{row};
      });

  for (std::size_t s = 0; s < series.size(); ++s) {
    if (s == 2) {
      std::cout << "\n[fast technology: clock = 1 GHz, Jc = 1e6 A/cm^2, "
                   "rescaled store biases]\n";
    }
    util::print_banner(std::cout, series[s].title);
    util::TablePrinter t(
        {"N", "domain", "BET (n_RW=10)", "BET (n_RW=100)", "BET (n_RW=1000)"});
    for (std::size_t i = 0; i < row_grid.size(); ++i) {
      const std::size_t point = s * row_grid.size() + i;
      BenchmarkParams base;
      base.rows = row_grid[i];
      base.cols = 32;
      if (!summary.point_ok(point)) {
        t.row({std::to_string(row_grid[i]),
               util::si_format(base.domain_bytes(), "B", 0), "FAILED", "FAILED",
               "FAILED"});
        continue;
      }
      const auto& r = summary.rows[point].front();
      std::vector<std::string> cells{
          std::to_string(row_grid[i]),
          util::si_format(base.domain_bytes(), "B", 0)};
      for (std::size_t k = 3; k < r.size(); ++k) {
        cells.push_back(r[k] >= 0.0 ? util::si_format(r[k], "s") : "never");
      }
      t.row(cells);
    }
    t.print(std::cout);
  }
  bench::print_sweep_summary(summary);

  bench::print_footer("bench_fig9.csv");
  return 0;
}
