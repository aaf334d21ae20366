// Simulator-kernel microbenchmarks (google-benchmark): dense, planned-cell
// and sparse LU, Newton DC solves of the NV-SRAM cell, transient
// throughput on the cell and on a 2x16 array, and the SNM square search.  These are not paper figures; they
// document the substrate's performance.
#include <benchmark/benchmark.h>

#include <memory>
#include <random>
#include <string>
#include <vector>

#include "linalg/lu.h"
#include "linalg/sparse_lu.h"
#include "models/paper_params.h"
#include "spice/dc.h"
#include "spice/newton.h"
#include "sram/array.h"
#include "sram/characterize.h"
#include "sram/montecarlo.h"
#include "sram/snm.h"
#include "sram/testbench.h"

namespace {

using namespace nvsram;

void BM_DenseLuFactorSolve(benchmark::State& state) {
  const std::size_t n = static_cast<std::size_t>(state.range(0));
  std::mt19937 rng(1);
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  linalg::DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) a(i, j) = dist(rng);
    a(i, i) += static_cast<double>(n);
  }
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    linalg::LuFactorization lu;
    lu.factorize(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
}
BENCHMARK(BM_DenseLuFactorSolve)->Arg(16)->Arg(40)->Arg(120);

// ---- cell-size LU: dense against the planned replay ----
//
// The NV cell's own Newton matrix and RHS (below linalg::kDenseCutoff),
// taken from the workspace after a Table I DC operating point.
// BM_CellLuDense times the cell path before PlannedLu: to_dense, the
// partially pivoted dense factorize and the dense solve.  BM_CellLuReplay
// times PlannedLu replaying the same pivots on the nonzeros, with the
// same bits; a replan inside the loop is an error.
struct CellNewtonSystem {
  CellNewtonSystem() {
    sram::CellTestbench tb(sram::CellKind::kNvSram,
                           models::PaperParams::table1());
    spice::DCAnalysis dc(tb.circuit());
    ok = dc.solve().has_value();
    matrix = dc.workspace().matrix;
    rhs = dc.workspace().rhs;
  }

  std::string label() const {
    return std::to_string(matrix.dimension()) + " unknowns, " +
           std::to_string(matrix.nonzeros()) + " nonzeros";
  }

  linalg::CsrMatrix matrix;
  linalg::Vector rhs;
  bool ok = false;
};

void BM_CellLuDense(benchmark::State& state) {
  const CellNewtonSystem sys;
  if (!sys.ok) {
    state.SkipWithError("DC solve failed");
    return;
  }
  linalg::DenseMatrix dense;
  linalg::LuFactorization lu;
  for (auto _ : state) {
    sys.matrix.to_dense_into(dense);
    if (!lu.factorize(dense)) {
      state.SkipWithError("factorize failed");
      return;
    }
    benchmark::DoNotOptimize(lu.solve(sys.rhs));
  }
  state.SetLabel(sys.label());
}
BENCHMARK(BM_CellLuDense);

void BM_CellLuReplay(benchmark::State& state) {
  const CellNewtonSystem sys;
  linalg::PlannedLu lu;
  if (!sys.ok || !lu.factorize(sys.matrix)) {
    state.SkipWithError("DC solve or planning failed");
    return;
  }
  for (auto _ : state) {
    if (!lu.factorize(sys.matrix) || lu.replanned()) {
      state.SkipWithError("the replay failed or replanned");
      return;
    }
    benchmark::DoNotOptimize(lu.solve(sys.rhs));
  }
  state.SetLabel(sys.label());
}
BENCHMARK(BM_CellLuReplay);

void BM_SparseLuGrid(benchmark::State& state) {
  const std::size_t g = static_cast<std::size_t>(state.range(0));
  const std::size_t n = g * g;
  linalg::SparseBuilder builder(n);
  auto at = [g](std::size_t r, std::size_t c) { return r * g + c; };
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      const std::size_t i = at(r, c);
      builder.add(i, i, 4.001);
      if (r > 0) builder.add(i, at(r - 1, c), -1.0);
      if (r + 1 < g) builder.add(i, at(r + 1, c), -1.0);
      if (c > 0) builder.add(i, at(r, c - 1), -1.0);
      if (c + 1 < g) builder.add(i, at(r, c + 1), -1.0);
    }
  }
  const linalg::CsrMatrix a(builder);
  linalg::Vector b(n, 1.0);
  for (auto _ : state) {
    linalg::SparseLu lu;
    lu.factorize(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  state.SetLabel(std::to_string(n) + " unknowns");
}
BENCHMARK(BM_SparseLuGrid)->Arg(10)->Arg(20)->Arg(40);

// The same grid through the split symbolic/numeric API: analyze once outside
// the loop, refactor per iteration — the Newton hot path on an unchanged
// sparsity pattern.  Compare against BM_SparseLuGrid at the same Arg to see
// what skipping the symbolic phase (reach DFS + pivot search + ordering)
// buys on an array-scale pattern.
void BM_SparseLuRefactor(benchmark::State& state) {
  const std::size_t g = static_cast<std::size_t>(state.range(0));
  const std::size_t n = g * g;
  linalg::SparseBuilder builder(n);
  auto at = [g](std::size_t r, std::size_t c) { return r * g + c; };
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      const std::size_t i = at(r, c);
      builder.add(i, i, 4.001);
      if (r > 0) builder.add(i, at(r - 1, c), -1.0);
      if (r + 1 < g) builder.add(i, at(r + 1, c), -1.0);
      if (c > 0) builder.add(i, at(r, c - 1), -1.0);
      if (c + 1 < g) builder.add(i, at(r, c + 1), -1.0);
    }
  }
  const linalg::CsrMatrix a(builder);
  linalg::Vector b(n, 1.0);
  linalg::SparseLu lu;
  if (!lu.analyze(a)) state.SkipWithError("analyze failed");
  for (auto _ : state) {
    lu.refactor(a);
    benchmark::DoNotOptimize(lu.solve(b));
  }
  state.SetLabel(std::to_string(n) + " unknowns, symbolic reused");
}
BENCHMARK(BM_SparseLuRefactor)->Arg(10)->Arg(20)->Arg(40);

// ---- Newton across adjacent sweep points ----
//
// A fig7-shaped workload: K adjacent sweep points of an NV-SRAM array power
// domain (rows x cols cells, ~hundreds of MNA unknowns, so the solves take
// the sparse KLU-style path), each point a slightly different VDD trim, all
// warm-started from a common operating point.  The points share a topology
// and so a sparsity pattern.  BM_ScalarNewtonSweep gives every point a
// fresh NewtonWorkspace (one assembly plan and one symbolic analysis per
// point); BM_SharedWorkspaceNewtonSweep carries one workspace across every
// point and iteration, so the plan and the analysis are made once and each
// later solve only accumulates stamps and refactors.  Both report points/s.
struct SweepDcWorkload {
  explicit SweepDcWorkload(std::size_t k) {
    sram::ArrayOptions aopts;
    aopts.rows = 4;
    aopts.cols = 8;
    for (std::size_t l = 0; l < k; ++l) {
      auto pp = models::PaperParams::table1();
      pp.vdd += 1e-3 * static_cast<double>(l);  // adjacent sweep points
      tbs.push_back(std::make_unique<sram::ArrayTestbench>(pp, aopts));
      layouts.push_back(tbs.back()->circuit().build_layout());
    }

    // Common warm start: point 0's operating point, as neighboring sweep
    // points warm-start from each other.
    warm.assign(layouts[0].unknown_count(), 0.0);
    spice::NewtonWorkspace ws;
    const auto r = spice::solve_newton_with_recovery(
        tbs[0]->circuit(), layouts[0], warm, /*time=*/0.0, /*dt=*/0.0,
        /*dc=*/true, spice::IntegrationMethod::kBackwardEuler, opts, ws);
    warm_ok = r.converged;
  }

  std::vector<std::unique_ptr<sram::ArrayTestbench>> tbs;
  std::vector<spice::MnaLayout> layouts;
  linalg::Vector warm;
  spice::NewtonOptions opts;
  bool warm_ok = false;
};

void run_newton_sweep(benchmark::State& state, bool shared_workspace) {
  const std::size_t k = static_cast<std::size_t>(state.range(0));
  SweepDcWorkload w(k);
  if (!w.warm_ok) {
    state.SkipWithError("warm-start solve failed");
    return;
  }
  spice::NewtonWorkspace shared;
  linalg::Vector x;
  std::size_t solved = 0;
  for (auto _ : state) {
    for (std::size_t l = 0; l < k; ++l) {
      x = w.warm;
      spice::NewtonWorkspace fresh;
      const auto r = spice::solve_newton(
          w.tbs[l]->circuit(), w.layouts[l], x, /*time=*/0.0, /*dt=*/0.0,
          /*dc=*/true, spice::IntegrationMethod::kBackwardEuler, w.opts,
          shared_workspace ? shared : fresh);
      solved += r.converged ? 1 : 0;
      benchmark::DoNotOptimize(x);
    }
  }
  if (solved != k * static_cast<std::size_t>(state.iterations())) {
    state.SkipWithError("a point failed to converge");
    return;
  }
  state.counters["points/s"] = benchmark::Counter(
      static_cast<double>(k) * static_cast<double>(state.iterations()),
      benchmark::Counter::kIsRate);
  std::string label =
      std::to_string(w.layouts[0].unknown_count()) + " unknowns/point";
  if (shared_workspace) {
    label += ", " + std::to_string(shared.plan_count) + " plans, " +
             std::to_string(shared.analyze_count) + " analyses";
  }
  state.SetLabel(label);
}

void BM_ScalarNewtonSweep(benchmark::State& state) {
  run_newton_sweep(state, /*shared_workspace=*/false);
}
BENCHMARK(BM_ScalarNewtonSweep)->Arg(1)->Arg(8);

void BM_SharedWorkspaceNewtonSweep(benchmark::State& state) {
  run_newton_sweep(state, /*shared_workspace=*/true);
}
BENCHMARK(BM_SharedWorkspaceNewtonSweep)->Arg(1)->Arg(8);

void BM_NvCellDcOperatingPoint(benchmark::State& state) {
  sram::CellTestbench tb(sram::CellKind::kNvSram, models::PaperParams::table1(),
                         sram::TestbenchOptions{.ideal_bitlines = true});
  for (auto _ : state) {
    auto sol = tb.solve_dc(tb.bias_normal(), true);
    benchmark::DoNotOptimize(sol);
  }
}
BENCHMARK(BM_NvCellDcOperatingPoint);

void BM_NvCellStoreTransient(benchmark::State& state) {
  for (auto _ : state) {
    sram::CellTestbench tb(sram::CellKind::kNvSram,
                           models::PaperParams::table1());
    tb.op_write(true);
    tb.op_store();
    auto res = tb.run();
    benchmark::DoNotOptimize(res.wave.samples());
  }
}
BENCHMARK(BM_NvCellStoreTransient)->Unit(benchmark::kMillisecond);

void BM_CellCharacterization(benchmark::State& state) {
  const auto pp = models::PaperParams::table1();
  for (auto _ : state) {
    sram::CellCharacterizer ch(pp);
    benchmark::DoNotOptimize(ch.characterize(sram::CellKind::kNvSram));
  }
}
BENCHMARK(BM_CellCharacterization)->Unit(benchmark::kMillisecond);

// bench/perf's array_tran item as a kernel: a 2x16 NV-SRAM array written
// row by row with a fixed pattern, stored row by row, shut down for 3 us,
// restored, then run() as one transient.  212 unknowns, above
// linalg::kDenseCutoff, so every Newton iteration streams its stamps into
// the planned matrix and refactors with SparseLu.  A cell that restores the
// wrong value is an error.
void BM_ArrayRoundTrip(benchmark::State& state) {
  constexpr int kRows = 2;
  constexpr int kCols = 16;
  std::mt19937 rng(7);
  std::vector<std::vector<bool>> data(kRows, std::vector<bool>(kCols));
  for (auto& row : data) {
    for (std::size_t c = 0; c < row.size(); ++c) row[c] = (rng() & 1u) != 0;
  }
  const auto pp = models::PaperParams::table1();
  sram::ArrayOptions opts;
  opts.rows = kRows;
  opts.cols = kCols;
  for (auto _ : state) {
    sram::ArrayTestbench tb(pp, opts);
    for (int r = 0; r < kRows; ++r) tb.op_write_row(r, data[r]);
    tb.op_idle(1e-9);
    tb.op_store_all_rows();
    tb.op_shutdown_all(3e-6);
    tb.op_restore_all_rows();
    tb.op_idle(2e-9);
    const auto res = tb.run();
    const double t_end = tb.now() - 0.5e-9;
    for (int r = 0; r < kRows; ++r) {
      for (int c = 0; c < kCols; ++c) {
        const double q =
            res.wave.value_at(sram::ArrayTestbench::q_label(r, c), t_end);
        if (data[r][c] ? q < 0.8 * pp.vdd : q > 0.2 * pp.vdd) {
          state.SkipWithError("a cell restored the wrong value");
          return;
        }
      }
    }
  }
}
BENCHMARK(BM_ArrayRoundTrip)->Unit(benchmark::kMillisecond);

// The butterfly-curve square search alone, on one mismatched NV-cell read
// VTC pair (121 points each, sigma_Vth = 30 mV) swept once before timing.
void BM_SnmSquareSearch(benchmark::State& state) {
  const auto pp = models::PaperParams::table1();
  sram::VariationSpec spec;
  spec.vth_sigma = 0.03;
  sram::MonteCarlo mc(pp, spec);
  sram::SnmOptions a, b;
  a.access_on = b.access_on = true;
  a.fet_vary = mc.draw_fet_vary();
  b.fet_vary = mc.draw_fet_vary();
  const auto vtc_a = sram::inverter_vtc(pp, sram::CellKind::kNvSram, a);
  const auto vtc_b = sram::inverter_vtc(pp, sram::CellKind::kNvSram, b);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sram::compute_snm(vtc_a, vtc_b));
  }
}
BENCHMARK(BM_SnmSquareSearch)->Unit(benchmark::kMicrosecond);

}  // namespace

BENCHMARK_MAIN();
