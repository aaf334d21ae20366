// Array-level integration tests: multi-cell power domains with row-by-row
// store/restore, cross-checking the per-cell energy composition that the
// architecture model relies on, and exercising the sparse solver path on
// larger netlists.
#include <gtest/gtest.h>

#include <cmath>

#include "models/paper_params.h"
#include "sram/array.h"
#include "linalg/sparse_lu.h"
#include "sram/characterize.h"

namespace nvsram {
namespace {

using models::MtjState;
using models::PaperParams;
using sram::ArrayOptions;
using sram::ArrayTestbench;

TEST(ArrayBuild, RejectsDegenerateGeometry) {
  spice::Circuit ckt;
  ArrayOptions opts;
  opts.rows = 0;
  EXPECT_THROW(sram::build_array(ckt, "a", PaperParams::table1(), opts),
               std::invalid_argument);
}

TEST(ArrayBuild, CreatesExpectedStructure) {
  spice::Circuit ckt;
  ArrayOptions opts;
  opts.rows = 3;
  opts.cols = 2;
  const auto h = sram::build_array(ckt, "a", PaperParams::table1(), opts);
  EXPECT_EQ(h.cells.size(), 3u);
  EXPECT_EQ(h.cells[0].size(), 2u);
  EXPECT_EQ(h.wordlines.size(), 3u);
  EXPECT_EQ(h.bl.size(), 2u);
  EXPECT_EQ(h.sr.size(), 3u);
  EXPECT_NE(h.cells[1][1].mtj_q, nullptr);
  // Cells in the same row share VVDD; different rows do not.
  EXPECT_EQ(h.cells[0][0].vvdd, h.cells[0][1].vvdd);
  EXPECT_NE(h.cells[0][0].vvdd, h.cells[1][0].vvdd);
}

TEST(ArrayIntegration, TwoByTwoFullPowerGatingRoundTrip) {
  ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  ArrayTestbench tb(PaperParams::table1(), opts);
  // Distinct pattern per row: row0 = {1,0}, row1 = {0,1}.
  tb.op_write_row(0, {true, false});
  tb.op_write_row(1, {false, true});
  tb.op_idle(1e-9);
  tb.op_store_all_rows();
  tb.op_shutdown_all(3e-6);
  tb.op_restore_all_rows();
  tb.op_idle(2e-9);
  auto res = tb.run();

  // MTJ states per cell.
  EXPECT_EQ(tb.mtj_q(0, 0)->state(), MtjState::kAntiparallel);
  EXPECT_EQ(tb.mtj_q(0, 1)->state(), MtjState::kParallel);
  EXPECT_EQ(tb.mtj_q(1, 0)->state(), MtjState::kParallel);
  EXPECT_EQ(tb.mtj_q(1, 1)->state(), MtjState::kAntiparallel);

  // Every VVDD collapsed during shutdown.
  const auto& sd = res.phase("shutdown");
  for (int r = 0; r < 2; ++r) {
    EXPECT_LT(res.wave.value_at("VVDD[" + std::to_string(r) + "]",
                                sd.t1 - 1e-9),
              0.25)
        << "row " << r;
  }

  // Data recovered everywhere.
  const double t_end = tb.now() - 0.5e-9;
  const bool expected[2][2] = {{true, false}, {false, true}};
  for (int r = 0; r < 2; ++r) {
    for (int c = 0; c < 2; ++c) {
      const double q = res.wave.value_at(ArrayTestbench::q_label(r, c), t_end);
      if (expected[r][c]) {
        EXPECT_GT(q, 0.8) << "cell " << r << "," << c;
      } else {
        EXPECT_LT(q, 0.1) << "cell " << r << "," << c;
      }
    }
  }
}

TEST(ArrayIntegration, RowsStoreSequentially) {
  ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  ArrayTestbench tb(PaperParams::table1(), opts);
  tb.op_write_row(0, {true, true});
  tb.op_write_row(1, {true, true});
  tb.op_idle(1e-9);
  tb.op_store_all_rows();
  auto res = tb.run();
  // Row 1's store window starts after row 0's completes.
  const auto& s0 = res.phase("store_l_row0");
  const auto& s1 = res.phase("store_h_row1");
  EXPECT_GE(s1.t0, s0.t1 - 1e-12);
}

TEST(ArrayIntegration, StoreEnergyMatchesCellCharacterizationScaled) {
  // The architecture model assumes E_store(array) ~ cells * E_store(cell).
  // Validate on a real 2x2 array within a generous tolerance (the array
  // version includes per-row switch overhead the cell testbench lacks).
  const auto pp = PaperParams::table1();
  sram::CellCharacterizer ch(pp);
  const auto nv = ch.characterize(sram::CellKind::kNvSram);

  ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  ArrayTestbench tb(pp, opts);
  tb.op_write_row(0, {true, false});
  tb.op_write_row(1, {false, true});
  tb.op_idle(1e-9);
  tb.op_store_all_rows();
  auto res = tb.run();
  const auto& st = res.phase("store_all");
  const double e_array = res.energy(st.t0, st.t1);
  const double e_model = 4.0 * nv.e_store;
  EXPECT_GT(e_array, 0.5 * e_model);
  EXPECT_LT(e_array, 1.6 * e_model);
}

TEST(ArrayIntegration, VolatileArrayWritesAndHolds) {
  ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  opts.nonvolatile = false;
  ArrayTestbench tb(PaperParams::table1(), opts);
  tb.op_write_row(0, {true, false});
  tb.op_write_row(1, {false, true});
  tb.op_read_row(0);
  tb.op_idle(2e-9);
  auto res = tb.run();
  const double t_end = tb.now() - 0.5e-9;
  EXPECT_GT(res.wave.value_at(ArrayTestbench::q_label(0, 0), t_end), 0.8);
  EXPECT_LT(res.wave.value_at(ArrayTestbench::q_label(0, 1), t_end), 0.1);
  EXPECT_LT(res.wave.value_at(ArrayTestbench::q_label(1, 0), t_end), 0.1);
  EXPECT_GT(res.wave.value_at(ArrayTestbench::q_label(1, 1), t_end), 0.8);
}

TEST(ArrayIntegration, VolatileArrayRestoresPower) {
  // A volatile array has no SR or CTRL lines: its restore only powers the
  // rows back up.
  ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  opts.nonvolatile = false;
  const auto pp = PaperParams::table1();
  ArrayTestbench tb(pp, opts);
  tb.op_write_row(0, {true, false});
  tb.op_shutdown_all(10e-9);
  tb.op_restore_all_rows();
  auto res = tb.run();
  for (int r = 0; r < 2; ++r) {
    EXPECT_GT(res.wave.value_at("VVDD[" + std::to_string(r) + "]", tb.now()),
              0.8 * pp.vdd)
        << "row " << r;
  }
}

TEST(ArrayIntegration, LargeArrayExercisesSparseSolver) {
  // A 6x6 NV array exceeds the dense cutoff (~230 unknowns): the Newton
  // loop runs on the Gilbert-Peierls sparse LU.  Keep the script short.
  ArrayOptions opts;
  opts.rows = 6;
  opts.cols = 6;
  ArrayTestbench tb(PaperParams::table1(), opts);
  std::vector<bool> pattern(6);
  for (int c = 0; c < 6; ++c) pattern[c] = (c % 2 == 0);
  tb.op_write_row(0, pattern);
  tb.op_write_row(3, pattern);
  tb.op_idle(2e-9);
  auto res = tb.run();
  const double t_end = tb.now() - 0.5e-9;
  EXPECT_GT(res.wave.value_at(ArrayTestbench::q_label(0, 0), t_end), 0.8);
  EXPECT_LT(res.wave.value_at(ArrayTestbench::q_label(0, 1), t_end), 0.1);
  EXPECT_GT(res.wave.value_at(ArrayTestbench::q_label(3, 4), t_end), 0.8);

  // Sanity: the circuit really is past the dense cutoff.
  const auto layout = tb.circuit().build_layout();
  EXPECT_GT(layout.unknown_count(), linalg::kDenseCutoff);
}

TEST(ArrayIntegration, WriteRowValidatesArguments) {
  ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 2;
  ArrayTestbench tb(PaperParams::table1(), opts);
  EXPECT_THROW(tb.op_write_row(5, {true, true}), std::out_of_range);
  EXPECT_THROW(tb.op_write_row(0, {true}), std::invalid_argument);
  EXPECT_THROW(tb.run(), std::logic_error);  // nothing scheduled
}

}  // namespace
}  // namespace nvsram
