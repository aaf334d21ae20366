// Multi-cell NV-SRAM array netlists (a power domain).
//
// An array is N word rows x M bit columns.  Bit lines are shared down a
// column, word lines across a row; each row has its own header power switch
// and SR/CTRL lines (the paper's per-word-line power management), so store /
// restore can proceed row by row while other rows stay in normal mode or
// shutdown.
//
// Arrays are used by the integration tests to validate the per-cell energy
// composition of core::EnergyModel against a true multi-cell simulation,
// and by the row-sequencing testbench below.
#pragma once

#include <string>
#include <vector>

#include "models/paper_params.h"
#include "spice/circuit.h"
#include "spice/elements.h"
#include "spice/tran.h"
#include "sram/cell.h"
#include "sram/script.h"

namespace nvsram::sram {

struct ArrayOptions {
  int rows = 2;
  int cols = 2;
  bool nonvolatile = true;
};

// Handles of a built array.
struct ArrayHandles {
  int rows = 0;
  int cols = 0;
  std::vector<std::vector<CellHandles>> cells;  // [row][col]
  std::vector<spice::NodeId> wordlines;         // per row
  std::vector<spice::NodeId> vvdd;              // per row
  std::vector<spice::NodeId> sr;                // per row (NV only)
  std::vector<spice::NodeId> ctrl;              // per row (NV only)
  std::vector<spice::NodeId> bl;                // per column
  std::vector<spice::NodeId> blb;               // per column
  spice::NodeId vdd = spice::kGround;
  std::vector<spice::NodeId> pg;                // per row
};

// Builds the array into `ckt`; one header switch per row sized
// `PaperParams::fins_power_switch * cols` fins, matching the paper's
// per-word-line gating.
ArrayHandles build_array(spice::Circuit& ckt, const std::string& prefix,
                         const models::PaperParams& pp, const ArrayOptions& opts);

// Scripted testbench over a small array: per-row drivers, shared bitline
// drivers; the same Script as CellTestbench, row-addressed.
class ArrayTestbench {
 public:
  ArrayTestbench(models::PaperParams pp, ArrayOptions opts);

  spice::Circuit& circuit() { return circuit_; }
  const ArrayHandles& array() const { return handles_; }
  int rows() const { return opts_.rows; }
  int cols() const { return opts_.cols; }

  // ---- schedule (row-addressed ops) ----
  // Writes `pattern` into the row (bit c = pattern value for column c).
  void op_write_row(int row, const std::vector<bool>& pattern);
  void op_read_row(int row);
  void op_idle(double duration);
  // Row-sequential store of every row (two CIMS steps per row).
  void op_store_all_rows();
  // Gates every row off for `duration`.
  void op_shutdown_all(double duration);
  // Row-sequential restore of every row.
  void op_restore_all_rows();
  double now() const { return script_.now(); }

  // Probes Q of every cell ("Q[r][c]") and each row's "VVDD[r]", then each
  // driver's energy.
  Script::Result run();

  // Cell voltage probe labels used in the waveform: "Q[r][c]".
  static std::string q_label(int r, int c);

  // MTJ element of a cell (for state checks).
  spice::MTJElement* mtj_q(int r, int c) { return handles_.cells[r][c].mtj_q; }
  spice::MTJElement* mtj_qb(int r, int c) { return handles_.cells[r][c].mtj_qb; }

 private:
  using TrackId = Script::TrackId;
  void store_row(int row);
  void restore_row(int row);

  models::PaperParams pp_;
  ArrayOptions opts_;
  spice::Circuit circuit_;
  ArrayHandles handles_;

  Script script_;
  TrackId vdd_;
  std::vector<TrackId> wl_, pg_, sr_, ctrl_;  // per row (sr_, ctrl_: NV only)
  std::vector<TrackId> bl_, blb_;             // per column (ideal drivers)
};

}  // namespace nvsram::sram
