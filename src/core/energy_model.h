// Architecture-level energy model: composes SPICE-characterized per-cell
// operation energies over the paper's Fig. 5 benchmark sequences, and solves
// for the break-even time (BET).
//
// Composition follows the paper's methodology:
//  * A power domain is an N-row x M-bit NV-SRAM (or 6T) array; all M cells
//    of a word act in parallel, so the model is per cell with N serializing
//    the word accesses and the row-by-row store/restore.
//  * One benchmark cycle =
//      n_RW x [ read all N words, write all N words, short sleep t_SL ]
//      + (NVPG/NOF) store + shutdown t_SD + restore
//      + (OSR) long sleep t_SD
//    with the NOF variant powering off around every access instead of
//    sleeping (reads wake-up + read; writes wake-up + write + store).
//  * Store and restore proceed row by row: waiting rows burn static power,
//    which is what couples BET to N.
#pragma once

#include <optional>
#include <string>

#include "core/architecture.h"
#include "core/peripheral.h"
#include "sram/characterize.h"

namespace nvsram::core {

struct BenchmarkParams {
  int n_rw = 100;        // inner-loop repetitions
  double t_sl = 100e-9;  // short sleep (OSR/NVPG) / short shutdown (NOF)
  double t_sd = 0.0;     // long shutdown (NVPG/NOF) / long sleep (OSR)
  int rows = 32;         // N (words per domain)
  int cols = 32;         // M (bits per word) — documents the domain size
  double reads_per_write = 1.0;  // repetition ratio of reads to writes
  bool store_free_shutdown = false;
  // Fraction of cells whose data differs from their MTJ contents when the
  // store begins (masked / differential store, an extension the paper's
  // store-free shutdown is the 0.0 limit of).  1.0 = store everything.
  double dirty_fraction = 1.0;

  double domain_bytes() const { return rows * cols / 8.0; }
};

// Per-phase decomposition of one benchmark cycle's energy (J, per cell).
struct EnergyBreakdown {
  double access = 0.0;        // dynamic read/write energy (incl. own-cycle static)
  double standby = 0.0;       // static while other words are accessed
  double sleep = 0.0;         // t_SL sleeps (or NOF short shutdowns)
  double store = 0.0;         // MTJ store operations
  double store_wait = 0.0;    // static while other rows store
  double shutdown = 0.0;      // long shutdown / OSR long sleep
  double restore = 0.0;       // wake-up operations
  double restore_wait = 0.0;  // static while other rows restore
  double peripheral = 0.0;    // optional WL/SR/CTRL driver overhead

  double total() const {
    return access + standby + sleep + store + store_wait + shutdown + restore +
           restore_wait + peripheral;
  }

  // Wall-clock duration of the benchmark cycle (s) — the performance side of
  // the comparison (Fig. 6(b)): NOF cycles are stretched by store/wake-up.
  double duration = 0.0;

  std::string describe() const;
};

class EnergyModel {
 public:
  // `cell_6t` characterizes the volatile baseline (OSR); `cell_nv` the
  // NV-SRAM cell (NVPG and NOF).
  EnergyModel(sram::CellEnergetics cell_6t, sram::CellEnergetics cell_nv);

  const sram::CellEnergetics& cell(Architecture a) const {
    return a == Architecture::kOSR ? cell_6t_ : cell_nv_;
  }

  // Per-cell energy of one full benchmark cycle.
  EnergyBreakdown cycle_energy(Architecture a, const BenchmarkParams& p) const;
  double e_cyc(Architecture a, const BenchmarkParams& p) const {
    return cycle_energy(a, p).total();
  }

  // Slope dE_cyc/dt_SD of the affine E(t_SD) line for this architecture.
  double shutdown_slope(Architecture a) const;

  // BET of `a` against the OSR baseline: the t_SD at which E_cyc(a) equals
  // E_cyc(OSR).  nullopt if the architecture never breaks even (slope of the
  // OSR line is not steeper); 0 if it is already ahead at t_SD = 0.
  std::optional<double> break_even_time(Architecture a, BenchmarkParams p) const;

  // Numeric cross-check of break_even_time via Brent on the full model
  // (used by tests; must agree with the analytic version).
  std::optional<double> break_even_time_numeric(Architecture a,
                                                BenchmarkParams p) const;

  // Enables the peripheral (WL/SR/CTRL driver) overhead term, which the
  // paper excludes.  Pass std::nullopt to disable again.
  void set_peripheral(std::optional<PeripheralModel> peripheral) {
    peripheral_ = std::move(peripheral);
  }

 private:
  sram::CellEnergetics cell_6t_;
  sram::CellEnergetics cell_nv_;
  std::optional<PeripheralModel> peripheral_;
};

}  // namespace nvsram::core
