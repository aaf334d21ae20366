// High-level facade: characterize the cells once, then answer the paper's
// evaluation questions (E_cyc curves, BET curves, performance ratios).
#pragma once

#include <memory>
#include <vector>

#include "core/energy_model.h"
#include "models/paper_params.h"

namespace nvsram::core {

class PowerGatingAnalyzer {
 public:
  // Characterizes both cells with SPICE at construction (a few transients
  // and DC solves; about 0.1 s cold in a Release build — amortized through
  // the process-wide cache in sram/characterize_cache.h, so repeated
  // analyzers at the same parameter point are cheap).  The NV-SRAM cell is
  // characterized on a second thread while the calling thread
  // characterizes the 6T cell, and each characterization runs its sleep
  // script and static-power corners on a thread of its own, so four
  // scripts run at once.  The results are bit for bit those of two
  // CellCharacterizer::characterize calls.  When both throw, the 6T cell's
  // exception propagates.  `max_wall_seconds` bounds the whole
  // characterization phase: both cells run against one wall-clock deadline,
  // and expiry throws util::WatchdogError.  0 = unlimited.  Sweep points
  // that build analyzers should pass their PointContext::timeout_sec here
  // so the runner's watchdog covers the SPICE-characterization phase too.
  // `relax_attempt` is forwarded to both CellCharacterizers (shared
  // relaxation ladder); retry callbacks pass PointContext::attempt.
  explicit PowerGatingAnalyzer(models::PaperParams pp,
                               double max_wall_seconds = 0.0,
                               int relax_attempt = 0);

  const models::PaperParams& paper() const { return pp_; }
  const EnergyModel& model() const { return *model_; }
  const sram::CellEnergetics& cell_6t() const { return cell_6t_; }
  const sram::CellEnergetics& cell_nv() const { return cell_nv_; }

  // ---- figure-level series ----
  // E_cyc(n_RW) for one architecture with everything else fixed (Fig. 7).
  std::vector<std::pair<double, double>> ecyc_vs_nrw(
      Architecture a, const std::vector<int>& n_rw_values,
      BenchmarkParams base) const;

  // E_cyc(t_SD) (Fig. 8(a)) and the OSR-normalized variant (Fig. 8(b)).
  std::vector<std::pair<double, double>> ecyc_vs_tsd(
      Architecture a, const std::vector<double>& t_sd_values,
      BenchmarkParams base) const;
  std::vector<std::pair<double, double>> ecyc_vs_tsd_normalized(
      Architecture a, const std::vector<double>& t_sd_values,
      BenchmarkParams base) const;

  // BET(N) (Fig. 9); nullopt entries are skipped (never breaks even).
  struct BetPoint {
    int rows;
    double bet;
  };
  std::vector<BetPoint> bet_vs_rows(Architecture a,
                                    const std::vector<int>& rows_values,
                                    BenchmarkParams base) const;

  // NOF slowdown: benchmark-cycle duration ratio vs OSR (Fig. 6(b) message).
  double cycle_time_ratio(Architecture a, const BenchmarkParams& p) const;

 private:
  models::PaperParams pp_;
  sram::CellEnergetics cell_6t_;
  sram::CellEnergetics cell_nv_;
  std::unique_ptr<EnergyModel> model_;
};

}  // namespace nvsram::core
