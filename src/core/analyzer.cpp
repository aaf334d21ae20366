#include "core/analyzer.h"

#include <future>

#include "sram/characterize_cache.h"
#include "util/watchdog.h"

namespace nvsram::core {

PowerGatingAnalyzer::PowerGatingAnalyzer(models::PaperParams pp,
                                         double max_wall_seconds,
                                         int relax_attempt)
    : pp_(pp) {
  // The two characterizations share nothing but the process-wide cache,
  // which is thread safe and keeps one entry per cell kind, so the NV-SRAM
  // cell runs on a second thread while this one runs the 6T cell, both
  // against the one phase deadline.  Through the cache, sweeps building
  // many analyzers at the same parameter point pay for the SPICE
  // characterization once.
  const util::Deadline phase(max_wall_seconds);
  auto nv = std::async(std::launch::async, [this, &phase, relax_attempt] {
    return sram::characterize_cached(pp_, sram::CellKind::kNvSram,
                                     phase.remaining_seconds(), relax_attempt);
  });
  // If the 6T cell throws, the future's destructor waits for the NV-SRAM
  // thread and drops its result or error: the 6T cell's error surfaces.
  cell_6t_ = sram::characterize_cached(
      pp_, sram::CellKind::k6T, phase.remaining_seconds(), relax_attempt);
  cell_nv_ = nv.get();
  model_ = std::make_unique<EnergyModel>(cell_6t_, cell_nv_);
}

std::vector<std::pair<double, double>> PowerGatingAnalyzer::ecyc_vs_nrw(
    Architecture a, const std::vector<int>& n_rw_values,
    BenchmarkParams base) const {
  std::vector<std::pair<double, double>> out;
  out.reserve(n_rw_values.size());
  for (int n : n_rw_values) {
    base.n_rw = n;
    out.emplace_back(static_cast<double>(n), model_->e_cyc(a, base));
  }
  return out;
}

std::vector<std::pair<double, double>> PowerGatingAnalyzer::ecyc_vs_tsd(
    Architecture a, const std::vector<double>& t_sd_values,
    BenchmarkParams base) const {
  std::vector<std::pair<double, double>> out;
  out.reserve(t_sd_values.size());
  for (double t : t_sd_values) {
    base.t_sd = t;
    out.emplace_back(t, model_->e_cyc(a, base));
  }
  return out;
}

std::vector<std::pair<double, double>>
PowerGatingAnalyzer::ecyc_vs_tsd_normalized(
    Architecture a, const std::vector<double>& t_sd_values,
    BenchmarkParams base) const {
  std::vector<std::pair<double, double>> out;
  out.reserve(t_sd_values.size());
  for (double t : t_sd_values) {
    base.t_sd = t;
    const double e = model_->e_cyc(a, base);
    const double e_osr = model_->e_cyc(Architecture::kOSR, base);
    out.emplace_back(t, e / e_osr);
  }
  return out;
}

std::vector<PowerGatingAnalyzer::BetPoint> PowerGatingAnalyzer::bet_vs_rows(
    Architecture a, const std::vector<int>& rows_values,
    BenchmarkParams base) const {
  std::vector<BetPoint> out;
  for (int rows : rows_values) {
    base.rows = rows;
    if (auto bet = model_->break_even_time(a, base)) {
      out.push_back({rows, *bet});
    }
  }
  return out;
}

double PowerGatingAnalyzer::cycle_time_ratio(Architecture a,
                                             const BenchmarkParams& p) const {
  const double d = model_->cycle_energy(a, p).duration;
  const double d_osr = model_->cycle_energy(Architecture::kOSR, p).duration;
  return d / d_osr;
}

}  // namespace nvsram::core
