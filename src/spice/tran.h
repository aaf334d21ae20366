// Adaptive transient analysis.
//
// Timestep control: Newton-failure backoff plus a predictor-corrector local
// error estimate (difference between the linear extrapolation of the last
// two accepted points and the Newton solution).  Source breakpoints are
// never stepped across.  Devices with discrete events (MTJ switching)
// trigger a step-size reset when they fire.
//
// Resilience: when dt-halving bottoms out at dt_min the step is salvaged
// through the shared recovery ladder (gmin-ramp, then source-ramp at the
// failed timepoint); only when the ladder is exhausted does run() throw a
// SolverError carrying structured diagnostics.  An optional wall-clock
// watchdog bounds pathological runs.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/diagnostics.h"
#include "spice/newton.h"
#include "spice/waveform.h"
#include "util/watchdog.h"

namespace nvsram::spice {

struct TranOptions {
  double t_stop = 0.0;
  double dt_initial = 1e-12;
  double dt_min = 1e-17;
  double dt_max = 0.0;         // 0 => t_stop / 50
  double lte_reltol = 2e-3;
  double lte_abstol = 1e-5;    // volts
  IntegrationMethod method = IntegrationMethod::kTrapezoidal;
  NewtonOptions newton;
  // Wall-clock watchdog: run() throws util::WatchdogError once the run has
  // consumed this many seconds.  0 => unlimited.
  double max_wall_seconds = 0.0;

  // Shared relaxation ladder for retry loops (mirrors
  // NewtonOptions::relaxed): attempt 0 is a no-op; later attempts loosen
  // the Newton and LTE budgets and widen the step-size floor.
  TranOptions relaxed(int attempt) const;
};

struct TranStats {
  std::size_t accepted_steps = 0;
  std::size_t rejected_steps = 0;
  std::size_t newton_failures = 0;
  std::size_t device_events = 0;
  std::size_t total_newton_iterations = 0;
  // Recovery-ladder accounting: steps salvaged per stage.
  std::size_t gmin_recoveries = 0;
  std::size_t source_recoveries = 0;
  std::size_t recoveries() const { return gmin_recoveries + source_recoveries; }
  // Diagnostics of the last failed (or salvaged) solve, if any.
  SolveDiagnostics last_diagnostics;
};

class TranAnalysis {
 public:
  // `probes` are recorded at every accepted step or, given `instants`, into
  // a waveform thinned to the samples that reading them needs (Waveform).
  TranAnalysis(Circuit& circuit, TranOptions options, std::vector<Probe> probes,
               std::vector<double> instants = {});

  // Runs DC (unless `initial` given) then integrates to t_stop.
  // Throws SolverError (with diagnostics) when no convergence is possible,
  // util::WatchdogError when the wall-clock budget expires.
  Waveform run(const DCSolution* initial = nullptr);

  const TranStats& stats() const { return stats_; }

  // Total energy delivered by the voltage source named `name` over the whole
  // run (available after run(); 0 for a name no source of the run has).
  double source_energy(const std::string& name) const;

 private:
  Circuit& circuit_;
  TranOptions options_;
  std::vector<Probe> probes_;
  std::vector<double> instants_;
  MnaLayout layout_;
  TranStats stats_;
  // The circuit's voltage sources, in device order, and the energy each has
  // delivered so far, at the same position.
  std::vector<const VSource*> sources_;
  std::vector<double> energies_;
  // Assembly plan and LU analysis shared by every Newton solve of the run
  // (the stamp sequence is fixed per circuit, so each is computed once).
  NewtonWorkspace ws_;
};

}  // namespace nvsram::spice
