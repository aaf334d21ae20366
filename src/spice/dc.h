// DC operating-point analysis and DC sweeps.
#pragma once

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "spice/circuit.h"
#include "spice/newton.h"
#include "spice/waveform.h"

namespace nvsram::spice {

struct DCOptions {
  // A plain solve that fails escalates through the recovery ladder (gmin
  // stepping, then source stepping from zero; solve_newton_with_recovery).
  NewtonOptions newton;
  // Wall-clock watchdog for the whole solve incl. the recovery ladder:
  // solve() throws util::WatchdogError once this many seconds are consumed.
  // 0 = unlimited.  Mirrors TranOptions::max_wall_seconds so DC-heavy
  // phases (cell characterization, bias sweeps) honor a deadline too.
  double max_wall_seconds = 0.0;
};

// Result of a DC solve: the unknown vector with its layout kept alive.
class DCSolution {
 public:
  DCSolution(linalg::Vector x, MnaLayout layout)
      : x_(std::move(x)), layout_(layout) {}

  SolutionView view() const { return SolutionView(x_, layout_); }
  double node_voltage(NodeId n) const { return view().node_voltage(n); }
  double device_current(const Device& d) const { return d.current(view()); }
  const linalg::Vector& raw() const& { return x_; }
  linalg::Vector raw() && { return std::move(x_); }
  const MnaLayout& layout() const { return layout_; }

 private:
  linalg::Vector x_;
  MnaLayout layout_;
};

class DCAnalysis {
 public:
  explicit DCAnalysis(Circuit& circuit, DCOptions options = {});

  // Solve the operating point.  `initial_guess` (optional) warm-starts
  // Newton.  Returns nullopt if every strategy fails; last_diagnostics()
  // then explains the failure (and on success records how hard the ladder
  // had to work).  Throws util::WatchdogError when
  // DCOptions::max_wall_seconds expires mid-ladder.
  std::optional<DCSolution> solve(const linalg::Vector* initial_guess = nullptr);

  const SolveDiagnostics& last_diagnostics() const { return last_diag_; }
  const NewtonWorkspace& workspace() const { return ws_; }

 private:
  Circuit& circuit_;
  DCOptions options_;
  MnaLayout layout_;
  SolveDiagnostics last_diag_;
  // Assembly plan and LU analysis shared by every solve() on this analysis,
  // so repeat solves on an unchanged circuit skip both.
  NewtonWorkspace ws_;
};

// Sweeps a parameter (applied through `setter`) and records probe values at
// each solved operating point.  Successive points warm-start from the
// previous solution, which is what makes tight sweeps cheap.
class DCSweep {
 public:
  DCSweep(Circuit& circuit, std::function<void(double)> setter,
          std::vector<double> points, std::vector<Probe> probes,
          DCOptions options = {});

  // Runs the sweep; the waveform's "time" axis carries the swept values.
  // Throws SolverError (with diagnostics) if any point fails to converge.
  Waveform run();

 private:
  Circuit& circuit_;
  std::function<void(double)> setter_;
  std::vector<double> points_;
  std::vector<Probe> probes_;
  DCOptions options_;
};

// Evaluates one probe against a solution (shared by DC sweep and transient).
double evaluate_probe(const Probe& probe, const SolutionView& view, double time,
                      double accumulated_energy);

}  // namespace nvsram::spice
