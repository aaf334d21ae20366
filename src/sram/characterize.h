// Cell characterization: per-operation energies and per-mode static power.
//
// This is the bridge between the SPICE substrate and the paper's
// architecture-level energy model: one transient script measures the read /
// write / store / restore energies of a cell, DC solves measure the static
// power of each retention mode, and dedicated sweeps regenerate the bias
// design curves of Figs. 3 and 4.
#pragma once

#include <string>
#include <vector>

#include "models/paper_params.h"
#include "sram/testbench.h"

namespace nvsram::sram {

// Everything the architecture-level energy model needs, per cell.
struct CellEnergetics {
  double t_clk = 0.0;            // access cycle time (s)
  double e_read = 0.0;           // total energy of one read cycle (J)
  double e_write = 0.0;          // total energy of one write cycle (J)
  double p_static_normal = 0.0;  // W, VDD = 0.9 V
  double p_static_sleep = 0.0;   // W, retention at 0.7 V
  double p_static_shutdown = 0.0;  // W, super cutoff

  // NV-SRAM only (zero for 6T):
  double e_store = 0.0;     // both store steps (J)
  double t_store = 0.0;     // duration of both store steps (s)
  double e_restore = 0.0;   // wake-up inrush + MTJ readback (J)
  double t_restore = 0.0;   // restore duration (s)
  double e_sleep_transition = 0.0;  // enter+exit energy of one sleep episode

  // Sanity flags from the characterization transient.
  bool store_verified = false;    // MTJs reached the post-store states
  bool restore_verified = false;  // data recovered after full power collapse

  // Recovery-ladder telemetry accumulated over the characterization
  // transients (op script + sleep script): how many timesteps needed the
  // gmin ramp or a source ramp to converge.  Nonzero counts on nominal
  // parameters indicate the operating point is near the solver's comfort
  // zone — benches print these so silent rescues are visible.
  std::size_t gmin_recoveries = 0;
  std::size_t source_recoveries = 0;
  std::size_t solver_recoveries() const {
    return gmin_recoveries + source_recoveries;
  }

  std::string describe() const;
};

class CellCharacterizer {
 public:
  // `max_wall_seconds` bounds one characterize() call end to end (the
  // transient script, the sleep-transition script, and the DC static-power
  // solves share the budget); expiry throws util::WatchdogError.  0 =
  // unlimited.  Sweep points that characterize cells should pass their
  // PointContext::timeout_sec here.  `relax_attempt` selects a rung of the
  // shared relaxation ladder (NewtonOptions::relaxed) for every analysis;
  // retry callbacks pass their PointContext::attempt so re-runs loosen
  // tolerances uniformly.
  explicit CellCharacterizer(models::PaperParams pp,
                             double max_wall_seconds = 0.0,
                             int relax_attempt = 0);

  // Runs the characterization scripts for a 6T or NV-SRAM cell: the op
  // script on the calling thread, and the sleep script with the static-power
  // corners on a second one.  An error of the op script surfaces first.
  CellEnergetics characterize(CellKind kind) const;

  // ---- Fig. 3(a): normal-mode leakage vs V_CTRL ----
  struct LeakagePoint {
    double vctrl;
    double current_nv;  // NV-SRAM cell leakage current (A)
  };
  struct LeakageSweep {
    std::vector<LeakagePoint> points;
    double current_6t;  // equivalent volatile 6T cell leakage (A)
  };
  LeakageSweep leakage_vs_vctrl(const std::vector<double>& vctrl_points) const;

  // ---- Fig. 3(b): H-store current |I_MTJ^{P->AP}| vs V_SR ----
  std::vector<std::pair<double, double>> store_current_vs_vsr(
      const std::vector<double>& vsr_points) const;

  // ---- Fig. 3(c): L-store current I_MTJ^{AP->P} vs V_CTRL (V_SR fixed) ----
  std::vector<std::pair<double, double>> store_current_vs_vctrl(
      const std::vector<double>& vctrl_points) const;

  // ---- Fig. 4: virtual-VDD vs power-switch fin count ----
  struct VvddPoint {
    int fins;
    double vvdd_normal;  // V during normal operation
    double vvdd_store;   // V during the store operation
  };
  std::vector<VvddPoint> vvdd_vs_switch_fins(const std::vector<int>& fins) const;

  const models::PaperParams& paper() const { return pp_; }

 private:
  models::PaperParams pp_;
  double max_wall_seconds_ = 0.0;
  int relax_attempt_ = 0;
};

}  // namespace nvsram::sram
