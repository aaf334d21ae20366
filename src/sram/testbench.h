// Scripted single-cell testbench.
//
// Owns a Circuit holding one cell (6T or NV-SRAM) with realistic periphery:
// a header power switch on virtual VDD, bitline capacitances with precharge
// pFETs and write-driver nFETs, and ideal drivers for WL / PG / SR / CTRL.
//
// Operations are *scheduled* on a Script (sram/script.h), then `run()`
// executes one transient over the whole script and returns the waveform
// plus per-phase energy accounting.  DC helpers measure static power per
// mode and arbitrary-bias operating points (Fig. 3 / Fig. 4).
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "lint/temporal/timeline.h"
#include "models/paper_params.h"
#include "spice/dc.h"
#include "spice/tran.h"
#include "sram/cell.h"
#include "sram/script.h"

namespace nvsram::sram {

enum class CellKind { k6T, kNvSram };

struct TestbenchOptions {
  int power_switch_fins = 0;     // 0 => PaperParams::fins_power_switch
  // When true, BL/BLB are driven by ideal sources and the precharge /
  // write-driver periphery is omitted.  Use for DC measurements (static
  // power, Fig. 3/4 sweeps) so periphery leakage does not pollute the
  // per-cell numbers.  Transient op energies use the default (periphery).
  bool ideal_bitlines = false;
  double store_margin = kStoreMargin;  // settle margin added to each store step
  // Integration method of run()'s transient (its horizon and step ceiling
  // come from the script).
  spice::IntegrationMethod method = spice::IntegrationMethod::kTrapezoidal;
  // Wall-clock budget per analysis (run() transient and each DC solve);
  // expiry throws util::WatchdogError.  0 = unlimited.  Characterization
  // phases derive this from their remaining phase budget (see
  // sram/characterize.h), which is how PointContext::timeout_sec reaches
  // the SPICE substrate.
  double max_wall_seconds = 0.0;
  // Rung of the shared relaxation ladder (NewtonOptions::relaxed /
  // TranOptions::relaxed) applied to every analysis this bench runs.
  // 0 = paper-accuracy tolerances; retry loops bump it on failure so all
  // benches loosen identically instead of inventing per-bench schedules.
  int relax_attempt = 0;
  // Monte-Carlo mismatch hooks, applied to the cell's own devices (not the
  // periphery): see sram/cell.h.
  FetVary fet_vary;
  MtjVary mtj_vary;
};

class CellTestbench {
 public:
  CellTestbench(CellKind kind, models::PaperParams pp,
                TestbenchOptions opts = {});
  // The DC analysis refers to the circuit member, so the bench stays put.
  CellTestbench(const CellTestbench&) = delete;
  CellTestbench& operator=(const CellTestbench&) = delete;

  CellKind kind() const { return kind_; }
  const models::PaperParams& paper() const { return pp_; }
  spice::Circuit& circuit() { return circuit_; }
  const spice::Circuit& circuit() const { return circuit_; }
  const CellHandles& cell() const { return cell_; }

  // ---- schedule builders (advance the script clock) ----
  void op_write(bool data);
  void op_read();
  void op_idle(double duration);
  void op_sleep(double duration);
  void op_store();                 // NV-SRAM only (throws otherwise)
  void op_shutdown(double duration);
  void op_restore();
  double now() const { return script_.now(); }

  const std::vector<PhaseWindow>& scheduled_phases() const {
    return script_.phases();
  }
  // n-th occurrence of a phase with this name (throws if absent).
  const PhaseWindow& phase(const std::string& name, int occurrence = 0) const {
    return script_.phase(name, occurrence);
  }

  // Static timeline of the scheduled tracks — the exact PWL corners run()
  // would freeze into the drivers, with per-track protocol roles and the
  // phase windows attached.  Feeds the temporal lint pass (protocol-* rules)
  // and the golden-timeline tests; no transient solve is involved.
  lint::temporal::Timeline export_timeline() const;

  // ---- execution ----
  // Probes V(Q), V(QB), V(VVDD), V(BL), V(BLB), I(MTJQ) and I(MTJQB) (NV
  // only), then each source's power ("P:", full waveforms only) and energy
  // ("E:").  Given `instants`, the waveform keeps only the samples that
  // reading it there needs (Script::run); with none it keeps every sample.
  Script::Result run(std::vector<double> instants = {});

  // ---- DC measurements ----
  struct BiasSet {
    double vdd = 0.9;
    double pg = 0.0;
    double wl = 0.0;
    double pch = 0.0;   // precharge gate (0 = on)
    double wd0 = 0.0;
    double wd1 = 0.0;
    double sr = 0.0;
    double ctrl = 0.0;
    double bl = 0.9;    // ideal-bitline mode only
    double blb = 0.9;
  };
  BiasSet bias_normal() const;
  BiasSet bias_sleep() const;
  BiasSet bias_shutdown() const;   // super cutoff
  BiasSet bias_store_h() const;    // step 1 (VSR on, CTRL = 0)
  BiasSet bias_store_l() const;    // step 2 (VSR on, CTRL = vctrl_store)

  // Operating point with the cell holding `data`; MTJ states are forced to
  // the post-store configuration for `data` before solving.  The optional
  // overrides pin individual MTJ states instead (e.g. the pre-switch state
  // when measuring store currents).
  std::optional<spice::DCSolution> solve_dc(
      const BiasSet& bias, bool data,
      std::optional<models::MtjState> force_q = std::nullopt,
      std::optional<models::MtjState> force_qb = std::nullopt);

  // Total static power drawn from all drivers at the given mode/data.
  // Throws spice::SolverError (with the DC solve diagnostics: worst node,
  // iterations, recovery stage) if the operating point cannot be solved.
  enum class StaticMode { kNormal, kSleep, kShutdown };
  double static_power(StaticMode mode, bool data = true);
  double static_power(const BiasSet& bias, bool data);

  // The Newton workspace every solve_dc() shares: its assembly plan and LU
  // pivots are planned once for the bench's lifetime.
  const spice::NewtonWorkspace& dc_workspace() const {
    return dc_->workspace();
  }

  // Virtual-VDD voltage at a DC point (Fig. 4).
  double vvdd_at(const spice::DCSolution& sol) const;

  // MTJ handles (nullptr for 6T).
  spice::MTJElement* mtj_q() const { return cell_.mtj_q; }
  spice::MTJElement* mtj_qb() const { return cell_.mtj_qb; }

 private:
  linalg::Vector dc_guess(const BiasSet& bias, bool data) const;
  void apply_bias(const BiasSet& bias);

  CellKind kind_;
  models::PaperParams pp_;
  TestbenchOptions opts_;

  spice::Circuit circuit_;
  CellHandles cell_;
  spice::NodeId n_vdd_, n_vvdd_, n_pg_, n_wl_, n_bl_, n_blb_, n_pch_, n_wd0_,
      n_wd1_, n_sr_, n_ctrl_;

  Script script_;
  // Periphery mode has no bl_/blb_ drivers, ideal-bitline mode no pch_/wd0_/
  // wd1_, and the 6T cell no sr_/ctrl_.
  Script::TrackId vdd_, pg_, wl_, pch_, wd0_, wd1_, sr_, ctrl_, bl_, blb_;
  // Built once every device exists; solve_dc() reuses its workspace.
  std::optional<spice::DCAnalysis> dc_;
};

}  // namespace nvsram::sram
