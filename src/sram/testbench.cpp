#include "sram/testbench.h"

#include <cmath>
#include <stdexcept>

#include "spice/elements.h"
#include "util/log.h"

namespace nvsram::sram {

using lint::temporal::SignalRole;
using spice::NodeId;
using spice::Probe;
using spice::SourceSpec;

namespace {

constexpr double kBitlineCap = 4e-15;  // F, each of BL and BLB
constexpr double kSleepRamp = 1e-9;    // VDD 0.9 <-> 0.7 transition

}  // namespace

CellTestbench::CellTestbench(CellKind kind, models::PaperParams pp,
                             TestbenchOptions opts)
    : kind_(kind), pp_(pp), opts_(opts) {
  const int sw_fins =
      opts_.power_switch_fins > 0 ? opts_.power_switch_fins : pp_.fins_power_switch;

  // ---- rails and lines ----
  n_vdd_ = circuit_.node("vdd");
  n_vvdd_ = circuit_.node("vvdd");
  n_pg_ = circuit_.node("pg");
  n_wl_ = circuit_.node("wl");
  n_bl_ = circuit_.node("BL");
  n_blb_ = circuit_.node("BLB");
  n_pch_ = circuit_.node("pch");
  n_wd0_ = circuit_.node("wd0");
  n_wd1_ = circuit_.node("wd1");
  n_sr_ = circuit_.node("sr");
  n_ctrl_ = circuit_.node("ctrl");

  // Drivers join the script in the circuit's device order, which is also
  // the order of the waveform's P:/E: columns and of every energy sum.
  vdd_ = script_.add_driver(circuit_, "Vvdd", n_vdd_, pp_.vdd,
                            SignalRole::kPower);
  pg_ = script_.add_driver(circuit_, "Vpg", n_pg_, 0.0, SignalRole::kPowerGate);
  wl_ = script_.add_driver(circuit_, "Vwl", n_wl_, 0.0, SignalRole::kWordline);

  // ---- power switch ----
  build_power_switch(circuit_, "top", pp_, n_vdd_, n_vvdd_, n_pg_, sw_fins);

  // ---- bitline periphery ----
  if (opts_.ideal_bitlines) {
    bl_ = script_.add_driver(circuit_, "Vbl", n_bl_, pp_.vdd,
                             SignalRole::kBitline);
    blb_ = script_.add_driver(circuit_, "Vblb", n_blb_, pp_.vdd,
                              SignalRole::kBitline);
  } else {
    pch_ = script_.add_driver(circuit_, "Vpch", n_pch_, 0.0,
                              SignalRole::kPrecharge);
    wd0_ = script_.add_driver(circuit_, "Vwd0", n_wd0_, 0.0,
                              SignalRole::kWriteDriver);
    wd1_ = script_.add_driver(circuit_, "Vwd1", n_wd1_, 0.0,
                              SignalRole::kWriteDriver);
    circuit_.add<spice::Capacitor>("Cbl", n_bl_, spice::kGround, kBitlineCap);
    circuit_.add<spice::Capacitor>("Cblb", n_blb_, spice::kGround, kBitlineCap);
    spice::add_finfet(circuit_, "pch_bl", /*drain=*/n_bl_, /*gate=*/n_pch_,
                      /*source=*/n_vdd_, pp_.pmos(2));
    spice::add_finfet(circuit_, "pch_blb", n_blb_, n_pch_, n_vdd_, pp_.pmos(2));
    spice::add_finfet(circuit_, "wdrv_bl", n_bl_, n_wd0_, spice::kGround,
                      pp_.nmos(2));
    spice::add_finfet(circuit_, "wdrv_blb", n_blb_, n_wd1_, spice::kGround,
                      pp_.nmos(2));
  }

  // ---- the cell under test ----
  if (kind_ == CellKind::k6T) {
    cell_ = build_6t_cell(circuit_, "c", pp_, n_vvdd_, n_wl_, n_bl_, n_blb_,
                          opts_.fet_vary);
  } else {
    cell_ = build_nvsram_cell(circuit_, "c", pp_, n_vvdd_, n_wl_, n_bl_, n_blb_,
                              n_sr_, n_ctrl_, models::MtjState::kParallel,
                              models::MtjState::kParallel, opts_.fet_vary,
                              opts_.mtj_vary);
    sr_ = script_.add_driver(circuit_, "Vsr", n_sr_, 0.0,
                             SignalRole::kStoreEnable);
    ctrl_ = script_.add_driver(circuit_, "Vctrl", n_ctrl_, pp_.vctrl_normal,
                               SignalRole::kRestoreCtrl);
  }

  spice::DCOptions dopt;
  dopt.max_wall_seconds = opts_.max_wall_seconds;
  dopt.newton = dopt.newton.relaxed(opts_.relax_attempt);
  dc_.emplace(circuit_, dopt);
}

// ---- operations --------------------------------------------------------------

void CellTestbench::op_write(bool data) {
  const double T = pp_.clock_period();
  const double t0 = script_.now();
  if (opts_.ideal_bitlines) {
    const Script::TrackId low_side = data ? blb_ : bl_;  // write 1 => BLB low
    script_.set_level(low_side, t0 + 0.05 * T, 0.0);
    script_.set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    script_.set_level(wl_, t0 + 0.78 * T, 0.0);
    script_.set_level(low_side, t0 + 0.85 * T, pp_.vdd);
  } else {
    // Release precharge, pull the low side down, pulse the word line.
    script_.set_level(pch_, t0 + 0.02 * T, pp_.vdd);  // precharge off
    const Script::TrackId low_side = data ? wd1_ : wd0_;  // write 1 => BLB low
    script_.set_level(low_side, t0 + 0.08 * T, pp_.vdd);
    script_.set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    script_.set_level(wl_, t0 + 0.78 * T, 0.0);
    script_.set_level(low_side, t0 + 0.84 * T, 0.0);
    script_.set_level(pch_, t0 + 0.88 * T, 0.0);  // precharge back on
  }
  script_.add_phase(data ? "write1" : "write0", t0, t0 + T);
  script_.advance_to(t0 + T);
}

void CellTestbench::op_read() {
  const double T = pp_.clock_period();
  const double t0 = script_.now();
  if (opts_.ideal_bitlines) {
    script_.set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    script_.set_level(wl_, t0 + 0.70 * T, 0.0);
  } else {
    script_.set_level(pch_, t0 + 0.02 * T, pp_.vdd);
    script_.set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    script_.set_level(wl_, t0 + 0.70 * T, 0.0);
    script_.set_level(pch_, t0 + 0.78 * T, 0.0);
  }
  script_.add_phase("read", t0, t0 + T);
  script_.advance_to(t0 + T);
}

void CellTestbench::op_idle(double duration) {
  const double t0 = script_.now();
  script_.add_phase("idle", t0, t0 + duration);
  script_.advance_to(t0 + duration);
}

void CellTestbench::op_sleep(double duration) {
  const double t0 = script_.now();
  // Lower the supply rail to the retention level (power switch stays on).
  script_.set_level(vdd_, t0, pp_.vvdd_sleep, kSleepRamp);
  if (kind_ == CellKind::kNvSram) {
    script_.set_level(ctrl_, t0, pp_.vctrl_sleep);
  }
  if (opts_.ideal_bitlines) {
    // The (ideal) bitline drivers follow the lowered rail, exactly like the
    // precharge devices do in periphery mode.
    script_.set_level(bl_, t0, pp_.vvdd_sleep, kSleepRamp);
    script_.set_level(blb_, t0, pp_.vvdd_sleep, kSleepRamp);
  }
  const double t_back = t0 + kSleepRamp + duration;
  script_.set_level(vdd_, t_back, pp_.vdd, kSleepRamp);
  if (kind_ == CellKind::kNvSram) {
    script_.set_level(ctrl_, t_back, pp_.vctrl_normal);
  }
  if (opts_.ideal_bitlines) {
    script_.set_level(bl_, t_back, pp_.vdd, kSleepRamp);
    script_.set_level(blb_, t_back, pp_.vdd, kSleepRamp);
  }
  const double t1 = t_back + kSleepRamp;
  script_.add_phase("sleep", t0, t1);
  script_.advance_to(t1);
}

void CellTestbench::op_store() {
  if (kind_ != CellKind::kNvSram) {
    throw std::logic_error("op_store: 6T cell has no store operation");
  }
  const double step = pp_.store_pulse + opts_.store_margin;
  const double t0 = script_.now();
  // Step 1 (H-store): activate the PS-FinFETs with CTRL grounded.
  script_.set_level(ctrl_, t0, 0.0);
  script_.set_level(sr_, t0, pp_.vsr);
  script_.add_phase("store_h", t0, t0 + step);
  // Step 2 (L-store): raise CTRL with VSR kept applied.
  script_.set_level(ctrl_, t0 + step, pp_.vctrl_store);
  script_.add_phase("store_l", t0 + step, t0 + 2.0 * step);
  // De-assert.
  script_.set_level(sr_, t0 + 2.0 * step, 0.0);
  script_.set_level(ctrl_, t0 + 2.0 * step, pp_.vctrl_normal);
  script_.advance_to(t0 + 2.0 * step + 4.0 * kSlew);
}

void CellTestbench::op_shutdown(double duration) {
  const double t0 = script_.now();
  script_.set_level(pg_, t0, pp_.vpg_supercutoff);  // super cutoff
  if (kind_ == CellKind::kNvSram) script_.set_level(ctrl_, t0, 0.0);
  // Release the precharge (ideal mode: discharge the bitline drivers) so the
  // gated domain is not back-fed through the access transistors.
  if (opts_.ideal_bitlines) {
    script_.set_level(bl_, t0, 0.0);
    script_.set_level(blb_, t0, 0.0);
  } else {
    script_.set_level(pch_, t0, pp_.vdd);
  }
  script_.add_phase("shutdown", t0, t0 + duration);
  script_.advance_to(t0 + duration);
}

void CellTestbench::op_restore() {
  const double t0 = script_.now();
  if (kind_ == CellKind::kNvSram) script_.set_level(sr_, t0, pp_.vsr);
  // Wake the power switch; the bistable core re-develops from the MTJs.
  script_.set_level(pg_, t0 + kSlew, 0.0, kRestoreRamp);
  const double t1 = t0 + kRestoreRamp + kRestoreSettle;
  if (kind_ == CellKind::kNvSram) {
    script_.set_level(sr_, t1, 0.0);
    script_.set_level(ctrl_, t1, pp_.vctrl_normal);
  }
  // Re-arm the bitline periphery for subsequent accesses.
  if (opts_.ideal_bitlines) {
    script_.set_level(bl_, t1, pp_.vdd);
    script_.set_level(blb_, t1, pp_.vdd);
  } else {
    script_.set_level(pch_, t1, 0.0);
  }
  const double t_end = t1 + 4.0 * kSlew;
  script_.add_phase("restore", t0, t_end);
  script_.advance_to(t_end);
}

// ---- execution -----------------------------------------------------------------

lint::temporal::Timeline CellTestbench::export_timeline() const {
  lint::temporal::Timeline tl = script_.timeline();
  tl.origin = kind_ == CellKind::k6T ? "testbench:6t" : "testbench:nvsram";
  tl.has_mtj = kind_ == CellKind::kNvSram;
  tl.has_fet = true;
  return tl;
}

Script::Result CellTestbench::run(std::vector<double> instants) {
  std::vector<Probe> probes;
  probes.push_back(Probe::node_voltage(cell_.q, "V(Q)"));
  probes.push_back(Probe::node_voltage(cell_.qb, "V(QB)"));
  probes.push_back(Probe::node_voltage(n_vvdd_, "V(VVDD)"));
  probes.push_back(Probe::node_voltage(n_bl_, "V(BL)"));
  probes.push_back(Probe::node_voltage(n_blb_, "V(BLB)"));
  if (cell_.mtj_q) {
    probes.push_back(Probe::device_current(cell_.mtj_q, "I(MTJQ)"));
    probes.push_back(Probe::device_current(cell_.mtj_qb, "I(MTJQB)"));
  }
  const spice::TranOptions topt{.method = opts_.method,
                                .max_wall_seconds = opts_.max_wall_seconds};
  // Only a full waveform carries the "P:" power columns, which
  // bench_fig6_power_trace's CSVs print; a run that names its instants
  // reads none of them.
  const bool probe_power = instants.empty();
  return script_.run(circuit_, std::move(probes),
                     topt.relaxed(opts_.relax_attempt), probe_power,
                     std::move(instants));
}

// ---- DC helpers ------------------------------------------------------------------

CellTestbench::BiasSet CellTestbench::bias_normal() const {
  BiasSet b;
  b.vdd = pp_.vdd;
  b.ctrl = kind_ == CellKind::kNvSram ? pp_.vctrl_normal : 0.0;
  return b;
}

CellTestbench::BiasSet CellTestbench::bias_sleep() const {
  BiasSet b;
  b.vdd = pp_.vvdd_sleep;
  b.bl = pp_.vvdd_sleep;   // bitlines are precharged from the lowered rail
  b.blb = pp_.vvdd_sleep;
  b.ctrl = kind_ == CellKind::kNvSram ? pp_.vctrl_sleep : 0.0;
  return b;
}

CellTestbench::BiasSet CellTestbench::bias_shutdown() const {
  BiasSet b;
  b.vdd = pp_.vdd;
  b.pg = pp_.vpg_supercutoff;
  b.ctrl = 0.0;
  // Bitlines are discharged in a gated domain (otherwise access-FET leakage
  // from the precharged bitlines dominates the "off" power).
  b.bl = 0.0;
  b.blb = 0.0;
  b.pch = pp_.vdd;  // precharge released
  return b;
}

CellTestbench::BiasSet CellTestbench::bias_store_h() const {
  BiasSet b = bias_normal();
  b.sr = pp_.vsr;
  b.ctrl = 0.0;
  return b;
}

CellTestbench::BiasSet CellTestbench::bias_store_l() const {
  BiasSet b = bias_normal();
  b.sr = pp_.vsr;
  b.ctrl = pp_.vctrl_store;
  return b;
}

void CellTestbench::apply_bias(const BiasSet& bias) {
  auto dc = [this](Script::TrackId track, double v) {
    script_.track(track).source->set_spec(SourceSpec::dc(v));
  };
  dc(vdd_, bias.vdd);
  dc(pg_, bias.pg);
  dc(wl_, bias.wl);
  if (opts_.ideal_bitlines) {
    dc(bl_, bias.bl);
    dc(blb_, bias.blb);
  } else {
    dc(pch_, bias.pch);
    dc(wd0_, bias.wd0);
    dc(wd1_, bias.wd1);
  }
  if (kind_ == CellKind::kNvSram) {
    dc(sr_, bias.sr);
    dc(ctrl_, bias.ctrl);
  }
}

linalg::Vector CellTestbench::dc_guess(const BiasSet& bias, bool data) const {
  const spice::MnaLayout layout = circuit_.build_layout();
  linalg::Vector x(layout.unknown_count(), 0.0);
  auto set = [&](NodeId n, double v) {
    if (n != spice::kGround) x[layout.node_index(n)] = v;
  };
  const bool gated_off = bias.pg > bias.vdd - 0.2;
  const double vv = gated_off ? 0.0 : bias.vdd;
  set(n_vdd_, bias.vdd);
  set(n_pg_, bias.pg);
  set(n_vvdd_, vv);
  set(n_wl_, bias.wl);
  if (opts_.ideal_bitlines) {
    set(n_bl_, bias.bl);
    set(n_blb_, bias.blb);
  } else {
    set(n_pch_, bias.pch);
    set(n_wd0_, bias.wd0);
    set(n_wd1_, bias.wd1);
    set(n_bl_, bias.wd0 > 0.5 ? 0.0 : bias.vdd);
    set(n_blb_, bias.wd1 > 0.5 ? 0.0 : bias.vdd);
  }
  set(cell_.q, data ? vv : 0.0);
  set(cell_.qb, data ? 0.0 : vv);
  if (kind_ == CellKind::kNvSram) {
    set(n_sr_, bias.sr);
    set(n_ctrl_, bias.ctrl);
    set(circuit_.find_node("c.YQ"), bias.ctrl);
    set(circuit_.find_node("c.YQB"), bias.ctrl);
  }
  return x;
}

std::optional<spice::DCSolution> CellTestbench::solve_dc(
    const BiasSet& bias, bool data, std::optional<models::MtjState> force_q,
    std::optional<models::MtjState> force_qb) {
  apply_bias(bias);
  if (cell_.mtj_q) {
    // Default: post-store configuration (H node's MTJ AP, L node's P).
    cell_.mtj_q->force_state(force_q.value_or(data ? models::MtjState::kAntiparallel
                                                   : models::MtjState::kParallel));
    cell_.mtj_qb->force_state(force_qb.value_or(
        data ? models::MtjState::kParallel : models::MtjState::kAntiparallel));
  }
  const linalg::Vector guess = dc_guess(bias, data);
  return dc_->solve(&guess);
}

double CellTestbench::static_power(StaticMode mode, bool data) {
  BiasSet bias;
  switch (mode) {
    case StaticMode::kNormal: bias = bias_normal(); break;
    case StaticMode::kSleep: bias = bias_sleep(); break;
    case StaticMode::kShutdown: bias = bias_shutdown(); break;
  }
  return static_power(bias, data);
}

double CellTestbench::static_power(const BiasSet& bias, bool data) {
  auto sol = solve_dc(bias, data);
  if (!sol) {
    throw spice::SolverError("CellTestbench::static_power: DC failed",
                             dc_->last_diagnostics());
  }
  return script_.driver_power(*sol);
}

double CellTestbench::vvdd_at(const spice::DCSolution& sol) const {
  return sol.node_voltage(n_vvdd_);
}

}  // namespace nvsram::sram
