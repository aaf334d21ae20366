#include "sram/testbench.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spice/elements.h"
#include "util/log.h"

namespace nvsram::sram {

using spice::NodeId;
using spice::Probe;
using spice::SourceSpec;
using spice::VSource;

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

  vdd_.source = circuit_.add<VSource>("Vvdd", n_vdd_, spice::kGround,
                                      SourceSpec::dc(pp_.vdd));
  pg_.source = circuit_.add<VSource>("Vpg", n_pg_, spice::kGround,
                                     SourceSpec::dc(0.0));
  wl_.source = circuit_.add<VSource>("Vwl", n_wl_, spice::kGround,
                                     SourceSpec::dc(0.0));
  vdd_.value = pp_.vdd;

  // ---- power switch ----
  build_power_switch(circuit_, "top", pp_, n_vdd_, n_vvdd_, n_pg_, sw_fins);

  // ---- bitline periphery ----
  if (opts_.ideal_bitlines) {
    bl_.source = circuit_.add<VSource>("Vbl", n_bl_, spice::kGround,
                                       SourceSpec::dc(pp_.vdd));
    blb_.source = circuit_.add<VSource>("Vblb", n_blb_, spice::kGround,
                                        SourceSpec::dc(pp_.vdd));
    bl_.value = pp_.vdd;
    blb_.value = pp_.vdd;
  } else {
    pch_.source = circuit_.add<VSource>("Vpch", n_pch_, spice::kGround,
                                        SourceSpec::dc(0.0));
    wd0_.source = circuit_.add<VSource>("Vwd0", n_wd0_, spice::kGround,
                                        SourceSpec::dc(0.0));
    wd1_.source = circuit_.add<VSource>("Vwd1", n_wd1_, spice::kGround,
                                        SourceSpec::dc(0.0));
    circuit_.add<spice::Capacitor>("Cbl", n_bl_, spice::kGround,
                                   opts_.bitline_cap);
    circuit_.add<spice::Capacitor>("Cblb", n_blb_, spice::kGround,
                                   opts_.bitline_cap);
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
    sr_.source = circuit_.add<VSource>("Vsr", n_sr_, spice::kGround,
                                       SourceSpec::dc(0.0));
    ctrl_.source = circuit_.add<VSource>("Vctrl", n_ctrl_, spice::kGround,
                                         SourceSpec::dc(pp_.vctrl_normal));
    ctrl_.value = pp_.vctrl_normal;
  }

  tracks_ = {&vdd_, &pg_, &wl_};
  if (opts_.ideal_bitlines) {
    tracks_.push_back(&bl_);
    tracks_.push_back(&blb_);
  } else {
    tracks_.push_back(&pch_);
    tracks_.push_back(&wd0_);
    tracks_.push_back(&wd1_);
  }
  if (kind_ == CellKind::kNvSram) {
    tracks_.push_back(&sr_);
    tracks_.push_back(&ctrl_);
  }
}

void CellTestbench::set_level(Track& track, double t, double v, double ramp) {
  if (ramp <= 0.0) ramp = opts_.slew;
  double start = t;
  if (!track.points.empty()) {
    start = std::max(start, track.points.back().first + opts_.slew * 0.01);
  }
  if (v == track.value) return;
  track.points.emplace_back(start, track.value);
  track.points.emplace_back(start + ramp, v);
  track.value = v;
}

void CellTestbench::add_phase(const std::string& name, double t0, double t1) {
  phases_.push_back({name, t0, t1});
}

const PhaseWindow& CellTestbench::phase(const std::string& name,
                                        int occurrence) const {
  int seen = 0;
  for (const auto& ph : phases_) {
    if (ph.name == name) {
      if (seen == occurrence) return ph;
      ++seen;
    }
  }
  throw std::out_of_range("CellTestbench: no phase " + name);
}

const PhaseWindow& CellTestbench::RunResult::phase(const std::string& name,
                                                   int occurrence) const {
  int seen = 0;
  for (const auto& ph : phases) {
    if (ph.name == name) {
      if (seen == occurrence) return ph;
      ++seen;
    }
  }
  throw std::out_of_range("RunResult: no phase " + name);
}

// ---- operations --------------------------------------------------------------

void CellTestbench::op_write(bool data) {
  const double T = pp_.clock_period();
  const double t0 = t_;
  if (opts_.ideal_bitlines) {
    Track& low_side = data ? blb_ : bl_;  // write 1 => BLB low
    set_level(low_side, t0 + 0.05 * T, 0.0);
    set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    set_level(wl_, t0 + 0.78 * T, 0.0);
    set_level(low_side, t0 + 0.85 * T, pp_.vdd);
  } else {
    // Release precharge, pull the low side down, pulse the word line.
    set_level(pch_, t0 + 0.02 * T, pp_.vdd);  // precharge off
    Track& low_side = data ? wd1_ : wd0_;     // write 1 => BLB low
    set_level(low_side, t0 + 0.08 * T, pp_.vdd);
    set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    set_level(wl_, t0 + 0.78 * T, 0.0);
    set_level(low_side, t0 + 0.84 * T, 0.0);
    set_level(pch_, t0 + 0.88 * T, 0.0);      // precharge back on
  }
  add_phase(data ? "write1" : "write0", t0, t0 + T);
  t_ = t0 + T;
}

void CellTestbench::op_read() {
  const double T = pp_.clock_period();
  const double t0 = t_;
  if (opts_.ideal_bitlines) {
    set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    set_level(wl_, t0 + 0.70 * T, 0.0);
  } else {
    set_level(pch_, t0 + 0.02 * T, pp_.vdd);
    set_level(wl_, t0 + 0.15 * T, pp_.vdd);
    set_level(wl_, t0 + 0.70 * T, 0.0);
    set_level(pch_, t0 + 0.78 * T, 0.0);
  }
  add_phase("read", t0, t0 + T);
  t_ = t0 + T;
}

void CellTestbench::op_idle(double duration) {
  add_phase("idle", t_, t_ + duration);
  t_ += duration;
}

void CellTestbench::op_sleep(double duration) {
  const double t0 = t_;
  // Lower the supply rail to the retention level (power switch stays on).
  set_level(vdd_, t0, pp_.vvdd_sleep, opts_.sleep_ramp);
  if (kind_ == CellKind::kNvSram) set_level(ctrl_, t0, pp_.vctrl_sleep);
  if (opts_.ideal_bitlines) {
    // The (ideal) bitline drivers follow the lowered rail, exactly like the
    // precharge devices do in periphery mode.
    set_level(bl_, t0, pp_.vvdd_sleep, opts_.sleep_ramp);
    set_level(blb_, t0, pp_.vvdd_sleep, opts_.sleep_ramp);
  }
  const double t_back = t0 + opts_.sleep_ramp + duration;
  set_level(vdd_, t_back, pp_.vdd, opts_.sleep_ramp);
  if (kind_ == CellKind::kNvSram) set_level(ctrl_, t_back, pp_.vctrl_normal);
  if (opts_.ideal_bitlines) {
    set_level(bl_, t_back, pp_.vdd, opts_.sleep_ramp);
    set_level(blb_, t_back, pp_.vdd, opts_.sleep_ramp);
  }
  const double t1 = t_back + opts_.sleep_ramp;
  add_phase("sleep", t0, t1);
  t_ = t1;
}

void CellTestbench::op_store() {
  if (kind_ != CellKind::kNvSram) {
    throw std::logic_error("op_store: 6T cell has no store operation");
  }
  const double step = pp_.store_pulse + opts_.store_margin;
  const double t0 = t_;
  // Step 1 (H-store): activate the PS-FinFETs with CTRL grounded.
  set_level(ctrl_, t0, 0.0);
  set_level(sr_, t0, pp_.vsr);
  add_phase("store_h", t0, t0 + step);
  // Step 2 (L-store): raise CTRL with VSR kept applied.
  set_level(ctrl_, t0 + step, pp_.vctrl_store);
  add_phase("store_l", t0 + step, t0 + 2.0 * step);
  // De-assert.
  set_level(sr_, t0 + 2.0 * step, 0.0);
  set_level(ctrl_, t0 + 2.0 * step, pp_.vctrl_normal);
  t_ = t0 + 2.0 * step + 4.0 * opts_.slew;
}

void CellTestbench::op_shutdown(double duration) {
  const double t0 = t_;
  set_level(pg_, t0, pp_.vpg_supercutoff);  // super cutoff
  if (kind_ == CellKind::kNvSram) set_level(ctrl_, t0, 0.0);
  // Release the precharge (ideal mode: discharge the bitline drivers) so the
  // gated domain is not back-fed through the access transistors.
  if (opts_.ideal_bitlines) {
    set_level(bl_, t0, 0.0);
    set_level(blb_, t0, 0.0);
  } else {
    set_level(pch_, t0, pp_.vdd);
  }
  add_phase("shutdown", t0, t0 + duration);
  t_ = t0 + duration;
}

void CellTestbench::op_restore() {
  const double t0 = t_;
  if (kind_ == CellKind::kNvSram) set_level(sr_, t0, pp_.vsr);
  // Wake the power switch; the bistable core re-develops from the MTJs.
  set_level(pg_, t0 + opts_.slew, 0.0, opts_.restore_ramp);
  const double t1 = t0 + opts_.restore_ramp + opts_.restore_settle;
  if (kind_ == CellKind::kNvSram) {
    set_level(sr_, t1, 0.0);
    set_level(ctrl_, t1, pp_.vctrl_normal);
  }
  // Re-arm the bitline periphery for subsequent accesses.
  if (opts_.ideal_bitlines) {
    set_level(bl_, t1, pp_.vdd);
    set_level(blb_, t1, pp_.vdd);
  } else {
    set_level(pch_, t1, 0.0);
  }
  const double t_end = t1 + 4.0 * opts_.slew;
  add_phase("restore", t0, t_end);
  t_ = t_end;
}

// ---- execution -----------------------------------------------------------------

lint::temporal::Timeline CellTestbench::export_timeline() const {
  using lint::temporal::SignalRole;
  lint::temporal::Timeline tl;
  tl.origin = kind_ == CellKind::k6T ? "testbench:6t" : "testbench:nvsram";
  tl.t_stop = t_ + 1e-9;  // same horizon run() uses
  tl.has_mtj = kind_ == CellKind::kNvSram;
  tl.has_fet = true;

  const std::pair<const Track*, SignalRole> roles[] = {
      {&vdd_, SignalRole::kPower},
      {&pg_, SignalRole::kPowerGate},
      {&wl_, SignalRole::kWordline},
      {&pch_, SignalRole::kPrecharge},
      {&wd0_, SignalRole::kWriteDriver},
      {&wd1_, SignalRole::kWriteDriver},
      {&bl_, SignalRole::kBitline},
      {&blb_, SignalRole::kBitline},
      {&sr_, SignalRole::kStoreEnable},
      {&ctrl_, SignalRole::kRestoreCtrl},
  };
  for (const auto& [track, role] : roles) {
    if (track->source == nullptr) continue;
    lint::temporal::SignalTimeline sig;
    sig.name = track->source->name();
    sig.role = role;
    // The points list holds the PWL corners run() would freeze in; between
    // corner pairs the level is constant, so every value change is one
    // Transition.
    sig.initial =
        track->points.empty() ? track->value : track->points.front().second;
    for (std::size_t i = 1; i < track->points.size(); ++i) {
      const auto& [ta, va] = track->points[i - 1];
      const auto& [tb, vb] = track->points[i];
      if (va != vb) sig.transitions.push_back({ta, tb, va, vb});
    }
    tl.signals.push_back(std::move(sig));
  }
  for (const PhaseWindow& ph : phases_) {
    tl.phases.push_back({ph.name, ph.t0, ph.t1});
  }
  return tl;
}

CellTestbench::RunResult CellTestbench::run() {
  if (phases_.empty()) {
    throw std::logic_error("CellTestbench::run: nothing scheduled");
  }

  // Freeze schedules into PWL sources.
  for (Track* track : tracks_) {
    if (!track->source) continue;
    if (track->points.empty()) continue;  // constant source: keep DC spec
    track->source->set_spec(SourceSpec::pwl(track->points));
  }

  // Probes: key node voltages, MTJ currents, per-source power and energy.
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
  std::vector<std::string> source_names;
  for (Track* track : tracks_) {
    if (!track->source) continue;
    source_names.push_back(track->source->name());
    probes.push_back(
        Probe::source_power(track->source, "P:" + track->source->name()));
    probes.push_back(
        Probe::source_energy(track->source, "E:" + track->source->name()));
  }

  spice::TranOptions topt;
  topt.t_stop = t_ + 1e-9;
  topt.dt_max = opts_.dt_max > 0.0
                    ? opts_.dt_max
                    : std::clamp(topt.t_stop / 1000.0, 50e-12, 5e-9);
  topt.method = opts_.method;
  topt.max_wall_seconds = opts_.max_wall_seconds;
  topt = topt.relaxed(opts_.relax_attempt);

  spice::TranAnalysis tran(circuit_, topt, probes);
  RunResult out{tran.run(), phases_, source_names, tran.stats()};
  return out;
}

double CellTestbench::RunResult::energy(double t0, double t1) const {
  double sum = 0.0;
  for (const auto& name : sources) {
    const std::string label = "E:" + name;
    sum += wave.value_at(label, t1) - wave.value_at(label, t0);
  }
  return sum;
}

double CellTestbench::RunResult::average_power(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  return energy(t0, t1) / (t1 - t0);
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
  vdd_.source->set_spec(SourceSpec::dc(bias.vdd));
  pg_.source->set_spec(SourceSpec::dc(bias.pg));
  wl_.source->set_spec(SourceSpec::dc(bias.wl));
  if (opts_.ideal_bitlines) {
    bl_.source->set_spec(SourceSpec::dc(bias.bl));
    blb_.source->set_spec(SourceSpec::dc(bias.blb));
  } else {
    pch_.source->set_spec(SourceSpec::dc(bias.pch));
    wd0_.source->set_spec(SourceSpec::dc(bias.wd0));
    wd1_.source->set_spec(SourceSpec::dc(bias.wd1));
  }
  if (kind_ == CellKind::kNvSram) {
    sr_.source->set_spec(SourceSpec::dc(bias.sr));
    ctrl_.source->set_spec(SourceSpec::dc(bias.ctrl));
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
  spice::DCOptions dopt;
  dopt.max_wall_seconds = opts_.max_wall_seconds;
  dopt.newton = dopt.newton.relaxed(opts_.relax_attempt);
  spice::DCAnalysis dc(circuit_, dopt);
  auto sol = dc.solve(&guess);
  last_dc_diag_ = dc.last_diagnostics();
  return sol;
}

double CellTestbench::static_power(StaticMode mode, bool data) {
  BiasSet bias;
  switch (mode) {
    case StaticMode::kNormal: bias = bias_normal(); break;
    case StaticMode::kSleep: bias = bias_sleep(); break;
    case StaticMode::kShutdown: bias = bias_shutdown(); break;
  }
  auto sol = solve_dc(bias, data);
  if (!sol) {
    throw spice::SolverError("CellTestbench::static_power: DC failed",
                             last_dc_diag_);
  }
  double total = 0.0;
  for (Track* track : tracks_) {
    if (!track->source) continue;
    total += track->source->delivered_power(sol->view(), 0.0);
  }
  return total;
}

double CellTestbench::vvdd_at(const spice::DCSolution& sol) const {
  return sol.node_voltage(n_vvdd_);
}

}  // namespace nvsram::sram
