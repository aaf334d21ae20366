#include "sram/nvff.h"

#include <stdexcept>

#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/tran.h"

namespace nvsram::sram {

using spice::Circuit;
using spice::NodeId;

void build_transmission_gate(Circuit& ckt, const std::string& name,
                             const models::PaperParams& pp, NodeId a, NodeId b,
                             NodeId c, NodeId cb) {
  spice::add_finfet(ckt, name + ".n", /*drain=*/a, /*gate=*/c, /*source=*/b,
                    pp.nmos(1));
  spice::add_finfet(ckt, name + ".p", a, cb, b, pp.pmos(1));
}

namespace {

void build_inverter(Circuit& ckt, const std::string& name,
                    const models::PaperParams& pp, NodeId in, NodeId out,
                    NodeId vvdd) {
  spice::add_finfet(ckt, name + ".pu", out, in, vvdd, pp.pmos(1));
  spice::add_finfet(ckt, name + ".pd", out, in, spice::kGround, pp.nmos(1));
}

}  // namespace

NvffHandles build_nvff(Circuit& ckt, const std::string& prefix,
                       const models::PaperParams& pp, NodeId d, NodeId clk,
                       NodeId vvdd, NodeId sr, NodeId ctrl, bool nonvolatile) {
  NvffHandles h;
  h.d = d;
  h.clk = clk;
  h.vvdd = vvdd;
  h.sr = sr;
  h.ctrl = ctrl;

  // Local inverted clock.
  const NodeId clkb = ckt.node(prefix + ".clkb");
  build_inverter(ckt, prefix + ".invc", pp, clk, clkb, vvdd);

  // ---- master latch: transparent while clk = 1 ----
  const NodeId ma = ckt.node(prefix + ".ma");
  const NodeId mb = ckt.node(prefix + ".mb");
  const NodeId mfb = ckt.node(prefix + ".mfb");
  build_transmission_gate(ckt, prefix + ".tg_in", pp, d, ma, clk, clkb);
  build_inverter(ckt, prefix + ".inv1", pp, ma, mb, vvdd);
  build_inverter(ckt, prefix + ".inv2", pp, mb, mfb, vvdd);
  // Feedback closes while clk = 0.
  build_transmission_gate(ckt, prefix + ".tg_mfb", pp, mfb, ma, clkb, clk);

  // ---- slave latch: transparent while clk = 0, holds while clk = 1 ----
  const NodeId sc = ckt.node(prefix + ".QB");  // complement node
  const NodeId q = ckt.node(prefix + ".Q");
  const NodeId sfb = ckt.node(prefix + ".sfb");
  h.q = q;
  h.qb = sc;
  build_transmission_gate(ckt, prefix + ".tg_mid", pp, mb, sc, clkb, clk);
  build_inverter(ckt, prefix + ".inv3", pp, sc, q, vvdd);
  build_inverter(ckt, prefix + ".inv4", pp, q, sfb, vvdd);
  // Feedback closes while clk = 1 (the hold / retention state).
  build_transmission_gate(ckt, prefix + ".tg_sfb", pp, sfb, sc, clk, clkb);

  if (nonvolatile) {
    // PS-FinFET + MTJ branches on the slave's complementary nodes, exactly
    // as in the NV-SRAM cell (FET next to the latch node, MTJ to CTRL).
    const NodeId yq = ckt.node(prefix + ".YQ");
    spice::add_finfet(ckt, prefix + ".ps_q", q, sr, yq, pp.nmos(pp.fins_ps));
    h.mtj_q = ckt.add<spice::MTJElement>(prefix + ".mtj_q", ctrl, yq, pp.mtj,
                                         models::MtjState::kParallel);
    const NodeId yqb = ckt.node(prefix + ".YQB");
    spice::add_finfet(ckt, prefix + ".ps_qb", sc, sr, yqb, pp.nmos(pp.fins_ps));
    h.mtj_qb = ckt.add<spice::MTJElement>(prefix + ".mtj_qb", ctrl, yqb,
                                          pp.mtj, models::MtjState::kParallel);
  }
  return h;
}

// ---- NvffTestbench ------------------------------------------------------------

NvffTestbench::NvffTestbench(models::PaperParams pp, bool nonvolatile)
    : pp_(pp), nonvolatile_(nonvolatile) {
  const NodeId n_vdd = circuit_.node("vdd");
  const NodeId n_pg = circuit_.node("pg");
  const NodeId n_vvdd = circuit_.node("vvdd");
  const NodeId n_d = circuit_.node("d");
  const NodeId n_clk = circuit_.node("clk");
  const NodeId n_sr = circuit_.node("sr");
  const NodeId n_ctrl = circuit_.node("ctrl");

  vdd_ = script_.add_driver(circuit_, "Vvdd", n_vdd, pp_.vdd);
  pg_ = script_.add_driver(circuit_, "Vpg", n_pg, 0.0);
  d_ = script_.add_driver(circuit_, "Vd", n_d, 0.0);
  // Idle state: clk high (slave holding) — the retention-capable state.
  clk_ = script_.add_driver(circuit_, "Vclk", n_clk, pp_.vdd);
  sr_ = script_.add_driver(circuit_, "Vsr", n_sr, 0.0);
  ctrl_ = script_.add_driver(circuit_, "Vctrl", n_ctrl, pp_.vctrl_normal);

  build_power_switch(circuit_, "top", pp_, n_vdd, n_vvdd, n_pg,
                     pp_.fins_power_switch);
  handles_ = build_nvff(circuit_, "ff", pp_, n_d, n_clk, n_vvdd, n_sr, n_ctrl,
                        nonvolatile_);
}

void NvffTestbench::op_clock_data(bool data) {
  const double T = pp_.clock_period();
  const double t0 = script_.now();
  // Data valid, then clk high (master samples; already high on first use),
  // then falling edge at the midpoint propagates to Q, then clk returns high
  // to re-enter hold.
  script_.set_level(d_, t0 + 0.05 * T, data ? pp_.vdd : 0.0);
  script_.set_level(clk_, t0 + 0.15 * T, pp_.vdd);
  script_.set_level(clk_, t0 + 0.50 * T, 0.0);      // falling edge: Q updates
  script_.set_level(clk_, t0 + 0.90 * T, pp_.vdd);  // back to hold
  script_.add_phase(data ? "clock1" : "clock0", t0, t0 + T);
  script_.advance_to(t0 + T);
}

void NvffTestbench::op_hold(double duration) {
  const double t0 = script_.now();
  script_.add_phase("hold", t0, t0 + duration);
  script_.advance_to(t0 + duration);
}

void NvffTestbench::op_store() {
  if (!nonvolatile_) throw std::logic_error("op_store: volatile FF");
  const double step = pp_.store_pulse + kStoreMargin;
  const double t0 = script_.now();
  script_.set_level(ctrl_, t0, 0.0);
  script_.set_level(sr_, t0, pp_.vsr);
  script_.add_phase("store_h", t0, t0 + step);
  script_.set_level(ctrl_, t0 + step, pp_.vctrl_store);
  script_.add_phase("store_l", t0 + step, t0 + 2 * step);
  script_.set_level(sr_, t0 + 2 * step, 0.0);
  script_.set_level(ctrl_, t0 + 2 * step, pp_.vctrl_normal);
  script_.advance_to(t0 + 2 * step + 4 * kSlew);
}

void NvffTestbench::op_shutdown(double duration) {
  const double t0 = script_.now();
  script_.set_level(pg_, t0, pp_.vpg_supercutoff);
  script_.set_level(ctrl_, t0, 0.0);
  script_.set_level(d_, t0, 0.0);
  script_.add_phase("shutdown", t0, t0 + duration);
  script_.advance_to(t0 + duration);
}

void NvffTestbench::op_restore() {
  const double t0 = script_.now();
  if (nonvolatile_) script_.set_level(sr_, t0, pp_.vsr);
  script_.set_level(pg_, t0 + kSlew, 0.0, kRestoreRamp);
  const double t1 = t0 + kRestoreRamp + kRestoreSettle;
  if (nonvolatile_) {
    script_.set_level(sr_, t1, 0.0);
    script_.set_level(ctrl_, t1, pp_.vctrl_normal);
  }
  script_.add_phase("restore", t0, t1 + 4 * kSlew);
  script_.advance_to(t1 + 4 * kSlew);
}

Script::Result NvffTestbench::run(std::vector<double> instants) {
  std::vector<spice::Probe> probes;
  probes.push_back(spice::Probe::node_voltage(handles_.q, "V(Q)"));
  probes.push_back(spice::Probe::node_voltage(handles_.qb, "V(QB)"));
  probes.push_back(
      spice::Probe::node_voltage(circuit_.find_node("vvdd"), "V(VVDD)"));
  return script_.run(circuit_, std::move(probes), {}, /*probe_power=*/false,
                     std::move(instants));
}

NvffEnergetics characterize_nvff(const models::PaperParams& pp) {
  NvffEnergetics out;

  NvffTestbench tb(pp);
  tb.op_clock_data(true);
  tb.op_clock_data(false);
  tb.op_clock_data(true);   // measured cycle
  tb.op_hold(5e-9);
  tb.op_store();
  tb.op_shutdown(3e-6);
  tb.op_restore();
  tb.op_hold(3e-9);

  // Every instant read below; the 3 us shutdown would otherwise keep
  // thousands of samples for these few values.
  const PhaseWindow clock = tb.phase("clock1", 1);
  const PhaseWindow sh = tb.phase("store_h");
  const PhaseWindow sl = tb.phase("store_l");
  const PhaseWindow rs = tb.phase("restore");
  const PhaseWindow hold = tb.phase("hold", 0);
  const PhaseWindow sd = tb.phase("shutdown");
  // Shutdown static power from the tail of the gated window (rail collapsed).
  const double tail = sd.t1 - 0.5e-6;
  const double t_vv = sd.t1 - 1e-9;
  const double t_final = tb.now() - 0.5e-9;
  auto res = tb.run({clock.t0, clock.t1, sh.t0, sl.t1, rs.t0, rs.t1, hold.t0,
                     hold.t1, tail, sd.t1, t_vv, t_final});

  out.e_clock = res.energy(clock);
  out.e_store = res.energy(sh.t0, sl.t1);
  out.t_store = sl.t1 - sh.t0;
  out.e_restore = res.energy(rs);
  out.t_restore = rs.duration();
  out.p_static_hold = res.energy(hold) / hold.duration();

  out.store_verified =
      tb.mtj_q()->state() == models::MtjState::kAntiparallel &&
      tb.mtj_qb()->state() == models::MtjState::kParallel;
  const double vv = res.wave.value_at("V(VVDD)", t_vv);
  const double q = res.wave.value_at("V(Q)", t_final);
  const double qb = res.wave.value_at("V(QB)", t_final);
  out.restore_verified = vv < 0.25 * pp.vdd && q > 0.8 * pp.vdd &&
                         qb < 0.2 * pp.vdd;
  out.p_static_shutdown = res.energy(tail, sd.t1) / 0.5e-6;
  return out;
}

}  // namespace nvsram::sram
