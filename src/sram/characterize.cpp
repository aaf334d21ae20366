#include "sram/characterize.h"

#include <cmath>
#include <sstream>
#include <stdexcept>
#include <utility>
#include <vector>

#include "lint/report.h"
#include "spice/diagnostics.h"
#include "sram/characterize_cache.h"
#include "sram/schedules.h"
#include "util/units.h"
#include "util/watchdog.h"

namespace nvsram::sram {

namespace {

// Static protocol gate: every scheduled script is linted before its transient
// runs.  A schedule that violates the power-gating protocol (store too short,
// access before restore, sub-retention sleep) would still solve and produce
// energies that *look* valid — fail loudly instead, with zero solver time
// spent.  Parameter dimension/range checks ride along so a unit-mismatched
// PaperParams (e.g. J_C entered in A/cm^2) is rejected here too.
void gate_schedule(const CellTestbench& tb, int relax_attempt) {
  const models::PaperParams& pp = tb.paper();
  // The dataflow pass's redundant-store advisory quantifies the waste from
  // a *peeked* cache entry only — computing it here would recurse
  // (characterize -> gate_schedule -> characterize).
  auto dopt = lint::dataflow::DataflowOptions::from_paper(pp);
  if (auto cached = characterize_cache_peek(pp, tb.kind(), relax_attempt)) {
    dopt.store_energy_hint = cached->e_store;
  }
  lint::LintReport report;
  for (auto& d : lint_schedule(
           tb, lint::temporal::TemporalOptions::from_paper(pp), dopt)) {
    report.add(std::move(d));
  }
  if (report.has_errors()) throw lint::LintError(std::move(report));
}

}  // namespace

std::string CellEnergetics::describe() const {
  std::ostringstream os;
  os << "  T_clk      = " << util::si_format(t_clk, "s") << "\n"
     << "  E_read     = " << util::si_format(e_read, "J") << "\n"
     << "  E_write    = " << util::si_format(e_write, "J") << "\n"
     << "  P_normal   = " << util::si_format(p_static_normal, "W") << "\n"
     << "  P_sleep    = " << util::si_format(p_static_sleep, "W") << "\n"
     << "  P_shutdown = " << util::si_format(p_static_shutdown, "W") << "\n";
  if (t_store > 0.0) {
    os << "  E_store    = " << util::si_format(e_store, "J") << " over "
       << util::si_format(t_store, "s")
       << (store_verified ? "  [verified]" : "  [NOT VERIFIED]") << "\n"
       << "  E_restore  = " << util::si_format(e_restore, "J") << " over "
       << util::si_format(t_restore, "s")
       << (restore_verified ? "  [verified]" : "  [NOT VERIFIED]") << "\n";
  }
  if (solver_recoveries() > 0) {
    os << "  recoveries = " << solver_recoveries() << " (gmin "
       << gmin_recoveries << ", source " << source_recoveries << ")\n";
  }
  return os.str();
}

CellCharacterizer::CellCharacterizer(models::PaperParams pp,
                                     double max_wall_seconds,
                                     int relax_attempt)
    : pp_(pp),
      max_wall_seconds_(max_wall_seconds),
      relax_attempt_(relax_attempt) {}

CellEnergetics CellCharacterizer::characterize(CellKind kind) const {
  // One wall-clock budget spans the whole characterization.  Each testbench
  // analysis below is handed whatever budget remains, so a stuck solve in
  // any step throws util::WatchdogError instead of outliving the phase.
  const util::Deadline phase(max_wall_seconds_);
  auto remaining = [&phase](const char* step) {
    phase.check(step);
    return phase.remaining_seconds();
  };

  CellEnergetics out;
  out.t_clk = pp_.clock_period();

  // ---- transient script: writes, reads, (store, shutdown, restore) ----
  CellTestbench tb(
      kind, pp_,
      TestbenchOptions{.max_wall_seconds = remaining("characterize: op script"),
                       .relax_attempt = relax_attempt_});
  tb.op_write(true);
  tb.op_write(false);
  tb.op_write(true);   // measured write (steady-state bitline toggling)
  tb.op_read();        // warm-up read
  tb.op_read();        // measured read
  tb.op_idle(2e-9);
  if (kind == CellKind::kNvSram) {
    tb.op_store();
    // Long enough for virtual VDD to collapse fully so the restore genuinely
    // recovers data from the MTJs rather than from residual node charge.
    tb.op_shutdown(3e-6);
    tb.op_restore();
    tb.op_idle(2e-9);
  }
  gate_schedule(tb, relax_attempt_);
  auto res = tb.run();
  out.gmin_recoveries += res.stats.gmin_recoveries;
  out.source_recoveries += res.stats.source_recoveries;

  const auto& wr = res.phase("write1", 1);
  out.e_write = res.energy(wr);
  const auto& rd = res.phase("read", 1);
  out.e_read = res.energy(rd);

  if (kind == CellKind::kNvSram) {
    const auto& sh = res.phase("store_h");
    const auto& sl = res.phase("store_l");
    out.e_store = res.energy(sh.t0, sl.t1);
    out.t_store = sl.t1 - sh.t0;
    const auto& rs = res.phase("restore");
    out.e_restore = res.energy(rs);
    out.t_restore = rs.duration();

    // Store verification: last written data was 1 (Q high), so the Q-side
    // MTJ must be AP and the QB-side P after the store.
    out.store_verified =
        tb.mtj_q()->state() == models::MtjState::kAntiparallel &&
        tb.mtj_qb()->state() == models::MtjState::kParallel;
    // Restore verification: virtual VDD must have collapsed during the
    // shutdown and Q must come back high.
    const auto& sd = res.phase("shutdown");
    const double vv_end = res.wave.value_at("V(VVDD)", sd.t1 - 1e-9);
    const double q_final = res.wave.value_at("V(Q)", tb.now() - 0.5e-9);
    const double qb_final = res.wave.value_at("V(QB)", tb.now() - 0.5e-9);
    out.restore_verified = vv_end < 0.25 * pp_.vdd &&
                           q_final > 0.8 * pp_.vdd && qb_final < 0.2 * pp_.vdd;
  }

  // ---- sleep transition energy (separate short script) ----
  {
    CellTestbench tbs(
        kind, pp_,
        TestbenchOptions{.max_wall_seconds = remaining("characterize: sleep"),
                         .relax_attempt = relax_attempt_});
    tbs.op_write(true);
    tbs.op_idle(2e-9);
    tbs.op_sleep(60e-9);
    tbs.op_idle(2e-9);
    gate_schedule(tbs, relax_attempt_);
    auto rs = tbs.run();
    out.gmin_recoveries += rs.stats.gmin_recoveries;
    out.source_recoveries += rs.stats.source_recoveries;
    const auto& slp = rs.phase("sleep");
    const double e_total = rs.energy(slp);
    // Subtract the static retention part to isolate the transition cost.
    CellTestbench tbd(
        kind, pp_,
        TestbenchOptions{.ideal_bitlines = true,
                         .max_wall_seconds = remaining("characterize: sleep"),
                         .relax_attempt = relax_attempt_});
    const double p_slp = tbd.static_power(CellTestbench::StaticMode::kSleep);
    out.e_sleep_transition = std::max(0.0, e_total - p_slp * slp.duration());
  }

  // ---- static powers (DC, ideal bitlines) ----
  using SM = CellTestbench::StaticMode;
  const std::vector<std::pair<SM, bool>> corners = {{SM::kNormal, true},
                                                    {SM::kNormal, false},
                                                    {SM::kSleep, true},
                                                    {SM::kSleep, false},
                                                    {SM::kShutdown, true}};
  CellTestbench tbd(
      kind, pp_,
      TestbenchOptions{.ideal_bitlines = true,
                       .max_wall_seconds = remaining("characterize: static"),
                       .relax_attempt = relax_attempt_});
  std::vector<double> p(corners.size(), 0.0);
  for (std::size_t i = 0; i < corners.size(); ++i) {
    p[i] = tbd.static_power(corners[i].first, corners[i].second);
  }
  out.p_static_normal = 0.5 * (p[0] + p[1]);
  out.p_static_sleep = 0.5 * (p[2] + p[3]);
  out.p_static_shutdown = p[4];
  return out;
}

CellCharacterizer::LeakageSweep CellCharacterizer::leakage_vs_vctrl(
    const std::vector<double>& vctrl_points) const {
  LeakageSweep sweep;

  CellTestbench tb6(CellKind::k6T, pp_, TestbenchOptions{.ideal_bitlines = true});
  sweep.current_6t =
      tb6.static_power(CellTestbench::StaticMode::kNormal) / pp_.vdd;

  CellTestbench tb(CellKind::kNvSram, pp_,
                   TestbenchOptions{.ideal_bitlines = true});
  for (double vctrl : vctrl_points) {
    auto bias = tb.bias_normal();
    bias.ctrl = vctrl;
    // Average over both held data values (the two leakage paths differ).
    double p = 0.0;
    for (bool data : {true, false}) {
      try {
        p += 0.5 * tb.static_power(bias, data);
      } catch (const spice::SolverError& e) {
        throw spice::SolverError("leakage_vs_vctrl: DC failed at vctrl=" +
                                     std::to_string(vctrl) +
                                     ", data=" + (data ? "1" : "0"),
                                 e.diagnostics());
      }
    }
    sweep.points.push_back({vctrl, p / pp_.vdd});
  }
  return sweep;
}

std::vector<std::pair<double, double>> CellCharacterizer::store_current_vs_vsr(
    const std::vector<double>& vsr_points) const {
  CellTestbench tb(CellKind::kNvSram, pp_,
                   TestbenchOptions{.ideal_bitlines = true});
  std::vector<std::pair<double, double>> out;
  for (double vsr : vsr_points) {
    auto bias = tb.bias_store_h();
    bias.sr = vsr;
    // Pre-switch state: the Q-side MTJ is still parallel while the H-store
    // current develops.
    auto sol = tb.solve_dc(bias, /*data=*/true, models::MtjState::kParallel,
                           models::MtjState::kAntiparallel);
    if (!sol) {
      throw std::runtime_error("store_current_vs_vsr: DC failed");
    }
    // The P->AP polarity is negative in the model convention; report the
    // magnitude as the paper does.
    const double i = tb.mtj_q()->current(sol->view());
    out.emplace_back(vsr, std::fabs(i));
  }
  return out;
}

std::vector<std::pair<double, double>>
CellCharacterizer::store_current_vs_vctrl(
    const std::vector<double>& vctrl_points) const {
  CellTestbench tb(CellKind::kNvSram, pp_,
                   TestbenchOptions{.ideal_bitlines = true});
  std::vector<std::pair<double, double>> out;
  for (double vctrl : vctrl_points) {
    auto bias = tb.bias_store_l();
    bias.ctrl = vctrl;
    // L-store acts on the QB-side MTJ (QB holds 0); it is antiparallel
    // before the AP->P switch, while the Q-side already completed H-store.
    auto sol = tb.solve_dc(bias, /*data=*/true, models::MtjState::kAntiparallel,
                           models::MtjState::kAntiparallel);
    if (!sol) {
      throw std::runtime_error("store_current_vs_vctrl: DC failed");
    }
    // Positive current = AP->P polarity.
    const double i = tb.mtj_qb()->current(sol->view());
    out.emplace_back(vctrl, i);
  }
  return out;
}

std::vector<CellCharacterizer::VvddPoint>
CellCharacterizer::vvdd_vs_switch_fins(const std::vector<int>& fins) const {
  std::vector<VvddPoint> out;
  for (int f : fins) {
    CellTestbench tb(
        CellKind::kNvSram, pp_,
        TestbenchOptions{.power_switch_fins = f, .ideal_bitlines = true});
    VvddPoint p;
    p.fins = f;
    auto normal = tb.solve_dc(tb.bias_normal(), true);
    auto store = tb.solve_dc(tb.bias_store_h(), true);
    if (!normal || !store) {
      throw std::runtime_error("vvdd_vs_switch_fins: DC failed");
    }
    p.vvdd_normal = tb.vvdd_at(*normal);
    p.vvdd_store = tb.vvdd_at(*store);
    out.push_back(p);
  }
  return out;
}

}  // namespace nvsram::sram
