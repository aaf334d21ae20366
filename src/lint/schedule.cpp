#include "lint/schedule.h"

#include <algorithm>

namespace nvsram::lint {

namespace {

using temporal::SignalRole;
using temporal::SignalTimeline;
using temporal::Timeline;
using temporal::Transition;
using temporal::Window;

constexpr double kEps = 1e-12;  // 1 ps: below any schedulable edge spacing

// Minimum of the piecewise-linear level over a window.
double min_level_in(const SignalTimeline& s, const Window& w) {
  double m = std::min(s.level_at(w.t0), s.level_at(w.t1));
  for (const Transition& tr : s.transitions) {
    if (tr.t0 >= w.t0 && tr.t0 <= w.t1) m = std::min(m, tr.v0);
    if (tr.t1 >= w.t0 && tr.t1 <= w.t1) m = std::min(m, tr.v1);
  }
  return m;
}

// Expands a threshold-crossing window to the full extent of the transitions
// that produced its edges, so [gate-off start .. recovery complete] rather
// than [mid-rise .. mid-fall].
Window widen_to_edges(const SignalTimeline& s, Window w) {
  for (const Transition& tr : s.transitions) {
    if (w.t0 >= tr.t0 - kEps && w.t0 <= tr.t1 + kEps) w.t0 = tr.t0;
    if (w.t1 >= tr.t0 - kEps && w.t1 <= tr.t1 + kEps) {
      w.t1 = std::max(w.t1, tr.t1);
    }
  }
  return w;
}

// Assert windows of a logic-level signal; none for a line that never
// leaves ground.
std::vector<Window> asserted(const SignalTimeline& s, double t_stop) {
  if (s.max_level() < 0.05) return {};
  return s.windows_above(0.5 * s.max_level(), t_stop);
}

// True when the domain map knows the switches `pg` drives and every one is
// an NMOS footer, which cuts its rail while the line is low.
bool drives_only_footers(const std::optional<power::DomainMap>& domains,
                         const SignalTimeline& pg) {
  if (!domains) return false;
  bool any = false;
  for (const power::PowerDomain& d : domains->domains) {
    for (const power::PowerSwitch& sw : d.switches) {
      if (sw.gate_signal != pg.name) continue;
      if (sw.pmos) return false;
      any = true;
    }
  }
  return any;
}

}  // namespace

Schedule::Schedule(const Timeline& tl, double vdd, double clock_period,
                   const spice::Circuit* circuit,
                   const spice::ParsedNetlist* netlist) {
  if (circuit != nullptr) {
    domains = power::extract_domains(*circuit, netlist);
    power = power::compute_power_state(*domains, tl);
  }
  const double t_stop = tl.t_stop;
  if (t_stop <= 0.0) return;  // nothing scheduled

  // Off windows from the timeline: the power-gate line asserted (super
  // cutoff) and full collapses of the rail itself (decks that gate by
  // driving VDD to zero); shallower dips are sleeps.
  std::vector<Window> rail_off;
  if (const SignalTimeline* pg = tl.find_role(SignalRole::kPowerGate)) {
    if (pg->max_level() > 0.3 * vdd) {
      const double thr = 0.5 * pg->max_level();
      const std::vector<Window> asserts =
          drives_only_footers(domains, *pg) ? pg->windows_below(thr, t_stop)
                                            : pg->windows_above(thr, t_stop);
      for (const Window& w : asserts) {
        rail_off.push_back(widen_to_edges(*pg, w));
      }
    }
  }
  if (const SignalTimeline* pwr = tl.find_role(SignalRole::kPower)) {
    const double nominal = std::max(pwr->max_level(), vdd);
    for (const Window& w : pwr->windows_below(0.95 * nominal, t_stop)) {
      const double vmin = min_level_in(*pwr, w);
      if (vmin < 0.1 * nominal) {
        rail_off.push_back(widen_to_edges(*pwr, w));
      } else {
        sags.push_back({w, vmin});
      }
    }
  }
  // Power-intent evidence: every gated domain's off schedule.
  std::vector<Window> domain_off;
  for (const power::DomainSchedule& sched : power.schedules) {
    domain_off = power::windows_union(domain_off, sched.off);
  }
  off = power::windows_union(rail_off, domain_off);

  // Accesses.  A word-line window that a write-driver assert overlaps is
  // that write; one that no evidence marks only reads.  With neither write
  // drivers nor bitlines every access might be a write.
  for (const SignalTimeline* wl : tl.with_role(SignalRole::kWordline)) {
    for (const Window& w : asserted(*wl, t_stop)) {
      accesses.push_back({w, wl, false});
    }
  }
  const auto wds = tl.with_role(SignalRole::kWriteDriver);
  const auto bls = tl.with_role(SignalRole::kBitline);
  if (!wds.empty()) {
    for (const SignalTimeline* wd : wds) {
      for (const Window& w : asserted(*wd, t_stop)) {
        writes.push_back({w, wd, true});
        for (Access& a : accesses) {
          if (w.t0 < a.window.t1 + kEps && w.t1 > a.window.t0 - kEps) {
            a.write = true;
          }
        }
      }
    }
  } else {
    for (Access& a : accesses) {
      // The bitline settles up to ~a clock period before the word line
      // rises, so look back that far when deciding whether an access
      // drives new data.
      a.write = bls.empty();
      for (const SignalTimeline* bl : bls) {
        for (const Transition& tr : bl->transitions) {
          if (tr.t1 > a.window.t0 - clock_period - kEps &&
              tr.t0 < a.window.t1 + kEps) {
            a.write = true;
          }
        }
      }
      if (a.write) writes.push_back(a);
    }
  }

  // SR pulses: a restore straddles a rail recovery, a dead store lies
  // entirely inside an off window (the core is unpowered, nothing flows),
  // anything else stores.
  for (const SignalTimeline* sr : tl.with_role(SignalRole::kStoreEnable)) {
    for (const Window& w : asserted(*sr, t_stop)) {
      SrPulse p;
      p.window = w;
      p.signal = sr;
      p.recovery = w.t0;
      bool recovery_inside = false;
      bool fully_off = false;
      bool cut = false;
      for (const Window& po : off) {
        if (po.t1 > w.t0 - kEps && po.t1 <= w.t1 + kEps) {
          recovery_inside = true;
          p.recovery = std::max(p.recovery, po.t1);
        }
        if (w.t0 >= po.t0 - kEps && w.t1 <= po.t1 + kEps) fully_off = true;
        if (w.t0 < po.t0 - kEps && w.t1 > po.t0 + kEps && w.t1 <= po.t1) {
          cut = true;
        }
      }
      if (recovery_inside) {
        p.kind = SrPulse::Kind::kRestore;
      } else if (fully_off) {
        p.kind = SrPulse::Kind::kDeadStore;
      } else {
        p.cut_by_gate = cut;
      }
      sr_pulses.push_back(p);
    }
  }
}

}  // namespace nvsram::lint
