#include "lint/dataflow/events.h"

#include <algorithm>
#include <cmath>
#include <optional>

#include "lint/power/domain.h"
#include "lint/power/state.h"

namespace nvsram::lint::dataflow {

namespace {

using temporal::SignalRole;
using temporal::SignalTimeline;
using temporal::Timeline;
using temporal::Transition;
using temporal::Window;

constexpr double kEps = 1e-12;  // 1 ps: below any schedulable edge spacing

double min_level_in(const SignalTimeline& s, const Window& w) {
  double m = std::min(s.level_at(w.t0), s.level_at(w.t1));
  for (const Transition& tr : s.transitions) {
    if (tr.t0 >= w.t0 && tr.t0 <= w.t1) m = std::min(m, tr.v0);
    if (tr.t1 >= w.t0 && tr.t1 <= w.t1) m = std::min(m, tr.v1);
  }
  return m;
}

// Expands a threshold-crossing window to the full extent of the transitions
// that produced its edges (same widening the protocol checker applies, so
// both passes agree on where an off window begins).
Window widen_to_edges(const SignalTimeline& s, Window w) {
  for (const Transition& tr : s.transitions) {
    if (w.t0 >= tr.t0 - kEps && w.t0 <= tr.t1 + kEps) w.t0 = tr.t0;
    if (w.t1 >= tr.t0 - kEps && w.t1 <= tr.t1 + kEps) {
      w.t1 = std::max(w.t1, tr.t1);
    }
  }
  return w;
}

// Tie-break rank at equal event times: data movement that abuts a gate-off
// edge happened while the rail was still up; restores precede the reads
// they enable.
int order_rank(Event::Kind k) {
  switch (k) {
    case Event::Kind::kWrite: return 0;
    case Event::Kind::kStore: return 1;
    case Event::Kind::kGateOff: return 2;
    case Event::Kind::kPowerUp: return 3;
    case Event::Kind::kRestore: return 4;
    case Event::Kind::kRead: return 5;
  }
  return 6;
}

}  // namespace

std::vector<Window> collect_off_windows(const Timeline& timeline,
                                        const spice::Circuit* circuit,
                                        const spice::ParsedNetlist* netlist,
                                        double vdd,
                                        const power::DomainMap* domains) {
  std::vector<Window> off;

  // Timeline-level evidence, exactly as the protocol checker reads it: the
  // power-gate line asserted (super cutoff) or the rail itself fully
  // collapsed (ideal-source decks that gate by driving VDD to zero).
  if (const SignalTimeline* pg = timeline.find_role(SignalRole::kPowerGate)) {
    if (pg->max_level() > 0.3 * vdd) {
      const double thr = 0.5 * pg->max_level();
      for (Window w : pg->windows_above(thr, timeline.t_stop)) {
        off.push_back(widen_to_edges(*pg, w));
      }
    }
  }
  if (const SignalTimeline* pwr = timeline.find_role(SignalRole::kPower)) {
    const double nominal = std::max(pwr->max_level(), vdd);
    for (Window w : pwr->windows_below(0.95 * nominal, timeline.t_stop)) {
      if (min_level_in(*pwr, w) < 0.1 * nominal) {
        off.push_back(widen_to_edges(*pwr, w));
      }
    }
  }

  // Power-intent evidence: every gated domain's off schedule, computed by
  // abstract interpretation of its PS gate signals.  The union with the
  // heuristics above is the fixpoint input of the dataflow pass.
  std::vector<Window> domain_off;
  if (circuit != nullptr) {
    std::optional<power::DomainMap> extracted;
    if (domains == nullptr) {
      domains = &extracted.emplace(power::extract_domains(*circuit, netlist));
    }
    power::StateOptions sopt;
    sopt.vdd = vdd;
    const power::PowerState state =
        power::compute_power_state(*domains, timeline, sopt);
    for (const power::DomainSchedule& sched : state.schedules) {
      domain_off = power::windows_union(domain_off, sched.off);
    }
  }
  return power::windows_union(off, domain_off);
}

std::vector<Event> extract_events(const Timeline& timeline,
                                  const std::vector<Window>& off_windows,
                                  double clock_period) {
  std::vector<Event> events;
  const double t_stop = timeline.t_stop;

  for (const Window& po : off_windows) {
    Event down;
    down.kind = Event::Kind::kGateOff;
    down.t = po.t0;
    down.window = po;
    events.push_back(down);
    Event up;
    up.kind = Event::Kind::kPowerUp;
    up.t = po.t1;
    up.window = po;
    events.push_back(up);
  }

  // Writes: write-driver asserts first; bitline transitions near a
  // word-line window second; bare word lines as conservative fallback only
  // when neither better evidence exists (then no read events are emitted —
  // every access might be a write).
  const auto wds = timeline.with_role(SignalRole::kWriteDriver);
  const auto bls = timeline.with_role(SignalRole::kBitline);
  const auto wls = timeline.with_role(SignalRole::kWordline);
  std::vector<std::pair<Window, const SignalTimeline*>> wl_windows;
  for (const SignalTimeline* wl : wls) {
    if (wl->max_level() < 0.05) continue;
    for (const Window& w : wl->windows_above(0.5 * wl->max_level(), t_stop)) {
      wl_windows.emplace_back(w, wl);
    }
  }

  std::vector<char> wl_is_write(wl_windows.size(), 0);
  bool have_write_evidence = false;
  if (!wds.empty()) {
    have_write_evidence = true;
    for (const SignalTimeline* wd : wds) {
      if (wd->max_level() < 0.05) continue;
      for (const Window& w :
           wd->windows_above(0.5 * wd->max_level(), t_stop)) {
        Event e;
        e.kind = Event::Kind::kWrite;
        e.t = w.t0;
        e.window = w;
        e.signal = wd;
        events.push_back(e);
        // A word-line window covering the driver assert is the same access.
        for (std::size_t i = 0; i < wl_windows.size(); ++i) {
          const Window& wl = wl_windows[i].first;
          if (w.t0 < wl.t1 + kEps && w.t1 > wl.t0 - kEps) wl_is_write[i] = 1;
        }
      }
    }
  } else if (!bls.empty()) {
    have_write_evidence = true;
    for (std::size_t i = 0; i < wl_windows.size(); ++i) {
      const Window& w = wl_windows[i].first;
      bool wrote = false;
      for (const SignalTimeline* bl : bls) {
        for (const Transition& tr : bl->transitions) {
          if (tr.t1 > w.t0 - clock_period - kEps && tr.t0 < w.t1 + kEps) {
            wrote = true;
          }
        }
      }
      if (wrote) {
        wl_is_write[i] = 1;
        Event e;
        e.kind = Event::Kind::kWrite;
        e.t = w.t0;
        e.window = w;
        e.signal = wl_windows[i].second;
        events.push_back(e);
      }
    }
  } else {
    for (const auto& [w, wl] : wl_windows) {
      Event e;
      e.kind = Event::Kind::kWrite;
      e.t = w.t0;
      e.window = w;
      e.signal = wl;
      events.push_back(e);
    }
  }

  // Reads: word-line accesses that drove no new data — only meaningful when
  // real write evidence separates the two kinds.
  if (have_write_evidence) {
    for (std::size_t i = 0; i < wl_windows.size(); ++i) {
      if (wl_is_write[i]) continue;
      Event e;
      e.kind = Event::Kind::kRead;
      e.t = wl_windows[i].first.t0;
      e.window = wl_windows[i].first;
      e.signal = wl_windows[i].second;
      events.push_back(e);
    }
  }

  // SR pulses: restore when the window straddles a rail recovery, dead when
  // fully inside an off window (the protocol pass reports those), store
  // otherwise — flagged when a gate-off edge cuts the pulse.
  for (const SignalTimeline* sr :
       timeline.with_role(SignalRole::kStoreEnable)) {
    if (sr->max_level() < 0.05) continue;
    for (const Window& w :
         sr->windows_above(0.5 * sr->max_level(), t_stop)) {
      bool recovery_inside = false;
      bool fully_off = false;
      bool cut_by_gate = false;
      for (const Window& po : off_windows) {
        if (po.t1 > w.t0 - kEps && po.t1 <= w.t1 + kEps) {
          recovery_inside = true;
        }
        if (w.t0 >= po.t0 - kEps && w.t1 <= po.t1 + kEps) fully_off = true;
        if (w.t0 < po.t0 - kEps && w.t1 > po.t0 + kEps && w.t1 <= po.t1) {
          cut_by_gate = true;
        }
      }
      if (fully_off) continue;
      Event e;
      e.t = w.t0;
      e.window = w;
      e.signal = sr;
      if (recovery_inside) {
        e.kind = Event::Kind::kRestore;
        // The restore takes effect at the recovery edge it straddles.
        for (const Window& po : off_windows) {
          if (po.t1 > w.t0 - kEps && po.t1 <= w.t1 + kEps) {
            e.t = std::max(e.t, po.t1);
          }
        }
      } else {
        e.kind = Event::Kind::kStore;
        e.cut_by_gate = cut_by_gate;
      }
      events.push_back(e);
    }
  }

  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (std::fabs(a.t - b.t) > kEps) return a.t < b.t;
    return order_rank(a.kind) < order_rank(b.kind);
  });
  return events;
}

}  // namespace nvsram::lint::dataflow
