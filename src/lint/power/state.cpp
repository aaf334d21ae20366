#include "lint/power/state.h"

#include <algorithm>

namespace nvsram::lint::power {

namespace {

using temporal::SignalTimeline;
using temporal::Timeline;
using temporal::Window;

constexpr double kTimeEps = 1e-15;

std::vector<Window> normalize(std::vector<Window> ws) {
  std::sort(ws.begin(), ws.end(),
            [](const Window& a, const Window& b) { return a.t0 < b.t0; });
  std::vector<Window> out;
  for (const Window& w : ws) {
    if (w.t1 - w.t0 <= kTimeEps) continue;
    if (!out.empty() && w.t0 <= out.back().t1 + kTimeEps) {
      out.back().t1 = std::max(out.back().t1, w.t1);
    } else {
      out.push_back(w);
    }
  }
  return out;
}

const SignalTimeline* find_signal(const Timeline& tl, const std::string& name) {
  for (const auto& s : tl.signals) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

}  // namespace

bool DomainSchedule::off_at(double t) const {
  // Half-open containment, matching the Window convention and the interval
  // algebra below: at t1 the recovery ramp has completed, so the rail is up
  // again.  A closed upper bound here would disagree with
  // windows_subtract/windows_union at shared boundaries — an event placed
  // exactly at a recovery edge (adjacent windows [a,b) [b,c)) must belong
  // to the later window only.
  for (const Window& w : off) {
    if (t >= w.t0 && t < w.t1) return true;
  }
  return false;
}

std::vector<Window> windows_intersect(const std::vector<Window>& a,
                                      const std::vector<Window>& b) {
  std::vector<Window> out;
  std::size_t i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    const double t0 = std::max(a[i].t0, b[j].t0);
    const double t1 = std::min(a[i].t1, b[j].t1);
    if (t1 - t0 > kTimeEps) out.push_back({t0, t1});
    if (a[i].t1 < b[j].t1) {
      ++i;
    } else {
      ++j;
    }
  }
  return out;
}

std::vector<Window> windows_union(const std::vector<Window>& a,
                                  const std::vector<Window>& b) {
  std::vector<Window> all = a;
  all.insert(all.end(), b.begin(), b.end());
  return normalize(std::move(all));
}

std::vector<Window> windows_subtract(const std::vector<Window>& a,
                                     const std::vector<Window>& b) {
  std::vector<Window> out;
  for (const Window& w : a) {
    double cursor = w.t0;
    for (const Window& cut : b) {
      if (cut.t1 <= cursor || cut.t0 >= w.t1) continue;
      if (cut.t0 > cursor) out.push_back({cursor, cut.t0});
      cursor = std::max(cursor, cut.t1);
    }
    if (w.t1 - cursor > kTimeEps) out.push_back({cursor, w.t1});
  }
  return normalize(std::move(out));
}

PowerState compute_power_state(const DomainMap& map,
                               const Timeline& timeline) {
  PowerState state;
  state.vdd = timeline.nominal_rail();
  state.threshold = 0.5 * state.vdd;

  const double t_stop = timeline.t_stop;
  state.schedules.resize(map.domains.size());
  for (const PowerDomain& d : map.domains) {
    DomainSchedule& sched = state.schedules[static_cast<std::size_t>(d.id)];
    sched.domain = d.id;
    if (d.kind != DomainKind::kGated || t_stop <= 0.0) continue;

    // Off windows of each feeding switch; the rail is down only when every
    // switch is cut, so the domain's own off set is the intersection.
    bool first = true;
    std::vector<Window> own;
    for (const PowerSwitch& sw : d.switches) {
      const SignalTimeline* gate =
          sw.gate_signal.empty() ? nullptr
                                 : find_signal(timeline, sw.gate_signal);
      std::vector<Window> cut;
      if (gate != nullptr) {
        cut = sw.pmos ? gate->windows_above(state.threshold, t_stop)
                      : gate->windows_below(state.threshold, t_stop);
      }
      // An unknown gate never proves the rail down: cut stays empty, the
      // intersection collapses, and every off-window rule goes quiet
      // (conservative — no false positives from unmodeled gating).
      sched.switch_off.push_back(cut);
      own = first ? std::move(cut) : windows_intersect(own, cut);
      first = false;
    }
    sched.off = std::move(own);
    // A child rail is also down whenever its supplying domain is.
    if (d.parent >= 0 && d.parent < d.id) {
      sched.off = windows_union(sched.off,
                                state.schedules[static_cast<std::size_t>(
                                                    d.parent)]
                                    .off);
    }
  }
  return state;
}

}  // namespace nvsram::lint::power
