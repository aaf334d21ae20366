// Per-domain power state over time, by abstract interpretation.
//
// Composes the extracted DomainMap with the stimulus Timeline: each gated
// domain's PS gate signals are interpreted against an on/off threshold,
// giving the maximal windows in which the domain's rail is collapsed (every
// feeding switch cut).  Nested domains inherit their parent's off windows
// (a child rail cannot be up while its supplier is down).  No transient is
// ever solved — this is the abstract power state the power-* rules check
// events against.
#pragma once

#include <vector>

#include "lint/power/domain.h"
#include "lint/temporal/timeline.h"

namespace nvsram::lint::power {

struct DomainSchedule {
  int domain = -1;
  // Maximal windows with the rail collapsed, time-sorted and disjoint.
  // Half-open [t0, t1): by t1 the recovery has completed.  off_at() and the
  // windows_* algebra below share this convention, so adjacent windows
  // [a,b) [b,c) never double-count b and an empty gap never survives.
  std::vector<temporal::Window> off;
  // Off windows of each feeding switch alone, parallel to
  // PowerDomain::switches (power-shared-rail-conflict compares these).
  std::vector<std::vector<temporal::Window>> switch_off;

  bool always_on() const { return off.empty(); }
  bool off_at(double t) const;
};

struct PowerState {
  std::vector<DomainSchedule> schedules;  // indexed by domain id
  // The timeline's nominal rail (Timeline::nominal_rail).
  double vdd = 0.9;
  double threshold = 0.45;  // a gate beyond half of vdd is asserted

  const DomainSchedule& of(int domain_id) const {
    return schedules[static_cast<std::size_t>(domain_id)];
  }
};

PowerState compute_power_state(const DomainMap& map,
                               const temporal::Timeline& timeline);

// Interval algebra over sorted disjoint window lists (exposed for tests).
std::vector<temporal::Window> windows_intersect(
    const std::vector<temporal::Window>& a,
    const std::vector<temporal::Window>& b);
std::vector<temporal::Window> windows_union(
    const std::vector<temporal::Window>& a,
    const std::vector<temporal::Window>& b);
std::vector<temporal::Window> windows_subtract(
    const std::vector<temporal::Window>& a,
    const std::vector<temporal::Window>& b);

}  // namespace nvsram::lint::power
