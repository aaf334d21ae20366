#include "lint/temporal/protocol.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "lint/dataflow/check.h"
#include "lint/rules.h"
#include "lint/schedule.h"
#include "models/paper_params.h"
#include "util/units.h"

namespace nvsram::lint::temporal {

namespace {

constexpr double kEps = 1e-12;  // 1 ps: below any schedulable edge spacing

std::string ns(double t) { return util::si_format(t, "s"); }

using SrKind = SrPulse::Kind;

class ProtocolChecker {
 public:
  ProtocolChecker(const Timeline& tl, const TemporalOptions& opt,
                  const Schedule& schedule)
      : tl_(tl), opt_(opt), sched_(schedule) {}

  std::vector<Diagnostic> run() {
    if (tl_.t_stop <= 0.0) return std::move(out_);  // nothing scheduled

    pwr_ = tl_.find_role(SignalRole::kPower);
    pg_ = tl_.find_role(SignalRole::kPowerGate);
    sr_ = tl_.find_role(SignalRole::kStoreEnable);
    ctrl_ = tl_.find_role(SignalRole::kRestoreCtrl);
    pch_ = tl_.find_role(SignalRole::kPrecharge);

    // Only the first store-enable line, the one the messages name.
    for (const SrPulse& p : sched_.sr_pulses) {
      if (p.signal == sr_) sr_pulses_.push_back(&p);
    }

    check_sleep_retention();
    check_store_pulses();
    check_store_steps();
    check_power_cycles();
    check_wordline_precharge();
    if (opt_.arch == TemporalOptions::Arch::kNOF) check_nof_clock();
    return std::move(out_);
  }

 private:
  void emit(const char* rule, std::string message, const SignalTimeline* sig,
            double at_time) {
    Diagnostic d;
    d.rule = rule;
    d.severity = default_severity(rule);
    d.message = std::move(message);
    if (sig != nullptr) {
      d.device = sig->name;
      d.line = sig->line;
    }
    d.phase = tl_.phase_at(at_time);
    out_.push_back(std::move(d));
  }

  // OSR / sleep retention: any rail sag that is not a full collapse must
  // stay above the bistable retention floor.
  void check_sleep_retention() {
    for (const RailSag& sag : sched_.sags) {
      const Window& w = sag.window;
      const double vmin = sag.vmin;
      if (vmin < opt_.retention_floor) {
        std::ostringstream msg;
        msg << "sleep level of rail '" << pwr_->name << "' sags to "
            << util::si_format(vmin, "V") << " over [" << ns(w.t0) << ", "
            << ns(w.t1) << "], below the "
            << util::si_format(opt_.retention_floor, "V")
            << " retention floor of the bistable core: data is lost without "
               "a preceding store";
        emit(rules::kProtocolSleepRetention, msg.str(), pwr_,
             0.5 * (w.t0 + w.t1));
      }
    }
  }

  // A store cut by the gate-off edge, and a dead store (entirely inside a
  // power-off window: the core is unpowered, nothing can flow).
  void check_store_pulses() {
    for (const SrPulse* p : sr_pulses_) {
      if (!p->cut_by_gate) continue;
      std::ostringstream msg;
      msg << "store pulse on '" << sr_->name << "' over [" << ns(p->window.t0)
          << ", " << ns(p->window.t1) << "] overlaps the gate-off edge: the "
          << "virtual rail collapses mid-store and the MTJ write current "
          << "is cut";
      emit(rules::kProtocolStoreGateOverlap, msg.str(), sr_, p->window.t0);
    }
    for (const SrPulse* p : sr_pulses_) {
      if (p->kind != SrKind::kDeadStore) continue;
      std::ostringstream msg;
      msg << "SR pulse on '" << sr_->name << "' over [" << ns(p->window.t0)
          << ", " << ns(p->window.t1) << "] lies entirely inside a power-off "
          << "window and de-asserts before VDD recovery: a restore must still "
          << "be asserted when the rail comes back (a store here drives no "
          << "current at all)";
      emit(rules::kProtocolRestoreOrder, msg.str(), sr_, p->window.t0);
    }
  }

  // Every powered store step (contiguous CTRL level inside an SR assert)
  // must be at least the MTJ write-pulse width at the configured overdrive.
  void check_store_steps() {
    if (!tl_.has_mtj) return;
    for (const SrPulse* p : sr_pulses_) {
      if (p->kind != SrKind::kStore) continue;
      const Window& w = p->window;
      std::vector<double> cuts;
      if (ctrl_ != nullptr) {
        for (const Transition& tr : ctrl_->transitions) {
          if (std::fabs(tr.v1 - tr.v0) < 1e-6) continue;
          const double mid = 0.5 * (tr.t0 + tr.t1);
          if (mid > w.t0 + kEps && mid < w.t1 - kEps) cuts.push_back(mid);
        }
      }
      std::sort(cuts.begin(), cuts.end());
      double prev = w.t0;
      cuts.push_back(w.t1);
      int step_index = 0;
      for (double cut : cuts) {
        const double width = cut - prev;
        if (width > kEps && width + kEps < opt_.mtj_write_pulse) {
          std::ostringstream msg;
          msg << "store step " << step_index << " on '" << sr_->name
              << "' over [" << ns(prev) << ", " << ns(cut) << "] lasts "
              << ns(width) << ", shorter than the " << ns(opt_.mtj_write_pulse)
              << " MTJ write pulse required at the configured overdrive: the "
              << "CIMS switch cannot complete and the store silently fails";
          emit(rules::kProtocolStoreIncomplete, msg.str(), sr_, prev);
        }
        prev = cut;
        ++step_index;
      }
    }
  }

  // Per power-off window: a completed store must precede gate-off, a
  // restore must straddle the recovery, and no word line may assert before
  // the restore completes.  Advisory: the window must at least fit the
  // collapse/recovery ramps.
  void check_power_cycles() {
    double prev_power_up = 0.0;
    for (const Window& po : sched_.off) {
      const SignalTimeline* attrib = pg_ != nullptr ? pg_ : pwr_;
      if (po.duration() < opt_.min_shutdown) {
        std::ostringstream msg;
        msg << "power-off window [" << ns(po.t0) << ", " << ns(po.t1)
            << "] lasts " << ns(po.duration()) << ", shorter than the "
            << ns(opt_.min_shutdown)
            << " needed for the rail collapse + recovery ramps; the domain "
               "never actually powers down";
        emit(rules::kProtocolShutdownShort, msg.str(), attrib, po.t0);
      }

      if (tl_.has_mtj) {
        // A write left the cell ahead of its MTJs; a store must complete
        // after the last such write and before the gate-off.  Read-only
        // power cycles (NOF reads) are exempt: the MTJs already hold the
        // data.
        double last_write = -1.0;
        for (const Access& write : sched_.writes) {
          const double w = write.window.t0;
          if (w > prev_power_up - kEps && w < po.t0 - kEps) {
            last_write = std::max(last_write, w);
          }
        }
        bool store_found = false;
        for (const SrPulse* p : sr_pulses_) {
          if (p->kind != SrKind::kStore) continue;
          if (p->window.t1 <= po.t0 + kEps && p->window.t1 > last_write) {
            store_found = true;
          }
        }
        if (last_write >= 0.0 && !store_found) {
          std::ostringstream msg;
          msg << "power gated off at " << ns(po.t0)
              << " with no completed MTJ store after the write at "
              << ns(last_write)
              << (sr_ == nullptr ? " (no store-enable signal in this schedule)"
                                 : "")
              << ": the written data is lost on collapse";
          emit(rules::kProtocolStoreMissing, msg.str(),
               sr_ != nullptr ? sr_ : attrib, po.t0);
        }

        // Restore straddling the recovery edge.
        double restore_end = -1.0;
        for (const SrPulse* p : sr_pulses_) {
          if (p->kind != SrKind::kRestore) continue;
          if (po.t1 > p->window.t0 - kEps && po.t1 <= p->window.t1 + kEps) {
            restore_end = std::max(restore_end, p->window.t1);
          }
        }
        const double next_access = first_wordline_after(po.t1);
        if (restore_end < 0.0) {
          if (next_access >= 0.0) {
            std::ostringstream msg;
            msg << "power-up at " << ns(po.t1)
                << " has no restore (SR) pulse overlapping the rail "
                << "recovery, but a word-line access follows at "
                << ns(next_access)
                << ": the core re-latches random data instead of the MTJ "
                << "contents";
            emit(rules::kProtocolRestoreOrder, msg.str(),
                 sr_ != nullptr ? sr_ : attrib, po.t1);
          }
        } else if (next_access >= 0.0 && next_access + kEps < restore_end) {
          std::ostringstream msg;
          msg << "word line asserts at " << ns(next_access)
              << " before the restore completes at " << ns(restore_end)
              << ": the access disturbs the cell while it is still "
              << "re-developing from the MTJs";
          emit(rules::kProtocolRestoreOrder, msg.str(), sr_, next_access);
        }
      }
      prev_power_up = po.t1;
    }
  }

  // Earliest word-line assert at/after t; -1 when none.
  double first_wordline_after(double t) const {
    double best = -1.0;
    for (const Access& a : sched_.accesses) {
      const double t0 = a.window.t0;
      if (t0 >= t - kEps && (best < 0.0 || t0 < best)) best = t0;
    }
    return best;
  }

  // Word line asserting while the precharge devices still drive the
  // bitlines (precharge gate LOW = active) shorts the cell into the
  // precharge pull-ups for the overlap.
  void check_wordline_precharge() {
    if (pch_ == nullptr) return;
    const double pch_thr = 0.5 * std::max(pch_->max_level(), opt_.vdd);
    const auto active = pch_->windows_below(pch_thr, tl_.t_stop);
    for (const Access& access : sched_.accesses) {
      const Window& w = access.window;
      for (const Window& a : active) {
        const double overlap = std::min(w.t1, a.t1) - std::max(w.t0, a.t0);
        if (overlap > 0.05 * w.duration() + kEps) {
          std::ostringstream msg;
          msg << "word line '" << access.signal->name << "' is asserted over ["
              << ns(w.t0) << ", " << ns(w.t1) << "] while the precharge on '"
              << pch_->name << "' is still active (" << ns(overlap)
              << " overlap): the access fights the precharge pull-ups";
          emit(rules::kProtocolWlPrechargeOverlap, msg.str(), access.signal,
               std::max(w.t0, a.t0));
          break;
        }
      }
    }
  }

  // NOF embeds the store inside every access cycle; a clock period shorter
  // than the store pulse cannot schedule it.
  void check_nof_clock() {
    if (opt_.clock_period + kEps < opt_.store_pulse) {
      std::ostringstream msg;
      msg << "NOF clock period " << ns(opt_.clock_period)
          << " is shorter than the " << ns(opt_.store_pulse)
          << " store pulse it must embed in every access cycle";
      emit(rules::kProtocolClockStore, msg.str(), nullptr, 0.0);
    }
  }

  const Timeline& tl_;
  const TemporalOptions& opt_;
  const Schedule& sched_;
  const SignalTimeline* pwr_ = nullptr;
  const SignalTimeline* pg_ = nullptr;
  const SignalTimeline* sr_ = nullptr;
  const SignalTimeline* ctrl_ = nullptr;
  const SignalTimeline* pch_ = nullptr;
  std::vector<const SrPulse*> sr_pulses_;  // of sr_, in time order
  std::vector<Diagnostic> out_;
};

}  // namespace

TemporalOptions TemporalOptions::from_paper(const models::PaperParams& pp) {
  TemporalOptions opt;
  opt.vdd = pp.vdd;
  opt.store_pulse = pp.store_pulse;
  opt.clock_period = pp.clock_period();
  opt.retention_floor = pp.vvdd_retention_floor;
  opt.mtj_write_pulse = dataflow::DataflowOptions::required_store_pulse(
      pp.mtj, pp.store_current_factor, pp.store_pulse);
  return opt;
}

std::optional<TemporalOptions::Arch> arch_from_string(const std::string& s) {
  std::string lower;
  lower.reserve(s.size());
  for (char c : s) {
    lower.push_back(
        static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  if (lower == "nvpg") return TemporalOptions::Arch::kNVPG;
  if (lower == "nof") return TemporalOptions::Arch::kNOF;
  if (lower == "osr") return TemporalOptions::Arch::kOSR;
  return std::nullopt;
}

std::vector<Diagnostic> check_timeline(const Timeline& timeline,
                                       const TemporalOptions& options,
                                       const Schedule* schedule) {
  if (schedule != nullptr) {
    return ProtocolChecker(timeline, options, *schedule).run();
  }
  const Schedule own(timeline, options.vdd, options.clock_period);
  return ProtocolChecker(timeline, options, own).run();
}

}  // namespace nvsram::lint::temporal
