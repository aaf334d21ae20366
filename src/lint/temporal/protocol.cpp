#include "lint/temporal/protocol.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <sstream>

#include "lint/rules.h"
#include "models/paper_params.h"
#include "util/units.h"

namespace nvsram::lint::temporal {

namespace {

constexpr double kEps = 1e-12;  // 1 ps: below any schedulable edge spacing

std::string ns(double t) { return util::si_format(t, "s"); }

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

class ProtocolChecker {
 public:
  ProtocolChecker(const Timeline& tl, const TemporalOptions& opt)
      : tl_(tl), opt_(opt) {}

  std::vector<Diagnostic> run() {
    if (tl_.t_stop <= 0.0) return std::move(out_);  // nothing scheduled

    pwr_ = tl_.find_role(SignalRole::kPower);
    pg_ = tl_.find_role(SignalRole::kPowerGate);
    sr_ = tl_.find_role(SignalRole::kStoreEnable);
    ctrl_ = tl_.find_role(SignalRole::kRestoreCtrl);
    pch_ = tl_.find_role(SignalRole::kPrecharge);

    find_power_off_windows();
    collect_write_events();
    check_sleep_retention();
    classify_store_windows();
    check_store_steps();
    check_power_cycles();
    check_wordline_precharge();
    if (opt_.arch == TemporalOptions::Arch::kNOF) check_nof_clock();
    return std::move(out_);
  }

 private:
  struct SrWindow {
    Window w;
    enum class Kind { kStore, kRestore, kDeadStore } kind = Kind::kStore;
  };

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

  bool power_off_at(double t) const {
    for (const Window& po : power_off_) {
      if (t >= po.t0 && t <= po.t1) return true;
    }
    return false;
  }

  // Gate-off windows come from the power-gate line (high = super cutoff) and
  // from full collapses of the rail itself (netlists that gate by driving
  // VDD to zero).
  void find_power_off_windows() {
    if (pg_ != nullptr && pg_->max_level() > 0.3 * opt_.vdd) {
      const double thr = 0.5 * pg_->max_level();
      for (Window w : pg_->windows_above(thr, tl_.t_stop)) {
        power_off_.push_back(widen_to_edges(*pg_, w));
      }
    }
    if (pwr_ != nullptr) {
      const double nominal = std::max(pwr_->max_level(), opt_.vdd);
      for (Window w : pwr_->windows_below(0.95 * nominal, tl_.t_stop)) {
        if (min_level_in(*pwr_, w) < 0.1 * nominal) {
          power_off_.push_back(widen_to_edges(*pwr_, w));
        }
      }
    }
    std::sort(power_off_.begin(), power_off_.end(),
              [](const Window& a, const Window& b) { return a.t0 < b.t0; });
  }

  // Times at which the cell is written (leaving it ahead of its MTJs).
  // Primary evidence: a write-driver assert.  Netlists that drive the
  // bitlines with ideal sources instead: a bitline transition while a word
  // line is high.  Only when the timeline carries neither write drivers nor
  // bitlines do word-line asserts count (conservative fallback).
  void collect_write_events() {
    const auto wds = tl_.with_role(SignalRole::kWriteDriver);
    for (const SignalTimeline* wd : wds) {
      if (wd->max_level() < 0.05) continue;
      for (const Window& w : wd->windows_above(0.5 * wd->max_level(),
                                               tl_.t_stop)) {
        writes_.push_back(w.t0);
      }
    }
    const auto bls = tl_.with_role(SignalRole::kBitline);
    if (wds.empty() && !bls.empty()) {
      std::vector<Window> wl_high;
      for (const SignalTimeline* wl : tl_.with_role(SignalRole::kWordline)) {
        if (wl->max_level() < 0.05) continue;
        const auto ws = wl->windows_above(0.5 * wl->max_level(), tl_.t_stop);
        wl_high.insert(wl_high.end(), ws.begin(), ws.end());
      }
      // The bitline settles up to ~a clock period before the word line
      // rises, so look back that far when deciding whether an access drives
      // new data.
      for (const Window& w : wl_high) {
        bool wrote = false;
        for (const SignalTimeline* bl : bls) {
          for (const Transition& tr : bl->transitions) {
            if (tr.t1 > w.t0 - opt_.clock_period - kEps &&
                tr.t0 < w.t1 + kEps) {
              wrote = true;
            }
          }
        }
        if (wrote) writes_.push_back(w.t0);
      }
    }
    if (wds.empty() && bls.empty()) {
      for (const SignalTimeline* wl : tl_.with_role(SignalRole::kWordline)) {
        if (wl->max_level() < 0.05) continue;
        for (const Window& w : wl->windows_above(0.5 * wl->max_level(),
                                                 tl_.t_stop)) {
          writes_.push_back(w.t0);
        }
      }
    }
    std::sort(writes_.begin(), writes_.end());
  }

  // OSR / sleep retention: any rail sag that is not a full collapse must
  // stay above the bistable retention floor.
  void check_sleep_retention() {
    if (pwr_ == nullptr) return;
    const double nominal = std::max(pwr_->max_level(), opt_.vdd);
    for (const Window& w : pwr_->windows_below(0.95 * nominal, tl_.t_stop)) {
      const double vmin = min_level_in(*pwr_, w);
      if (vmin < 0.1 * nominal) continue;  // full collapse: a shutdown
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

  // Splits SR assert windows into store / restore / dead-store (entirely
  // inside a power-off window: the core is unpowered, nothing can flow).
  void classify_store_windows() {
    if (sr_ == nullptr || sr_->max_level() < 0.05) return;
    const double thr = 0.5 * sr_->max_level();
    for (const Window& w : sr_->windows_above(thr, tl_.t_stop)) {
      SrWindow sw;
      sw.w = w;
      bool recovery_inside = false;
      bool fully_off = false;
      bool starts_on_ends_off = false;
      for (const Window& po : power_off_) {
        if (po.t1 > w.t0 - kEps && po.t1 <= w.t1 + kEps) {
          recovery_inside = true;
        }
        if (w.t0 >= po.t0 - kEps && w.t1 <= po.t1 + kEps) fully_off = true;
        if (w.t0 < po.t0 - kEps && w.t1 > po.t0 + kEps && w.t1 <= po.t1) {
          starts_on_ends_off = true;
        }
      }
      if (recovery_inside) {
        sw.kind = SrWindow::Kind::kRestore;
      } else if (fully_off) {
        sw.kind = SrWindow::Kind::kDeadStore;
      } else if (starts_on_ends_off) {
        // Store begun with power on but the gate cuts it mid-pulse.
        std::ostringstream msg;
        msg << "store pulse on '" << sr_->name << "' over [" << ns(w.t0)
            << ", " << ns(w.t1) << "] overlaps the gate-off edge: the "
            << "virtual rail collapses mid-store and the MTJ write current "
            << "is cut";
        emit(rules::kProtocolStoreGateOverlap, msg.str(), sr_, w.t0);
        sw.kind = SrWindow::Kind::kStore;
      }
      sr_windows_.push_back(sw);
    }

    for (const SrWindow& sw : sr_windows_) {
      if (sw.kind != SrWindow::Kind::kDeadStore) continue;
      std::ostringstream msg;
      msg << "SR pulse on '" << sr_->name << "' over [" << ns(sw.w.t0) << ", "
          << ns(sw.w.t1) << "] lies entirely inside a power-off window and "
          << "de-asserts before VDD recovery: a restore must still be "
          << "asserted when the rail comes back (a store here drives no "
          << "current at all)";
      emit(rules::kProtocolRestoreOrder, msg.str(), sr_, sw.w.t0);
    }
  }

  // Every powered store step (contiguous CTRL level inside an SR assert)
  // must be at least the MTJ write-pulse width at the configured overdrive.
  void check_store_steps() {
    if (!tl_.has_mtj || sr_ == nullptr) return;
    for (const SrWindow& sw : sr_windows_) {
      if (sw.kind != SrWindow::Kind::kStore) continue;
      std::vector<double> cuts;
      if (ctrl_ != nullptr) {
        for (const Transition& tr : ctrl_->transitions) {
          if (std::fabs(tr.v1 - tr.v0) < 1e-6) continue;
          const double mid = 0.5 * (tr.t0 + tr.t1);
          if (mid > sw.w.t0 + kEps && mid < sw.w.t1 - kEps) cuts.push_back(mid);
        }
      }
      std::sort(cuts.begin(), cuts.end());
      double prev = sw.w.t0;
      cuts.push_back(sw.w.t1);
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
    for (const Window& po : power_off_) {
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
        for (double w : writes_) {
          if (w > prev_power_up - kEps && w < po.t0 - kEps) {
            last_write = std::max(last_write, w);
          }
        }
        bool store_found = false;
        for (const SrWindow& sw : sr_windows_) {
          if (sw.kind != SrWindow::Kind::kStore) continue;
          if (sw.w.t1 <= po.t0 + kEps && sw.w.t1 > last_write) {
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
        for (const SrWindow& sw : sr_windows_) {
          if (sw.kind != SrWindow::Kind::kRestore) continue;
          if (po.t1 > sw.w.t0 - kEps && po.t1 <= sw.w.t1 + kEps) {
            restore_end = std::max(restore_end, sw.w.t1);
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
    for (const SignalTimeline* wl : tl_.with_role(SignalRole::kWordline)) {
      if (wl->max_level() < 0.05) continue;
      for (const Window& w : wl->windows_above(0.5 * wl->max_level(),
                                               tl_.t_stop)) {
        if (w.t0 >= t - kEps && (best < 0.0 || w.t0 < best)) best = w.t0;
      }
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
    for (const SignalTimeline* wl : tl_.with_role(SignalRole::kWordline)) {
      if (wl->max_level() < 0.05) continue;
      for (const Window& w : wl->windows_above(0.5 * wl->max_level(),
                                               tl_.t_stop)) {
        for (const Window& a : active) {
          const double overlap =
              std::min(w.t1, a.t1) - std::max(w.t0, a.t0);
          if (overlap > 0.05 * w.duration() + kEps) {
            std::ostringstream msg;
            msg << "word line '" << wl->name << "' is asserted over ["
                << ns(w.t0) << ", " << ns(w.t1) << "] while the precharge on '"
                << pch_->name << "' is still active (" << ns(overlap)
                << " overlap): the access fights the precharge pull-ups";
            emit(rules::kProtocolWlPrechargeOverlap, msg.str(), wl,
                 std::max(w.t0, a.t0));
            break;
          }
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
  const SignalTimeline* pwr_ = nullptr;
  const SignalTimeline* pg_ = nullptr;
  const SignalTimeline* sr_ = nullptr;
  const SignalTimeline* ctrl_ = nullptr;
  const SignalTimeline* pch_ = nullptr;
  std::vector<Window> power_off_;
  std::vector<SrWindow> sr_windows_;
  std::vector<double> writes_;
  std::vector<Diagnostic> out_;
};

}  // namespace

TemporalOptions TemporalOptions::from_paper(const models::PaperParams& pp) {
  TemporalOptions opt;
  opt.vdd = pp.vdd;
  opt.store_pulse = pp.store_pulse;
  opt.clock_period = pp.clock_period();
  opt.retention_floor = pp.vvdd_retention_floor;
  if (pp.store_current_factor > 1.0) {
    opt.mtj_write_pulse = pp.mtj.tau0 / (pp.store_current_factor - 1.0);
  } else {
    opt.mtj_write_pulse = pp.store_pulse;
  }
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
                                       const TemporalOptions& options) {
  return ProtocolChecker(timeline, options).run();
}

}  // namespace nvsram::lint::temporal
