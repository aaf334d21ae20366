#include "lint/dataflow/check.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "lint/dataflow/lattice.h"
#include "lint/rules.h"
#include "lint/schedule.h"
#include "models/mtj.h"
#include "models/paper_params.h"
#include "util/units.h"

namespace nvsram::lint::dataflow {

namespace {

using temporal::Timeline;
using temporal::Window;

constexpr double kEps = 1e-12;

std::string ns(double t) { return util::si_format(t, "s"); }

// One data-relevant event of the schedule.
struct Event {
  enum class Kind {
    kWrite,    // new data latched into the cell
    kRead,     // word-line access that drives no new data
    kStore,    // powered SR pulse targeting the MTJs
    kGateOff,  // rail collapse begins (off-window start)
    kPowerUp,  // rail recovery completes (off-window end)
    kRestore,  // SR pulse straddling a rail recovery
  };
  Kind kind = Kind::kWrite;
  double t = 0.0;           // event time (sort key)
  Window window;            // full extent of the pulse or off window
  // Store pulses cut by a gate-off edge never complete; the interpreter
  // skips the NV update without re-reporting (protocol-store-gate-overlap
  // owns the malformed pulse itself).
  bool cut_by_gate = false;
  // Attribution: the driving signal, nullptr for synthesized edges.
  const temporal::SignalTimeline* signal = nullptr;
};

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

// The schedule as one totally ordered event stream.  Dead stores drive no
// current (the protocol pass reports them); reads exist only where write
// evidence tells them from writes, since without it every access is one.
std::vector<Event> events_of(const Schedule& sched) {
  std::vector<Event> events;
  for (const Window& po : sched.off) {
    events.push_back({Event::Kind::kGateOff, po.t0, po});
    events.push_back({Event::Kind::kPowerUp, po.t1, po});
  }
  for (const Access& w : sched.writes) {
    events.push_back({Event::Kind::kWrite, w.window.t0, w.window, false,
                      w.signal});
  }
  for (const Access& a : sched.accesses) {
    if (a.write) continue;
    events.push_back({Event::Kind::kRead, a.window.t0, a.window, false,
                      a.signal});
  }
  for (const SrPulse& p : sched.sr_pulses) {
    switch (p.kind) {
      case SrPulse::Kind::kDeadStore:
        break;
      case SrPulse::Kind::kRestore:
        events.push_back({Event::Kind::kRestore, p.recovery, p.window, false,
                          p.signal});
        break;
      case SrPulse::Kind::kStore:
        events.push_back({Event::Kind::kStore, p.window.t0, p.window,
                          p.cut_by_gate, p.signal});
        break;
    }
  }
  std::sort(events.begin(), events.end(), [](const Event& a, const Event& b) {
    if (std::fabs(a.t - b.t) > kEps) return a.t < b.t;
    return order_rank(a.kind) < order_rank(b.kind);
  });
  return events;
}

class DataflowChecker {
 public:
  DataflowChecker(const Timeline& tl, const DataflowOptions& opt)
      : tl_(tl), opt_(opt) {}

  std::vector<Diagnostic> run(const Schedule& sched) {
    // Forward pass = least fixpoint: the event order of one schedule is
    // total, so the abstract state after each event is already its fixpoint
    // value (join() in lattice.h is what branching schedules would need).
    CellState st;
    for (const Event& e : events_of(sched)) transfer(e, st);
    return std::move(out_);
  }

 private:
  void emit(const char* rule, std::string message, const Event& e,
            const char* fallback_phase) {
    Diagnostic d;
    d.rule = rule;
    d.severity = default_severity(rule);
    d.message = std::move(message);
    if (e.signal != nullptr) {
      d.device = e.signal->name;
      d.line = e.signal->line;
    }
    d.phase = tl_.phase_at(e.t);
    if (d.phase.empty()) d.phase = fallback_phase;
    out_.push_back(std::move(d));
  }

  void transfer(const Event& e, CellState& st) {
    switch (e.kind) {
      case Event::Kind::kWrite:
        // A write re-validates the latch with a fresh generation even after
        // a loss (the new bit simply replaces whatever settled at wake-up).
        st.latch_gen = ++generation_;
        st.state = DataState::kVolatileDirty;
        last_write_t_ = e.t;
        break;

      case Event::Kind::kStore: {
        if (e.cut_by_gate) {
          // protocol-store-gate-overlap owns the malformed pulse; the NV
          // generation simply does not advance here.
          break;
        }
        if (e.window.duration() + kEps < opt_.mtj_write_pulse) {
          std::ostringstream msg;
          msg << "store pulse on '" << (e.signal ? e.signal->name : "?")
              << "' over [" << ns(e.window.t0) << ", " << ns(e.window.t1)
              << "] lasts " << ns(e.window.duration())
              << ", shorter than the " << ns(opt_.mtj_write_pulse)
              << " MTJ switching time at the configured overdrive: the CIMS "
                 "switch cannot complete, so the nonvolatile contents keep "
                 "generation "
              << gen_name(st.nv_gen) << " instead of advancing to "
              << gen_name(st.latch_gen);
          emit(rules::kDataStoreTruncated, msg.str(), e, "store");
          break;  // NV generation unchanged
        }
        if (st.nv_known() && st.nv_gen == st.latch_gen &&
            st.state != DataState::kLost) {
          std::ostringstream msg;
          msg << "store pulse on '" << (e.signal ? e.signal->name : "?")
              << "' at " << ns(e.window.t0) << " rewrites generation "
              << gen_name(st.latch_gen)
              << " that the MTJs already hold (no write since the store at "
              << ns(last_store_t_) << "): the CIMS write current is pure "
              << "energy waste";
          if (opt_.store_energy_hint > 0.0) {
            msg << " (~" << util::si_format(opt_.store_energy_hint, "J")
                << " per characterized store at this parameter point)";
          }
          emit(rules::kDataRedundantStore, msg.str(), e, "store");
        }
        st.nv_gen = st.latch_gen;
        if (st.state != DataState::kLost) st.state = DataState::kStoredClean;
        last_store_t_ = e.window.t0;
        break;
      }

      case Event::Kind::kGateOff: {
        if (st.state == DataState::kLost) break;
        const int nv = st.nv_known() ? st.nv_gen : -1;
        if (st.latch_gen > 0 && st.latch_gen > nv) {
          std::ostringstream msg;
          msg << "power gated off at " << ns(e.window.t0)
              << " while the latch holds generation "
              << gen_name(st.latch_gen) << " (written at "
              << ns(last_write_t_) << ") and the MTJs hold "
              << gen_name(nv)
              << ": the rail collapse destroys data that exists nowhere "
                 "else";
          Event attributed = e;
          attributed.signal = off_signal();
          emit(rules::kDataLostInOffWindow, msg.str(), attributed,
               "power-off");
        }
        st.lost_gen = st.latch_gen;
        st.state = DataState::kLost;
        break;
      }

      case Event::Kind::kPowerUp:
        // The recovery alone re-latches nothing; a following restore (or a
        // fresh write) must repair the LOST state.
        break;

      case Event::Kind::kRestore: {
        if (st.nv_known() && st.lost_gen >= 0 && st.nv_gen < st.lost_gen) {
          std::ostringstream msg;
          msg << "restore pulse on '" << (e.signal ? e.signal->name : "?")
              << "' at " << ns(e.window.t0) << " re-latches MTJ generation "
              << gen_name(st.nv_gen) << ", but the cell held generation "
              << gen_name(st.lost_gen)
              << " at gate-off: the cell wakes up with stale data";
          emit(rules::kDataStaleRestore, msg.str(), e, "restore");
          st.state = DataState::kStoredStale;
        } else {
          st.state = DataState::kRestored;
        }
        st.latch_gen = st.nv_known() ? st.nv_gen : 0;
        break;
      }

      case Event::Kind::kRead:
        if (st.state == DataState::kLost) {
          std::ostringstream msg;
          msg << "word line '" << (e.signal ? e.signal->name : "?")
              << "' reads the cell at " << ns(e.window.t0)
              << " while its latch state is LOST (no restore since the "
                 "gate-off destroyed generation "
              << gen_name(st.lost_gen)
              << "): the access returns whatever the core settled into at "
                 "power-up";
          emit(rules::kDataReadBeforeRestore, msg.str(), e, "active");
          // One report per loss: further reads of the same lost state add
          // no information.
          st.state = DataState::kStoredStale;
        }
        break;
    }
  }

  // Attribution signal for synthesized gate-off edges: the power gate when
  // one exists, else the collapsing rail.
  const temporal::SignalTimeline* off_signal() const {
    if (const auto* pg = tl_.find_role(temporal::SignalRole::kPowerGate)) {
      return pg;
    }
    return tl_.find_role(temporal::SignalRole::kPower);
  }

  static std::string gen_name(int gen) {
    if (gen < 0) return "(never stored)";
    if (gen == 0) return "0 (power-up contents)";
    return std::to_string(gen);
  }

  const Timeline& tl_;
  const DataflowOptions& opt_;
  std::vector<Diagnostic> out_;
  int generation_ = 0;
  double last_write_t_ = 0.0;
  double last_store_t_ = 0.0;
};

}  // namespace

DataflowOptions DataflowOptions::from_paper(const models::PaperParams& pp) {
  DataflowOptions opt;
  opt.vdd = pp.vdd;
  opt.clock_period = pp.clock_period();
  opt.mtj_write_pulse =
      required_store_pulse(pp.mtj, pp.store_current_factor, pp.store_pulse);
  return opt;
}

double DataflowOptions::required_store_pulse(const models::MTJParams& mtj,
                                             double store_current_factor,
                                             double fallback) {
  // Precessional CIMS closure (models/mtj.h): t_sw = tau0 / (I/Ic - 1) at
  // I = factor * Ic.  At or below critical the switch never completes.
  if (store_current_factor > 1.0) {
    return mtj.tau0 / (store_current_factor - 1.0);
  }
  return fallback;
}

std::vector<Diagnostic> check_dataflow(const temporal::Timeline& timeline,
                                       const DataflowOptions& options,
                                       const spice::Circuit* circuit,
                                       const spice::ParsedNetlist* netlist,
                                       const Schedule* schedule) {
  // Nothing scheduled, or nothing nonvolatile to lose: the data-* family
  // states retention properties of MTJ-backed cells only.
  if (timeline.t_stop <= 0.0 || !timeline.has_mtj) return {};
  DataflowChecker checker(timeline, options);
  if (schedule != nullptr) return checker.run(*schedule);
  return checker.run(Schedule(timeline, options.vdd, options.clock_period,
                              circuit, netlist));
}

}  // namespace nvsram::lint::dataflow
