#include "lint/power/check.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <set>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <utility>

#include "lint/rules.h"
#include "spice/circuit.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/netlist_parser.h"
#include "util/units.h"

namespace nvsram::lint::power {

namespace {

using spice::Circuit;
using spice::Device;
using spice::FinFETElement;
using spice::NodeId;
using spice::ParsedNetlist;
using spice::VSource;
using temporal::Timeline;
using temporal::Window;

constexpr double kEdgeEps = 1e-12;  // 1 ps: settle margin around edges

std::string ns(double t) { return util::si_format(t, "s"); }

// Conduction state of one channel/branch edge at a concrete sample time.
enum class Conduct { kOff, kOn, kMaybe };

class PowerChecker {
 public:
  PowerChecker(const Circuit& circuit, const Timeline& timeline,
               const ParsedNetlist* netlist, const DomainMap& domains,
               const PowerCheckOptions& options)
      : ckt_(circuit), tl_(timeline), nl_(netlist), map_(domains),
        opt_(options) {}

  std::vector<Diagnostic> run() {
    const bool gated = map_.any_gated();
    index_devices(/*dc_edges=*/gated);
    check_domain_annotations();
    if (gated) {
      state_ = compute_power_state(map_, tl_, opt_.state);
      check_wordline_in_off_window();
      check_sneak_paths();
      check_missing_isolation();
      check_shared_rail_conflicts();
    }
    return std::move(out_);
  }

 private:
  // ---- shared helpers -------------------------------------------------------

  void emit(const char* rule, std::string message, std::string device,
            std::string node, int line, std::string phase) {
    Diagnostic d;
    d.rule = rule;
    d.severity = default_severity(rule);
    d.message = std::move(message);
    d.device = std::move(device);
    d.node = std::move(node);
    d.line = line;
    d.phase = std::move(phase);
    out_.push_back(std::move(d));
  }

  // Phase covering `t`; netlist-only timelines carry no phase spans, so the
  // synthetic "power-off" phase keeps the attribution meaningful.
  std::string phase_at(double t) const {
    std::string p = tl_.phase_at(t);
    return p.empty() ? std::string("power-off") : p;
  }

  int line_of_device(const std::string& name) const {
    return nl_ != nullptr ? nl_->device_line(name) : -1;
  }

  // One pass over the devices: the source holding each node, the FETs in
  // device order and, for the sneak-path walk, every DC edge that is not a
  // source's, in device order.  Then the timeline signal of each held node
  // (the first of that name, as a scan of the signal list finds it).
  void index_devices(bool dc_edges) {
    const std::size_t n = ckt_.node_count();
    source_of_.assign(n, nullptr);
    for (const auto& dev : ckt_.devices()) {
      if (const auto* src = spice::device_cast<VSource>(dev.get())) {
        const auto terms = src->terminals();
        if (!terms.empty() && terms.front().node != spice::kGround) {
          source_of_[terms.front().node] = src;
        }
        continue;
      }
      const auto* fet = spice::device_cast<FinFETElement>(dev.get());
      if (fet != nullptr) fets_.push_back(fet);
      if (!dc_edges) continue;
      if (dev->voltage_branch()) continue;  // statically unknown pinned level
      for (const auto& [a, b] : dev->dc_paths()) {
        if (fet != nullptr) fet_edges_.push_back(edges_.size());
        edges_.push_back({a, b, dev.get(), fet});
      }
    }
    std::unordered_map<std::string_view, const temporal::SignalTimeline*>
        signal_named;
    for (const auto& sig : tl_.signals) signal_named.emplace(sig.name, &sig);
    signal_of_.assign(n, nullptr);
    for (NodeId node = 0; node < n; ++node) {
      if (source_of_[node] == nullptr) continue;
      const auto it = signal_named.find(source_of_[node]->name());
      if (it != signal_named.end()) signal_of_[node] = it->second;
    }
  }

  bool held(NodeId n) const {
    return n == spice::kGround || source_of_[n] != nullptr;
  }

  // Scheduled level of a held node.  The timeline is authoritative: a
  // testbench freezes its PWL specs into the sources only at run() time, so
  // the Track-exported signal is the schedule while VSource::value(t) may
  // still read a stale DC spec.  Sources absent from the timeline fall back
  // to their own waveform.
  double held_level(NodeId n, double t) const {
    if (n == spice::kGround) return 0.0;
    if (signal_of_[n] != nullptr) return signal_of_[n]->level_at(t);
    return source_of_[n]->value(t);
  }

  // Gated domain (off at t) a node belongs to; -1 when none.
  int off_domain_at(NodeId n, double t) const {
    const int d = map_.domain_of(n);
    if (d < 0 || map_.domains[static_cast<std::size_t>(d)].kind !=
                     DomainKind::kGated) {
      return -1;
    }
    return state_.of(d).off_at(t) ? d : -1;
  }

  // ---- power-domain-floating (+ card resolution) ----------------------------
  // `.domain` cards pin the designer's intent; extraction must agree.  A
  // declared-gated rail with no supply path, or one wired straight into an
  // always-on domain with no PS device in between, defeats the architecture.
  void check_domain_annotations() {
    if (nl_ == nullptr) return;
    for (const DomainAnnotation& ann : nl_->domain_annotations()) {
      if (!ckt_.has_node(ann.node)) {
        emit(rules::kCardUnresolved,
             ".domain names unknown node '" + ann.node + "'", "", ann.node,
             ann.line, "");
        continue;
      }
      const NodeId rail = ckt_.find_node(ann.node);
      const int d = map_.domain_of(rail);
      if (ann.gated) {
        if (d < 0) {
          // Same node already reported by float-node / no-dc-path /
          // disconnected-block => one diagnostic is enough.
          if (opt_.already_reported_floating.count(ann.node)) continue;
          emit(rules::kPowerDomainFloating,
               "declared gated domain '" + ann.name + "' rail '" + ann.node +
                   "' is not reachable from any supply source",
               "", ann.node, ann.line, "");
        } else if (map_.domains[static_cast<std::size_t>(d)].kind ==
                   DomainKind::kAlwaysOn) {
          emit(rules::kPowerDomainFloating,
               "declared gated domain '" + ann.name + "' rail '" + ann.node +
                   "' has no power switch on its supply path (it is wired "
                   "into always-on domain '" +
                   map_.domains[static_cast<std::size_t>(d)].name + "')",
               "", ann.node, ann.line, "");
        }
      } else if (d >= 0 && map_.domains[static_cast<std::size_t>(d)].kind ==
                               DomainKind::kGated) {
        emit(rules::kPowerDomainFloating,
             "domain '" + ann.name + "' rail '" + ann.node +
                 "' is declared always-on but sits behind power switch '" +
                 map_.domains[static_cast<std::size_t>(d)]
                     .switches.front()
                     .fet->name() +
                 "'",
             "", ann.node, ann.line, "");
      }
    }
  }

  // ---- power-wl-in-off-window ----------------------------------------------
  // A word line opening access transistors into a collapsed domain reads or
  // writes garbage and burns crowbar current through half-down inverters.
  void check_wordline_in_off_window() {
    const std::vector<const temporal::SignalTimeline*> wordlines =
        tl_.with_role(temporal::SignalRole::kWordline);
    if (wordlines.empty()) return;

    // The node each word line drives, matched through the source name, and
    // the FETs each of those nodes gates, in device order: two indexes
    // built once, so no node or device scan runs per word line.
    std::unordered_map<std::string_view, NodeId> node_driven_by;
    for (NodeId n = 1; n < map_.driven_by.size(); ++n) {
      if (!map_.driven_by[n].empty()) {
        node_driven_by.emplace(map_.driven_by[n], n);
      }
    }
    std::vector<NodeId> wl_nodes(wordlines.size(), spice::kGround);
    std::unordered_map<NodeId, std::vector<const FinFETElement*>> gated_by;
    for (std::size_t i = 0; i < wordlines.size(); ++i) {
      const auto it = node_driven_by.find(wordlines[i]->name);
      if (it == node_driven_by.end()) continue;
      wl_nodes[i] = it->second;
      gated_by[it->second];  // an entry, filled below
    }
    for (const FinFETElement* fet : fets_) {
      const auto it = gated_by.find(fet->gate());
      if (it != gated_by.end()) it->second.push_back(fet);
    }

    for (std::size_t i = 0; i < wordlines.size(); ++i) {
      const temporal::SignalTimeline* wl = wordlines[i];
      const NodeId wl_node = wl_nodes[i];
      if (wl_node == spice::kGround) continue;
      const std::vector<Window> high =
          wl->windows_above(state_.threshold, tl_.t_stop);
      if (high.empty()) continue;

      std::set<int> reported;
      for (const FinFETElement* fet : gated_by[wl_node]) {
        for (NodeId ch : {fet->drain(), fet->source()}) {
          const int d = map_.domain_of(ch);
          if (d < 0 || map_.domains[static_cast<std::size_t>(d)].kind !=
                           DomainKind::kGated) {
            continue;
          }
          if (!reported.insert(d).second) continue;
          const std::vector<Window> bad =
              windows_intersect(high, state_.of(d).off);
          if (bad.empty()) continue;
          const Window& w = bad.front();
          emit(rules::kPowerWlInOffWindow,
               "word line '" + wl->name + "' asserts during " + ns(w.t0) +
                   ".." + ns(w.t1) + " while power domain '" +
                   map_.domains[static_cast<std::size_t>(d)].name +
                   "' is gated off; access device '" + fet->name() +
                   "' opens into a collapsed rail",
               fet->name(), ckt_.node_name(wl_node),
               wl->line >= 0 ? wl->line : line_of_device(wl->name),
               phase_at(0.5 * (w.t0 + w.t1)));
        }
      }
    }
  }

  // ---- power-sneak-path -----------------------------------------------------
  // The whole point of gating is to cut DC paths through the cell.  At
  // concrete sample times inside each off window we walk the conduction
  // graph between externally held nets (sources, ground); any surviving path
  // whose interior crosses the collapsed domain is leakage the PS switch was
  // supposed to eliminate (e.g. a bypass resistor around the header).
  void check_sneak_paths() {
    const double min_delta = opt_.sneak_delta_fraction * state_.vdd;
    std::set<std::string> reported;
    index_arcs();
    for (const PowerDomain& d : map_.domains) {
      if (d.kind != DomainKind::kGated) continue;
      for (double t : sample_times(state_.of(d.id).off)) {
        walk_conduction_graph(t, min_delta, reported);
      }
    }
  }

  std::vector<double> sample_times(const std::vector<Window>& off) const {
    std::vector<double> ts;
    for (const Window& w : off) {
      ts.push_back(w.t0 + kEdgeEps);
      ts.push_back(0.5 * (w.t0 + w.t1));
      ts.push_back(w.t1 - kEdgeEps);
      // Signal corners inside the window: levels change there, so a path
      // blocked at the midpoint may conduct just after an edge.
      for (const auto& sig : tl_.signals) {
        for (const temporal::Transition& tr : sig.transitions) {
          if (tr.t1 + kEdgeEps > w.t0 && tr.t1 + kEdgeEps < w.t1) {
            ts.push_back(tr.t1 + kEdgeEps);
          }
        }
      }
    }
    std::sort(ts.begin(), ts.end());
    ts.erase(std::unique(ts.begin(), ts.end()), ts.end());
    if (ts.size() > 64) ts.resize(64);  // plenty for any schedule here
    return ts;
  }

  Conduct fet_conducts(const FinFETElement& fet, double t) const {
    const NodeId g = fet.gate();
    if (source_of_[g] == nullptr) return Conduct::kMaybe;  // level unknown
    const double level = held_level(g, t);
    const bool pmos =
        fet.model().params().type == models::FetType::kPmos;
    const bool on = pmos ? level < state_.threshold : level >= state_.threshold;
    return on ? Conduct::kOn : Conduct::kOff;
  }

  // The conduction graph, built once per check from the DC edges
  // index_devices() collected: each node's arcs in edge order, which is
  // the order per-node adjacency lists filled device by device hold them,
  // so every walk visits neighbours in the same order at every instant.
  // An instant only re-filters the FET edges, by gate level.
  void index_arcs() {
    const std::size_t n = ckt_.node_count();
    arcs_begin_.assign(n + 1, 0);
    for (const DcEdge& e : edges_) {
      ++arcs_begin_[e.a + 1];
      ++arcs_begin_[e.b + 1];
    }
    for (std::size_t i = 0; i < n; ++i) arcs_begin_[i + 1] += arcs_begin_[i];
    arcs_.resize(arcs_begin_[n]);
    std::vector<std::size_t> fill(arcs_begin_.begin(), arcs_begin_.end() - 1);
    for (std::size_t i = 0; i < edges_.size(); ++i) {
      arcs_[fill[edges_[i].a]++] = {edges_[i].b, i};
      arcs_[fill[edges_[i].b]++] = {edges_[i].a, i};
    }
    blocked_.assign(edges_.size(), false);
    for (NodeId node = 0; node < n; ++node) {
      if (held(node)) held_nodes_.push_back(node);
    }
    parent_.assign(n, 0);
    via_.assign(n, nullptr);
    seen_.assign(n, 0);
  }

  void walk_conduction_graph(double t, double min_delta,
                             std::set<std::string>& reported) {
    for (std::size_t i : fet_edges_) {
      blocked_[i] = fet_conducts(*edges_[i].fet, t) == Conduct::kOff;
    }
    for (NodeId start : held_nodes_) {
      // Parent-edge BFS from one held net through undriven interior nodes.
      // One epoch per walk: parent_/via_ are read only for nodes seen in it.
      ++epoch_;
      seen_[start] = epoch_;
      queue_.assign(1, start);
      for (std::size_t qi = 0; qi < queue_.size(); ++qi) {
        const NodeId at = queue_[qi];
        for (std::size_t k = arcs_begin_[at]; k < arcs_begin_[at + 1]; ++k) {
          const Arc& arc = arcs_[k];
          if (blocked_[arc.edge] || seen_[arc.to] == epoch_) continue;
          const Device* dev = edges_[arc.edge].dev;
          if (held(arc.to)) {
            report_sneak_path(start, at, arc.to, dev, t, min_delta, reported);
            continue;
          }
          seen_[arc.to] = epoch_;
          parent_[arc.to] = at;
          via_[arc.to] = dev;
          queue_.push_back(arc.to);
        }
      }
    }
  }

  void report_sneak_path(NodeId start, NodeId last_interior, NodeId end,
                         const Device* final_dev, double t, double min_delta,
                         std::set<std::string>& reported) {
    // Report each conducting pair once, from its high-potential side.
    const double v0 = held_level(start, t);
    const double v1 = held_level(end, t);
    if (v0 - v1 < min_delta) return;

    // Path interior start -> end; must cross a gated-off domain.
    std::vector<NodeId> interior;
    for (NodeId at = last_interior; at != start; at = parent_[at]) {
      interior.push_back(at);
    }
    std::reverse(interior.begin(), interior.end());
    int off_dom = -1;
    for (NodeId node : interior) {
      off_dom = off_domain_at(node, t);
      if (off_dom >= 0) break;
    }
    if (off_dom < 0) return;
    const PowerDomain& dom = map_.domains[static_cast<std::size_t>(off_dom)];

    const std::string key = dom.name + "|" + ckt_.node_name(start) + "|" +
                            ckt_.node_name(end);
    if (!reported.insert(key).second) return;

    bool maybe = false;
    std::ostringstream path;
    path << ckt_.node_name(start);
    const Device* first_dev = interior.empty() ? final_dev : via_[interior[0]];
    for (NodeId node : interior) {
      const auto* fet = spice::device_cast<FinFETElement>(via_[node]);
      if (fet != nullptr && fet_conducts(*fet, t) == Conduct::kMaybe) {
        maybe = true;
      }
      path << " -> " << ckt_.node_name(node);
    }
    if (const auto* fet = spice::device_cast<FinFETElement>(final_dev)) {
      if (fet_conducts(*fet, t) == Conduct::kMaybe) maybe = true;
    }
    path << " -> " << ckt_.node_name(end);

    std::ostringstream msg;
    msg << "sneak path " << path.str() << (maybe ? " may conduct" : " conducts")
        << " at " << ns(t) << " while power domain '" << dom.name
        << "' is gated off (" << util::si_format(v0 - v1, "V")
        << " across it); the power switch does not cut this leakage";
    emit(rules::kPowerSneakPath, msg.str(),
         first_dev != nullptr ? first_dev->name() : "",
         ckt_.node_name(dom.rail),
         first_dev != nullptr ? line_of_device(first_dev->name()) : -1,
         phase_at(t));
  }

  // ---- power-missing-isolation ---------------------------------------------
  // When a domain powers down, its internal nodes float toward mid-rail; any
  // gate they drive in a still-powered domain then conducts crowbar current.
  // Real designs clamp such crossings with isolation cells — here that means
  // the receiver must be gated at least as hard as the driver.
  void check_missing_isolation() {
    for (const FinFETElement* fet : fets_) {
      const NodeId g = fet->gate();
      const int dg = map_.domain_of(g);
      if (dg < 0 || map_.domains[static_cast<std::size_t>(dg)].kind !=
                        DomainKind::kGated) {
        continue;
      }
      const DomainSchedule& driver = state_.of(dg);
      if (driver.off.empty()) continue;  // gating never proven => stay quiet

      for (NodeId ch : {fet->drain(), fet->source()}) {
        if (ch == spice::kGround) continue;
        const int dc = map_.domain_of(ch);
        if (dc == dg) continue;  // same island powers down together
        std::vector<Window> exposed;
        if (dc >= 0 && map_.domains[static_cast<std::size_t>(dc)].kind ==
                           DomainKind::kGated) {
          // Receiver is gated too: exposed only while the driver is off but
          // the receiver still up.
          exposed = windows_subtract(driver.off, state_.of(dc).off);
        } else if (dc >= 0 || source_of_[ch] != nullptr) {
          exposed = driver.off;  // always-on domain or driven net: always up
        }
        if (exposed.empty()) continue;
        const Window& w = exposed.front();
        emit(rules::kPowerMissingIsolation,
             "gate of '" + fet->name() + "' is driven from node '" +
                 ckt_.node_name(g) + "' in power domain '" +
                 map_.domains[static_cast<std::size_t>(dg)].name +
                 "', which floats when the domain gates off at " + ns(w.t0) +
                 " while the channel at '" + ckt_.node_name(ch) +
                 "' stays powered; add an isolation clamp",
             fet->name(), ckt_.node_name(g), line_of_device(fet->name()),
             phase_at(w.t0));
        break;  // one diagnostic per receiver device
      }
    }
  }

  // ---- power-shared-rail-conflict ------------------------------------------
  // Two PS devices feeding one virtual rail must gate together; differing
  // schedules mean the rail is up whenever EITHER switch conducts, so the
  // stricter gate buys no retention-mode leakage saving.
  void check_shared_rail_conflicts() {
    for (const PowerDomain& d : map_.domains) {
      if (d.kind != DomainKind::kGated || d.switches.size() < 2) continue;
      const DomainSchedule& sched = state_.of(d.id);
      for (std::size_t i = 1; i < d.switches.size(); ++i) {
        if (d.switches[i].gate_signal == d.switches[0].gate_signal) continue;
        if (same_windows(sched.switch_off[0], sched.switch_off[i])) continue;
        const PowerSwitch& a = d.switches[0];
        const PowerSwitch& b = d.switches[i];
        emit(rules::kPowerSharedRailConflict,
             "power switches '" + a.fet->name() + "' (gate '" +
                 a.gate_signal + "') and '" + b.fet->name() + "' (gate '" +
                 b.gate_signal + "') feed the same virtual rail '" +
                 ckt_.node_name(d.rail) +
                 "' with different gating schedules; the rail stays up "
                 "whenever either switch conducts",
             b.fet->name(), ckt_.node_name(d.rail),
             line_of_device(b.fet->name()),
             sched.switch_off[i].empty() ? ""
                                         : phase_at(sched.switch_off[i]
                                                        .front()
                                                        .t0));
      }
    }
  }

  static bool same_windows(const std::vector<Window>& a,
                           const std::vector<Window>& b) {
    if (a.size() != b.size()) return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
      if (std::abs(a[i].t0 - b[i].t0) > kEdgeEps ||
          std::abs(a[i].t1 - b[i].t1) > kEdgeEps) {
        return false;
      }
    }
    return true;
  }

  const Circuit& ckt_;
  const Timeline& tl_;
  const ParsedNetlist* nl_;
  const DomainMap& map_;
  const PowerCheckOptions& opt_;

  PowerState state_;
  std::vector<const VSource*> source_of_;  // NodeId -> driving source
  std::vector<const temporal::SignalTimeline*> signal_of_;  // NodeId -> track
  std::vector<const FinFETElement*> fets_;  // device order

  // Conduction graph of the sneak-path walk (index_devices, index_arcs).
  struct DcEdge {
    NodeId a;
    NodeId b;
    const Device* dev;
    const FinFETElement* fet;  // nullptr: always conducts
  };
  struct Arc {
    NodeId to;
    std::size_t edge;
  };
  std::vector<DcEdge> edges_;
  std::vector<std::size_t> fet_edges_;
  std::vector<std::size_t> arcs_begin_;  // NodeId -> first arc; size n + 1
  std::vector<Arc> arcs_;
  std::vector<bool> blocked_;  // per edge, at the current instant
  std::vector<NodeId> held_nodes_;
  // BFS scratch shared by every walk; seen_[n] == epoch_ marks a node the
  // current walk reached.
  std::vector<NodeId> parent_;
  std::vector<const Device*> via_;
  std::vector<std::uint32_t> seen_;
  std::uint32_t epoch_ = 0;
  std::vector<NodeId> queue_;

  std::vector<Diagnostic> out_;
};

}  // namespace

std::vector<Diagnostic> check_power(const Circuit& circuit,
                                    const Timeline& timeline,
                                    const ParsedNetlist* netlist,
                                    const PowerCheckOptions& options,
                                    const DomainMap* domains) {
  if (domains != nullptr) {
    return PowerChecker(circuit, timeline, netlist, *domains, options).run();
  }
  const DomainMap extracted = extract_domains(circuit, netlist);
  return PowerChecker(circuit, timeline, netlist, extracted, options).run();
}

}  // namespace nvsram::lint::power
