#include "lint/linter.h"

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <unordered_set>
#include <utility>

#include "lint/dataflow/check.h"
#include "lint/graph.h"
#include "lint/power/check.h"
#include "lint/schedule.h"
#include "lint/temporal/protocol.h"
#include "lint/temporal/timeline.h"
#include "lint/temporal/units_check.h"
#include "spice/circuit.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"
#include "spice/structural_analysis.h"

namespace nvsram::lint {

namespace {

using spice::Circuit;
using spice::Device;
using spice::NodeId;
using spice::ParsedNetlist;

class Linter {
 public:
  Linter(const Circuit& circuit, const ParsedNetlist* netlist,
         const LintOptions& options, LintPasses passes)
      : circuit_(circuit), netlist_(netlist), options_(options),
        passes_(std::move(passes)) {
    // The CircuitGraph is only consumed by the structural group; skipping its
    // construction is the point of the selective entry for large flattened
    // circuits.
    if (passes_.structural) graph_.emplace(circuit);
    floating_nodes_ = std::move(passes_.preset_floating);
  }

  LintReport run() {
    if (passes_.structural) {
      check_float_nodes();
      check_dc_paths();
      check_voltage_branches();
      check_self_connected();
      check_structure();
      check_values();
      check_sram_topology();
    }
    if (netlist_ != nullptr) {
      if (passes_.cards) check_cards();
      if (passes_.probes) check_probes();
      if (passes_.temporal) check_temporal();
      if (passes_.parse) {
        for (const auto& d : netlist_->parse_diagnostics()) {
          if (!options_.enabled(d.rule)) continue;
          if (d.severity < options_.min_severity) continue;
          Diagnostic copy = d;
          stamp_instance_path(copy);
          report_.add(std::move(copy));
        }
      }
    }
    return std::move(report_);
  }

 private:
  // Source line of a device, following the "M1" -> "M1.cgs" naming of
  // helper-generated companions by stripping trailing dot segments.
  int device_line(const std::string& name) const {
    if (netlist_ == nullptr) return -1;
    std::string probe = name;
    for (;;) {
      const int line = netlist_->device_line(probe);
      if (line >= 0) return line;
      const auto dot = probe.rfind('.');
      if (dot == std::string::npos) return -1;
      probe.resize(dot);
    }
  }

  int node_line(const std::string& name) const {
    return netlist_ == nullptr ? -1 : netlist_->node_line(name);
  }

  // Findings inside flattened .subckt instances carry the hierarchical
  // instance path of their device (or node), e.g. "X3/X17" for "X3.X17.M2".
  void stamp_instance_path(Diagnostic& d) const {
    if (netlist_ == nullptr || !d.instance_path.empty()) return;
    const std::string& name = d.device.empty() ? d.node : d.device;
    if (!name.empty()) d.instance_path = netlist_->instance_path_of(name);
  }

  void emit(const char* rule, std::string message, std::string device,
            std::string node, int line) {
    if (!options_.enabled(rule)) return;
    Diagnostic d;
    d.rule = rule;
    d.severity = default_severity(rule);
    if (d.severity < options_.min_severity) return;
    d.message = std::move(message);
    d.device = std::move(device);
    d.node = std::move(node);
    d.line = line;
    stamp_instance_path(d);
    report_.add(std::move(d));
  }

  void emit_device(const char* rule, std::string message,
                   const Device& device) {
    emit(rule, std::move(message), device.name(), "",
         device_line(device.name()));
  }

  void emit_node(const char* rule, std::string message, NodeId node) {
    const std::string& name = circuit_.node_name(node);
    emit(rule, std::move(message), "", name, node_line(name));
  }

  // ---- float-node: degree-0/1 nodes --------------------------------------
  void check_float_nodes() {
    for (NodeId n = 1; n < graph_->node_count(); ++n) {
      const auto& pins = graph_->pins(n);
      if (pins.empty()) {
        emit_node(rules::kFloatNode,
                  "node '" + circuit_.node_name(n) +
                      "' is not attached to any device pin",
                  n);
        floating_nodes_.insert(circuit_.node_name(n));
      } else if (pins.size() == 1) {
        floating_nodes_.insert(circuit_.node_name(n));
        emit_node(rules::kFloatNode,
                  "node '" + circuit_.node_name(n) +
                      "' is attached to a single device pin ('" +
                      pins[0].device->name() + "' " + pins[0].role + ")",
                  n);
      }
    }
  }

  // ---- no-dc-path: DC-isolated islands, one diagnostic per island --------
  void check_dc_paths() {
    std::map<std::size_t, std::vector<NodeId>> islands;
    for (NodeId n = 1; n < graph_->node_count(); ++n) {
      if (!graph_->dc_reaches_ground(n)) {
        islands[graph_->dc_component(n)].push_back(n);
      }
    }
    for (const auto& [root, nodes] : islands) {
      (void)root;
      for (NodeId n : nodes) floating_nodes_.insert(circuit_.node_name(n));
      std::ostringstream names;
      const std::size_t shown = std::min<std::size_t>(nodes.size(), 5);
      for (std::size_t i = 0; i < shown; ++i) {
        if (i) names << ", ";
        names << '\'' << circuit_.node_name(nodes[i]) << '\'';
      }
      if (nodes.size() > shown) {
        names << " (+" << nodes.size() - shown << " more)";
      }
      int line = -1;
      for (NodeId n : nodes) {
        const int l = node_line(circuit_.node_name(n));
        if (l >= 0 && (line < 0 || l < line)) line = l;
      }
      emit(rules::kNoDcPath,
           "node" + std::string(nodes.size() > 1 ? "s " : " ") + names.str() +
               " ha" + (nodes.size() > 1 ? "ve" : "s") +
               " no DC conduction path to ground (capacitors and current "
               "sources are open at DC); the MNA operating point is singular",
           "", circuit_.node_name(nodes.front()), line);
    }
  }

  // ---- vsource-shorted / vsource-loop ------------------------------------
  void check_voltage_branches() {
    for (const auto& dev : circuit_.devices()) {
      const auto vb = dev->voltage_branch();
      if (vb && vb->first == vb->second) {
        emit_device(rules::kVsourceShorted,
                    "voltage-defined branch '" + dev->name() +
                        "' has both terminals on node '" +
                        circuit_.node_name(vb->first) +
                        "'; its branch equation is unsatisfiable",
                    *dev);
      }
    }
    for (const Device* dev : graph_->voltage_loop_closers()) {
      emit_device(rules::kVsourceLoop,
                  "voltage-defined branch '" + dev->name() +
                      "' closes a loop of voltage sources (parallel or "
                      "cyclic); the MNA matrix is singular",
                  *dev);
    }
  }

  // ---- self-connected ----------------------------------------------------
  void check_self_connected() {
    for (const auto& dev : circuit_.devices()) {
      if (dev->voltage_branch()) continue;  // vsource-shorted covers these
      if (const auto* fet =
              spice::device_cast<spice::FinFETElement>(dev.get())) {
        if (fet->drain() == fet->source()) {
          emit_device(rules::kSelfConnected,
                      "FET '" + dev->name() +
                          "' has drain and source on the same node; the "
                          "channel can never conduct",
                      *dev);
        }
        continue;
      }
      const auto terms = dev->terminals();
      if (terms.size() == 2 && terms[0].node == terms[1].node) {
        emit_device(rules::kSelfConnected,
                    "device '" + dev->name() +
                        "' has both terminals on node '" +
                        circuit_.node_name(terms[0].node) +
                        "'; its stamps cancel and it carries no signal",
                    *dev);
      }
    }
  }


  // ---- structural-singular / dangling-branch-equation / disconnected-block
  // Symbolic MNA analysis of the DC stamp pattern (gmin excluded: it would
  // put every node diagonal in the pattern and mask exactly these defects).
  void check_structure() {
    if (!options_.enabled(rules::kStructuralSingular) &&
        !options_.enabled(rules::kDanglingBranchEquation) &&
        !options_.enabled(rules::kDisconnectedBlock)) {
      return;
    }
    const spice::StructuralReport rep =
        spice::analyze_structure(circuit_, /*dc=*/true);
    constexpr std::size_t kMaxPerCategory = 8;

    std::unordered_set<std::string> dangling_unknowns;
    for (const auto& db : rep.dangling_branches) {
      dangling_unknowns.insert(db.unknown);
      const char* what = db.empty_row && db.empty_col ? "row and column"
                         : db.empty_row              ? "row"
                                                     : "column";
      emit(rules::kDanglingBranchEquation,
           "branch equation " + db.unknown + " of device '" + db.device +
               "' has an empty matrix " + std::string(what) +
               "; the branch current is structurally undetermined",
           db.device, "", device_line(db.device));
    }

    auto emit_defect = [&](const spice::StructuralDefect& d, bool equation) {
      if (dangling_unknowns.count(d.unknown)) return;  // reported above
      // A node no device touches is already reported (with better context)
      // by float-node / no-dc-path; repeating it here would double-report
      // every declared-but-unused node.
      if (!d.node.empty() && d.devices.empty()) return;
      std::ostringstream msg;
      msg << (equation ? "equation of " : "unknown ") << d.unknown
          << (equation
                  ? " can never be pivoted (no unknown left to solve it for)"
                  : " is structurally undetermined (no equation can be "
                    "solved for it)");
      if (!d.devices.empty()) {
        msg << "; devices touching it:";
        const std::size_t shown =
            std::min<std::size_t>(d.devices.size(), kMaxPerCategory);
        for (std::size_t i = 0; i < shown; ++i) msg << " '" << d.devices[i] << "'";
        if (d.devices.size() > shown) {
          msg << " (+" << d.devices.size() - shown << " more)";
        }
      }
      msg << "; the MNA matrix is singular for every device value";
      const std::string device = d.devices.empty() ? "" : d.devices.front();
      int line = d.node.empty() ? -1 : node_line(d.node);
      if (line < 0 && !device.empty()) line = device_line(device);
      emit(rules::kStructuralSingular, msg.str(), device, d.node, line);
    };
    std::size_t emitted = 0;
    for (const auto& d : rep.undetermined_unknowns) {
      if (emitted >= kMaxPerCategory) break;
      emit_defect(d, /*equation=*/false);
      ++emitted;
    }
    emitted = 0;
    for (const auto& d : rep.unsolvable_equations) {
      if (emitted >= kMaxPerCategory) break;
      emit_defect(d, /*equation=*/true);
      ++emitted;
    }

    for (const auto& block : rep.floating_blocks) {
      // "V(name)" unknowns name the member nodes; power-domain-floating
      // skips rails already covered by this block diagnostic.
      for (const auto& unk : block.unknowns) {
        if (unk.size() > 3 && unk.compare(0, 2, "V(") == 0 &&
            unk.back() == ')') {
          floating_nodes_.insert(unk.substr(2, unk.size() - 3));
        }
      }
      std::ostringstream msg;
      msg << "equation block {";
      const std::size_t shown =
          std::min<std::size_t>(block.unknowns.size(), 5);
      for (std::size_t i = 0; i < shown; ++i) {
        if (i) msg << ", ";
        msg << block.unknowns[i];
      }
      if (block.unknowns.size() > shown) {
        msg << ", +" << block.unknowns.size() - shown << " more";
      }
      msg << "} has no ground reference; its KCL rows sum to zero and the "
             "block is numerically singular without gmin";
      const std::string device =
          block.devices.empty() ? "" : block.devices.front();
      int line = -1;
      for (const auto& dev : block.devices) {
        const int l = device_line(dev);
        if (l >= 0 && (line < 0 || l < line)) line = l;
      }
      emit(rules::kDisconnectedBlock, msg.str(), device, "", line);
    }
  }

  // ---- nonphysical-value -------------------------------------------------
  void check_values() {
    for (const auto& dev : circuit_.devices()) {
      if (const auto* r = spice::device_cast<spice::Resistor>(dev.get())) {
        check_positive(*dev, "resistance", r->resistance());
      } else if (const auto* c =
                     spice::device_cast<spice::Capacitor>(dev.get())) {
        check_positive(*dev, "capacitance", c->capacitance());
      } else if (const auto* fet =
                     spice::device_cast<spice::FinFETElement>(dev.get())) {
        const auto& p = fet->model().params();
        check_positive(*dev, "fin count", static_cast<double>(p.fin_count));
        check_positive(*dev, "channel length", p.channel_length);
      } else if (const auto* mtj =
                     spice::device_cast<spice::MTJElement>(dev.get())) {
        const auto& p = mtj->model().params();
        check_positive(*dev, "tau0", p.tau0);
        check_positive(*dev, "diameter", p.diameter);
      } else if (const auto* diode =
                     spice::device_cast<spice::Diode>(dev.get())) {
        check_positive(*dev, "saturation current",
                       diode->saturation_current());
      }
    }
  }

  void check_positive(const Device& dev, const char* what, double value) {
    if (value > 0.0) return;
    std::ostringstream msg;
    msg << "device '" << dev.name() << "' has non-physical " << what << " "
        << value << " (must be > 0)";
    emit_device(rules::kNonphysicalValue, msg.str(), dev);
  }

  // ---- paper-specific topology -------------------------------------------
  void check_sram_topology() {
    std::vector<const spice::FinFETElement*> fets;
    std::vector<const spice::MTJElement*> mtjs;
    for (const auto& dev : circuit_.devices()) {
      if (const auto* f =
              spice::device_cast<spice::FinFETElement>(dev.get())) {
        fets.push_back(f);
      } else if (const auto* m =
                     spice::device_cast<spice::MTJElement>(dev.get())) {
        mtjs.push_back(m);
      }
    }

    // mtj-orientation: in the paper's Fig. 2 store branch the MTJ *free*
    // layer faces the FET (storage-node) side.  A pinned layer on a channel
    // node with the free layer elsewhere means the store current polarity is
    // inverted relative to the data being stored.
    std::unordered_set<NodeId> channel_nodes;
    for (const auto* f : fets) {
      channel_nodes.insert(f->drain());
      channel_nodes.insert(f->source());
    }
    for (const auto* m : mtjs) {
      if (channel_nodes.count(m->pinned_node()) &&
          !channel_nodes.count(m->free_node())) {
        emit_device(
            rules::kMtjOrientation,
            "MTJ '" + m->name() +
                "' has its pinned layer on the FET store branch and its "
                "free layer elsewhere; the paper's topology puts the free "
                "layer on the storage-node side (store polarity inverted)",
            *m);
      }
    }

    // sram-cross-coupling: a full NV-SRAM cell (>= 2 MTJs, >= 6 FETs) must
    // contain at least one cross-coupled inverter pair: two FETs where each
    // gate is the other's drain.
    if (mtjs.size() >= 2 && fets.size() >= 6) {
      bool coupled = false;
      for (std::size_t i = 0; i < fets.size() && !coupled; ++i) {
        for (std::size_t j = i + 1; j < fets.size() && !coupled; ++j) {
          coupled = fets[i]->gate() == fets[j]->drain() &&
                    fets[j]->gate() == fets[i]->drain() &&
                    fets[i]->gate() != fets[i]->drain();
        }
      }
      if (!coupled) {
        emit(rules::kSramCrossCoupling,
             "circuit carries " + std::to_string(mtjs.size()) +
                 " MTJ retention devices and " + std::to_string(fets.size()) +
                 " FETs but no cross-coupled inverter pair; the 6T storage "
                 "core appears mis-wired",
             "", "", -1);
      }
    }
  }

  // ---- protocol-* / units-* / power-* / data-*: schedule passes ---------
  // Timeline extraction and the protocol state machine live in
  // lint/temporal/; here we only run them over the parsed netlist and filter
  // through the shared enable/severity options.  The timeline and the
  // schedule (off windows, accesses, SR pulses, the domain map and its
  // power state) are derived once here and shared by every pass below.
  void check_temporal() {
    const temporal::Timeline timeline = temporal::extract_timeline(*netlist_);
    temporal::TemporalOptions topt;
    // The deck's own rail, by the rule its power state uses.
    topt.vdd = timeline.nominal_rail();
    if (const auto& arch = netlist_->arch_annotation()) {
      // Validated at parse time; unknown values never reach the linter.
      if (auto a = temporal::arch_from_string(*arch)) topt.arch = *a;
    }
    const Schedule schedule(timeline, topt.vdd, topt.clock_period, &circuit_,
                            netlist_);
    add_filtered(temporal::check_timeline(timeline, topt, &schedule));
    add_filtered(temporal::check_netlist_units(*netlist_, timeline));
    // The structural passes above fill floating_nodes_ first, so the
    // power-domain-floating rule dedupes against float-node / no-dc-path /
    // disconnected-block instead of double-reporting one defect.
    power::PowerCheckOptions power_options;
    power_options.already_reported_floating = floating_nodes_;
    add_filtered(power::check_power(circuit_, timeline, netlist_,
                                    power_options, &schedule));
    // Retention-state dataflow: abstract interpretation of the per-cell
    // latch/MTJ generation state (lint/dataflow/) over the same schedule.
    add_filtered(dataflow::check_dataflow(timeline, {}, &circuit_, netlist_,
                                          &schedule));
  }

  void add_filtered(std::vector<Diagnostic> diags) {
    for (auto& d : diags) {
      if (!options_.enabled(d.rule)) continue;
      if (d.severity < options_.min_severity) continue;
      stamp_instance_path(d);
      report_.add(std::move(d));
    }
  }

  // ---- card-unresolved ---------------------------------------------------
  void check_cards() {
    if (const auto& dc = netlist_->dc_card()) {
      Device* src = circuit_.find_device(dc->source);
      if (src == nullptr) {
        emit(rules::kCardUnresolved,
             ".dc sweeps unknown source '" + dc->source + "'", dc->source, "",
             -1);
      } else if (spice::device_cast<spice::VSource>(src) == nullptr &&
                 spice::device_cast<spice::ISource>(src) == nullptr) {
        emit(rules::kCardUnresolved,
             ".dc source '" + dc->source + "' is not an independent V/I "
             "source",
             dc->source, "", device_line(dc->source));
      }
    }
  }

  // ---- probe-unresolved --------------------------------------------------
  // A device probe belongs to this circuit when its device is the one the
  // circuit holds under that name (device names are unique).
  void check_probes() {
    for (const auto& probe : netlist_->probes()) {
      if (probe.kind == spice::Probe::Kind::kNodeVoltage) {
        if (probe.node >= circuit_.node_count()) {
          emit(rules::kProbeUnresolved,
               "probe '" + probe.label +
                   "' references a node outside this circuit",
               "", "", -1);
        }
      } else if (probe.device == nullptr ||
                 circuit_.find_device(probe.device->name()) != probe.device) {
        emit(rules::kProbeUnresolved,
             "probe '" + probe.label +
                 "' references a device that is not part of this circuit",
             "", "", -1);
      }
    }
  }

  const Circuit& circuit_;
  const ParsedNetlist* netlist_;
  const LintOptions& options_;
  LintPasses passes_;
  std::optional<CircuitGraph> graph_;
  LintReport report_;
  // Nodes already reported floating by the structural passes (float-node,
  // no-dc-path, disconnected-block); consumed by the power pass for dedupe.
  std::unordered_set<std::string> floating_nodes_;
};

}  // namespace

LintReport lint_circuit(const Circuit& circuit, const LintOptions& options) {
  return Linter(circuit, nullptr, options, LintPasses{}).run();
}

LintReport lint_netlist(const ParsedNetlist& netlist,
                        const LintOptions& options) {
  return Linter(netlist.circuit(), &netlist, options, LintPasses{}).run();
}

LintReport lint_netlist_passes(const ParsedNetlist& netlist,
                               const LintOptions& options, LintPasses passes) {
  return Linter(netlist.circuit(), &netlist, options, std::move(passes)).run();
}

LintReport lint_netlist_hier(const ParsedNetlist& netlist,
                             const LintOptions& options) {
  return lint_netlist(netlist, options);
}

}  // namespace nvsram::lint
