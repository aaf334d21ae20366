#include "lint/power/domain.h"

#include <algorithm>
#include <cctype>
#include <deque>
#include <sstream>

#include "lint/temporal/role.h"
#include "spice/circuit.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/netlist_parser.h"

namespace nvsram::lint::power {

namespace {

using spice::Circuit;
using spice::Device;
using spice::FinFETElement;
using spice::NodeId;
using spice::ParsedNetlist;
using spice::VSource;
using temporal::SignalRole;

// Protocol role of an independent source: `.role` annotation first, name
// heuristics second (same priority order the temporal pass uses).
SignalRole source_role(const VSource& src, const std::string& driven_node,
                       const ParsedNetlist* netlist) {
  if (netlist != nullptr) {
    if (const std::string* annotated = netlist->role_annotation(src.name())) {
      return temporal::role_from_string(*annotated).value_or(SignalRole::kOther);
    }
  }
  return temporal::classify_role(src.name(), driven_node);
}

struct Edge {
  NodeId to;
  const Device* via;
};

}  // namespace

const char* to_string(DomainKind kind) {
  return kind == DomainKind::kAlwaysOn ? "always-on" : "gated";
}

bool DomainMap::any_gated() const {
  return std::any_of(domains.begin(), domains.end(), [](const PowerDomain& d) {
    return d.kind == DomainKind::kGated;
  });
}

const PowerDomain* DomainMap::find(const std::string& name) const {
  for (const PowerDomain& d : domains) {
    if (d.name == name) return &d;
  }
  return nullptr;
}

std::string DomainMap::describe(const Circuit& circuit) const {
  std::ostringstream os;
  for (const PowerDomain& d : domains) {
    os << "domain " << d.id << " '" << d.name << "' " << to_string(d.kind)
       << " rail=" << circuit.node_name(d.rail);
    if (d.parent >= 0) os << " parent=" << d.parent;
    std::vector<std::string> names;
    names.reserve(d.nodes.size());
    for (NodeId n : d.nodes) names.push_back(circuit.node_name(n));
    std::sort(names.begin(), names.end());
    os << " nodes={";
    for (std::size_t i = 0; i < names.size(); ++i) {
      if (i) os << ", ";
      os << names[i];
    }
    os << "}";
    if (!d.switches.empty()) {
      os << " switches={";
      for (std::size_t i = 0; i < d.switches.size(); ++i) {
        if (i) os << ", ";
        const PowerSwitch& sw = d.switches[i];
        os << sw.fet->name() << " gate=";
        os << (sw.gate_signal.empty() ? "?" : sw.gate_signal) << "("
           << circuit.node_name(sw.gate_node) << ")"
           << (sw.pmos ? " pmos" : " nmos");
      }
      os << "}";
    }
    os << "\n";
  }
  return os.str();
}

DomainMap extract_domains(const Circuit& circuit,
                          const ParsedNetlist* netlist) {
  DomainMap map;
  const std::size_t n = circuit.node_count();
  map.node_domain.assign(n, -1);
  map.driven_by.assign(n, "");

  // ---- classify independent sources ---------------------------------------
  std::vector<SignalRole> node_role(n, SignalRole::kOther);
  std::vector<NodeId> supply_seeds;
  for (const auto& dev : circuit.devices()) {
    const auto* src = spice::device_cast<VSource>(dev.get());
    if (src == nullptr) continue;
    const auto terms = src->terminals();
    if (terms.empty()) continue;
    const NodeId plus = terms.front().node;
    if (plus == spice::kGround) continue;
    map.driven_by[plus] = src->name();
    const SignalRole role =
        source_role(*src, circuit.node_name(plus), netlist);
    node_role[plus] = role;
    if (role == SignalRole::kPower) supply_seeds.push_back(plus);
  }

  // ---- find power switches -------------------------------------------------
  // A PS device is a FET whose gate node is driven by a power-gate signal.
  // Sides are attributed later, once one side lands in a domain.
  struct RawSwitch {
    const FinFETElement* fet;
    bool attributed = false;
  };
  std::vector<RawSwitch> raw_switches;
  for (const auto& dev : circuit.devices()) {
    const auto* fet = spice::device_cast<FinFETElement>(dev.get());
    if (fet == nullptr) continue;
    if (node_role[fet->gate()] == SignalRole::kPowerGate) {
      raw_switches.push_back({fet});
    }
  }
  auto is_switch = [&](const Device* dev) {
    return std::any_of(raw_switches.begin(), raw_switches.end(),
                       [&](const RawSwitch& s) { return s.fet == dev; });
  };

  // ---- rail-wiring adjacency ----------------------------------------------
  // Edges a domain may grow across: always-conducting two-terminal devices
  // plus FETs with undriven gates.  FETs whose gate is a driven signal node
  // are steering switches (access, store-enable) and bound the domain;
  // sources are held nodes, never wiring.
  std::vector<std::vector<Edge>> adj(n);
  for (const auto& dev : circuit.devices()) {
    if (spice::device_cast<VSource>(dev.get()) != nullptr) continue;
    if (spice::device_cast<spice::ISource>(dev.get()) != nullptr) continue;
    if (const auto* fet = spice::device_cast<FinFETElement>(dev.get())) {
      if (is_switch(dev.get())) continue;        // domain boundary by role
      if (!map.driven_by[fet->gate()].empty()) continue;  // steering switch
    }
    for (const auto& [a, b] : dev->dc_paths()) {
      adj[a].push_back({b, dev.get()});
      adj[b].push_back({a, dev.get()});
    }
  }

  // ---- seed always-on domains ---------------------------------------------
  auto new_domain = [&](NodeId rail, DomainKind kind) -> PowerDomain& {
    PowerDomain d;
    d.id = static_cast<int>(map.domains.size());
    d.kind = kind;
    d.rail = rail;
    d.name = circuit.node_name(rail);
    map.domains.push_back(std::move(d));
    map.node_domain[rail] = map.domains.back().id;
    return map.domains.back();
  };
  for (NodeId seed : supply_seeds) {
    if (map.node_domain[seed] < 0) new_domain(seed, DomainKind::kAlwaysOn);
  }

  // ---- grow a domain over the rail-wiring graph ---------------------------
  // BFS over the domain's current members; assigned nodes of other domains
  // act as barriers (a gated rail seeded at a switch's off side stops the
  // supplying domain from swallowing the cell through a bypass edge).
  // Returns true when any new node was claimed.
  auto expand = [&](const PowerDomain& d) {
    std::deque<NodeId> queue;
    for (NodeId node = 1; node < n; ++node) {
      if (map.node_domain[node] == d.id) queue.push_back(node);
    }
    bool grew = false;
    while (!queue.empty()) {
      const NodeId at = queue.front();
      queue.pop_front();
      for (const Edge& e : adj[at]) {
        if (e.to == spice::kGround) continue;
        if (map.node_domain[e.to] >= 0) continue;
        if (!map.driven_by[e.to].empty()) continue;  // driver-owned net
        map.node_domain[e.to] = d.id;
        grew = true;
        queue.push_back(e.to);
      }
    }
    return grew;
  };

  // ---- attribute switches, seed gated rails, iterate to fixpoint ----------
  // A switch is attributable once one channel side is in a domain (or on
  // ground, for footer devices): that side supplies, the other is the
  // virtual rail.  Seeding happens BEFORE any expansion so the virtual rail
  // is a barrier; nested rails (PS behind PS) resolve over further rounds as
  // outer domains expand.
  auto attribute_pass = [&]() {
    bool any = false;
    for (RawSwitch& raw : raw_switches) {
      if (raw.attributed) continue;
      const NodeId a = raw.fet->drain();
      const NodeId b = raw.fet->source();
      const int da = a == spice::kGround ? -1 : map.node_domain[a];
      const int db = b == spice::kGround ? -1 : map.node_domain[b];
      NodeId on_side = spice::kGround, off_side = spice::kGround;
      if (a == spice::kGround || b == spice::kGround) {
        // Footer switch: ground is the supplying side, the other channel
        // node is the virtual-ground rail.
        on_side = a == spice::kGround ? a : b;
        off_side = a == spice::kGround ? b : a;
        if (off_side == spice::kGround) continue;  // strapped to ground
      } else if (da >= 0 && db >= 0) {
        // Both sides assigned.  The supplying side is the always-on one (or
        // the lower id for gated-to-gated wiring).
        const bool a_on = map.domains[static_cast<std::size_t>(da)].kind ==
                          DomainKind::kAlwaysOn;
        const bool b_on = map.domains[static_cast<std::size_t>(db)].kind ==
                          DomainKind::kAlwaysOn;
        if (a_on && b_on) {
          raw.attributed = true;  // rail-to-rail strap, not a gating switch
          continue;
        }
        on_side = (a_on || (!b_on && da <= db)) ? a : b;
        off_side = on_side == a ? b : a;
      } else if (da >= 0 || db >= 0) {
        on_side = da >= 0 ? a : b;
        off_side = da >= 0 ? b : a;
      } else {
        continue;  // neither side reached yet; try again next round
      }
      raw.attributed = true;
      any = true;
      int gated_id = map.node_domain[off_side];
      if (gated_id < 0) {
        gated_id = new_domain(off_side, DomainKind::kGated).id;
      } else if (map.domains[static_cast<std::size_t>(gated_id)].kind !=
                 DomainKind::kGated) {
        continue;  // off side already proven always-on (sneak rule territory)
      }
      PowerDomain& gd = map.domains[static_cast<std::size_t>(gated_id)];
      PowerSwitch sw;
      sw.fet = raw.fet;
      sw.gate_node = raw.fet->gate();
      sw.gate_signal = map.driven_by[sw.gate_node];
      sw.on_side = on_side;
      sw.off_side = off_side;
      sw.pmos = raw.fet->model().params().type == models::FetType::kPmos;
      gd.switches.push_back(sw);
      if (gd.parent < 0 && on_side != spice::kGround) {
        gd.parent = map.node_domain[on_side];
      }
    }
    return any;
  };

  for (;;) {
    const bool attributed = attribute_pass();
    bool grew = false;
    for (std::size_t i = 0; i < map.domains.size(); ++i) {
      grew = expand(map.domains[i]) || grew;
    }
    if (!attributed && !grew) break;
  }

  // ---- collect members -----------------------------------------------------
  for (NodeId node = 1; node < n; ++node) {
    const int d = map.node_domain[node];
    if (d >= 0) map.domains[d].nodes.push_back(node);
  }
  for (auto& d : map.domains) std::sort(d.nodes.begin(), d.nodes.end());

  // ---- .domain annotations override names ---------------------------------
  if (netlist != nullptr) {
    for (const DomainAnnotation& ann : netlist->domain_annotations()) {
      if (!circuit.has_node(ann.node)) continue;  // card-unresolved (check.cpp)
      const int d = map.node_domain[circuit.find_node(ann.node)];
      if (d >= 0) {
        map.domains[d].name = ann.name;
        map.domains[d].declared = true;
      }
    }
  }
  return map;
}

}  // namespace nvsram::lint::power
