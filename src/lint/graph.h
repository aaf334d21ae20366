// CircuitGraph: topology view of a Circuit built from the Device terminal
// introspection API (terminals / dc_paths / voltage_branch).
//
// Three structures are derived in one pass:
//   * per-node pin lists (degree, who touches a node),
//   * DC-conduction connected components (union-find over dc_paths edges),
//     used to find nodes with no DC path to ground,
//   * voltage-branch loop detection (incremental union-find over
//     voltage_branch edges: an edge whose endpoints are already connected
//     closes a loop -> structurally singular MNA matrix).
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "spice/circuit.h"
#include "spice/device.h"

namespace nvsram::lint {

// One device pin attached to a node.
struct PinRef {
  const spice::Device* device;
  const char* role;
};

class CircuitGraph {
 public:
  explicit CircuitGraph(const spice::Circuit& circuit);

  std::size_t node_count() const { return pin_offsets_.size() - 1; }
  std::size_t degree(spice::NodeId n) const {
    return pin_offsets_[n + 1] - pin_offsets_[n];
  }
  // The pins on `n`, in device order and each device's terminal order.
  std::span<const PinRef> pins(spice::NodeId n) const {
    return {pins_.data() + pin_offsets_[n], degree(n)};
  }

  // True if `n` reaches ground through DC-conducting devices.
  bool dc_reaches_ground(spice::NodeId n) const {
    return find(dc_parent_, n) == find(dc_parent_, spice::kGround);
  }

  // Representative of the DC component containing `n` (for grouping the
  // nodes of one floating island into a single diagnostic).
  std::size_t dc_component(spice::NodeId n) const {
    return find(dc_parent_, n);
  }

  // Devices whose voltage-defining branch closed a loop of voltage-defined
  // branches.  Self-loops (plus == minus) are excluded; the linter reports
  // those under the separate vsource-shorted rule.
  const std::vector<const spice::Device*>& voltage_loop_closers() const {
    return loop_closers_;
  }

 private:
  static std::size_t find(std::vector<std::size_t>& parent, std::size_t i);
  static std::size_t find(const std::vector<std::size_t>& parent,
                          std::size_t i);
  static void unite(std::vector<std::size_t>& parent, std::size_t a,
                    std::size_t b);

  // Node n's pins are pins_[pin_offsets_[n] .. pin_offsets_[n + 1]).
  std::vector<std::size_t> pin_offsets_;
  std::vector<PinRef> pins_;
  std::vector<std::size_t> dc_parent_;
  std::vector<const spice::Device*> loop_closers_;
};

}  // namespace nvsram::lint
