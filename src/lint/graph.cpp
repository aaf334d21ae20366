#include "lint/graph.h"

#include <numeric>

namespace nvsram::lint {

std::size_t CircuitGraph::find(std::vector<std::size_t>& parent,
                               std::size_t i) {
  while (parent[i] != i) {
    parent[i] = parent[parent[i]];  // path halving
    i = parent[i];
  }
  return i;
}

std::size_t CircuitGraph::find(const std::vector<std::size_t>& parent,
                               std::size_t i) {
  while (parent[i] != i) i = parent[i];
  return i;
}

void CircuitGraph::unite(std::vector<std::size_t>& parent, std::size_t a,
                         std::size_t b) {
  parent[find(parent, a)] = find(parent, b);
}

CircuitGraph::CircuitGraph(const spice::Circuit& circuit) {
  const std::size_t n = circuit.node_count();
  // Pin lists: count per node, then fill in device order.
  pin_offsets_.assign(n + 1, 0);
  for (const auto& dev : circuit.devices()) {
    for (const auto& term : dev->terminals()) ++pin_offsets_[term.node + 1];
  }
  for (std::size_t i = 0; i < n; ++i) pin_offsets_[i + 1] += pin_offsets_[i];
  pins_.resize(pin_offsets_[n]);
  std::vector<std::size_t> next(pin_offsets_.begin(), pin_offsets_.end() - 1);
  for (const auto& dev : circuit.devices()) {
    for (const auto& term : dev->terminals()) {
      pins_[next[term.node]++] = {dev.get(), term.role};
    }
  }

  dc_parent_.resize(n);
  std::iota(dc_parent_.begin(), dc_parent_.end(), 0);
  std::vector<std::size_t> v_parent(n);
  std::iota(v_parent.begin(), v_parent.end(), 0);

  for (const auto& dev : circuit.devices()) {
    for (const auto& [a, b] : dev->dc_paths()) {
      unite(dc_parent_, a, b);
    }
    if (const auto vb = dev->voltage_branch()) {
      const auto [p, q] = *vb;
      if (p == q) continue;  // shorted source, reported separately
      if (find(v_parent, p) == find(v_parent, q)) {
        loop_closers_.push_back(dev.get());
      } else {
        unite(v_parent, p, q);
      }
    }
  }
  // Collapse the DC forest so the const find() used by queries is O(depth 1).
  for (std::size_t i = 0; i < n; ++i) dc_parent_[i] = find(dc_parent_, i);
}

}  // namespace nvsram::lint
