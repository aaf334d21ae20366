#include "spice/circuit.h"

namespace nvsram::spice {

Circuit::Circuit() {
  node_names_.push_back("0");
  node_ids_.emplace("0", kGround);
  node_ids_.emplace("gnd", kGround);
}

NodeId Circuit::node(const std::string& name) {
  const auto [it, fresh] = node_ids_.try_emplace(name, node_names_.size());
  if (fresh) node_names_.push_back(name);
  return it->second;
}

NodeId Circuit::find_node(const std::string& name) const {
  const auto it = node_ids_.find(name);
  if (it == node_ids_.end()) {
    throw std::out_of_range("Circuit: unknown node " + name);
  }
  return it->second;
}

bool Circuit::has_node(const std::string& name) const {
  return node_ids_.count(name) != 0;
}

const std::string& Circuit::node_name(NodeId id) const {
  if (id >= node_names_.size()) {
    throw std::out_of_range("Circuit: node id out of range");
  }
  return node_names_[id];
}

Device* Circuit::find_device(const std::string& name) const {
  const auto it = device_index_.find(name);
  if (it == device_index_.end()) return nullptr;
  return devices_[it->second].get();
}

MnaLayout Circuit::build_layout() const {
  MnaLayout layout(node_count());
  for (const auto& dev : devices_) {
    dev->reserve(layout);
  }
  return layout;
}

}  // namespace nvsram::spice
