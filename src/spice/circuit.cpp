#include "spice/circuit.h"

#include <atomic>
#include <functional>
#include <stdexcept>

namespace nvsram::spice {

namespace {

constexpr std::size_t kInitialSlots = 16;

// Topology ids come from one counter, not a hash, so two can never alias.
std::atomic<std::uint64_t> next_topology_id{1};

bool is_ground_alias(std::string_view name) { return name == "gnd"; }

}  // namespace

Circuit::Circuit() : index_(kInitialSlots, kEmpty) {
  node("0");  // id kGround
}

NodeId Circuit::node(const std::string& name) {
  if (is_ground_alias(name)) return kGround;
  reserve_entry();
  const std::size_t s = slot(name, kNodeTag);
  if (index_[s] == kEmpty) {
    node_names_.push_back(name);
    index_[s] = static_cast<std::uint32_t>(node_names_.size() - 1);
    topology_id_ = 0;
  }
  return index_[s];
}

NodeId Circuit::find_node(const std::string& name) const {
  if (is_ground_alias(name)) return kGround;
  const std::uint32_t entry = index_[slot(name, kNodeTag)];
  if (entry == kEmpty) {
    throw std::out_of_range("Circuit: unknown node " + name);
  }
  return entry;
}

bool Circuit::has_node(const std::string& name) const {
  return is_ground_alias(name) || index_[slot(name, kNodeTag)] != kEmpty;
}

const std::string& Circuit::node_name(NodeId id) const {
  if (id >= node_names_.size()) {
    throw std::out_of_range("Circuit: node id out of range");
  }
  return node_names_[id];
}

Device* Circuit::find_device(const std::string& name) const {
  const auto index = device_index(name);
  return index ? devices_[*index].get() : nullptr;
}

std::optional<std::size_t> Circuit::device_index(
    const std::string& name) const {
  const std::uint32_t entry = index_[slot(name, kDeviceTag)];
  if (entry == kEmpty) return std::nullopt;
  return entry & ~kDeviceTag;
}

std::uint64_t Circuit::topology_id() {
  if (topology_id_ == 0) {
    topology_id_ = next_topology_id.fetch_add(1, std::memory_order_relaxed);
  }
  return topology_id_;
}

MnaLayout Circuit::build_layout() const {
  MnaLayout layout(node_count());
  for (const auto& dev : devices_) {
    dev->reserve(layout);
  }
  return layout;
}

// The table grows before the duplicate check, so a rejected device leaves
// the same entries behind, and the entry is written only once the device is
// in devices_.
void Circuit::adopt(std::unique_ptr<Device> dev) {
  reserve_entry();
  const std::size_t s = slot(dev->name(), kDeviceTag);
  if (index_[s] != kEmpty) {
    throw std::invalid_argument("Circuit: duplicate device name " +
                                dev->name());
  }
  devices_.push_back(std::move(dev));
  index_[s] = kDeviceTag | static_cast<std::uint32_t>(devices_.size() - 1);
  topology_id_ = 0;
}

std::size_t Circuit::slot(std::string_view name, std::uint32_t tag) const {
  const std::size_t mask = index_.size() - 1;
  for (std::size_t s = std::hash<std::string_view>{}(name) & mask;;
       s = (s + 1) & mask) {
    const std::uint32_t entry = index_[s];
    if (entry == kEmpty ||
        ((entry & kDeviceTag) == tag && key(entry) == name)) {
      return s;
    }
  }
}

// Every id is below the entry count, so capping the count keeps node ids
// clear of kDeviceTag and device entries clear of kEmpty.
void Circuit::reserve_entry() {
  const std::size_t entries = node_names_.size() + devices_.size();
  if (entries >= kDeviceTag - 1) {
    throw std::length_error("Circuit: too many nodes and devices");
  }
  if (2 * (entries + 1) <= index_.size()) return;
  // Re-inserted in id order, so the keys are read in the order they sit in
  // memory rather than in the old table's hash order.
  std::vector<std::uint32_t> grown(2 * index_.size(), kEmpty);
  const std::size_t mask = grown.size() - 1;
  auto place = [&](std::uint32_t entry) {
    std::size_t s = std::hash<std::string_view>{}(key(entry)) & mask;
    while (grown[s] != kEmpty) s = (s + 1) & mask;
    grown[s] = entry;
  };
  for (std::size_t id = 0; id < node_names_.size(); ++id) {
    place(static_cast<std::uint32_t>(id));
  }
  for (std::size_t id = 0; id < devices_.size(); ++id) {
    place(kDeviceTag | static_cast<std::uint32_t>(id));
  }
  index_.swap(grown);
}

std::string_view Circuit::key(std::uint32_t entry) const {
  return (entry & kDeviceTag) != 0 ? devices_[entry & ~kDeviceTag]->name()
                                   : node_names_[entry];
}

}  // namespace nvsram::spice
