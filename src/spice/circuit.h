// Circuit: node registry plus owned devices.
//
// Nodes are created by name (`node("Q")`); ground is pre-registered as
// "0" / "gnd".  Devices are added through the typed `add<T>(...)` helper and
// owned by the circuit.
#pragma once

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "spice/device.h"
#include "spice/fault.h"

namespace nvsram::spice {

class Circuit {
 public:
  Circuit();

  // Returns the id for `name`, creating the node if it does not exist.
  NodeId node(const std::string& name);

  // Lookup without creation; throws std::out_of_range for unknown names.
  NodeId find_node(const std::string& name) const;
  bool has_node(const std::string& name) const;
  const std::string& node_name(NodeId id) const;
  std::size_t node_count() const { return node_names_.size(); }

  // Constructs a device in place; returns a non-owning pointer for probing.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto dev = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = dev.get();
    const auto [slot, fresh] =
        device_index_.try_emplace(raw->name(), devices_.size());
    if (!fresh) {
      throw std::invalid_argument("Circuit: duplicate device name " +
                                  raw->name());
    }
    try {
      devices_.push_back(std::move(dev));
    } catch (...) {
      device_index_.erase(slot);  // its key views the name `dev` frees
      throw;
    }
    return raw;
  }

  Device* find_device(const std::string& name) const;

  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  // Builds the unknown layout (node voltages + device branches).
  MnaLayout build_layout() const;

  // ---- fault injection (tests / resilience drills) ----
  // An attached plan is consulted by every Newton solve on this circuit;
  // see spice/fault.h for the trigger semantics.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }
  void clear_fault_plan() { fault_plan_.reset(); }
  FaultPlan* fault_plan() { return fault_plan_ ? &*fault_plan_ : nullptr; }

 private:
  std::vector<std::string> node_names_;
  std::unordered_map<std::string, NodeId> node_ids_;
  std::vector<std::unique_ptr<Device>> devices_;
  // Keyed by views of the devices' own names: each device lives as long as
  // its unique_ptr in devices_, and none is ever removed.
  std::unordered_map<std::string_view, std::size_t> device_index_;
  std::optional<FaultPlan> fault_plan_;
};

}  // namespace nvsram::spice
