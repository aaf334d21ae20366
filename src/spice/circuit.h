// Circuit: node registry plus owned devices.
//
// Nodes are created by name (`node("Q")`); ground is pre-registered as
// "0" / "gnd".  Devices are added through the typed `add<T>(...)` helper and
// owned by the circuit.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
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
  // Throws std::invalid_argument on a duplicate name, leaving the circuit
  // as it was.
  template <typename T, typename... Args>
  T* add(Args&&... args) {
    auto dev = std::make_unique<T>(std::forward<Args>(args)...);
    T* raw = dev.get();
    adopt(std::move(dev));
    return raw;
  }

  Device* find_device(const std::string& name) const;
  // Position of the device called `name` in devices(); nullopt if none.
  std::optional<std::size_t> device_index(const std::string& name) const;

  const std::vector<std::unique_ptr<Device>>& devices() const { return devices_; }

  // Builds the unknown layout (node voltages + device branches).
  MnaLayout build_layout() const;

  // Names the circuit's current topology: a process-unique id, drawn on
  // the first call after a node or a device was added, so no two
  // circuits, and no two topologies of one circuit, share one.  A
  // NewtonWorkspace checks its assembly plan against a circuit once per id
  // (spice/newton.h).
  std::uint64_t topology_id();

  // ---- fault injection (tests / resilience drills) ----
  // An attached plan is consulted by every Newton solve on this circuit;
  // see spice/fault.h for the trigger semantics.
  void set_fault_plan(FaultPlan plan) { fault_plan_ = std::move(plan); }
  FaultPlan* fault_plan() { return fault_plan_ ? &*fault_plan_ : nullptr; }

 private:
  // One index finds nodes and devices by name: an open-addressing table
  // (linear probing, power-of-two capacity, at most half full) of 32-bit
  // entries, a node id or kDeviceTag | device position.  Keys are read back
  // from node_names_ and devices_, never stored: a view into node_names_
  // would dangle once the vector reallocates and moves short (SSO) names.
  static constexpr std::uint32_t kNodeTag = 0;
  static constexpr std::uint32_t kDeviceTag = 0x80000000u;
  static constexpr std::uint32_t kEmpty = 0xFFFFFFFFu;

  void adopt(std::unique_ptr<Device> dev);
  // Slot holding the entry named `name` with tag `tag`, or the empty slot
  // where it would go.
  std::size_t slot(std::string_view name, std::uint32_t tag) const;
  // Grows the table, if need be, so one more entry keeps it half empty.
  void reserve_entry();
  std::string_view key(std::uint32_t entry) const;

  std::vector<std::string> node_names_;
  std::vector<std::unique_ptr<Device>> devices_;
  std::vector<std::uint32_t> index_;
  std::uint64_t topology_id_ = 0;  // 0: not drawn since the last addition
  std::optional<FaultPlan> fault_plan_;
};

}  // namespace nvsram::spice
