// Device base class and the MNA stamping interfaces.
//
// Unknown layout: x = [ v(node 1) ... v(node N-1), branch currents... ].
// Node 0 is ground and is eliminated from the system.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <initializer_list>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "linalg/dense.h"
#include "linalg/sparse.h"

namespace nvsram::spice {

using NodeId = std::size_t;
inline constexpr NodeId kGround = 0;

// One external pin of a device: its documented role name plus the circuit
// node it is attached to.  Exposed by Device::terminals() for topology
// queries (the lint layer, graph analyses) without casting to each class.
struct TerminalRef {
  const char* role;  // "a", "+", "drain", "free", ...
  NodeId node;
};

// A list of at most N items held by value, so the topology queries below
// return without touching the heap.  Constructing one with more than N
// items throws std::length_error.
template <typename T, std::size_t N>
class InlineList {
 public:
  InlineList() = default;
  InlineList(std::initializer_list<T> items) : size_(items.size()) {
    if (items.size() > N) {
      throw std::length_error("InlineList: more items than its capacity");
    }
    std::copy(items.begin(), items.end(), items_.begin());
  }

  const T* begin() const { return items_.data(); }
  const T* end() const { return items_.data() + size_; }
  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const T& front() const { return items_[0]; }
  const T& operator[](std::size_t i) const { return items_[i]; }

 private:
  std::array<T, N> items_{};
  std::size_t size_ = 0;
};

// VCVS and VCCS have four pins; no device conducts along more than one pair.
using TerminalList = InlineList<TerminalRef, 4>;
using DcPathList = InlineList<std::pair<NodeId, NodeId>, 1>;

// One value per concrete Device class, returned by Device::kind().
enum class DeviceKind {
  kResistor,
  kCapacitor,
  kInductor,
  kVSource,
  kISource,
  kDiode,
  kMTJ,
  kFinFET,
  kVCVS,
  kVCCS,
};

enum class IntegrationMethod { kBackwardEuler, kTrapezoidal };

// Assigns unknown indices: node voltages first, then device branch currents.
class MnaLayout {
 public:
  explicit MnaLayout(std::size_t node_count = 1) : node_count_(node_count) {}

  void reset(std::size_t node_count) {
    node_count_ = node_count;
    extra_ = 0;
  }

  // Index of a node voltage unknown; ground has no unknown.
  static constexpr std::size_t kNoIndex = static_cast<std::size_t>(-1);
  std::size_t node_index(NodeId n) const { return n == kGround ? kNoIndex : n - 1; }

  // Allocates a new branch-current unknown and returns its index.
  std::size_t allocate_branch() { return (node_count_ - 1) + extra_++; }

  std::size_t node_count() const { return node_count_; }
  std::size_t unknown_count() const { return (node_count_ - 1) + extra_; }

 private:
  std::size_t node_count_ = 1;
  std::size_t extra_ = 0;
};

// Read-only view of a solved (or iterate) unknown vector.
class SolutionView {
 public:
  SolutionView(const linalg::Vector& x, const MnaLayout& layout)
      : x_(&x), layout_(&layout) {}

  double node_voltage(NodeId n) const {
    return n == kGround ? 0.0 : (*x_)[layout_->node_index(n)];
  }
  double value(std::size_t unknown_index) const { return (*x_)[unknown_index]; }
  std::size_t size() const { return x_->size(); }
  const linalg::Vector& raw() const { return *x_; }

 private:
  const linalg::Vector* x_;
  const MnaLayout* layout_;
};

// Everything a device needs to stamp one Newton iteration.
class StampContext {
 public:
  StampContext(const MnaLayout& layout, const linalg::Vector& x,
               linalg::SparseBuilder& mat, linalg::Vector& rhs, double time,
               double dt, bool dc, IntegrationMethod method,
               double source_scale)
      : layout_(layout), x_(x), mat_(mat), rhs_(rhs), time_(time), dt_(dt),
        dc_(dc), method_(method), source_scale_(source_scale) {}

  double node_voltage(NodeId n) const {
    return n == kGround ? 0.0 : x_[layout_.node_index(n)];
  }
  double branch_value(std::size_t idx) const { return x_[idx]; }

  double time() const { return time_; }
  double dt() const { return dt_; }
  bool dc() const { return dc_; }
  IntegrationMethod method() const { return method_; }
  double source_scale() const { return source_scale_; }
  SolutionView solution() const { return SolutionView(x_, layout_); }

  // ---- raw stamps (ground rows/columns silently dropped) ----
  void mat_nn(NodeId r, NodeId c, double v) {
    if (r == kGround || c == kGround) return;
    mat_.add(layout_.node_index(r), layout_.node_index(c), v);
  }
  void mat_nb(NodeId r, std::size_t branch, double v) {
    if (r == kGround) return;
    mat_.add(layout_.node_index(r), branch, v);
  }
  void mat_bn(std::size_t branch, NodeId c, double v) {
    if (c == kGround) return;
    mat_.add(branch, layout_.node_index(c), v);
  }
  void mat_bb(std::size_t row_branch, std::size_t col_branch, double v) {
    mat_.add(row_branch, col_branch, v);
  }
  void rhs_n(NodeId n, double v) {
    if (n == kGround) return;
    rhs_[layout_.node_index(n)] += v;
  }
  void rhs_b(std::size_t branch, double v) { rhs_[branch] += v; }

  // ---- composite stamps ----
  // Conductance g between nodes a and b.
  void stamp_conductance(NodeId a, NodeId b, double g) {
    mat_nn(a, a, g);
    mat_nn(b, b, g);
    mat_nn(a, b, -g);
    mat_nn(b, a, -g);
  }
  // Constant current i flowing from node `from` through the device into
  // node `to` (i.e. i leaves `from`).
  void stamp_current(NodeId from, NodeId to, double i) {
    rhs_n(from, -i);
    rhs_n(to, i);
  }

 private:
  const MnaLayout& layout_;
  const linalg::Vector& x_;
  linalg::SparseBuilder& mat_;
  linalg::Vector& rhs_;
  double time_;
  double dt_;
  bool dc_;
  IntegrationMethod method_;
  double source_scale_;
};

// Positions-only sibling of StampContext: devices record WHERE they stamp,
// never what.  Used by the structural analyzer to build the MNA sparsity
// pattern without evaluating any companion model (stamp() mutates device
// scratch state; stamp_pattern() must not).  Entries carry a nominal 1.0 so
// the builder's triplets can feed pattern extraction directly.
class PatternContext {
 public:
  PatternContext(const MnaLayout& layout, linalg::SparseBuilder& mat, bool dc)
      : layout_(layout), mat_(mat), dc_(dc) {}

  // True when the pattern is for a DC system: capacitors contribute nothing,
  // inductors short (no d/dt terms).
  bool dc() const { return dc_; }

  // ---- raw position stamps (ground rows/columns silently dropped) ----
  void mat_nn(NodeId r, NodeId c) {
    if (r == kGround || c == kGround) return;
    mat_.add(layout_.node_index(r), layout_.node_index(c), 1.0);
  }
  void mat_nb(NodeId r, std::size_t branch) {
    if (r == kGround) return;
    mat_.add(layout_.node_index(r), branch, 1.0);
  }
  void mat_bn(std::size_t branch, NodeId c) {
    if (c == kGround) return;
    mat_.add(branch, layout_.node_index(c), 1.0);
  }
  void mat_bb(std::size_t row_branch, std::size_t col_branch) {
    mat_.add(row_branch, col_branch, 1.0);
  }

  // Positions of stamp_conductance(a, b, g).
  void conductance(NodeId a, NodeId b) {
    mat_nn(a, a);
    mat_nn(b, b);
    mat_nn(a, b);
    mat_nn(b, a);
  }

 private:
  const MnaLayout& layout_;
  linalg::SparseBuilder& mat_;
  bool dc_;
};

// Base class for all circuit elements.
class Device {
 public:
  explicit Device(std::string name) : name_(std::move(name)) {}
  virtual ~Device() = default;

  Device(const Device&) = delete;
  Device& operator=(const Device&) = delete;

  const std::string& name() const { return name_; }

  // The concrete class; device_cast<T> below tests it against T::kKind.
  virtual DeviceKind kind() const = 0;

  // ---- topology introspection (consumed by the lint layer) ----
  // Every external pin with its role name.  Devices without terminals (none
  // today) return an empty list and are invisible to topology checks.
  virtual TerminalList terminals() const { return {}; }

  // Node pairs between which the device conducts at DC.  Capacitors and
  // current sources return nothing — exactly the edges the no-DC-path lint
  // must ignore, because they contribute no DC conductance to the MNA matrix.
  virtual DcPathList dc_paths() const { return {}; }

  // The (plus, minus) pair whose voltage difference this device pins, if any
  // (independent V sources, VCVS outputs).  Loops of such branches make the
  // MNA matrix structurally singular.
  virtual std::optional<std::pair<NodeId, NodeId>> voltage_branch() const {
    return std::nullopt;
  }

  // Allocate branch unknowns (voltage sources etc.).
  virtual void reserve(MnaLayout&) {}

  // Load the linearized companion model for the current iterate.
  virtual void stamp(StampContext& ctx) = 0;

  // Record the matrix positions stamp() can ever touch for this analysis
  // kind, without numerics or state mutation.  The default is conservative:
  // all pairs over the device's terminals plus any allocated branch rows —
  // a superset is harmless for solvability proofs but weakens them, so
  // concrete devices override with their exact footprint.
  virtual void stamp_pattern(PatternContext& ctx) const;

  // Called once after the DC operating point, before transient stepping.
  virtual void begin_transient(const SolutionView&) {}

  // Commit state after an accepted timestep.  Returns true if the device
  // changed an internal discrete state (e.g. MTJ flipped) — the controller
  // then shrinks the next step.
  virtual bool accept_step(const SolutionView&, double /*time*/, double /*dt*/) {
    return false;
  }

  // Device terminal current for probing; positive in the device's
  // documented reference direction.  Defaults to 0 for devices without a
  // natural single current.
  virtual double current(const SolutionView&) const { return 0.0; }

  // Time points the transient must not step across.
  virtual void breakpoints(double /*t_stop*/, std::vector<double>&) const {}

 private:
  std::string name_;
};

// `dev` as a T when its kind() is T::kKind, else null (also for a null
// `dev`).  The concrete device classes are final, so the tag names the
// dynamic type exactly.
template <typename T>
T* device_cast(Device* dev) {
  return dev != nullptr && dev->kind() == T::kKind ? static_cast<T*>(dev)
                                                   : nullptr;
}

template <typename T>
const T* device_cast(const Device* dev) {
  return dev != nullptr && dev->kind() == T::kKind ? static_cast<const T*>(dev)
                                                   : nullptr;
}

}  // namespace nvsram::spice
