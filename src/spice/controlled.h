// Linear controlled sources: VCVS (E card) and VCCS (G card).
//
// Used for behavioural modelling (sense amplifiers, clamps, loop-gain
// probes) and exercised by the AC analysis tests.
#pragma once

#include "spice/device.h"

namespace nvsram::spice {

// Voltage-controlled voltage source:  v(p) - v(n) = gain * (v(cp) - v(cn)).
class VCVS final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kVCVS;
  DeviceKind kind() const override { return kKind; }

  VCVS(std::string name, NodeId p, NodeId n, NodeId control_p, NodeId control_n,
       double gain);

  void reserve(MnaLayout& layout) override;
  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  // Branch current, + -> - internally (same convention as VSource).
  double current(const SolutionView& s) const override;
  TerminalList terminals() const override {
    return {{"+", p_}, {"-", n_}, {"c+", cp_}, {"c-", cn_}};
  }
  // The output branch conducts (and pins a voltage); control pins sense only.
  DcPathList dc_paths() const override {
    return {{p_, n_}};
  }
  std::optional<std::pair<NodeId, NodeId>> voltage_branch() const override {
    return std::make_pair(p_, n_);
  }

  double gain() const { return gain_; }
  void set_gain(double g) { gain_ = g; }

 private:
  NodeId p_, n_, cp_, cn_;
  double gain_;
  std::size_t branch_ = MnaLayout::kNoIndex;
};

// Voltage-controlled current source:
// current `gm * (v(cp) - v(cn))` flows from node p through the source to n.
class VCCS final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kVCCS;
  DeviceKind kind() const override { return kKind; }

  VCCS(std::string name, NodeId p, NodeId n, NodeId control_p, NodeId control_n,
       double transconductance);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  double current(const SolutionView& s) const override;
  // Output is a current source (no DC conductance); control pins sense only.
  TerminalList terminals() const override {
    return {{"+", p_}, {"-", n_}, {"c+", cp_}, {"c-", cn_}};
  }

  double gm() const { return gm_; }
  void set_gm(double g) { gm_ = g; }

 private:
  NodeId p_, n_, cp_, cn_;
  double gm_;
};

}  // namespace nvsram::spice
