// Basic linear elements and independent sources.
#pragma once

#include <optional>
#include <utility>
#include <vector>

#include "spice/device.h"

namespace nvsram::spice {

// ---- source waveform specification ----------------------------------------
struct PulseSpec {
  double v_initial = 0.0;
  double v_pulsed = 1.0;
  double delay = 0.0;
  double rise = 1e-12;
  double fall = 1e-12;
  double width = 1e-9;
  double period = 0.0;  // 0 => single pulse
};

// Waveform of an independent source: DC, PULSE, or PWL.
class SourceSpec {
 public:
  static SourceSpec dc(double value);
  static SourceSpec pulse(const PulseSpec& spec);
  // Points must have strictly increasing times; value holds before the first
  // and after the last point.
  static SourceSpec pwl(std::vector<std::pair<double, double>> points);

  double value(double time) const;
  void breakpoints(double t_stop, std::vector<double>& out) const;

 private:
  enum class Kind { kDc, kPulse, kPwl };
  Kind kind_ = Kind::kDc;
  double dc_ = 0.0;
  PulseSpec pulse_{};
  std::vector<std::pair<double, double>> pwl_;
};

// ---- passives ---------------------------------------------------------------
class Resistor final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kResistor;
  DeviceKind kind() const override { return kKind; }

  Resistor(std::string name, NodeId a, NodeId b, double resistance);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  // Positive current flows a -> b.
  double current(const SolutionView& s) const override;
  TerminalList terminals() const override {
    return {{"a", a_}, {"b", b_}};
  }
  DcPathList dc_paths() const override {
    return {{a_, b_}};
  }

  double resistance() const { return resistance_; }
  void set_resistance(double r);

 private:
  NodeId a_, b_;
  double resistance_;
};

class Capacitor final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kCapacitor;
  DeviceKind kind() const override { return kKind; }

  // `initial_voltage`: optional IC used if the DC solve is skipped.
  Capacitor(std::string name, NodeId a, NodeId b, double capacitance);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  void begin_transient(const SolutionView& s) override;
  bool accept_step(const SolutionView& s, double time, double dt) override;
  double current(const SolutionView& s) const override;
  // A capacitor is open at DC, so it contributes no dc_paths() edge.
  TerminalList terminals() const override {
    return {{"a", a_}, {"b", b_}};
  }

  double capacitance() const { return capacitance_; }
  double stored_energy(const SolutionView& s) const;
  NodeId node_a() const { return a_; }
  NodeId node_b() const { return b_; }

 private:
  double companion_geq(double dt, IntegrationMethod m) const;

  NodeId a_, b_;
  double capacitance_;
  // Committed history (previous accepted step).
  double v_prev_ = 0.0;
  double i_prev_ = 0.0;
  // Companion values of the step being solved (set during stamp).
  double geq_ = 0.0;
  double ieq_ = 0.0;
};

// ---- independent sources ----------------------------------------------------
class VSource final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kVSource;
  DeviceKind kind() const override { return kKind; }

  VSource(std::string name, NodeId plus, NodeId minus, SourceSpec spec);

  void reserve(MnaLayout& layout) override;
  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  // Branch current flows internally from + to -; a source delivering power
  // has negative branch current.
  double current(const SolutionView& s) const override;
  void breakpoints(double t_stop, std::vector<double>& out) const override;
  TerminalList terminals() const override {
    return {{"+", plus_}, {"-", minus_}};
  }
  DcPathList dc_paths() const override {
    return {{plus_, minus_}};
  }
  std::optional<std::pair<NodeId, NodeId>> voltage_branch() const override {
    return std::make_pair(plus_, minus_);
  }

  // Instantaneous power delivered INTO the external circuit.
  double delivered_power(const SolutionView& s, double time) const;

  double value(double time) const { return spec_.value(time); }
  void set_spec(SourceSpec spec) { spec_ = std::move(spec); }

 private:
  NodeId plus_, minus_;
  SourceSpec spec_;
  std::size_t branch_ = MnaLayout::kNoIndex;
};

class ISource final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kISource;
  DeviceKind kind() const override { return kKind; }

  // Current `spec` flows from `from` through the source into `to`.
  ISource(std::string name, NodeId from, NodeId to, SourceSpec spec);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext&) const override {}  // matrix-empty
  double current(const SolutionView&) const override { return last_value_; }
  void breakpoints(double t_stop, std::vector<double>& out) const override;
  // An ideal current source has infinite DC impedance: no dc_paths() edge.
  TerminalList terminals() const override {
    return {{"from", from_}, {"to", to_}};
  }
  NodeId node_from() const { return from_; }
  NodeId node_to() const { return to_; }

 private:
  NodeId from_, to_;
  SourceSpec spec_;
  double last_value_ = 0.0;
};

// ---- diode (exponential junction; exercised by the Newton tests) ------------
class Diode final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kDiode;
  DeviceKind kind() const override { return kKind; }

  Diode(std::string name, NodeId anode, NodeId cathode, double saturation_current = 1e-14,
        double emission = 1.0, double temperature = 300.0);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  double current(const SolutionView& s) const override;
  double saturation_current() const { return is_; }
  TerminalList terminals() const override {
    return {{"anode", anode_}, {"cathode", cathode_}};
  }
  DcPathList dc_paths() const override {
    return {{anode_, cathode_}};
  }

 private:
  NodeId anode_, cathode_;
  double is_;
  double n_vt_;
};

}  // namespace nvsram::spice
