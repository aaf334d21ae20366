// Probe definitions and simulation result storage with measurements.
#pragma once

#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "spice/circuit.h"
#include "spice/device.h"
#include "spice/elements.h"

namespace nvsram::spice {

// What to record each accepted timestep.
struct Probe {
  enum class Kind {
    kNodeVoltage,     // voltage of `node`
    kDeviceCurrent,   // device->current()
    kSourcePower,     // VSource delivered power
    kSourceEnergy,    // running integral of VSource delivered power
  };

  static Probe node_voltage(NodeId node, std::string label);
  static Probe device_current(const Device* device, std::string label);
  static Probe source_power(const VSource* source, std::string label);
  static Probe source_energy(const VSource* source, std::string label);

  Kind kind = Kind::kNodeVoltage;
  NodeId node = kGround;
  const Device* device = nullptr;
  std::string label;
};

// Sampled simulation output: a shared time axis plus named series.
//
// A waveform built with `instants` is thinned: a caller that reads its
// series only at those times keeps only the samples the reads need.
// append() then keeps the first sample, the latest one, and for each instant
// the last sample at or before it and the first sample after it, which are
// the two samples value_at() interpolates between.  So value_at() at a
// requested instant returns the same bits as on the full waveform, provided
// samples arrive in time order, as a transient appends them.  A thinned
// waveform throws std::logic_error from value_at() at any other time and
// from every measurement that needs the whole series (integral, average,
// maximum, minimum, cross_time, write_csv); final_value() still holds.
class Waveform {
 public:
  Waveform() = default;
  explicit Waveform(std::vector<std::string> labels,
                    std::vector<double> instants = {});

  void append(double time, const std::vector<double>& values);
  bool thinned() const { return !instants_.empty(); }

  std::size_t samples() const { return time_.size(); }
  const std::vector<double>& time() const { return time_; }
  const std::vector<double>& series(const std::string& label) const;
  bool has_series(const std::string& label) const;
  std::vector<std::string> labels() const;

  // ---- measurements ----
  // Linear interpolation of a series at time t (clamped to the range).
  double value_at(const std::string& label, double t) const;
  double final_value(const std::string& label) const;
  // Trapezoidal integral of the series over [t0, t1].
  double integral(const std::string& label, double t0, double t1) const;
  double average(const std::string& label, double t0, double t1) const;
  double maximum(const std::string& label) const;
  double minimum(const std::string& label) const;
  // First time the series crosses `level` (rising or falling) at/after t_from.
  std::optional<double> cross_time(const std::string& label, double level,
                                   double t_from = 0.0) const;

  void write_csv(const std::string& path) const;

 private:
  std::size_t index_of(const std::string& label) const;
  // Throws std::logic_error naming `what` on a thinned waveform.
  void require_full(const char* what) const;

  std::vector<double> time_;
  std::vector<std::string> labels_;
  std::unordered_map<std::string, std::size_t> label_index_;
  std::vector<std::vector<double>> series_;
  // Thinning: the requested instants, sorted and unique; the first one not
  // yet at or before the latest sample; whether the latest sample brackets
  // an instant from above (or is the first sample) and so must stay.
  std::vector<double> instants_;
  std::size_t next_instant_ = 0;
  bool keep_latest_ = false;
};

}  // namespace nvsram::spice
