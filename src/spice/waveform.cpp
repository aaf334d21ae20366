#include "spice/waveform.h"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>

namespace nvsram::spice {

Probe Probe::node_voltage(NodeId node, std::string label) {
  Probe p;
  p.kind = Kind::kNodeVoltage;
  p.node = node;
  p.label = std::move(label);
  return p;
}

Probe Probe::device_current(const Device* device, std::string label) {
  Probe p;
  p.kind = Kind::kDeviceCurrent;
  p.device = device;
  p.label = std::move(label);
  return p;
}

Probe Probe::source_power(const VSource* source, std::string label) {
  Probe p;
  p.kind = Kind::kSourcePower;
  p.device = source;
  p.label = std::move(label);
  return p;
}

Probe Probe::source_energy(const VSource* source, std::string label) {
  Probe p;
  p.kind = Kind::kSourceEnergy;
  p.device = source;
  p.label = std::move(label);
  return p;
}

Waveform::Waveform(std::vector<std::string> labels,
                   std::vector<double> instants)
    : labels_(std::move(labels)), instants_(std::move(instants)) {
  series_.resize(labels_.size());
  for (std::size_t i = 0; i < labels_.size(); ++i) {
    label_index_.emplace(labels_[i], i);
  }
  std::sort(instants_.begin(), instants_.end());
  instants_.erase(std::unique(instants_.begin(), instants_.end()),
                  instants_.end());
}

void Waveform::append(double time, const std::vector<double>& values) {
  if (values.size() != series_.size()) {
    throw std::invalid_argument("Waveform::append: value count mismatch");
  }
  if (thinned()) {
    // The instants in [latest sample, time) lie between the latest sample
    // and this one, so both bracket them.  A latest sample that brackets
    // nothing is dropped.  The first sample has no predecessor: it stays,
    // and it answers the instants before it.
    bool brackets = false;
    while (next_instant_ < instants_.size() && instants_[next_instant_] < time) {
      ++next_instant_;
      brackets = true;
    }
    if (time_.empty()) {
      brackets = true;
    } else if (!brackets && !keep_latest_) {
      time_.pop_back();
      for (auto& s : series_) s.pop_back();
    }
    keep_latest_ = brackets;
  }
  time_.push_back(time);
  for (std::size_t i = 0; i < values.size(); ++i) {
    series_[i].push_back(values[i]);
  }
}

void Waveform::require_full(const char* what) const {
  if (thinned()) {
    throw std::logic_error(std::string("Waveform::") + what +
                           ": the waveform keeps only the samples around its "
                           "requested instants");
  }
}

std::size_t Waveform::index_of(const std::string& label) const {
  const auto it = label_index_.find(label);
  if (it == label_index_.end()) {
    throw std::out_of_range("Waveform: unknown series " + label);
  }
  return it->second;
}

const std::vector<double>& Waveform::series(const std::string& label) const {
  return series_[index_of(label)];
}

bool Waveform::has_series(const std::string& label) const {
  return label_index_.count(label) != 0;
}

std::vector<std::string> Waveform::labels() const { return labels_; }

double Waveform::value_at(const std::string& label, double t) const {
  const auto& s = series(label);
  if (time_.empty()) throw std::logic_error("Waveform: empty");
  if (thinned() && !std::binary_search(instants_.begin(), instants_.end(), t)) {
    std::ostringstream msg;
    msg << "Waveform::value_at: " << t << " s is not a requested instant";
    throw std::logic_error(msg.str());
  }
  if (t <= time_.front()) return s.front();
  if (t >= time_.back()) return s.back();
  const auto it = std::upper_bound(time_.begin(), time_.end(), t);
  const std::size_t i = static_cast<std::size_t>(it - time_.begin());
  const double f = (t - time_[i - 1]) / (time_[i] - time_[i - 1]);
  return s[i - 1] + f * (s[i] - s[i - 1]);
}

double Waveform::final_value(const std::string& label) const {
  const auto& s = series(label);
  if (s.empty()) throw std::logic_error("Waveform: empty");
  return s.back();
}

double Waveform::integral(const std::string& label, double t0, double t1) const {
  require_full("integral");
  const auto& s = series(label);
  if (time_.size() < 2 || t1 <= t0) return 0.0;
  double sum = 0.0;
  for (std::size_t i = 1; i < time_.size(); ++i) {
    const double a = std::max(time_[i - 1], t0);
    const double b = std::min(time_[i], t1);
    if (b <= a) continue;
    // Values at clipped segment ends (linear inside the segment).
    const double span = time_[i] - time_[i - 1];
    const double va = s[i - 1] + (s[i] - s[i - 1]) * (a - time_[i - 1]) / span;
    const double vb = s[i - 1] + (s[i] - s[i - 1]) * (b - time_[i - 1]) / span;
    sum += 0.5 * (va + vb) * (b - a);
  }
  return sum;
}

double Waveform::average(const std::string& label, double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  return integral(label, t0, t1) / (t1 - t0);
}

double Waveform::maximum(const std::string& label) const {
  require_full("maximum");
  const auto& s = series(label);
  return *std::max_element(s.begin(), s.end());
}

double Waveform::minimum(const std::string& label) const {
  require_full("minimum");
  const auto& s = series(label);
  return *std::min_element(s.begin(), s.end());
}

std::optional<double> Waveform::cross_time(const std::string& label, double level,
                                           double t_from) const {
  require_full("cross_time");
  const auto& s = series(label);
  for (std::size_t i = 1; i < time_.size(); ++i) {
    if (time_[i] < t_from) continue;
    const double f0 = s[i - 1] - level;
    const double f1 = s[i] - level;
    if (f0 == 0.0 && time_[i - 1] >= t_from) return time_[i - 1];
    if (f0 * f1 < 0.0) {
      const double f = f0 / (f0 - f1);
      const double t = time_[i - 1] + f * (time_[i] - time_[i - 1]);
      if (t >= t_from) return t;
    }
  }
  return std::nullopt;
}

void Waveform::write_csv(const std::string& path) const {
  require_full("write_csv");
  std::ofstream out(path);
  if (!out) throw std::runtime_error("Waveform::write_csv: cannot open " + path);
  out << "time";
  for (const auto& l : labels_) out << ',' << l;
  out << '\n';
  for (std::size_t i = 0; i < time_.size(); ++i) {
    out << time_[i];
    for (const auto& s : series_) out << ',' << s[i];
    out << '\n';
  }
}

}  // namespace nvsram::spice
