#include "sram/script.h"

#include <algorithm>
#include <stdexcept>

#include "spice/elements.h"

namespace nvsram::sram {

using spice::Probe;
using spice::SourceSpec;

namespace {

const PhaseWindow& find_phase(const std::vector<PhaseWindow>& phases,
                              const std::string& name, int occurrence) {
  int seen = 0;
  for (const auto& ph : phases) {
    if (ph.name == name) {
      if (seen == occurrence) return ph;
      ++seen;
    }
  }
  throw std::out_of_range("Script: no phase " + name + " #" +
                          std::to_string(occurrence));
}

}  // namespace

Script::TrackId Script::add_driver(spice::Circuit& circuit,
                                   const std::string& name, spice::NodeId node,
                                   double level,
                                   lint::temporal::SignalRole role) {
  Track track;
  track.source = circuit.add<spice::VSource>(name, node, spice::kGround,
                                             SourceSpec::dc(level));
  track.role = role;
  track.level = level;
  tracks_.push_back(std::move(track));
  return TrackId{tracks_.size() - 1};
}

void Script::set_level(TrackId id, double t, double v, double ramp) {
  Track& track = tracks_.at(id.index);
  if (v == track.level) return;
  if (ramp <= 0.0) ramp = kSlew;
  double start = t;
  if (!track.corners.empty()) {
    start = std::max(start, track.corners.back().first + kSlew * 0.01);
  }
  track.corners.emplace_back(start, track.level);
  track.corners.emplace_back(start + ramp, v);
  track.level = v;
}

void Script::add_phase(const std::string& name, double t0, double t1) {
  phases_.push_back({name, t0, t1});
}

const PhaseWindow& Script::phase(const std::string& name,
                                 int occurrence) const {
  return find_phase(phases_, name, occurrence);
}

double Script::driver_power(const spice::DCSolution& sol) const {
  double total = 0.0;
  for (const Track& track : tracks_) {
    total += track.source->delivered_power(sol.view(), 0.0);
  }
  return total;
}

lint::temporal::Timeline Script::timeline() const {
  lint::temporal::Timeline tl;
  tl.t_stop = t_stop();
  for (const Track& track : tracks_) {
    lint::temporal::SignalTimeline sig;
    sig.name = track.source->name();
    sig.role = track.role;
    // Between corner pairs the level is constant, so every value change is
    // one Transition.
    sig.initial =
        track.corners.empty() ? track.level : track.corners.front().second;
    for (std::size_t i = 1; i < track.corners.size(); ++i) {
      const auto& [ta, va] = track.corners[i - 1];
      const auto& [tb, vb] = track.corners[i];
      if (va != vb) sig.transitions.push_back({ta, tb, va, vb});
    }
    tl.signals.push_back(std::move(sig));
  }
  for (const PhaseWindow& ph : phases_) {
    tl.phases.push_back({ph.name, ph.t0, ph.t1});
  }
  return tl;
}

Script::Result Script::run(spice::Circuit& circuit,
                           std::vector<spice::Probe> probes,
                           spice::TranOptions topt, bool probe_power,
                           std::vector<double> instants) {
  if (phases_.empty()) {
    throw std::logic_error("Script::run: nothing scheduled");
  }

  std::vector<std::string> names;
  for (const Track& track : tracks_) {
    // A track without corners keeps its DC spec.
    if (!track.corners.empty()) {
      track.source->set_spec(SourceSpec::pwl(track.corners));
    }
    const std::string& name = track.source->name();
    names.push_back(name);
    if (probe_power) {
      probes.push_back(Probe::source_power(track.source, "P:" + name));
    }
    probes.push_back(Probe::source_energy(track.source, "E:" + name));
  }

  topt.t_stop = t_stop();
  topt.dt_max = std::clamp(topt.t_stop / 1000.0, 50e-12, 5e-9);

  spice::TranAnalysis tran(circuit, topt, std::move(probes),
                           std::move(instants));
  spice::Waveform wave = tran.run();
  return Result{std::move(wave), phases_, std::move(names), tran.stats()};
}

double Script::Result::energy(double t0, double t1) const {
  double sum = 0.0;
  for (const auto& name : sources) {
    const std::string label = "E:" + name;
    sum += wave.value_at(label, t1) - wave.value_at(label, t0);
  }
  return sum;
}

double Script::Result::average_power(double t0, double t1) const {
  if (t1 <= t0) return 0.0;
  return energy(t0, t1) / (t1 - t0);
}

double Script::Result::total_energy() const {
  double sum = 0.0;
  for (const auto& name : sources) sum += wave.final_value("E:" + name);
  return sum;
}

const PhaseWindow& Script::Result::phase(const std::string& name,
                                         int occurrence) const {
  return find_phase(phases, name, occurrence);
}

}  // namespace nvsram::sram
