#include "spice/dc.h"

#include <cmath>
#include <stdexcept>

#include "util/log.h"

namespace nvsram::spice {

double evaluate_probe(const Probe& probe, const SolutionView& view, double time,
                      double accumulated_energy) {
  switch (probe.kind) {
    case Probe::Kind::kNodeVoltage:
      return view.node_voltage(probe.node);
    case Probe::Kind::kDeviceCurrent:
      return probe.device->current(view);
    case Probe::Kind::kSourcePower:
      return static_cast<const VSource*>(probe.device)->delivered_power(view, time);
    case Probe::Kind::kSourceEnergy:
      return accumulated_energy;
  }
  return 0.0;
}

DCAnalysis::DCAnalysis(Circuit& circuit, DCOptions options)
    : circuit_(circuit), options_(options), layout_(circuit.build_layout()) {}

std::optional<DCSolution> DCAnalysis::solve(const linalg::Vector* initial_guess) {
  linalg::Vector x(layout_.unknown_count(), 0.0);
  if (initial_guess && initial_guess->size() == x.size()) x = *initial_guess;

  const util::Deadline deadline(options_.max_wall_seconds);
  const NewtonResult r = solve_newton_with_recovery(
      circuit_, layout_, x, /*time=*/0.0, /*dt=*/0.0, /*dc=*/true,
      IntegrationMethod::kBackwardEuler, options_.newton, ws_,
      deadline.unlimited() ? nullptr : &deadline);
  last_diag_ = r.diagnostics;
  if (!r.converged) {
    util::log_warn() << "DC: no operating point: " << last_diag_.describe();
    return std::nullopt;
  }
  return DCSolution(std::move(x), layout_);
}

DCSweep::DCSweep(Circuit& circuit, std::function<void(double)> setter,
                 std::vector<double> points, std::vector<Probe> probes,
                 DCOptions options)
    : circuit_(circuit), setter_(std::move(setter)), points_(std::move(points)),
      probes_(std::move(probes)), options_(options) {}

Waveform DCSweep::run() {
  std::vector<std::string> labels;
  labels.reserve(probes_.size());
  for (const auto& p : probes_) labels.push_back(p.label);
  Waveform wave(std::move(labels));

  std::optional<linalg::Vector> warm;
  std::vector<double> values;
  values.reserve(probes_.size());
  // One analysis for the whole sweep: the topology (and so the sparsity
  // pattern) is fixed, so every point after the first reuses the symbolic
  // LU analysis alongside the warm-started iterate.
  DCAnalysis dc(circuit_, options_);
  for (double point : points_) {
    setter_(point);
    auto sol = dc.solve(warm ? &*warm : nullptr);
    if (!sol) {
      throw SolverError("DCSweep: no convergence at point " +
                            std::to_string(point),
                        dc.last_diagnostics());
    }
    values.clear();
    for (const auto& p : probes_) {
      values.push_back(evaluate_probe(p, sol->view(), 0.0, 0.0));
    }
    wave.append(point, values);
    warm = std::move(*sol).raw();
  }
  return wave;
}

}  // namespace nvsram::spice
