#include "spice/tran.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

#include "util/log.h"

namespace nvsram::spice {

TranOptions TranOptions::relaxed(int attempt) const {
  TranOptions r = *this;
  if (attempt <= 0) return r;
  r.newton = newton.relaxed(attempt);
  // Loosen the truncation-error budget in step with Newton and let the
  // controller take coarser steps before declaring underflow.
  const double scale = std::pow(10.0, attempt);
  r.lte_reltol = std::min(lte_reltol * scale, 2e-2);
  r.lte_abstol = std::min(lte_abstol * scale, 1e-3);
  r.dt_min = dt_min * scale;
  return r;
}

TranAnalysis::TranAnalysis(Circuit& circuit, TranOptions options,
                           std::vector<Probe> probes)
    : circuit_(circuit), options_(options), probes_(std::move(probes)),
      layout_(circuit.build_layout()) {}

double TranAnalysis::source_energy(const std::string& name) const {
  const auto it = energies_.find(name);
  return it == energies_.end() ? 0.0 : it->second;
}

Waveform TranAnalysis::run(const DCSolution* initial) {
  if (options_.t_stop <= 0.0) {
    throw std::invalid_argument("TranAnalysis: t_stop must be positive");
  }
  const double dt_max =
      options_.dt_max > 0.0 ? options_.dt_max : options_.t_stop / 50.0;

  const util::Deadline watchdog(options_.max_wall_seconds);

  // ---- initial condition ----
  linalg::Vector x;
  if (initial) {
    x = initial->raw();
  } else {
    DCAnalysis dc(circuit_);
    auto sol = dc.solve();
    if (!sol) {
      stats_.last_diagnostics = dc.last_diagnostics();
      throw SolverError("TranAnalysis: DC initial point failed",
                        dc.last_diagnostics());
    }
    x = sol->raw();
  }
  {
    SolutionView view(x, layout_);
    for (const auto& dev : circuit_.devices()) dev->begin_transient(view);
  }

  // ---- collect sources for energy accounting, and breakpoints ----
  std::vector<VSource*> sources;
  for (const auto& dev : circuit_.devices()) {
    if (auto* vs = device_cast<VSource>(dev.get())) sources.push_back(vs);
  }
  std::vector<double> bp_raw;
  for (const auto& dev : circuit_.devices()) {
    dev->breakpoints(options_.t_stop, bp_raw);
  }
  std::set<double> breakpoints(bp_raw.begin(), bp_raw.end());
  breakpoints.insert(options_.t_stop);

  // ---- probe recording ----
  std::vector<std::string> labels;
  labels.reserve(probes_.size());
  for (const auto& p : probes_) labels.push_back(p.label);
  Waveform wave(std::move(labels));

  energies_.clear();
  for (auto* vs : sources) energies_[vs->name()] = 0.0;
  std::vector<double> power_prev(sources.size());

  auto record = [&](double t, const SolutionView& view) {
    std::vector<double> values;
    values.reserve(probes_.size());
    for (const auto& p : probes_) {
      double energy = 0.0;
      if (p.kind == Probe::Kind::kSourceEnergy) {
        energy = energies_[p.device->name()];
      }
      values.push_back(evaluate_probe(p, view, t, energy));
    }
    wave.append(t, values);
  };

  double t = 0.0;
  // Probe-recording decimation: keep at least max_samples points by spacing
  // recordings ~t_stop/max_samples apart (plus the first and last points).
  const double record_spacing =
      options_.max_samples > 0
          ? options_.t_stop / static_cast<double>(options_.max_samples)
          : 0.0;
  double last_recorded = -1.0;
  {
    SolutionView view(x, layout_);
    for (std::size_t i = 0; i < sources.size(); ++i) {
      power_prev[i] = sources[i]->delivered_power(view, t);
    }
    record(t, view);
    last_recorded = t;
  }

  // History for the predictor (two previous accepted points).
  linalg::Vector x_prev = x;
  double t_prev = 0.0;
  bool have_history = false;

  double dt = std::min(options_.dt_initial, dt_max);
  const std::size_t node_unknowns = layout_.node_count() - 1;

  while (t < options_.t_stop - 1e-18 * options_.t_stop) {
    watchdog.check("TranAnalysis");
    // Clamp to the next breakpoint so source corners are hit exactly.
    auto bp = breakpoints.upper_bound(t * (1.0 + 1e-15));
    double dt_try = std::min(dt, dt_max);
    if (bp != breakpoints.end()) {
      const double gap = *bp - t;
      if (gap <= dt_try * 1.5) {
        dt_try = gap;  // land exactly on the breakpoint
      }
    }
    dt_try = std::min(dt_try, options_.t_stop - t);

    // Predictor: linear extrapolation of the last two accepted solutions.
    linalg::Vector x_pred = x;
    if (have_history && t > t_prev) {
      const double ratio = dt_try / (t - t_prev);
      for (std::size_t i = 0; i < x.size(); ++i) {
        x_pred[i] = x[i] + (x[i] - x_prev[i]) * ratio;
      }
    }

    linalg::Vector x_new = x_pred;
    NewtonResult nr =
        solve_newton(circuit_, layout_, x_new, t + dt_try, dt_try, /*dc=*/false,
                     options_.method, options_.newton, ws_);
    stats_.total_newton_iterations += static_cast<std::size_t>(nr.iterations);

    bool salvaged = false;
    if (!nr.converged) {
      ++stats_.newton_failures;
      nr.diagnostics.stage = RecoveryStage::kDtHalving;
      stats_.last_diagnostics = nr.diagnostics;
      dt = dt_try / 4.0;
      if (dt >= options_.dt_min) continue;

      // dt-halving is exhausted: escalate through the recovery ladder at
      // this timepoint, restarting from the last accepted solution.
      if (options_.recovery_enabled) {
        RecoveryOptions recovery = options_.recovery;
        recovery.source_ramp_from_zero = false;
        x_new = x;
        nr = solve_newton_with_recovery(circuit_, layout_, x_new, t + dt_try,
                                        dt_try, /*dc=*/false, options_.method,
                                        options_.newton, recovery, ws_,
                                        watchdog.unlimited() ? nullptr
                                                             : &watchdog);
        stats_.total_newton_iterations +=
            static_cast<std::size_t>(nr.iterations);
      }
      stats_.last_diagnostics = nr.diagnostics;
      if (!nr.converged) {
        throw SolverError("TranAnalysis: timestep underflow at t=" +
                              std::to_string(t) + " (recovery ladder exhausted)",
                          nr.diagnostics);
      }
      if (nr.diagnostics.stage == RecoveryStage::kGminRamp) {
        ++stats_.gmin_recoveries;
      } else if (nr.diagnostics.stage == RecoveryStage::kSourceRamp) {
        ++stats_.source_recoveries;
      }
      // Accept the salvaged step unconditionally: the predictor state is
      // stale, so the LTE test below would reject it spuriously.
      salvaged = true;
      dt = std::max(options_.dt_min, dt_try);
    }

    // Local error estimate from the predictor mismatch (node voltages only).
    if (salvaged) {
      // dt already reset; no LTE check against the stale predictor.
    } else if (have_history) {
      double worst = 0.0;
      for (std::size_t i = 0; i < node_unknowns; ++i) {
        const double err = std::fabs(x_new[i] - x_pred[i]);
        const double tol = options_.lte_abstol +
                           options_.lte_reltol * std::max(std::fabs(x_new[i]),
                                                          std::fabs(x[i]));
        worst = std::max(worst, err / (options_.lte_trtol * tol));
      }
      if (worst > 1.0 && dt_try > options_.dt_min * 4.0) {
        ++stats_.rejected_steps;
        dt = std::max(options_.dt_min, dt_try * 0.5);
        continue;
      }
      // Grow/shrink for the next step.
      const double factor =
          worst > 0.0 ? std::clamp(0.9 / std::sqrt(worst), 0.4, 2.0) : 2.0;
      dt = std::clamp(dt_try * factor, options_.dt_min, dt_max);
    } else {
      dt = std::min(dt_try * 2.0, dt_max);
    }

    // ---- accept the step ----
    const double t_new = t + dt_try;
    SolutionView view(x_new, layout_);

    bool event = false;
    for (const auto& dev : circuit_.devices()) {
      event |= dev->accept_step(view, t_new, dt_try);
    }
    if (event) {
      ++stats_.device_events;
      dt = std::max(options_.dt_min, options_.dt_initial);
    }

    // Energy accumulation (trapezoid on delivered power).
    for (std::size_t i = 0; i < sources.size(); ++i) {
      const double p_now = sources[i]->delivered_power(view, t_new);
      energies_[sources[i]->name()] += 0.5 * (p_now + power_prev[i]) * dt_try;
      power_prev[i] = p_now;
    }

    x_prev = x;
    t_prev = t;
    x = x_new;
    t = t_new;
    have_history = true;
    ++stats_.accepted_steps;

    const bool final_point = t >= options_.t_stop - 1e-18 * options_.t_stop;
    if (record_spacing == 0.0 || final_point ||
        t - last_recorded >= record_spacing) {
      record(t, view);
      last_recorded = t;
    }
  }
  return wave;
}

}  // namespace nvsram::spice
