// Scripted transient shared by the cell, array and NV-FF testbenches.
//
// A Script owns the stimulus side of a testbench: one track per ideal
// driver on a single script clock, and the named phase windows of the
// schedule.  run() freezes every track into its source's PWL spec, probes
// each driver's energy, applies the one horizon and step ceiling, and runs
// one transient.  The per-phase energies the paper compares (E_store,
// E_restore, the access energies behind E_cyc and the BETs) are read from
// its Result.
//
// The testbenches build their circuits and schedule their operations; the
// script neither owns the circuit nor knows what the drivers drive.
#pragma once

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "lint/temporal/timeline.h"
#include "spice/dc.h"
#include "spice/tran.h"

namespace nvsram::spice {
class VSource;
}  // namespace nvsram::spice

namespace nvsram::sram {

// Driver timing every script shares.
inline constexpr double kSlew = 25e-12;           // driver edge time
inline constexpr double kStoreMargin = 2e-9;      // settle time per store step
inline constexpr double kRestoreRamp = 0.5e-9;    // virtual-VDD ramp on wake-up
inline constexpr double kRestoreSettle = 1.5e-9;  // MTJ read-back after it

// One named window of the schedule.
struct PhaseWindow {
  std::string name;
  double t0 = 0.0;
  double t1 = 0.0;
  double duration() const { return t1 - t0; }
};

class Script {
 public:
  // One ideal driver and the PWL corners scheduled on it.
  struct Track {
    spice::VSource* source = nullptr;
    lint::temporal::SignalRole role = lint::temporal::SignalRole::kOther;
    std::vector<std::pair<double, double>> corners;
    double level = 0.0;  // level after the last corner
  };

  // Names a track of this script.  A default-constructed id names none;
  // scheduling on it throws std::out_of_range.
  struct TrackId {
    std::size_t index = static_cast<std::size_t>(-1);
  };

  struct Result {
    spice::Waveform wave;
    std::vector<PhaseWindow> phases;
    std::vector<std::string> sources;  // driver names, in track order
    spice::TranStats stats;

    // Energy delivered by all drivers over [t0, t1].
    double energy(double t0, double t1) const;
    double energy(const PhaseWindow& ph) const { return energy(ph.t0, ph.t1); }
    double average_power(double t0, double t1) const;
    // Energy delivered by all drivers over the whole run.
    double total_energy() const;
    // n-th occurrence of a phase with this name (throws std::out_of_range
    // past the last one).
    const PhaseWindow& phase(const std::string& name, int occurrence = 0) const;
  };

  // Adds an ideal source `name` from `node` to ground and a track for it.
  // The source holds `level` until the track's first edge.
  TrackId add_driver(
      spice::Circuit& circuit, const std::string& name, spice::NodeId node,
      double level,
      lint::temporal::SignalRole role = lint::temporal::SignalRole::kOther);
  const Track& track(TrackId id) const { return tracks_.at(id.index); }

  // Ramps the track to `v` over `ramp` (default: one slew), starting at `t`
  // or 1% of a slew after the track's last corner, whichever is later.  No
  // corner is added when the level does not change.
  void set_level(TrackId id, double t, double v, double ramp = 0.0);

  void add_phase(const std::string& name, double t0, double t1);
  const std::vector<PhaseWindow>& phases() const { return phases_; }
  const PhaseWindow& phase(const std::string& name, int occurrence = 0) const;

  // The script clock: where the next operation starts.
  double now() const { return now_; }
  void advance_to(double t) { now_ = t; }

  // Power delivered by all drivers at a DC operating point.
  double driver_power(const spice::DCSolution& sol) const;

  // Static timeline: the corners run() would freeze, each track's role, the
  // phase windows and the horizon.  Nothing is solved.
  lint::temporal::Timeline timeline() const;

  // Runs one transient over the whole script.  The script sets `topt`'s
  // t_stop to its horizon and dt_max to its step ceiling, clamp(t_stop /
  // 1000, 50 ps, 5 ns).  `probes` come first in the waveform, then each
  // driver's "P:" (with `probe_power`) and "E:" series in track order.
  // With `instants` the waveform keeps only the samples that reading it at
  // those times needs (spice::Waveform), so energy() and value_at() answer
  // there alone.  Throws std::logic_error when no phase is scheduled.
  Result run(spice::Circuit& circuit, std::vector<spice::Probe> probes,
             spice::TranOptions topt = {}, bool probe_power = false,
             std::vector<double> instants = {});

 private:
  // Horizon of run() and of the exported timeline.
  double t_stop() const { return now_ + 1e-9; }

  std::vector<Track> tracks_;
  std::vector<PhaseWindow> phases_;
  double now_ = 0.0;
};

}  // namespace nvsram::sram
