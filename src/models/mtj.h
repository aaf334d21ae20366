// Spin-transfer-torque MTJ macromodel.
//
// Substitutes for the experiment-calibrated macromodel of ref. [7]
// (Yamamoto & Sugahara, JJAP 48, 043001 (2009)).  It exposes exactly the
// quantities Table I of the paper fixes:
//
//   * bias-dependent tunneling magnetoresistance
//       TMR(V) = TMR0 / (1 + (V / Vh)^2),     Vh = 0.5 V
//   * parallel resistance from the resistance-area product,
//       Rp = RA / A,   A = pi (phi/2)^2,  phi = 20 nm  ->  Rp = 6366 Ohm
//   * antiparallel resistance Rap(V) = Rp * (1 + TMR(V))  ->  12.7 kOhm at 0
//   * current-induced magnetization switching (CIMS) with critical current
//       Ic = Jc * A = 15.7 uA at Jc = 5e6 A/cm^2
//
// Switching dynamics use the precessional-regime closure
//   t_sw(I) = tau0 / (|I| / Ic - 1)          for |I| > Ic
// so the paper's operating point (store at 1.5 x Ic held for 10 ns) switches
// reliably (t_sw = 2 tau0 = 6 ns < 10 ns) while sub-critical currents never
// switch.  The transient engine advances `SwitchingState` per timestep.
//
// Sign convention: `current` is positive when conventional current flows
// from the PINNED-layer terminal through the junction to the FREE-layer
// terminal.  Positive current drives AP -> P; negative current (electrons
// pinned -> free) drives P -> AP.
#pragma once

#include <string>

namespace nvsram::models {

enum class MtjState { kParallel, kAntiparallel };

const char* to_string(MtjState s);

struct MTJParams {
  double tmr0 = 1.0;              // zero-bias TMR (100 %)
  double ra_product = 2.0e-12;    // Ohm * m^2  (2 Ohm um^2)
  double vh = 0.5;                // V at half-maximum TMR
  double jc = 5e10;               // critical current density, A/m^2 (5e6 A/cm^2)
  double diameter = 20e-9;        // m
  double tau0 = 3e-9;             // switching-dynamics time scale (s)

  // Reliability closure (extension beyond the deterministic CIMS model):
  double thermal_stability = 60.0;  // Delta = E_barrier / kT
  double attempt_time = 1e-9;       // Neel-Brown attempt time tau_a (s)
  double error_tail_factor = 5.0;   // steepness of the super-critical WER tail

  double area() const;            // m^2
  double rp0() const;             // parallel resistance at zero bias
  double rap0() const;            // antiparallel resistance at zero bias
  double critical_current() const;  // Ic = jc * area

  std::string describe() const;

  bool operator==(const MTJParams&) const = default;
};

class MTJ {
 public:
  explicit MTJ(MTJParams params);

  const MTJParams& params() const { return params_; }

  // Bias-dependent TMR.
  double tmr(double voltage) const;

  // Junction resistance for a given state and bias voltage across it.
  double resistance(MtjState state, double voltage) const;

  // Small-signal conductance and its derivative w.r.t. voltage,
  // for the Newton stamp: I(V) = V / R(state, V).
  struct IV {
    double current;
    double conductance;  // dI/dV
  };
  IV current(MtjState state, double voltage) const;

  // Deterministic switching time for a constant overdrive current; +inf if
  // |current| <= Ic or the polarity opposes the transition.
  double switching_time(MtjState from, double current) const;

  // True if `current` has the polarity that can switch out of `from`.
  static bool polarity_drives_switch(MtjState from, double current);

  // ---- reliability closures (documented approximations) ----
  // Mean thermally-activated switching time in the sub-critical regime
  // (Neel-Brown with spin-torque barrier lowering):
  //   tau(I) = tau_a * exp(Delta * (1 - |I|/Ic))      for |I| <= Ic
  // +inf for the wrong polarity; equals the deterministic model above Ic.
  double thermal_switching_tau(MtjState from, double current) const;

  // Zero-bias retention time tau_a * exp(Delta) (~1e17 s at Delta = 60).
  double retention_time() const;

  // Probability the state flips during `duration` at constant `current`
  // (thermal activation; used for read-disturb and retention estimates).
  double disturb_probability(MtjState from, double current,
                             double duration) const;

  // Write error rate of a store pulse: probability CIMS has NOT completed
  // after `pulse` seconds at constant super-critical current.  Closure:
  //   t < t_sw:                 ~1 (pulse shorter than the ballistic time)
  //   t >= t_sw:                exp(-k (t - t_sw) / tau0)
  // (k = error_tail_factor models the thermal initial-angle spread).
  double write_error_rate(MtjState from, double current, double pulse) const;

 private:
  MTJParams params_;
};

// Per-device switching progress integrator, advanced by the transient engine.
class SwitchingState {
 public:
  explicit SwitchingState(MtjState initial = MtjState::kParallel)
      : state_(initial) {}

  MtjState state() const { return state_; }
  double progress() const { return progress_; }
  void force_state(MtjState s) {
    state_ = s;
    progress_ = 0.0;
  }

  // Advance by `dt` seconds at instantaneous junction current `current`
  // (sign convention above).  Returns true if the state flipped during this
  // step.  Sub-critical or wrong-polarity current resets the accumulated
  // progress (incoherent precession does not persist between pulses).
  bool advance(const MTJ& mtj, double current, double dt);

 private:
  MtjState state_;
  double progress_ = 0.0;
};

// Table I preset; `fast` selects the Fig. 9(b) variant (Jc = 1e6 A/cm^2).
MTJParams paper_mtj(bool fast = false);

}  // namespace nvsram::models
