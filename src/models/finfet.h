// Compact FinFET I-V / C-V model.
//
// Substitutes for the 20 nm PTM BSIM-CMG card the paper used in HSPICE.
// The core is an EKV-style charge-sheet interpolation
//
//   Ids = Is * [ F(xf) - F(xr) ] * mob(Vgs) * clm(Vds)
//   F(x) = ln^2(1 + exp(x / 2)),     xf/r = (Vp - Vs/d) / Vt
//   Vp   = (Vgs - Vth_eff) / n,      Vth_eff = Vth0 - dibl * Vds
//   mob  = 1 / (1 + theta * s(Vgs)),  s = n Vt softplus((Vgs - Vth0)/(n Vt))
//
// mob() models vertical-field mobility degradation / velocity saturation as
// a smooth overdrive-dependent factor; keeping it independent of Vds makes
// gds provably positive (monotone output curves), which both matches real
// long-channel-free devices well enough and keeps Newton iterations stable.
//
// which is C-infinity continuous from deep subthreshold to strong inversion
// (what Newton-Raphson needs), source/drain symmetric after terminal
// swapping, and calibrated to the public 20 nm HP PTM headline figures
// (Ion ~ 1.3 mA/um, Ioff ~ 100 nA/um, SS ~ 72 mV/dec, |Vth| ~ 0.25 V).
//
// Fin geometry enters through the effective width of one fin,
// W_fin = 2 * H_fin + T_fin, multiplied by the fin count.
#pragma once

#include <string>

namespace nvsram::models {

enum class FetType { kNmos, kPmos };

struct FinFETParams {
  FetType type = FetType::kNmos;

  // Geometry (meters).
  double channel_length = 20e-9;
  double fin_width = 15e-9;    // T_fin
  double fin_height = 28e-9;   // H_fin
  int fin_count = 1;

  // DC model.
  double vth0 = 0.25;          // zero-bias threshold magnitude (V)
  double subthreshold_n = 1.21;  // slope factor (SS = n Vt ln10 ~ 72 mV/dec)
  double kp = 2.35e-4;         // mobility * Cox (A/V^2)
  double dibl = 0.10;          // Vth shift per volt of Vds
  double theta_mob = 1.2;      // mobility degradation vs gate overdrive (1/V)
  double lambda = 0.06;        // channel-length modulation (1/V)
  double temperature = 300.0;  // K
  // Temperature coefficients (relative to 300 K): Vth drops ~0.7 mV/K and
  // mobility degrades ~ (T/300)^-1.5; both standard silicon behaviour.
  double vth_tempco = 7e-4;    // V/K
  double mobility_temp_exponent = 1.5;

  // Capacitance model (per square meter / per meter).
  double cox_per_area = 0.0345;    // F/m^2 (~1 nm EOT)
  double overlap_cap_per_width = 2.8e-10;  // F/m of gate edge
  double junction_cap_per_width = 2.0e-10; // F/m, drain/source to ground

  // Effective channel width of all fins (m).
  double effective_width() const {
    return static_cast<double>(fin_count) * (2.0 * fin_height + fin_width);
  }

  // Lumped terminal capacitances (F): gate-source, gate-drain, and
  // drain/source junction capacitance to ground.
  double cgs() const;
  double cgd() const;
  double cjunction() const;

  std::string describe() const;
};

// Operating-point evaluation of the model.
struct FinFETOutput {
  double ids = 0.0;  // drain current, positive into drain (NMOS convention)
  double gm = 0.0;   // dIds/dVgs
  double gds = 0.0;  // dIds/dVds
};

class FinFET {
 public:
  explicit FinFET(FinFETParams params);

  const FinFETParams& params() const { return params_; }

  // Drain current and small-signal derivatives for terminal voltages given
  // relative to the source convention of the *netlist* (i.e. Vgs, Vds may be
  // any sign; the model handles source/drain swap and PMOS internally).
  FinFETOutput evaluate(double vgs, double vds) const;

  // Convenience scalars.
  double ids(double vgs, double vds) const { return evaluate(vgs, vds).ids; }

  // Headline metrics used by calibration tests.
  double on_current() const;      // |Ids| at |Vgs| = |Vds| = vdd_ref
  double off_current() const;     // |Ids| at Vgs = 0, |Vds| = vdd_ref
  double subthreshold_swing() const;  // mV/dec around Vgs ~ vth0/2
  double vdd_ref = 0.9;

 private:
  // NMOS-normalized core (vgs, vds >= 0 handled inside by swap).
  FinFETOutput evaluate_nmos(double vgs, double vds) const;

  FinFETParams params_;
  double is_;        // specific current 2 n kp(T) (W/L) Vt^2
  double vt_;        // thermal voltage
  double vth_eff0_;  // temperature-adjusted zero-Vds threshold
};

// PTM-calibrated parameter presets for the paper's 20 nm technology.
FinFETParams ptm20_nmos(int fin_count = 1);
FinFETParams ptm20_pmos(int fin_count = 1);

}  // namespace nvsram::models
