#include "models/finfet.h"

#include <cmath>
#include <sstream>
#include <stdexcept>

#include "util/units.h"

namespace nvsram::models {

namespace {

// softplus(y) = ln(1 + e^y), numerically safe for all y.
double softplus(double y) {
  if (y > 40.0) return y;
  if (y < -40.0) return std::exp(y);
  return std::log1p(std::exp(y));
}

// logistic(y) = 1 / (1 + e^-y)
double logistic(double y) {
  if (y > 40.0) return 1.0;
  if (y < -40.0) return std::exp(y);
  return 1.0 / (1.0 + std::exp(-y));
}

// EKV interpolation function F(x) = ln^2(1 + e^{x/2}) and its derivative.
struct FVal {
  double f;
  double df;
};

FVal ekv_f(double x) {
  const double sp = softplus(0.5 * x);
  const double sg = logistic(0.5 * x);
  return {sp * sp, sp * sg};
}

}  // namespace

double FinFETParams::cgs() const {
  const double w = effective_width();
  return 0.5 * cox_per_area * w * channel_length + overlap_cap_per_width * w;
}

double FinFETParams::cgd() const { return cgs(); }

double FinFETParams::cjunction() const {
  return junction_cap_per_width * effective_width();
}

std::string FinFETParams::describe() const {
  std::ostringstream os;
  os << (type == FetType::kNmos ? "nfin" : "pfin") << " L="
     << util::si_format(channel_length, "m") << " W="
     << util::si_format(effective_width(), "m") << " (" << fin_count
     << " fin) Vth0=" << vth0 << "V n=" << subthreshold_n;
  return os.str();
}

FinFET::FinFET(FinFETParams params) : params_(params) {
  if (params_.fin_count < 1) {
    throw std::invalid_argument("FinFET: fin_count must be >= 1");
  }
  if (params_.channel_length <= 0.0) {
    throw std::invalid_argument("FinFET: channel_length must be positive");
  }
  vt_ = util::thermal_voltage(params_.temperature);
  // Temperature scaling of threshold and mobility, referenced to 300 K.
  const double dt = params_.temperature - 300.0;
  vth_eff0_ = params_.vth0 - params_.vth_tempco * dt;
  const double kp_t =
      params_.kp *
      std::pow(params_.temperature / 300.0, -params_.mobility_temp_exponent);
  const double w_over_l = params_.effective_width() / params_.channel_length;
  is_ = 2.0 * params_.subthreshold_n * kp_t * w_over_l * vt_ * vt_;
}

FinFETOutput FinFET::evaluate_nmos(double vgs, double vds) const {
  // Terminal symmetry: for vds < 0 the roles of source and drain swap.
  if (vds < 0.0) {
    const FinFETOutput sw = evaluate_nmos(vgs - vds, -vds);
    FinFETOutput out;
    // I(vgs, vds) = -J(vgs - vds, -vds)  =>  dI/dvgs = -J1, dI/dvds = J1 + J2.
    out.ids = -sw.ids;
    out.gm = -sw.gm;
    out.gds = sw.gm + sw.gds;
    return out;
  }

  const double n = params_.subthreshold_n;
  const double vth_eff = vth_eff0_ - params_.dibl * vds;
  const double vp = (vgs - vth_eff) / n;
  const double xf = vp / vt_;
  const double xr = (vp - vds) / vt_;

  const FVal ff = ekv_f(xf);
  const FVal fr = ekv_f(xr);

  const double ids0 = is_ * (ff.f - fr.f);
  const double dids0_dvgs = is_ * (ff.df - fr.df) / (n * vt_);
  // Note dibl/n < 1, so both terms below are non-negative: gds > 0 always.
  const double dids0_dvds =
      is_ * (ff.df * (params_.dibl / n) + fr.df * (1.0 - params_.dibl / n)) / vt_;

  // Smooth overdrive for the mobility-degradation factor (vds-independent).
  const double x_od = (vgs - vth_eff0_) / (n * vt_);
  const double s_od = n * vt_ * softplus(x_od);
  const double mob = 1.0 / (1.0 + params_.theta_mob * s_od);
  const double dmob_dvgs = -params_.theta_mob * mob * mob * logistic(x_od);

  const double clm = 1.0 + params_.lambda * vds;

  FinFETOutput out;
  out.ids = ids0 * mob * clm;
  out.gm = (dids0_dvgs * mob + ids0 * dmob_dvgs) * clm;
  out.gds = dids0_dvds * mob * clm + ids0 * mob * params_.lambda;
  return out;
}

FinFETOutput FinFET::evaluate(double vgs, double vds) const {
  if (params_.type == FetType::kNmos) {
    return evaluate_nmos(vgs, vds);
  }
  // PMOS mirror: I_p(vgs, vds) = -I_n(-vgs, -vds); derivatives carry through
  // with both sign flips cancelling.
  const FinFETOutput m = evaluate_nmos(-vgs, -vds);
  FinFETOutput out;
  out.ids = -m.ids;
  out.gm = m.gm;
  out.gds = m.gds;
  return out;
}

double FinFET::on_current() const {
  const double s = (params_.type == FetType::kNmos) ? 1.0 : -1.0;
  return std::fabs(evaluate(s * vdd_ref, s * vdd_ref).ids);
}

double FinFET::off_current() const {
  const double s = (params_.type == FetType::kNmos) ? 1.0 : -1.0;
  return std::fabs(evaluate(0.0, s * vdd_ref).ids);
}

double FinFET::subthreshold_swing() const {
  const double s = (params_.type == FetType::kNmos) ? 1.0 : -1.0;
  const double v1 = 0.05;
  const double v2 = 0.15;
  const double i1 = std::fabs(evaluate(s * v1, s * vdd_ref).ids);
  const double i2 = std::fabs(evaluate(s * v2, s * vdd_ref).ids);
  return (v2 - v1) / (std::log10(i2) - std::log10(i1)) * 1e3;  // mV/dec
}

FinFETParams ptm20_nmos(int fin_count) {
  FinFETParams p;
  p.type = FetType::kNmos;
  p.fin_count = fin_count;
  p.vth0 = 0.25;
  p.subthreshold_n = 1.21;
  p.kp = 2.35e-4;
  p.dibl = 0.10;
  p.theta_mob = 1.2;
  p.lambda = 0.06;
  return p;
}

FinFETParams ptm20_pmos(int fin_count) {
  FinFETParams p;
  p.type = FetType::kPmos;
  p.fin_count = fin_count;
  p.vth0 = 0.25;
  p.subthreshold_n = 1.24;
  p.kp = 1.95e-4;   // lower hole mobility
  p.dibl = 0.11;
  p.theta_mob = 1.3;
  p.lambda = 0.065;
  return p;
}

}  // namespace nvsram::models
