#include "sram/snm.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "spice/dc.h"
#include "spice/elements.h"
#include "util/interp.h"
#include "util/stats.h"

namespace nvsram::sram {

std::vector<std::pair<double, double>> inverter_vtc(
    const models::PaperParams& pp, CellKind kind, const SnmOptions& opts) {
  const double vdd = opts.vvdd > 0.0 ? opts.vvdd : pp.vdd;

  spice::Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_out = ckt.node("out");
  const auto n_vdd = ckt.node("vdd");

  auto* vin = ckt.add<spice::VSource>("Vin", n_in, spice::kGround,
                                      spice::SourceSpec::dc(0.0));
  ckt.add<spice::VSource>("Vdd", n_vdd, spice::kGround,
                          spice::SourceSpec::dc(vdd));
  auto vary = [&](const char* name, models::FinFETParams params) {
    if (opts.fet_vary) opts.fet_vary(name, params);
    return params;
  };
  spice::add_finfet(ckt, "pu", n_out, n_in, n_vdd,
                    vary("pu", pp.pmos(pp.fins_load)));
  spice::add_finfet(ckt, "pd", n_out, n_in, spice::kGround,
                    vary("pd", pp.nmos(pp.fins_driver)));

  if (opts.access_on) {
    const auto n_bl = ckt.node("bl");
    const auto n_wl = ckt.node("wl");
    ckt.add<spice::VSource>("Vbl", n_bl, spice::kGround,
                            spice::SourceSpec::dc(vdd));
    ckt.add<spice::VSource>("Vwl", n_wl, spice::kGround,
                            spice::SourceSpec::dc(vdd));
    spice::add_finfet(ckt, "ax", n_bl, n_wl, n_out,
                      vary("ax", pp.nmos(pp.fins_access)));
  }
  if (kind == CellKind::kNvSram) {
    // PS branch loading the output node: out -- FET(SR) -- Y -- MTJ -- CTRL.
    const auto n_y = ckt.node("y");
    const auto n_sr = ckt.node("sr");
    const auto n_ctrl = ckt.node("ctrl");
    ckt.add<spice::VSource>(
        "Vsr", n_sr, spice::kGround,
        spice::SourceSpec::dc(opts.ps_branch_connected ? pp.vsr : 0.0));
    ckt.add<spice::VSource>(
        "Vctrl", n_ctrl, spice::kGround,
        spice::SourceSpec::dc(opts.ps_branch_connected ? 0.0 : pp.vctrl_normal));
    spice::add_finfet(ckt, "ps", n_out, n_sr, n_y,
                      vary("ps", pp.nmos(pp.fins_ps)));
    ckt.add<spice::MTJElement>("mtj", n_ctrl, n_y, pp.mtj,
                               models::MtjState::kParallel);
  }

  const auto points = util::linspace(0.0, vdd, static_cast<std::size_t>(
                                                   std::max(opts.sweep_points, 3)));
  spice::DCSweep sweep(
      ckt, [vin](double v) { vin->set_spec(spice::SourceSpec::dc(v)); }, points,
      {spice::Probe::node_voltage(n_out, "V(out)")},
      spice::DCOptions{
          .newton = spice::NewtonOptions{}.relaxed(opts.relax_attempt)});
  const auto wave = sweep.run();

  std::vector<std::pair<double, double>> vtc;
  vtc.reserve(points.size());
  const auto& out = wave.series("V(out)");
  for (std::size_t i = 0; i < points.size(); ++i) {
    vtc.emplace_back(points[i], out[i]);
  }
  return vtc;
}

namespace {

// Largest axis-aligned square inscribed in the lobe bounded above by y=f(x)
// and below by the mirrored curve y = f_inv(x).  Both curves are monotone
// non-increasing, so for a square spanning [x, x+s] the top edge binds at
// the right end (y_top <= f(x+s)) and the bottom edge at the left end
// (y_bot >= f_inv(x)); a side-s square fits iff
//     exists x:  f(x + s) - f_inv(x) >= s.
// Feasibility is tested on a 401-point grid of left edges x, and s is
// bisected on [0, x_hi - x_lo] for at most 60 steps after a first probe at
// 1e-9.
//
// Exactness invariants: the result is, bit for bit, what the plain search
// returns (a binary search per curve evaluation, every probe scanning the
// grid from index 0, all 60 bisection steps).
//   1. A curve evaluation walks from the segment its previous call ended on
//      and lands on the segment upper_bound finds, so it returns the same
//      double.
//   2. A probe scans the grid from the index where the last square fit and
//      wraps round to 0.  Any fitting point decides a probe, so the scan
//      order cannot change its verdict.
//   3. hi only ever holds a side that failed, or the untried whole range.
//      Once the midpoint rounds onto lo, no step can move lo; once it
//      rounds onto a hi that failed, every later step repeats that failing
//      probe.  Either way the bisection stops there.
double largest_square(const util::PiecewiseLinear& f,
                      const util::PiecewiseLinear& f_inv, double x_lo,
                      double x_hi) {
  constexpr int kGrid = 400;
  std::size_t f_segment = 0;
  std::size_t f_inv_segment = 0;
  int last_fit = 0;
  const auto fits = [&](double s) {
    // The whole square must stay inside the curves' domain: x + s <= x_hi.
    const double x_max = x_hi - s;
    if (x_max < x_lo) return false;
    int i = last_fit;
    for (int k = 0; k <= kGrid; ++k, i = i == kGrid ? 0 : i + 1) {
      const double x = x_lo + (x_max - x_lo) * i / kGrid;
      if (f(x + s, f_segment) - f_inv(x, f_inv_segment) >= s) {
        last_fit = i;
        return true;
      }
    }
    return false;
  };
  double lo = 0.0;
  double hi = x_hi - x_lo;
  bool hi_failed = false;  // false while hi is the untried whole range
  if (!fits(lo + 1e-9)) return 0.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    if (mid == lo || (mid == hi && hi_failed)) break;
    if (fits(mid)) {
      lo = mid;
    } else {
      hi = mid;
      hi_failed = true;
    }
  }
  return lo;
}

}  // namespace

namespace {

// f: vout(vin) on an increasing vin grid.
util::PiecewiseLinear forward_curve(
    const std::vector<std::pair<double, double>>& vtc) {
  std::vector<double> xs, ys;
  xs.reserve(vtc.size());
  ys.reserve(vtc.size());
  for (const auto& [x, y] : vtc) {
    xs.push_back(x);
    ys.push_back(y);
  }
  return util::PiecewiseLinear(xs, ys);
}

// f_inv: the mirrored curve x(vout).  A VTC is monotone non-increasing;
// reverse the samples (and nudge exact plateaus) for an increasing axis.
util::PiecewiseLinear inverse_curve(
    const std::vector<std::pair<double, double>>& vtc) {
  std::vector<double> xi, yi;
  xi.reserve(vtc.size());
  yi.reserve(vtc.size());
  for (auto it = vtc.rbegin(); it != vtc.rend(); ++it) {
    double w = it->second;  // vout becomes the abscissa
    if (!xi.empty() && w <= xi.back()) w = xi.back() + 1e-12;
    xi.push_back(w);
    yi.push_back(it->first);
  }
  return util::PiecewiseLinear(xi, yi);
}

}  // namespace

SnmResult compute_snm(const std::vector<std::pair<double, double>>& vtc) {
  return compute_snm(vtc, vtc);
}

SnmResult compute_snm(const std::vector<std::pair<double, double>>& vtc_a,
                      const std::vector<std::pair<double, double>>& vtc_b) {
  if (vtc_a.size() < 3 || vtc_b.size() < 3) {
    throw std::invalid_argument("compute_snm: too few points");
  }
  const auto fa = forward_curve(vtc_a);
  const auto fb_inv = inverse_curve(vtc_b);

  const double x_lo = std::min(vtc_a.front().first, vtc_b.front().first);
  const double x_hi = std::max(vtc_a.back().first, vtc_b.back().first);
  SnmResult r;
  // Upper-left lobe: curve A above the mirror of B.
  r.lobe_high = largest_square(fa, fb_inv, x_lo, x_hi);
  // Lower-right lobe: the mirrored orientation.
  r.lobe_low = largest_square(fb_inv, fa, x_lo, x_hi);
  r.snm = std::min(r.lobe_high, r.lobe_low);
  return r;
}

SnmResult hold_snm(const models::PaperParams& pp, CellKind kind, double vvdd) {
  SnmOptions opts;
  opts.vvdd = vvdd;
  return compute_snm(inverter_vtc(pp, kind, opts));
}

SnmResult read_snm(const models::PaperParams& pp, CellKind kind) {
  SnmOptions opts;
  opts.access_on = true;
  return compute_snm(inverter_vtc(pp, kind, opts));
}

}  // namespace nvsram::sram
