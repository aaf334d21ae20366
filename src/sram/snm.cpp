#include "sram/snm.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

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

// A curve with the extremes of its knots to either side, for the block
// bound of the square search.
class BoundedCurve {
 public:
  explicit BoundedCurve(util::PiecewiseLinear f) : f_(std::move(f)) {
    const auto& ys = f_.ys();
    suffix_max_.resize(ys.size());
    prefix_min_.resize(ys.size());
    for (std::size_t j = ys.size(); j-- > 0;) {
      suffix_max_[j] =
          j + 1 < ys.size() ? std::max(ys[j], suffix_max_[j + 1]) : ys[j];
    }
    for (std::size_t j = 0; j < ys.size(); ++j) {
      prefix_min_[j] = j > 0 ? std::min(ys[j], prefix_min_[j - 1]) : ys[j];
      largest_knot_ = std::max(largest_knot_, std::fabs(ys[j]));
      finite_ = finite_ && std::isfinite(ys[j]);
    }
  }

  double operator()(double x, std::size_t& segment) const {
    return f_(x, segment);
  }

  // The largest value f takes at or right of x, up to the rounding of one
  // evaluation: the value at x or the largest knot right of it.  `segment`
  // is a walking hint, as for operator().
  double max_from(double x, std::size_t& segment) const {
    if (std::isnan(x)) return x;
    if (x <= f_.xs().front()) return suffix_max_.front();
    if (x >= f_.xs().back()) return f_.ys().back();
    const double y = f_(x, segment);  // segment: the first knot right of x
    return std::max(y, suffix_max_[segment]);
  }

  // The smallest value f takes at or left of x, likewise.
  double min_upto(double x, std::size_t& segment) const {
    if (std::isnan(x)) return x;
    if (x <= f_.xs().front()) return f_.ys().front();
    if (x >= f_.xs().back()) return prefix_min_.back();
    const double y = f_(x, segment);  // segment - 1: the last knot left of x
    return std::min(y, prefix_min_[segment - 1]);
  }

  // The largest |knot value|, or infinity if a knot is not finite.
  double largest_knot() const {
    return finite_ ? largest_knot_ : std::numeric_limits<double>::infinity();
  }

 private:
  util::PiecewiseLinear f_;
  std::vector<double> suffix_max_;  // max of ys[j..]
  std::vector<double> prefix_min_;  // min of ys[..j]
  double largest_knot_ = 0.0;
  bool finite_ = true;
};

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
//   2. A probe first tries the grid point where the last square fit, then
//      the rest.  Any fitting point decides a probe, so the order in which
//      points are tried cannot change its verdict.
//   3. hi only ever holds a side that failed, or the untried whole range.
//      Once the midpoint rounds onto lo, no step can move lo; once it
//      rounds onto a hi that failed, every later step repeats that failing
//      probe.  Either way the bisection stops there.
//   4. A block a..b of grid points is skipped only when
//          upper - lower < s - slack,
//      where upper = f.max_from(x_a + s) and lower = f_inv.min_upto(x_b),
//      with x_a + s and x_b rounded as the point test rounds them.  Grid
//      points do not decrease with i, so every point of the block evaluates
//      f at or right of x_a + s, where f stays below upper, and f_inv at or
//      left of x_b, where f_inv stays above lower, each up to the rounding
//      of one interpolation: a few ulps of the largest |knot|.  The slack
//      is 64 such ulps, which also covers the rounding of the bound's own
//      arithmetic, so every point of a skipped block would compute
//      f - f_inv < s and fail.  Knots that are not finite, or large enough
//      for an interpolation to overflow, make the slack infinite and no
//      block is skipped.  The bound holds for any curve, monotone or not.
double largest_square(const BoundedCurve& f, const BoundedCurve& f_inv,
                      double x_lo, double x_hi) {
  constexpr int kGrid = 400;
  constexpr int kLeaf = 4;  // blocks of at most this many points are scanned
  const double knot = std::max(f.largest_knot(), f_inv.largest_knot());
  const double slack =
      knot <= std::numeric_limits<double>::max() / 4
          ? 64 * (std::nextafter(knot, std::numeric_limits<double>::infinity()) -
                  knot)
          : std::numeric_limits<double>::infinity();
  std::size_t f_segment = 0;
  std::size_t f_inv_segment = 0;
  std::size_t upper_segment = 0;
  std::size_t lower_segment = 0;
  int last_fit = 0;
  const auto fits = [&](double s) {
    // The whole square must stay inside the curves' domain: x + s <= x_hi.
    const double x_max = x_hi - s;
    if (x_max < x_lo) return false;
    const auto x_at = [&](int i) { return x_lo + (x_max - x_lo) * i / kGrid; };
    const auto fits_at = [&](int i) {
      const double x = x_at(i);
      return f(x + s, f_segment) - f_inv(x, f_inv_segment) >= s;
    };
    if (fits_at(last_fit)) return true;
    // Branch and bound, depth first: a block splits in halves until it is
    // small enough to scan.  A left half shares its parent's upper bound and
    // a right half its lower bound, so each split evaluates two new bounds.
    // Each split leaves one half on the stack, so it never holds more than
    // one block per halving of the grid.
    struct Block {
      int a, b;
      double upper, lower;  // NaN until evaluated
    };
    constexpr double kUnknown = std::numeric_limits<double>::quiet_NaN();
    std::array<Block, 16> blocks;
    std::size_t top = 0;
    blocks[top++] = {0, kGrid, kUnknown, kUnknown};
    while (top > 0) {
      Block blk = blocks[--top];
      if (blk.b - blk.a < kLeaf) {
        for (int i = blk.a; i <= blk.b; ++i) {
          if (fits_at(i)) {
            last_fit = i;
            return true;
          }
        }
        continue;
      }
      if (std::isnan(blk.upper)) {
        blk.upper = f.max_from(x_at(blk.a) + s, upper_segment);
      }
      if (std::isnan(blk.lower)) {
        blk.lower = f_inv.min_upto(x_at(blk.b), lower_segment);
      }
      if (blk.upper - blk.lower < s - slack) continue;
      const int mid = blk.a + (blk.b - blk.a) / 2;
      blocks[top++] = {mid + 1, blk.b, kUnknown, blk.lower};
      blocks[top++] = {blk.a, mid, blk.upper, kUnknown};
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
  const BoundedCurve fa(forward_curve(vtc_a));
  const BoundedCurve fb_inv(inverse_curve(vtc_b));

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
