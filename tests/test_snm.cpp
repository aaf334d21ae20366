// SNM computation on synthetic curves with known answers, plus the
// mismatched-pair overload, and the square search checked bit for bit
// against a plain bisection reference.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>

#include "sram/montecarlo.h"
#include "sram/snm.h"
#include "util/stats.h"

namespace nvsram::sram {
namespace {

// Ideal step inverter: vout = vdd for vin < vm, 0 after; the butterfly of
// two such inverters admits a square of side min(vdd - vm, vm)... for a
// symmetric threshold the exact SNM is vdd/2 with an instantaneous step at
// vm = vdd/2 (each lobe is a (vdd/2) x (vdd/2) opening).
std::vector<std::pair<double, double>> step_vtc(double vdd, double vm,
                                                int points = 201) {
  std::vector<std::pair<double, double>> vtc;
  for (int i = 0; i < points; ++i) {
    const double x = vdd * i / (points - 1);
    vtc.emplace_back(x, x < vm ? vdd : 0.0);
  }
  return vtc;
}

// Straight-line "inverter": vout = vdd - vin.  The butterfly degenerates to
// a single line: SNM must be ~0.
std::vector<std::pair<double, double>> linear_vtc(double vdd, int points = 101) {
  std::vector<std::pair<double, double>> vtc;
  for (int i = 0; i < points; ++i) {
    const double x = vdd * i / (points - 1);
    vtc.emplace_back(x, vdd - x);
  }
  return vtc;
}

TEST(SnmSynthetic, IdealStepInverterGivesHalfVdd) {
  const auto r = compute_snm(step_vtc(1.0, 0.5));
  EXPECT_NEAR(r.snm, 0.5, 0.02);
  EXPECT_NEAR(r.lobe_high, r.lobe_low, 0.02);
}

TEST(SnmSynthetic, AsymmetricThresholdShrinksBothLobes) {
  // An identical pair with vm = 0.3: the upper lobe is limited horizontally
  // (the step at 0.3) and the lower vertically (the mirror's plateau at
  // 0.3), so BOTH lobes collapse to ~0.3.
  const auto r = compute_snm(step_vtc(1.0, 0.3));
  EXPECT_NEAR(r.snm, 0.3, 0.03);
  EXPECT_NEAR(r.lobe_high, 0.3, 0.03);
  EXPECT_NEAR(r.lobe_low, 0.3, 0.03);
}

TEST(SnmSynthetic, LinearInverterHasNoMargin) {
  const auto r = compute_snm(linear_vtc(1.0));
  EXPECT_LT(r.snm, 0.02);
}

TEST(SnmSynthetic, TooFewPointsRejected) {
  EXPECT_THROW(compute_snm({{0.0, 1.0}, {1.0, 0.0}}), std::invalid_argument);
}

TEST(SnmSynthetic, MismatchedPairTakesWorstLobe) {
  // Inverter A switches at 0.5, inverter B at 0.3: one lobe shrinks.
  const auto a = step_vtc(1.0, 0.5);
  const auto b = step_vtc(1.0, 0.3);
  const auto sym = compute_snm(a);
  const auto mis = compute_snm(a, b);
  EXPECT_LT(mis.snm, sym.snm);
  // The identical-pair overload agrees with the two-argument form.
  const auto self = compute_snm(a, a);
  EXPECT_NEAR(self.snm, sym.snm, 1e-12);
}

TEST(SnmSynthetic, MismatchOrderSwapsLobes) {
  const auto a = step_vtc(1.0, 0.6);
  const auto b = step_vtc(1.0, 0.4);
  const auto ab = compute_snm(a, b);
  const auto ba = compute_snm(b, a);
  // Swapping the pair mirrors the butterfly: min lobe (the SNM) is equal.
  EXPECT_NEAR(ab.snm, ba.snm, 0.02);
  EXPECT_NEAR(ab.lobe_high, ba.lobe_low, 0.03);
}

TEST(SnmVtc, SweepPointsControlResolution) {
  const auto pp = models::PaperParams::table1();
  SnmOptions coarse;
  coarse.sweep_points = 21;
  SnmOptions fine;
  fine.sweep_points = 201;
  const auto r_coarse = compute_snm(inverter_vtc(pp, CellKind::k6T, coarse));
  const auto r_fine = compute_snm(inverter_vtc(pp, CellKind::k6T, fine));
  EXPECT_NEAR(r_coarse.snm, r_fine.snm, 0.02);
}

TEST(SnmVtc, VtcEndpointsNearRails) {
  const auto pp = models::PaperParams::table1();
  const auto vtc = inverter_vtc(pp, CellKind::k6T, SnmOptions{});
  EXPECT_GT(vtc.front().second, 0.88);
  EXPECT_LT(vtc.back().second, 0.02);
}

// ---- exactness against the plain bisection ----
//
// The reference is the square search in its simplest form: every curve
// evaluation binary-searches its knots, every probe scans the grid from
// index 0, and the bisection runs all 60 iterations.  compute_snm must
// return the same three doubles, bit for bit.
namespace reference {

using Vtc = std::vector<std::pair<double, double>>;

struct Curve {
  std::vector<double> xs, ys;
  double operator()(double x) const {
    if (x <= xs.front()) return ys.front();
    if (x >= xs.back()) return ys.back();
    const auto it = std::upper_bound(xs.begin(), xs.end(), x);
    const std::size_t i = static_cast<std::size_t>(it - xs.begin());
    const double t = (x - xs[i - 1]) / (xs[i] - xs[i - 1]);
    return ys[i - 1] + t * (ys[i] - ys[i - 1]);
  }
};

double largest_square(const Curve& f, const Curve& f_inv, double x_lo,
                      double x_hi) {
  const auto fits = [&](double s) {
    const double x_max = x_hi - s;
    if (x_max < x_lo) return false;
    const int kGrid = 400;
    for (int i = 0; i <= kGrid; ++i) {
      const double x = x_lo + (x_max - x_lo) * i / kGrid;
      if (f(x + s) - f_inv(x) >= s) return true;
    }
    return false;
  };
  double lo = 0.0;
  double hi = x_hi - x_lo;
  if (!fits(lo + 1e-9)) return 0.0;
  for (int iter = 0; iter < 60; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (fits(mid) ? lo : hi) = mid;
  }
  return lo;
}

Curve forward_curve(const Vtc& vtc) {
  Curve c;
  for (const auto& [x, y] : vtc) {
    c.xs.push_back(x);
    c.ys.push_back(y);
  }
  return c;
}

Curve inverse_curve(const Vtc& vtc) {
  Curve c;
  for (auto it = vtc.rbegin(); it != vtc.rend(); ++it) {
    double w = it->second;
    if (!c.xs.empty() && w <= c.xs.back()) w = c.xs.back() + 1e-12;
    c.xs.push_back(w);
    c.ys.push_back(it->first);
  }
  return c;
}

SnmResult snm(const Vtc& vtc_a, const Vtc& vtc_b) {
  const auto fa = forward_curve(vtc_a);
  const auto fb_inv = inverse_curve(vtc_b);
  const double x_lo = std::min(vtc_a.front().first, vtc_b.front().first);
  const double x_hi = std::max(vtc_a.back().first, vtc_b.back().first);
  SnmResult r;
  r.lobe_high = largest_square(fa, fb_inv, x_lo, x_hi);
  r.lobe_low = largest_square(fb_inv, fa, x_lo, x_hi);
  r.snm = std::min(r.lobe_high, r.lobe_low);
  return r;
}

}  // namespace reference

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// Empty when compute_snm(a, b) equals the reference bit for bit; otherwise
// names the fields that differ.
std::string snm_mismatch(const reference::Vtc& a, const reference::Vtc& b) {
  const SnmResult got = compute_snm(a, b);
  const SnmResult want = reference::snm(a, b);
  std::ostringstream os;
  os.precision(17);
  const auto field = [&](const char* name, double g, double w) {
    if (bits(g) != bits(w)) os << name << " " << g << " != " << w << "; ";
  };
  field("snm", got.snm, want.snm);
  field("lobe_high", got.lobe_high, want.lobe_high);
  field("lobe_low", got.lobe_low, want.lobe_low);
  return os.str();
}

// Smooth inverter: vout = vdd / 2 * (1 - tanh(gain * (vin - vm))) sampled
// at `points` inputs on [x0, x1].
reference::Vtc tanh_vtc(double vdd, double vm, double gain, double x0,
                        double x1, int points) {
  reference::Vtc vtc;
  for (int i = 0; i < points; ++i) {
    const double x = x0 + (x1 - x0) * i / (points - 1);
    vtc.emplace_back(x, 0.5 * vdd * (1.0 - std::tanh(gain * (x - vm))));
  }
  return vtc;
}

// A seeded random VTC: a tanh inverter with random supply, midpoint, gain,
// knot count and x range.  `shape` 1 adds noise to every sample and 2 a
// narrow bump; both make the curve non-monotone.
reference::Vtc random_vtc(std::mt19937& rng, int shape) {
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const double vdd = 0.6 + 0.6 * u(rng);
  const double vm = vdd * (0.25 + 0.5 * u(rng));
  const double gain = 3.0 + 40.0 * u(rng);
  const double x0 = vdd * (-0.1 + 0.25 * u(rng));
  const double x1 = vdd * (0.8 + 0.3 * u(rng));
  const int points = 11 + static_cast<int>(290.0 * u(rng));
  reference::Vtc vtc = tanh_vtc(vdd, vm, gain, x0, x1, points);
  if (shape == 1) {
    const double amplitude = 0.05 * vdd * u(rng);
    for (auto& [x, y] : vtc) y += amplitude * (2.0 * u(rng) - 1.0);
  } else if (shape == 2) {
    const double at = x0 + (x1 - x0) * u(rng);
    const double half_width = (x1 - x0) * (0.005 + 0.05 * u(rng));
    const double height = vdd * (0.2 + 0.8 * u(rng));
    for (auto& [x, y] : vtc) {
      if (std::fabs(x - at) <= half_width) y += height;
    }
  }
  return vtc;
}

TEST(SnmExact, MatchesBisectionReference) {
  // The synthetic curves of this file.
  EXPECT_EQ(snm_mismatch(step_vtc(1.0, 0.5), step_vtc(1.0, 0.5)), "");
  EXPECT_EQ(snm_mismatch(step_vtc(1.0, 0.6), step_vtc(1.0, 0.4)), "");
  EXPECT_EQ(snm_mismatch(linear_vtc(1.0), linear_vtc(1.0)), "");

  // Knot counts that differ: 21 points against 201.
  EXPECT_EQ(snm_mismatch(tanh_vtc(0.9, 0.45, 12.0, 0.0, 0.9, 21),
                         tanh_vtc(0.9, 0.42, 15.0, 0.0, 0.9, 201)),
            "");

  // x ranges that differ, so both curves are evaluated past their ends.
  EXPECT_EQ(snm_mismatch(tanh_vtc(1.0, 0.5, 10.0, 0.0, 1.0, 121),
                         tanh_vtc(1.0, 0.45, 12.0, 0.1, 0.8, 121)),
            "");

  // Exact plateaus at both rails, which inverse_curve nudges apart.
  reference::Vtc plateau;
  for (int i = 0; i <= 120; ++i) {
    const double x = 0.9 * i / 120;
    plateau.emplace_back(x, std::clamp(0.45 - 4.0 * (x - 0.45), 0.0, 0.9));
  }
  EXPECT_EQ(snm_mismatch(plateau, plateau), "");
  EXPECT_EQ(snm_mismatch(plateau, tanh_vtc(0.9, 0.40, 14.0, 0.0, 0.9, 121)),
            "");

  // A narrow bump against a flat curve: the only fitting squares sit at
  // the bump, so a probe that starts its scan past it must wrap round to
  // the start of the grid to find them.
  reference::Vtc bump, flat;
  for (int i = 0; i <= 200; ++i) {
    const double x = i / 200.0;
    bump.emplace_back(x, x >= 0.5 && x <= 0.52 ? 1.0 : 0.0);
    flat.emplace_back(x, 0.0);
  }
  EXPECT_EQ(snm_mismatch(bump, flat), "");
  EXPECT_EQ(bits(compute_snm(bump, flat).lobe_high),
            bits(0.52119700748129671));

  // A curve above the rail against one whose mirror stays low: every
  // probe fits, up to the whole range, so the bisection must still probe
  // its untried upper end when the midpoint rounds onto it.
  reference::Vtc above, middle;
  for (int i = 0; i <= 10; ++i) {
    above.emplace_back(i / 10.0, 2.0);
    middle.emplace_back(i / 10.0, 0.5);
  }
  EXPECT_EQ(snm_mismatch(above, middle), "");
  EXPECT_EQ(bits(compute_snm(above, middle).lobe_high), bits(1.0));

  // Seeded random mismatched pairs: every combination of smooth, noisy
  // and bumped curves, 25 pairs each.
  std::mt19937 rng(20261018);
  int open_lobes = 0;
  for (int pair = 0; pair < 225; ++pair) {
    const int shape_a = pair % 3;
    const int shape_b = (pair / 3) % 3;
    const auto a = random_vtc(rng, shape_a);
    const auto b = random_vtc(rng, shape_b);
    EXPECT_EQ(snm_mismatch(a, b), "")
        << "pair " << pair << ", shapes " << shape_a << "/" << shape_b;
    if (compute_snm(a, b).snm > 0.0) ++open_lobes;
  }
  EXPECT_GT(open_lobes, 150);  // most pairs open both lobes

  // Mismatched Monte-Carlo pairs of both cells, hold and read.
  const auto pp = models::PaperParams::table1();
  for (const CellKind kind : {CellKind::k6T, CellKind::kNvSram}) {
    for (const bool read : {false, true}) {
      for (const double sigma : {0.010, 0.030, 0.080}) {
        VariationSpec spec;
        spec.vth_sigma = sigma;
        MonteCarlo mc(pp, spec);
        for (int sample = 0; sample < 4; ++sample) {
          SnmOptions a, b;
          a.access_on = b.access_on = read;
          a.fet_vary = mc.draw_fet_vary();
          b.fet_vary = mc.draw_fet_vary();
          EXPECT_EQ(snm_mismatch(inverter_vtc(pp, kind, a),
                                 inverter_vtc(pp, kind, b)),
                    "")
              << (kind == CellKind::k6T ? "6T" : "NV")
              << (read ? " read" : " hold") << ", sigma " << sigma
              << ", sample " << sample;
        }
      }
    }
  }
}

}  // namespace
}  // namespace nvsram::sram
