// Piecewise-linear interpolation over sampled curves.
//
// Used for PWL source evaluation and for extracting crossings/intersections
// from simulated sweeps (e.g. the BET from two E_cyc(t_SD) series).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <optional>
#include <vector>

namespace nvsram::util {

// A monotone-x piecewise-linear curve.
class PiecewiseLinear {
 public:
  PiecewiseLinear() = default;
  // `xs` must be strictly increasing and the same length as `ys`
  // (throws std::invalid_argument otherwise).
  PiecewiseLinear(std::vector<double> xs, std::vector<double> ys);

  // Evaluate with clamp-to-end extrapolation; NaN for a NaN argument.
  double operator()(double x) const;

  // The same value, bit for bit, found by walking from `segment`, the
  // segment the previous call ended on, instead of binary-searching the
  // knots; it stores the segment it lands on back into `segment`.  Start
  // from 0 (any value is valid).  A caller whose arguments move a few
  // knots at a time pays O(1) per call instead of O(log n).  Inline, as
  // the SNM square search makes about 46k of these calls per butterfly.
  double operator()(double x, std::size_t& segment) const {
    if (xs_.empty()) return 0.0;
    if (std::isnan(x)) return x;
    if (x <= xs_.front()) return ys_.front();
    if (x >= xs_.back()) return ys_.back();
    // Here xs_.front() < x < xs_.back(), so both walks stop inside
    // [1, size - 1], on the segment upper_bound finds.
    std::size_t i = std::clamp<std::size_t>(segment, 1, xs_.size() - 1);
    while (x >= xs_[i]) ++i;
    while (x < xs_[i - 1]) --i;
    segment = i;
    return interpolate(i, x);
  }

  // Evaluate with linear extrapolation beyond the ends.
  double extrapolate(double x) const;

  // First x in [x_begin, x_end] where the curve crosses `level`
  // (linear interpolation inside segments).
  std::optional<double> first_crossing(double level) const;

  // First x where (*this - other) changes sign; both curves are evaluated on
  // the union of their knots.
  std::optional<double> first_intersection(const PiecewiseLinear& other) const;

  std::size_t size() const { return xs_.size(); }
  bool empty() const { return xs_.empty(); }
  const std::vector<double>& xs() const { return xs_; }
  const std::vector<double>& ys() const { return ys_; }

 private:
  // Linear interpolation on segment [xs_[i - 1], xs_[i]]; both forms of
  // operator() evaluate through it.
  double interpolate(std::size_t i, double x) const {
    const double t = (x - xs_[i - 1]) / (xs_[i] - xs_[i - 1]);
    return ys_[i - 1] + t * (ys_[i] - ys_[i - 1]);
  }

  std::vector<double> xs_;
  std::vector<double> ys_;
};

// Trapezoidal integral of samples (xs strictly increasing).
double trapezoid_integral(const std::vector<double>& xs,
                          const std::vector<double>& ys);

}  // namespace nvsram::util
