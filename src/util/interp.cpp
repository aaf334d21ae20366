#include "util/interp.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <stdexcept>

namespace nvsram::util {

PiecewiseLinear::PiecewiseLinear(std::vector<double> xs, std::vector<double> ys)
    : xs_(std::move(xs)), ys_(std::move(ys)) {
  if (xs_.size() != ys_.size()) {
    throw std::invalid_argument("PiecewiseLinear: size mismatch");
  }
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    if (!(xs_[i] > xs_[i - 1])) {
      throw std::invalid_argument("PiecewiseLinear: x not strictly increasing");
    }
  }
}

double PiecewiseLinear::operator()(double x) const {
  if (xs_.empty()) return 0.0;
  if (std::isnan(x)) return x;
  if (x <= xs_.front()) return ys_.front();
  if (x >= xs_.back()) return ys_.back();
  const auto it = std::upper_bound(xs_.begin(), xs_.end(), x);
  return interpolate(static_cast<std::size_t>(it - xs_.begin()), x);
}

double PiecewiseLinear::extrapolate(double x) const {
  if (xs_.size() < 2) return (*this)(x);
  if (x < xs_.front()) {
    const double slope = (ys_[1] - ys_[0]) / (xs_[1] - xs_[0]);
    return ys_[0] + slope * (x - xs_[0]);
  }
  if (x > xs_.back()) {
    const std::size_t n = xs_.size();
    const double slope = (ys_[n - 1] - ys_[n - 2]) / (xs_[n - 1] - xs_[n - 2]);
    return ys_[n - 1] + slope * (x - xs_[n - 1]);
  }
  return (*this)(x);
}

std::optional<double> PiecewiseLinear::first_crossing(double level) const {
  for (std::size_t i = 1; i < xs_.size(); ++i) {
    const double f0 = ys_[i - 1] - level;
    const double f1 = ys_[i] - level;
    if (f0 == 0.0) return xs_[i - 1];
    if (f0 * f1 < 0.0) {
      const double t = f0 / (f0 - f1);
      return xs_[i - 1] + t * (xs_[i] - xs_[i - 1]);
    }
  }
  if (!ys_.empty() && ys_.back() == level) return xs_.back();
  return std::nullopt;
}

std::optional<double> PiecewiseLinear::first_intersection(
    const PiecewiseLinear& other) const {
  if (xs_.empty() || other.xs_.empty()) return std::nullopt;
  std::set<double> knots(xs_.begin(), xs_.end());
  knots.insert(other.xs_.begin(), other.xs_.end());

  std::optional<double> prev_x;
  double prev_d = 0.0;
  for (double x : knots) {
    const double d = (*this)(x) - other(x);
    if (prev_x) {
      if (prev_d == 0.0) return *prev_x;
      if (prev_d * d < 0.0) {
        const double t = prev_d / (prev_d - d);
        return *prev_x + t * (x - *prev_x);
      }
    }
    prev_x = x;
    prev_d = d;
  }
  return std::nullopt;
}

double trapezoid_integral(const std::vector<double>& xs,
                          const std::vector<double>& ys) {
  if (xs.size() != ys.size()) {
    throw std::invalid_argument("trapezoid_integral: size mismatch");
  }
  double sum = 0.0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    sum += 0.5 * (ys[i] + ys[i - 1]) * (xs[i] - xs[i - 1]);
  }
  return sum;
}

}  // namespace nvsram::util
