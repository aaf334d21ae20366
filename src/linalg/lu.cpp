#include "linalg/lu.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace nvsram::linalg {

namespace {

// Solves with a dense LU factor `lu` of the rows `perm` of A (unit L below
// the diagonal, U on and above it).
Vector solve_factors(const DenseMatrix& lu, const std::vector<std::size_t>& perm,
                     const Vector& b) {
  const std::size_t n = lu.rows();
  // Apply permutation, then forward substitution (L has unit diagonal).
  Vector y(n);
  for (std::size_t i = 0; i < n; ++i) y[i] = b[perm[i]];
  for (std::size_t i = 0; i < n; ++i) {
    double sum = y[i];
    for (std::size_t j = 0; j < i; ++j) sum -= lu(i, j) * y[j];
    y[i] = sum;
  }
  // Back substitution with U.
  for (std::size_t ii = n; ii-- > 0;) {
    double sum = y[ii];
    for (std::size_t j = ii + 1; j < n; ++j) sum -= lu(ii, j) * y[j];
    y[ii] = sum / lu(ii, ii);
  }
  return y;
}

}  // namespace

bool LuFactorization::factorize(const DenseMatrix& a) {
  if (a.rows() != a.cols()) throw std::invalid_argument("LU: matrix not square");
  const std::size_t n = a.rows();
  lu_ = a;
  perm_.resize(n);
  std::iota(perm_.begin(), perm_.end(), std::size_t{0});
  valid_ = false;
  failed_pivot_ = kNoFailedPivot;
  non_finite_ = false;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: find the largest magnitude entry in column k at/below k.
    // A NaN anywhere in the candidate column poisons the whole step, so it
    // is treated as a failure here rather than silently losing the NaN to
    // the (always-false) magnitude comparisons below.
    std::size_t pivot_row = k;
    double pivot_mag = std::fabs(lu_(k, k));
    bool finite = std::isfinite(pivot_mag);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double mag = std::fabs(lu_(r, k));
      finite = finite && std::isfinite(mag);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        pivot_row = r;
      }
    }
    if (!finite || !std::isfinite(pivot_mag)) {
      failed_pivot_ = k;
      non_finite_ = true;
      return false;
    }
    if (pivot_mag < kPivotFloor) {
      failed_pivot_ = k;
      return false;
    }
    if (pivot_row != k) {
      for (std::size_t c = 0; c < n; ++c) std::swap(lu_(k, c), lu_(pivot_row, c));
      std::swap(perm_[k], perm_[pivot_row]);
    }
    const double inv_pivot = 1.0 / lu_(k, k);
    for (std::size_t r = k + 1; r < n; ++r) {
      const double factor = lu_(r, k) * inv_pivot;
      lu_(r, k) = factor;
      if (factor == 0.0) continue;
      for (std::size_t c = k + 1; c < n; ++c) {
        lu_(r, c) -= factor * lu_(k, c);
      }
    }
  }
  valid_ = true;
  return true;
}

Vector LuFactorization::solve(const Vector& b) const {
  if (!valid_) throw std::logic_error("LU::solve before successful factorize");
  const std::size_t n = lu_.rows();
  if (b.size() != n) throw std::invalid_argument("LU::solve rhs size");
  return solve_factors(lu_, perm_, b);
}

Vector LuFactorization::refine(const DenseMatrix& a, const Vector& b,
                               const Vector& x) const {
  Vector residual = a.multiply(x);
  for (std::size_t i = 0; i < residual.size(); ++i) residual[i] = b[i] - residual[i];
  Vector dx = solve(residual);
  Vector out = x;
  axpy(1.0, dx, out);
  return out;
}

double LuFactorization::pivot_ratio() const {
  if (!valid_ || lu_.rows() == 0) return 0.0;
  double min_p = std::fabs(lu_(0, 0));
  double max_p = min_p;
  for (std::size_t i = 1; i < lu_.rows(); ++i) {
    const double p = std::fabs(lu_(i, i));
    min_p = std::min(min_p, p);
    max_p = std::max(max_p, p);
  }
  return max_p > 0.0 ? min_p / max_p : 0.0;
}

bool PlannedLu::factorize(const CsrMatrix& a) {
  replanned_ = false;
  if (!planned_ || !same_pattern(a)) return factorize_dense(a, /*replan=*/true);
  std::fill(val_.begin(), val_.end(), 0.0);
  const std::vector<double>& values = a.values();
  for (std::size_t p = 0; p < values.size(); ++p) val_[scatter_[p]] = values[p];

  const std::size_t n = diag_.size();
  for (std::size_t k = 0; k < n; ++k) {
    // The dense pivot search, over the candidates that can be nonzero.
    const std::size_t* cand = cand_.data() + cand_ptr_[k];
    const std::size_t count = cand_ptr_[k + 1] - cand_ptr_[k];
    std::size_t best = 0;
    double pivot_mag = std::fabs(val_[cand[0]]);
    bool finite = std::isfinite(pivot_mag);
    for (std::size_t j = 1; j < count; ++j) {
      const double mag = std::fabs(val_[cand[j]]);
      finite = finite && std::isfinite(mag);
      if (mag > pivot_mag) {
        pivot_mag = mag;
        best = j;
      }
    }
    if (!finite || pivot_mag < kPivotFloor) return factorize_dense(a, /*replan=*/false);
    if (best != pivot_at_[k]) return factorize_dense(a, /*replan=*/true);

    // No candidate exceeds the pivot, and 1 / pivot cannot overflow above
    // the floor, so every factor is finite, as the skipped products need.
    const double inv_pivot = 1.0 / val_[diag_[k]];
    const double* u = val_.data() + diag_[k] + 1;  // U of factor row k
    for (std::size_t e = l_ptr_[k]; e < l_ptr_[k + 1]; ++e) {
      const double factor = val_[l_slot_[e]] * inv_pivot;
      val_[l_slot_[e]] = factor;
      if (factor == 0.0) continue;
      const std::size_t* target = target_.data() + target_ptr_[e];
      const std::size_t len = target_ptr_[e + 1] - target_ptr_[e];
      for (std::size_t j = 0; j < len; ++j) val_[target[j]] -= factor * u[j];
    }
  }
  dense_active_ = false;
  return true;
}

bool PlannedLu::same_pattern(const CsrMatrix& a) {
  if (a.plan_id() != 0 && a.plan_id() == a_plan_id_) return true;
  if (a.row_ptr() != a_row_ptr_ || a.col_idx() != a_col_idx_) return false;
  a_plan_id_ = a.plan_id();
  return true;
}

Vector PlannedLu::solve(const Vector& b) const {
  Vector x;
  solve_into(b, x);
  return x;
}

void PlannedLu::solve_into(const Vector& b, Vector& x) const {
  if (dense_active_) {
    x = dense_.solve(b);
    return;
  }
  const std::size_t n = diag_.size();
  if (b.size() != n) throw std::invalid_argument("PlannedLu::solve rhs size");
  // Values that can be nonzero, in the dense loops' order.  A -0 on the
  // right or a non-finite result is where a skipped zero could matter.
  Vector& y = x;
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    double sum = b[perm_[i]];
    if (sum == 0.0 && std::signbit(sum)) {
      x = solve_dense_order(b);
      return;
    }
    for (std::size_t s = row_ptr_[i]; s < diag_[i]; ++s) sum -= val_[s] * y[col_[s]];
    y[i] = sum;
  }
  for (std::size_t i = n; i-- > 0;) {
    double sum = y[i];
    for (std::size_t s = diag_[i] + 1; s < row_ptr_[i + 1]; ++s) {
      sum -= val_[s] * y[col_[s]];
    }
    y[i] = sum / val_[diag_[i]];
    if (!std::isfinite(y[i])) {
      x = solve_dense_order(b);
      return;
    }
  }
}

Vector PlannedLu::solve_dense_order(const Vector& b) const {
  // The dense factor holds +0 at U's structural zeros, and at L's the +0
  // it scaled by 1 / pivot: a zero with the sign of column j's pivot.
  const std::size_t n = diag_.size();
  DenseMatrix lu(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) lu(i, j) = std::copysign(0.0, val_[diag_[j]]);
    for (std::size_t s = row_ptr_[i]; s < row_ptr_[i + 1]; ++s) lu(i, col_[s]) = val_[s];
  }
  return solve_factors(lu, perm_, b);
}

bool PlannedLu::factorize_dense(const CsrMatrix& a, bool replan) {
  a.to_dense_into(dense_a_);
  const bool ok = dense_.factorize(dense_a_);
  dense_active_ = true;
  replanned_ = replan;
  if (ok && replan) plan(a, dense_.permutation());
  return ok;
}

void PlannedLu::plan(const CsrMatrix& a, const std::vector<std::size_t>& perm) {
  planned_ = false;
  const std::size_t n = a.dimension();
  const std::vector<std::size_t>& rp = a.row_ptr();
  const std::vector<std::size_t>& ci = a.col_idx();
  std::vector<std::size_t> pinv(n);
  for (std::size_t i = 0; i < n; ++i) pinv[perm[i]] = i;

  // The L+U pattern in factor order: the rows of `a` under `perm`, then the
  // fill of elimination without further row swaps.
  std::vector<char> nz(n * n, 0);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) nz[pinv[r] * n + ci[p]] = 1;
  }
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!nz[i * n + k]) continue;
      for (std::size_t c = k + 1; c < n; ++c) nz[i * n + c] |= nz[k * n + c];
    }
  }

  std::vector<std::size_t> slot(n * n, 0);  // (factor row, col) -> slot
  row_ptr_.assign(n + 1, 0);
  col_.clear();
  diag_.assign(n, 0);
  for (std::size_t i = 0; i < n; ++i) {
    row_ptr_[i] = col_.size();
    for (std::size_t c = 0; c < n; ++c) {
      if (!nz[i * n + c]) continue;
      if (c == i) diag_[i] = col_.size();
      slot[i * n + c] = col_.size();
      col_.push_back(c);
    }
  }
  row_ptr_[n] = col_.size();
  val_.assign(col_.size(), 0.0);

  scatter_.resize(ci.size());
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
      scatter_[p] = slot[pinv[r] * n + ci[p]];
    }
  }

  // The dense loop scans step k's rows by their current position, starting
  // at position k, and its swaps move them step by step.  Where position k
  // is structurally zero the dense scan starts from magnitude 0, which the
  // first structural candidate ties or beats, so scanning only the
  // structural candidates picks the same row.
  std::vector<std::size_t> row_at(n);  // row of `a` at each position
  std::iota(row_at.begin(), row_at.end(), std::size_t{0});
  cand_ptr_.assign(n + 1, 0);
  cand_.clear();
  pivot_at_.assign(n, 0);
  for (std::size_t k = 0; k < n; ++k) {
    cand_ptr_[k] = cand_.size();
    std::size_t pivot_pos = k;
    for (std::size_t pos = k; pos < n; ++pos) {
      const std::size_t i = pinv[row_at[pos]];
      if (!nz[i * n + k]) continue;
      if (i == k) {
        pivot_at_[k] = cand_.size() - cand_ptr_[k];
        pivot_pos = pos;
      }
      cand_.push_back(slot[i * n + k]);
    }
    std::swap(row_at[k], row_at[pivot_pos]);
  }
  cand_ptr_[n] = cand_.size();

  l_ptr_.assign(1, 0);
  l_slot_.clear();
  target_ptr_.assign(1, 0);
  target_.clear();
  for (std::size_t k = 0; k < n; ++k) {
    for (std::size_t i = k + 1; i < n; ++i) {
      if (!nz[i * n + k]) continue;
      l_slot_.push_back(slot[i * n + k]);
      for (std::size_t s = diag_[k] + 1; s < row_ptr_[k + 1]; ++s) {
        target_.push_back(slot[i * n + col_[s]]);
      }
      target_ptr_.push_back(target_.size());
    }
    l_ptr_.push_back(l_slot_.size());
  }

  a_row_ptr_ = rp;
  a_col_idx_ = ci;
  a_plan_id_ = a.plan_id();
  perm_ = perm;
  planned_ = true;
}

std::optional<Vector> solve_dense(const DenseMatrix& a, const Vector& b) {
  LuFactorization lu;
  if (!lu.factorize(a)) return std::nullopt;
  return lu.solve(b);
}

}  // namespace nvsram::linalg
