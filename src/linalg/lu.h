// Partially pivoted LU factorization of a DenseMatrix, with solve/refine,
// and PlannedLu, which reproduces it on the nonzeros of a CsrMatrix.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>

#include "linalg/dense.h"
#include "linalg/sparse.h"

namespace nvsram::linalg {

// Pivot index reported by the factorizations when nothing failed.
inline constexpr std::size_t kNoFailedPivot =
    std::numeric_limits<std::size_t>::max();

// Smallest pivot magnitude the LU factorizations accept.
inline constexpr double kPivotFloor = 1e-300;

// In-place LU with partial pivoting.  After factorize(), solve() may be
// called repeatedly with different right-hand sides.
class LuFactorization {
 public:
  // Factorizes a copy of `a`.  Returns false if the matrix is singular to
  // working precision (pivot below kPivotFloor) or a pivot column turned
  // non-finite; failed_pivot()/non_finite() then attribute the failure
  // instead of letting NaN solutions propagate downstream.
  bool factorize(const DenseMatrix& a);

  // Solves A x = b using the stored factors.  Requires factorize() == true.
  Vector solve(const Vector& b) const;

  // One step of iterative refinement against the original matrix.
  Vector refine(const DenseMatrix& a, const Vector& b, const Vector& x) const;

  bool valid() const { return valid_; }
  std::size_t dimension() const { return lu_.rows(); }

  // After a successful factorize(): factor row i holds row permutation()[i]
  // of the factorized matrix.
  const std::vector<std::size_t>& permutation() const { return perm_; }

  // Estimated reciprocal condition (cheap: min|pivot| / max|pivot|).
  double pivot_ratio() const;

  // After a failed factorize(): the elimination step that gave up, and
  // whether the best candidate pivot there was NaN/Inf (vs merely tiny).
  std::size_t failed_pivot() const { return failed_pivot_; }
  bool non_finite() const { return non_finite_; }

 private:
  DenseMatrix lu_;
  std::vector<std::size_t> perm_;
  bool valid_ = false;
  std::size_t failed_pivot_ = kNoFailedPivot;
  bool non_finite_ = false;
};

// LuFactorization's pivots and rounding, bit for bit, on the nonzeros of a
// cell-size CsrMatrix.
//
// Partial pivoting chooses pivots by value, so the fill pattern depends on
// the values; but the Newton iterates of one circuit keep the same pivots
// nearly always.  On a new pattern factorize() runs LuFactorization on the
// dense copy and records a plan from its row permutation: the L+U pattern
// under those pivots, each step's pivot candidates in the order the dense
// loop scans them (its row swaps simulated), and the update list.  Every
// later factorize() zero-fills the plan's slots, scatters the values and
// replays the updates on the nonzeros only.
//
// The replay does the dense arithmetic exactly.  It verifies each pivot as
// the dense loop picks it, the first strictly larger magnitude in scan
// order, so exact ties (the +-1 entries of a source branch) go the same
// way.  It stores each L entry as value * (1 / pivot) and skips zero
// factors, and solve() subtracts in the dense loops' row order with
// ascending columns.  What the replay leaves out is the subtraction of an
// exact zero, which changes no bit while every value stays finite.  So a
// pivot that no longer verifies replans, and a tiny pivot or a non-finite
// value hands the matrix to the dense LU, whose result and failure
// diagnostics then stand.  solve() likewise takes the dense order over the
// whole factor when a result is non-finite or the right-hand side holds a
// negative zero.
//
// A new pattern is told from the matrix's plan id (CsrMatrix::plan_id):
// the pattern vectors are compared only when the id differs from the one
// planned for, and an equal pattern adopts the new id.
class PlannedLu {
 public:
  // Factorizes `a` as LuFactorization::factorize(a.to_dense()) would, with
  // the same result and failure diagnostics.
  bool factorize(const CsrMatrix& a);

  // Solves A x = b; bit-identical to LuFactorization::solve.  Requires
  // factorize() == true.
  Vector solve(const Vector& b) const;
  // The same into `x` (resized; it must not be `b`), without allocating
  // once `x` has the size, unless the last factorize() ended in the dense
  // LU or the dense order has to take over.
  void solve_into(const Vector& b, Vector& x) const;

  // True when the last factorize() ran the dense LU to (re)build the plan:
  // on a new pattern, or when the planned pivot sequence failed to verify.
  bool replanned() const { return replanned_; }

  // After a failed factorize(): as LuFactorization's.
  std::size_t failed_pivot() const {
    return dense_active_ ? dense_.failed_pivot() : kNoFailedPivot;
  }
  bool non_finite() const { return dense_active_ && dense_.non_finite(); }

 private:
  // True when `a` has the pattern planned for; adopts its plan id if so.
  bool same_pattern(const CsrMatrix& a);
  // Runs the dense LU on `a`; with `replan`, plans from its pivots.
  bool factorize_dense(const CsrMatrix& a, bool replan);
  void plan(const CsrMatrix& a, const std::vector<std::size_t>& perm);
  // The dense solve over the replayed factor, including its zeros.
  Vector solve_dense_order(const Vector& b) const;

  LuFactorization dense_;  // the planner, and the fallback
  DenseMatrix dense_a_;
  bool dense_active_ = false;  // the last factorize() ended in dense_
  bool replanned_ = false;
  bool planned_ = false;

  // The plan.  Slots hold the L+U pattern row by row in factor order
  // (ascending columns; L, then the pivot at diag_[i], then U).
  std::vector<std::size_t> a_row_ptr_, a_col_idx_;  // the pattern planned for
  std::uint64_t a_plan_id_ = 0;                     // and its plan id, if any
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> scatter_;  // CsrMatrix value index -> slot
  std::vector<std::size_t> row_ptr_, col_, diag_;
  // Step k: the structural candidate slots of column k in the dense loop's
  // scan order; the planned pivot is candidate pivot_at_[k].
  std::vector<std::size_t> cand_ptr_, cand_, pivot_at_;
  // Step k's L entries, l_ptr_[k]..l_ptr_[k+1]: the slot of each, and the
  // slots its factor updates, one per U entry of factor row k.
  std::vector<std::size_t> l_ptr_, l_slot_, target_ptr_, target_;
  std::vector<double> val_;
};

// Convenience one-shot solve.  Returns nullopt on singular systems.
std::optional<Vector> solve_dense(const DenseMatrix& a, const Vector& b);

}  // namespace nvsram::linalg
