// Sparse LU for MNA systems.
//
// Two entry points share the factor storage and solve():
//
//   * factorize(A)            — one-shot left-looking LU with threshold
//     partial pivoting restricted to the original + fill pattern.  Robust
//     default for a matrix seen once.
//
//   * analyze(A) + refactor(A) — KLU-style split.  analyze() proves the
//     pattern structurally nonsingular (maximum matching), picks a
//     fill-reducing column order (minimum degree) and a matching-based pivot
//     sequence, and computes the complete L/U fill pattern symbolically.
//     refactor() then redoes only the numerics on the fixed pattern — no
//     reachability DFS, no pivot search — which is what Newton re-solves on
//     an unchanged pattern want.  refactor() is valid for any matrix with
//     the analyzed pattern; a numeric pivot failure (values, not topology)
//     leaves the analysis intact so callers can fall back to factorize().
//
// Circuit matrices are small-bandwidth and diagonally heavy after gmin
// loading, so both schemes are robust and fast enough for multi-thousand-node
// arrays.  At or below `kDenseCutoff` unknowns Newton uses PlannedLu (lu.h),
// which keeps the dense LU's partial pivoting bit for bit.
#pragma once

#include <cstdint>
#include <optional>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/structure.h"

namespace nvsram::linalg {

inline constexpr std::size_t kDenseCutoff = 160;

class SparseLu {
 public:
  // Factorize A (CSR).  Returns false on structural or numerical
  // singularity (no pivot of at least kPivotFloor), or when an eliminated
  // column turns non-finite (failed_pivot()/non_finite() attribute the
  // failure).  Relative threshold pivoting: a diagonal pivot is kept if
  // |diag| >= 0.1 * max|col candidates|.
  bool factorize(const CsrMatrix& a);

  // ---- split symbolic / numeric API ----
  // Symbolic analysis of the pattern of `a` (values ignored).  Returns false
  // when the pattern is structurally singular (no perfect matching); the
  // verdict is then available via structurally_singular().  On success the
  // analysis persists until the next analyze()/factorize() call and serves
  // any number of refactor() calls on matrices with the same pattern.
  bool analyze(const CsrMatrix& a);

  // Numeric factorization over the analyzed pattern.  Requires a prior
  // successful analyze() with pattern_matches(a).  Returns false on a
  // numeric pivot failure (a pivot below kPivotFloor) or a non-finite value;
  // the analysis survives.
  bool refactor(const CsrMatrix& a);

  bool analyzed() const { return analyzed_; }
  // True when `a` has the analyzed pattern.  Compares plan ids
  // (CsrMatrix::plan_id) first, and the pattern vectors only when the ids
  // differ; refactor() then adopts the matching matrix's id.
  bool pattern_matches(const CsrMatrix& a) const;
  // True when the last analyze() failed for structural (topology) reasons.
  bool structurally_singular() const { return structurally_singular_; }

  Vector solve(const Vector& b) const;
  // The same into `x` (resized; it must not be `b`), through scratch the
  // LU keeps, so a solve of a size solved before allocates nothing.
  void solve_into(const Vector& b, Vector& x);

  bool valid() const { return valid_; }
  std::size_t dimension() const { return n_; }

  // After a failed factorize()/refactor(): the elimination step (column)
  // that gave up, and whether it failed on a NaN/Inf value rather than a
  // tiny pivot.
  std::size_t failed_pivot() const { return failed_pivot_; }
  bool non_finite() const { return non_finite_; }

 private:
  // solve()'s body: `y` is scratch, `out` the result.
  void solve_with(const Vector& b, Vector& y, Vector& out) const;

  std::size_t n_ = 0;
  bool valid_ = false;
  std::size_t failed_pivot_ = kNoFailedPivot;
  bool non_finite_ = false;

  // Row permutation: factor row i of PA corresponds to original row perm_[i];
  // pinv_ is the inverse map (original row -> factor row).
  std::vector<std::size_t> perm_;
  std::vector<std::size_t> pinv_;
  // Column permutation: factor column k holds original column cperm_[k]
  // (identity for factorize(); the fill-reducing order for analyze()).
  std::vector<std::size_t> cperm_;

  // L (strictly lower + explicit unit diagonal stored first per column) and
  // U (upper incl. diagonal stored last per column), both column-compressed
  // over the factor ordering.
  std::vector<std::size_t> l_row_ptr_, l_col_;
  std::vector<double> l_values_;
  std::vector<std::size_t> u_row_ptr_, u_col_;
  std::vector<double> u_values_;

  // ---- symbolic analysis state (analyze()/refactor() only) ----
  bool analyzed_ = false;
  bool structurally_singular_ = false;
  SparsityPattern pattern_;
  std::uint64_t pattern_id_ = 0;  // plan id of pattern_, if known
  // Scatter plan: for factor column k, positions csc_ptr_[k]..csc_ptr_[k+1]
  // name the factor row and the index into CsrMatrix::values() of every
  // original entry of column cperm_[k].
  std::vector<std::size_t> csc_ptr_, csc_factor_row_, csc_val_pos_;
  // Numeric workspace reused across refactor() calls.
  std::vector<double> work_;
  // solve_into()'s permuted right-hand side.
  Vector solve_work_;
};

// One-shot convenience; picks dense or sparse by dimension.
std::optional<Vector> solve_sparse(const CsrMatrix& a, const Vector& b);

}  // namespace nvsram::linalg
