#include "linalg/sparse_lu.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "linalg/lu.h"

namespace nvsram::linalg {

namespace {

constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();

// factorize() keeps the natural diagonal as the pivot while its magnitude is
// at least this fraction of the column's largest candidate.
constexpr double kPivotThreshold = 0.1;

// Column-compressed view of a CSR matrix (values copied).
struct Csc {
  std::size_t n = 0;
  std::vector<std::size_t> col_ptr;
  std::vector<std::size_t> row_idx;
  std::vector<double> values;
};

Csc to_csc(const CsrMatrix& a) {
  Csc c;
  c.n = a.dimension();
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  const auto& v = a.values();
  c.col_ptr.assign(c.n + 1, 0);
  for (std::size_t col : ci) c.col_ptr[col + 1]++;
  for (std::size_t j = 0; j < c.n; ++j) c.col_ptr[j + 1] += c.col_ptr[j];
  c.row_idx.resize(ci.size());
  c.values.resize(ci.size());
  std::vector<std::size_t> next(c.col_ptr.begin(), c.col_ptr.end() - 1);
  for (std::size_t r = 0; r < c.n; ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t dst = next[ci[k]]++;
      c.row_idx[dst] = r;
      c.values[dst] = v[k];
    }
  }
  return c;
}

}  // namespace

bool SparseLu::factorize(const CsrMatrix& a) {
  n_ = a.dimension();
  valid_ = false;
  analyzed_ = false;
  structurally_singular_ = false;
  failed_pivot_ = kNoFailedPivot;
  non_finite_ = false;
  if (n_ == 0) {
    valid_ = true;
    return true;
  }
  const Csc acsc = to_csc(a);

  // L and U built column by column (CSC).  L keeps original row indices
  // during factorization; they are remapped to factor rows at the end.
  std::vector<std::size_t> l_col_ptr{0}, u_col_ptr{0};
  std::vector<std::size_t> l_rows, u_rows;
  std::vector<double> l_vals, u_vals;
  l_rows.reserve(acsc.row_idx.size() * 4);
  l_vals.reserve(acsc.row_idx.size() * 4);
  u_rows.reserve(acsc.row_idx.size() * 4);
  u_vals.reserve(acsc.row_idx.size() * 4);

  std::vector<std::size_t> pinv(n_, kNone);  // original row -> factor row

  // Workspaces for the sparse triangular solve.
  std::vector<double> x(n_, 0.0);
  std::vector<int> mark(n_, 0);
  int stamp = 0;
  std::vector<std::size_t> topo;          // reach set in topological order
  std::vector<std::size_t> dfs_stack, dfs_pos;
  topo.reserve(n_);
  dfs_stack.reserve(n_);
  dfs_pos.reserve(n_);

  for (std::size_t k = 0; k < n_; ++k) {
    // ---- symbolic: reachability of pattern(A(:,k)) through the L graph ----
    ++stamp;
    topo.clear();
    for (std::size_t p = acsc.col_ptr[k]; p < acsc.col_ptr[k + 1]; ++p) {
      const std::size_t root = acsc.row_idx[p];
      if (mark[root] == stamp) continue;
      // Iterative DFS; post-order gives reverse-topological order.
      dfs_stack.assign(1, root);
      dfs_pos.assign(1, 0);
      mark[root] = stamp;
      while (!dfs_stack.empty()) {
        const std::size_t node = dfs_stack.back();
        const std::size_t fr = pinv[node];
        bool descended = false;
        if (fr != kNone) {
          // Children: below-diagonal entries of L column `fr` (skip diag at 0).
          std::size_t& pos = dfs_pos.back();
          const std::size_t begin = l_col_ptr[fr] + 1;
          const std::size_t end = l_col_ptr[fr + 1];
          while (begin + pos < end) {
            const std::size_t child = l_rows[begin + pos];
            ++pos;
            if (mark[child] != stamp) {
              mark[child] = stamp;
              dfs_stack.push_back(child);
              dfs_pos.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          topo.push_back(node);
          dfs_stack.pop_back();
          dfs_pos.pop_back();
        }
      }
    }
    // topo is in post-order; reverse for elimination order.
    // (Every node's L-parents appear after it in post-order.)

    // ---- numeric: x = L \ A(:,k) over the reach set ----
    for (std::size_t node : topo) x[node] = 0.0;
    for (std::size_t p = acsc.col_ptr[k]; p < acsc.col_ptr[k + 1]; ++p) {
      x[acsc.row_idx[p]] = acsc.values[p];
    }
    for (std::size_t idx = topo.size(); idx-- > 0;) {
      const std::size_t node = topo[idx];
      const std::size_t fr = pinv[node];
      if (fr == kNone) continue;  // not yet pivotal: no elimination from it
      const double xj = x[node];
      if (xj == 0.0) continue;
      for (std::size_t p = l_col_ptr[fr] + 1; p < l_col_ptr[fr + 1]; ++p) {
        x[l_rows[p]] -= l_vals[p] * xj;
      }
    }

    // ---- pivot selection among not-yet-pivotal rows ----
    // NaN/Inf anywhere in the eliminated column fails the factorization
    // here: NaN loses every magnitude comparison, so without the explicit
    // check it would silently end up inside L/U and poison every solve.
    for (std::size_t node : topo) {
      if (!std::isfinite(x[node])) {
        failed_pivot_ = k;
        non_finite_ = true;
        return false;
      }
    }
    double max_mag = 0.0;
    std::size_t pivot_row = kNone;
    for (std::size_t node : topo) {
      if (pinv[node] != kNone) continue;
      const double mag = std::fabs(x[node]);
      if (mag > max_mag) {
        max_mag = mag;
        pivot_row = node;
      }
    }
    if (pivot_row == kNone || max_mag < kPivotFloor) {
      failed_pivot_ = k;
      return false;
    }
    // Prefer the natural diagonal if it is within the threshold: keeps the
    // permutation close to identity, which preserves sparsity for MNA.
    if (pinv[k] == kNone && std::fabs(x[k]) >= kPivotThreshold * max_mag &&
        std::fabs(x[k]) >= kPivotFloor) {
      pivot_row = k;
    }
    const double pivot = x[pivot_row];
    pinv[pivot_row] = k;

    // ---- partition x into U(:,k) and L(:,k) ----
    // U gets pivotal rows (factor index < k) plus the diagonal (stored last).
    for (std::size_t node : topo) {
      if (node == pivot_row) continue;
      const std::size_t fr = pinv[node];
      const double v = x[node];
      if (fr != kNone) {
        if (v != 0.0) {
          u_rows.push_back(fr);
          u_vals.push_back(v);
        }
      }
    }
    u_rows.push_back(k);
    u_vals.push_back(pivot);
    u_col_ptr.push_back(u_rows.size());

    // L column: unit diagonal first (original row id of the pivot), then the
    // scaled below-diagonal entries.
    l_rows.push_back(pivot_row);
    l_vals.push_back(1.0);
    for (std::size_t node : topo) {
      if (node == pivot_row || pinv[node] != kNone) continue;
      const double v = x[node];
      if (v != 0.0) {
        l_rows.push_back(node);
        l_vals.push_back(v / pivot);
      }
    }
    l_col_ptr.push_back(l_rows.size());
  }

  // Remap L's original row indices to factor rows (all rows pivotal now).
  for (auto& r : l_rows) r = pinv[r];

  l_row_ptr_ = std::move(l_col_ptr);  // (columns of L; name kept generic)
  l_col_ = std::move(l_rows);
  l_values_ = std::move(l_vals);
  u_row_ptr_ = std::move(u_col_ptr);
  u_col_ = std::move(u_rows);
  u_values_ = std::move(u_vals);

  perm_.assign(n_, 0);
  for (std::size_t orig = 0; orig < n_; ++orig) perm_[pinv[orig]] = orig;
  pinv_ = std::move(pinv);
  cperm_.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) cperm_[k] = k;
  valid_ = true;
  return true;
}

bool SparseLu::analyze(const CsrMatrix& a) {
  n_ = a.dimension();
  valid_ = false;
  analyzed_ = false;
  structurally_singular_ = false;
  failed_pivot_ = kNoFailedPivot;
  non_finite_ = false;
  pattern_ = SparsityPattern::from_csr(a);
  pattern_id_ = a.plan_id();
  if (n_ == 0) {
    analyzed_ = true;
    valid_ = true;
    return true;
  }

  // ---- structural solvability: maximum transversal ----
  const Matching matching = maximum_matching(pattern_);
  if (!matching.perfect(n_)) {
    structurally_singular_ = true;
    const auto rows = matching.unmatched_rows();
    failed_pivot_ = rows.empty() ? kNoFailedPivot : rows.front();
    return false;
  }

  // ---- fill-reducing column order; pivot rows follow the matching ----
  cperm_ = min_degree_order(pattern_, matching);
  pinv_.assign(n_, kNone);
  perm_.assign(n_, kNone);
  for (std::size_t k = 0; k < n_; ++k) {
    const std::size_t orig_row = matching.col_match[cperm_[k]];
    pinv_[orig_row] = k;
    perm_[k] = orig_row;
  }

  // ---- scatter plan: original entries of column cperm_[k], factor rows ----
  const auto& rp = a.row_ptr();
  const auto& ci = a.col_idx();
  std::vector<std::size_t> col_count(n_, 0);
  for (std::size_t c : ci) col_count[c]++;
  csc_ptr_.assign(n_ + 1, 0);
  for (std::size_t k = 0; k < n_; ++k) {
    csc_ptr_[k + 1] = csc_ptr_[k] + col_count[cperm_[k]];
  }
  csc_factor_row_.resize(ci.size());
  csc_val_pos_.resize(ci.size());
  {
    std::vector<std::size_t> dst_of_col(n_);  // original col -> factor col
    for (std::size_t k = 0; k < n_; ++k) dst_of_col[cperm_[k]] = k;
    std::vector<std::size_t> next(n_);
    for (std::size_t k = 0; k < n_; ++k) next[k] = csc_ptr_[k];
    for (std::size_t r = 0; r < n_; ++r) {
      for (std::size_t p = rp[r]; p < rp[r + 1]; ++p) {
        const std::size_t k = dst_of_col[ci[p]];
        const std::size_t dst = next[k]++;
        csc_factor_row_[dst] = pinv_[r];
        csc_val_pos_[dst] = p;
      }
    }
  }

  // ---- symbolic left-looking elimination with the fixed pivot order ----
  // With every pivot predetermined, factor rows are totally ordered and
  // ascending factor index is a valid elimination order, so the per-column
  // pattern is simply the closure of the scattered positions under
  // "j in pattern, j < k  =>  L-pattern(j) in pattern".
  l_row_ptr_.assign(1, 0);
  u_row_ptr_.assign(1, 0);
  l_col_.clear();
  u_col_.clear();
  std::vector<int> mark(n_, -1);
  std::vector<std::size_t> dfs_stack, dfs_pos, found;
  for (std::size_t k = 0; k < n_; ++k) {
    found.clear();
    for (std::size_t p = csc_ptr_[k]; p < csc_ptr_[k + 1]; ++p) {
      const std::size_t root = csc_factor_row_[p];
      if (mark[root] == static_cast<int>(k)) continue;
      dfs_stack.assign(1, root);
      dfs_pos.assign(1, 0);
      mark[root] = static_cast<int>(k);
      while (!dfs_stack.empty()) {
        const std::size_t node = dfs_stack.back();
        bool descended = false;
        if (node < k) {
          // Children: strictly-lower entries of L column `node` (diag at 0).
          std::size_t& pos = dfs_pos.back();
          const std::size_t begin = l_row_ptr_[node] + 1;
          const std::size_t end = l_row_ptr_[node + 1];
          while (begin + pos < end) {
            const std::size_t child = l_col_[begin + pos];
            ++pos;
            if (mark[child] != static_cast<int>(k)) {
              mark[child] = static_cast<int>(k);
              dfs_stack.push_back(child);
              dfs_pos.push_back(0);
              descended = true;
              break;
            }
          }
        }
        if (!descended) {
          found.push_back(node);
          dfs_stack.pop_back();
          dfs_pos.pop_back();
        }
      }
    }
    std::sort(found.begin(), found.end());
    // U rows ascending (strictly above the diagonal), then the diagonal.
    for (std::size_t node : found) {
      if (node < k) u_col_.push_back(node);
    }
    u_col_.push_back(k);
    u_row_ptr_.push_back(u_col_.size());
    // L: unit diagonal first, then strictly-below rows ascending.
    l_col_.push_back(k);
    for (std::size_t node : found) {
      if (node > k) l_col_.push_back(node);
    }
    l_row_ptr_.push_back(l_col_.size());
  }
  l_values_.assign(l_col_.size(), 0.0);
  u_values_.assign(u_col_.size(), 0.0);
  work_.assign(n_, 0.0);
  analyzed_ = true;
  return true;
}

bool SparseLu::pattern_matches(const CsrMatrix& a) const {
  if (!analyzed_) return false;
  if (a.plan_id() != 0 && a.plan_id() == pattern_id_) return true;
  return a.dimension() == pattern_.dimension() &&
         a.row_ptr() == pattern_.row_ptr() && a.col_idx() == pattern_.col_idx();
}

bool SparseLu::refactor(const CsrMatrix& a) {
  if (!analyzed_) {
    throw std::logic_error("SparseLu::refactor before analyze");
  }
  if (!pattern_matches(a)) {
    throw std::invalid_argument("SparseLu::refactor: pattern mismatch");
  }
  pattern_id_ = a.plan_id();
  valid_ = false;
  failed_pivot_ = kNoFailedPivot;
  non_finite_ = false;
  if (n_ == 0) {
    valid_ = true;
    return true;
  }
  const auto& av = a.values();
  std::vector<double>& x = work_;  // zero outside each column's pattern

  for (std::size_t k = 0; k < n_; ++k) {
    // Scatter the original entries of column cperm_[k].
    for (std::size_t p = csc_ptr_[k]; p < csc_ptr_[k + 1]; ++p) {
      x[csc_factor_row_[p]] = av[csc_val_pos_[p]];
    }
    // Eliminate with the already-final columns, ascending factor index.
    const std::size_t u_begin = u_row_ptr_[k];
    const std::size_t u_diag = u_row_ptr_[k + 1] - 1;
    for (std::size_t p = u_begin; p < u_diag; ++p) {
      const std::size_t j = u_col_[p];
      const double xj = x[j];
      if (xj == 0.0) continue;
      for (std::size_t q = l_row_ptr_[j] + 1; q < l_row_ptr_[j + 1]; ++q) {
        x[l_col_[q]] -= l_values_[q] * xj;
      }
    }
    const double pivot = x[k];
    // Gather U (values above the diagonal, diagonal last) and L (unit
    // diagonal, then scaled below-diagonal values); clear the workspace.
    bool finite = std::isfinite(pivot);
    for (std::size_t p = u_begin; p < u_diag; ++p) {
      const double v = x[u_col_[p]];
      finite = finite && std::isfinite(v);
      u_values_[p] = v;
      x[u_col_[p]] = 0.0;
    }
    u_values_[u_diag] = pivot;
    x[k] = 0.0;
    const std::size_t l_begin = l_row_ptr_[k];
    l_values_[l_begin] = 1.0;
    for (std::size_t q = l_begin + 1; q < l_row_ptr_[k + 1]; ++q) {
      const double v = x[l_col_[q]];
      finite = finite && std::isfinite(v);
      l_values_[q] = v / pivot;
      x[l_col_[q]] = 0.0;
    }
    if (!finite) {
      failed_pivot_ = k;
      non_finite_ = true;
      std::fill(x.begin(), x.end(), 0.0);
      return false;
    }
    if (std::fabs(pivot) < kPivotFloor) {
      failed_pivot_ = k;
      std::fill(x.begin(), x.end(), 0.0);
      return false;
    }
  }
  valid_ = true;
  return true;
}

Vector SparseLu::solve(const Vector& b) const {
  Vector y, x;
  solve_with(b, y, x);
  return x;
}

void SparseLu::solve_into(const Vector& b, Vector& x) {
  solve_with(b, solve_work_, x);
}

void SparseLu::solve_with(const Vector& b, Vector& y, Vector& out) const {
  if (!valid_) throw std::logic_error("SparseLu::solve before factorize");
  if (b.size() != n_) throw std::invalid_argument("SparseLu::solve rhs size");

  // y = P b
  y.resize(n_);
  for (std::size_t orig = 0; orig < n_; ++orig) y[pinv_[orig]] = b[orig];

  // Forward solve L y' = y (unit diagonal stored first in each column).
  for (std::size_t k = 0; k < n_; ++k) {
    const double xk = y[k];
    if (xk == 0.0) continue;
    for (std::size_t p = l_row_ptr_[k] + 1; p < l_row_ptr_[k + 1]; ++p) {
      y[l_col_[p]] -= l_values_[p] * xk;
    }
  }
  // Back solve U x = y' (diagonal stored last in each column).
  for (std::size_t k = n_; k-- > 0;) {
    const std::size_t diag = u_row_ptr_[k + 1] - 1;
    const double xk = y[k] / u_values_[diag];
    y[k] = xk;
    if (xk == 0.0) continue;
    for (std::size_t p = u_row_ptr_[k]; p < diag; ++p) {
      y[u_col_[p]] -= u_values_[p] * xk;
    }
  }
  // Undo the column permutation (identity for factorize()).
  out.resize(n_);
  for (std::size_t k = 0; k < n_; ++k) out[cperm_[k]] = y[k];
}

std::optional<Vector> solve_sparse(const CsrMatrix& a, const Vector& b) {
  if (a.dimension() <= kDenseCutoff) {
    return solve_dense(a.to_dense(), b);
  }
  SparseLu lu;
  if (!lu.factorize(a)) return std::nullopt;
  return lu.solve(b);
}

}  // namespace nvsram::linalg
