// Structural (symbolic) analysis of sparse systems: positions only, no
// numerics.
//
// The MNA matrix of a well-formed circuit admits a perfect matching between
// equations (rows) and unknowns (columns); a deficient matching proves the
// system is singular for EVERY assignment of device values — a topology bug,
// not a numerical accident.  This header provides the pieces the solver and
// the lint layer share:
//   * SparsityPattern      — immutable CSR positions of a square matrix
//   * maximum_matching     — maximum transversal (Kuhn's augmenting paths)
//   * dulmage_mendelsohn   — coarse DM classification of a deficient pattern
//   * connected_components — equation blocks of the bipartite graph
//   * min_degree_order     — fill-reducing column order for LU
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

#include "linalg/sparse.h"

namespace nvsram::linalg {

inline constexpr std::size_t kUnmatched = std::numeric_limits<std::size_t>::max();

// Positions-only view of a square sparse matrix.  Column indices are sorted
// and unique within each row, so equality is a plain vector compare.
class SparsityPattern {
 public:
  SparsityPattern() = default;

  static SparsityPattern from_csr(const CsrMatrix& a);
  // Deduplicates; out-of-range entries throw before anything is built.
  // Buckets the triplets by row and sorts each row's columns: O(nnz + n)
  // for rows of bounded degree.
  static SparsityPattern from_triplets(std::size_t n,
                                       const std::vector<Triplet>& triplets);

  std::size_t dimension() const { return n_; }
  std::size_t nonzeros() const { return col_idx_.size(); }
  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }

  std::size_t row_degree(std::size_t r) const {
    return row_ptr_[r + 1] - row_ptr_[r];
  }

  // Column-compressed positions (rows per column, sorted).
  SparsityPattern transpose() const;

  bool operator==(const SparsityPattern& o) const {
    return n_ == o.n_ && row_ptr_ == o.row_ptr_ && col_idx_ == o.col_idx_;
  }
  bool operator!=(const SparsityPattern& o) const { return !(*this == o); }

 private:
  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_{0};
  std::vector<std::size_t> col_idx_;
};

// Maximum bipartite matching between rows (equations) and columns
// (unknowns).  `size == n` proves structural nonsingularity.
struct Matching {
  std::vector<std::size_t> row_match;  // row -> column, kUnmatched if none
  std::vector<std::size_t> col_match;  // column -> row, kUnmatched if none
  std::size_t size = 0;

  bool perfect(std::size_t n) const { return size == n; }
  std::vector<std::size_t> unmatched_rows() const;
  std::vector<std::size_t> unmatched_cols() const;
};

// Kuhn's augmenting-path algorithm with a diagonal-preferred greedy seed:
// wherever position (i, i) exists it is matched first, which keeps the
// transversal close to the natural MNA ordering.
Matching maximum_matching(const SparsityPattern& pattern);

// Coarse Dulmage–Mendelsohn classification of a deficient matching.  The
// horizontal (over-determined) region is everything alternating-reachable
// from the unmatched rows, the vertical (under-determined) region everything
// reachable from the unmatched columns; equations and unknowns in those
// regions are exactly the ones implicated in the structural deficiency.
struct DmDecomposition {
  std::vector<std::size_t> overdetermined_rows;   // incl. the unmatched rows
  std::vector<std::size_t> overdetermined_cols;
  std::vector<std::size_t> underdetermined_rows;
  std::vector<std::size_t> underdetermined_cols;  // incl. the unmatched cols
};
DmDecomposition dulmage_mendelsohn(const SparsityPattern& pattern,
                                   const Matching& matching);

// Connected components of the bipartite row/column graph (row r adjacent to
// every column with a nonzero in row r).  For MNA this partitions the
// equations into independent blocks that could be solved separately.
struct BipartiteComponents {
  std::size_t count = 0;
  std::vector<std::size_t> row_component;  // kUnmatched for empty rows
  std::vector<std::size_t> col_component;  // kUnmatched for empty cols
};
BipartiteComponents connected_components(const SparsityPattern& pattern);

// Fill-reducing elimination order: minimum degree on the symmetrized pattern
// of the row-permuted matrix that puts `matching` on the diagonal.  Returns
// the column elimination order (a permutation of 0..n-1).  Requires a
// perfect matching.
std::vector<std::size_t> min_degree_order(const SparsityPattern& pattern,
                                          const Matching& matching);

}  // namespace nvsram::linalg
