// Sparse matrix support: a triplet (COO) builder and a CSR product form.
//
// MNA assembly stamps entries additively, so the builder accumulates
// duplicate (row, col) contributions.  Conversion to CSR merges duplicates.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "linalg/dense.h"

namespace nvsram::linalg {

struct Triplet {
  std::size_t row;
  std::size_t col;
  double value;
};

class SparseBuilder {
 public:
  explicit SparseBuilder(std::size_t n = 0) : n_(n) {}

  void resize(std::size_t n) { n_ = n; }
  void clear() { triplets_.clear(); }

  // Additive stamp (duplicates accumulate at CSR conversion).
  void add(std::size_t row, std::size_t col, double value) {
    triplets_.push_back({row, col, value});
  }

  std::size_t dimension() const { return n_; }
  const std::vector<Triplet>& triplets() const { return triplets_; }

 private:
  std::size_t n_ = 0;
  std::vector<Triplet> triplets_;
};

// Compressed sparse row matrix (square, as MNA systems always are).
class CsrMatrix {
 public:
  CsrMatrix() = default;
  explicit CsrMatrix(const SparseBuilder& builder);

  std::size_t dimension() const { return n_; }
  std::size_t nonzeros() const { return values_.size(); }

  // y = A x
  Vector multiply(const Vector& x) const;

  // Entry lookup (linear scan inside row; rows are column-sorted).
  double at(std::size_t row, std::size_t col) const;

  DenseMatrix to_dense() const;
  // Allocation-free variant for hot loops: resizes `out` and overwrites it.
  void to_dense_into(DenseMatrix& out) const;

  const std::vector<std::size_t>& row_ptr() const { return row_ptr_; }
  const std::vector<std::size_t>& col_idx() const { return col_idx_; }
  const std::vector<double>& values() const { return values_; }

  // The id of the CsrAssembler plan whose pattern this matrix holds, or 0
  // for a matrix built any other way.  Plan ids are unique in the process,
  // so two matrices with the same nonzero id have the same pattern, and a
  // factorization can compare ids before it compares row_ptr and col_idx.
  std::uint64_t plan_id() const { return plan_id_; }

 private:
  friend class CsrAssembler;

  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
  std::uint64_t plan_id_ = 0;
};

// The value side of a planned stamp sequence: stamp k is added straight
// into its CSR value slot, in stamp order.  CsrAssembler::stream() hands
// one out over a zero-filled matrix.  Stamps beyond the plan's count are
// counted but dropped, so CsrAssembler::complete() can reject the pass.
class CsrStream {
 public:
  void add(double value) {
    if (next_ < count_) values_[slot_[next_]] += value;
    ++next_;
  }
  std::size_t stamps() const { return next_; }

 private:
  friend class CsrAssembler;
  CsrStream(double* values, const std::size_t* slot, std::size_t count)
      : values_(values), slot_(slot), count_(count) {}

  double* values_ = nullptr;
  const std::size_t* slot_ = nullptr;
  std::size_t count_ = 0;
  std::size_t next_ = 0;
};

// A plan from a stamp (row, col) sequence to CSR value slots.
//
// The CsrMatrix constructor sorts a triplet list stably and sums each
// slot's duplicates from +0.0 in stamp order.  MNA re-stamps the same
// device sequence each Newton iteration, so the assembler sorts once (a
// plan: the CSR pattern and each stamp's slot, under a fresh plan id) and
// later assemblies zero-fill the values and add every stamp into its slot
// in stamp order, which gives the constructor's sums bit for bit.
//
// Two ways in:
//   * assemble(builder, out) takes recorded triplets, compares their
//     positions with the plan and replans when they differ;
//   * stream(out) skips the triplets: the caller adds stamp k of a
//     sequence it knows to be the planned one, and complete() checks only
//     the count.
// Either way `out` receives the plan's pattern only when it holds another
// plan's (its plan id differs), not on every assembly.
class CsrAssembler {
 public:
  // Assembles `builder` into `out`, reusing out's storage.  Returns true
  // when this call (re)planned, i.e. ran the sorting constructor.
  bool assemble(const SparseBuilder& builder, CsrMatrix& out);

  // Requires planned().  Gives `out` the plan's pattern with zeroed values
  // and returns the stream that adds the planned stamps into them.
  CsrStream stream(CsrMatrix& out) const;
  // True when `s` received exactly as many stamps as the plan holds.
  bool complete(const CsrStream& s) const { return s.stamps() == slot_.size(); }

  bool planned() const { return plan_id_ != 0; }
  std::uint64_t plan_id() const { return plan_id_; }

 private:
  bool plan_matches(const SparseBuilder& builder) const;
  void replan(const SparseBuilder& builder, const CsrMatrix& reference);
  // Zero-fills out's values on the plan's pattern.
  void reset(CsrMatrix& out) const;

  std::size_t n_ = 0;
  std::uint64_t plan_id_ = 0;          // 0 until the first plan
  std::vector<std::size_t> pos_row_;  // planned triplet position sequence
  std::vector<std::size_t> pos_col_;
  std::vector<std::size_t> slot_;     // triplet index -> CSR value slot
  std::vector<std::size_t> row_ptr_;  // planned CSR pattern
  std::vector<std::size_t> col_idx_;
};

}  // namespace nvsram::linalg
