// Sparse matrix support: a triplet (COO) builder and a CSR product form.
//
// MNA assembly stamps entries additively, so the builder accumulates
// duplicate (row, col) contributions.  Conversion to CSR merges duplicates.
#pragma once

#include <cstddef>
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

 private:
  friend class CsrAssembler;

  std::size_t n_ = 0;
  std::vector<std::size_t> row_ptr_;
  std::vector<std::size_t> col_idx_;
  std::vector<double> values_;
};

// Reusable builder -> CSR assembly plan.
//
// The CsrMatrix constructor re-sorts the triplet list on every conversion.
// MNA re-stamps the same device sequence each Newton iteration, so the
// (row, col) position sequence is identical from one assembly to the next;
// the assembler records the triplet -> value-slot mapping once and reduces
// later assemblies to a zero-fill plus an accumulation pass in triplet
// order.  Because the constructor's sort is stable, both paths accumulate
// duplicate (row, col) stamps in the same order: `assemble()` is
// bit-identical to constructing a fresh CsrMatrix from the same builder.
// A builder whose position sequence changed is detected and replanned.
class CsrAssembler {
 public:
  // Assembles `builder` into `out`, reusing out's storage.  Returns true
  // when this call (re)planned, i.e. ran the sorting constructor.
  bool assemble(const SparseBuilder& builder, CsrMatrix& out);

 private:
  bool plan_matches(const SparseBuilder& builder) const;
  void replan(const SparseBuilder& builder, const CsrMatrix& reference);

  std::size_t n_ = 0;
  bool planned_ = false;
  std::vector<std::size_t> pos_row_;  // planned triplet position sequence
  std::vector<std::size_t> pos_col_;
  std::vector<std::size_t> slot_;     // triplet index -> CSR value slot
  std::vector<std::size_t> row_ptr_;  // planned CSR pattern
  std::vector<std::size_t> col_idx_;
};

}  // namespace nvsram::linalg
