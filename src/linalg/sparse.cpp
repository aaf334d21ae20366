#include "linalg/sparse.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace nvsram::linalg {

CsrMatrix::CsrMatrix(const SparseBuilder& builder) : n_(builder.dimension()) {
  // Sort triplets by (row, col) and merge duplicates.  The sort must be
  // stable so duplicates accumulate in stamping order — the contract that
  // lets CsrAssembler::assemble() reproduce this constructor bit-for-bit.
  std::vector<Triplet> t = builder.triplets();
  std::stable_sort(t.begin(), t.end(), [](const Triplet& a, const Triplet& b) {
    return a.row != b.row ? a.row < b.row : a.col < b.col;
  });

  row_ptr_.assign(n_ + 1, 0);
  col_idx_.clear();
  values_.clear();
  col_idx_.reserve(t.size());
  values_.reserve(t.size());

  std::size_t i = 0;
  for (std::size_t r = 0; r < n_; ++r) {
    row_ptr_[r] = col_idx_.size();
    while (i < t.size() && t[i].row == r) {
      const std::size_t c = t[i].col;
      if (c >= n_) throw std::out_of_range("CsrMatrix: column out of range");
      double v = 0.0;
      while (i < t.size() && t[i].row == r && t[i].col == c) {
        v += t[i].value;
        ++i;
      }
      col_idx_.push_back(c);
      values_.push_back(v);
    }
  }
  if (i != t.size()) throw std::out_of_range("CsrMatrix: row out of range");
  row_ptr_[n_] = col_idx_.size();
}

Vector CsrMatrix::multiply(const Vector& x) const {
  if (x.size() != n_) throw std::invalid_argument("CsrMatrix::multiply size");
  Vector y(n_, 0.0);
  for (std::size_t r = 0; r < n_; ++r) {
    double sum = 0.0;
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      sum += values_[k] * x[col_idx_[k]];
    }
    y[r] = sum;
  }
  return y;
}

double CsrMatrix::at(std::size_t row, std::size_t col) const {
  if (row >= n_ || col >= n_) throw std::out_of_range("CsrMatrix::at");
  for (std::size_t k = row_ptr_[row]; k < row_ptr_[row + 1]; ++k) {
    if (col_idx_[k] == col) return values_[k];
  }
  return 0.0;
}

DenseMatrix CsrMatrix::to_dense() const {
  DenseMatrix d(n_, n_);
  to_dense_into(d);
  return d;
}

void CsrMatrix::to_dense_into(DenseMatrix& out) const {
  out.resize(n_, n_);  // zero-fills
  for (std::size_t r = 0; r < n_; ++r) {
    for (std::size_t k = row_ptr_[r]; k < row_ptr_[r + 1]; ++k) {
      out(r, col_idx_[k]) = values_[k];
    }
  }
}

namespace {

// Plan ids: unique in the process, so equal ids mean one plan's pattern.
std::atomic<std::uint64_t> next_plan_id{1};

}  // namespace

bool CsrAssembler::assemble(const SparseBuilder& builder, CsrMatrix& out) {
  if (!planned() || !plan_matches(builder)) {
    // Position sequence changed (or first call): fall back to the sorting
    // constructor and record its layout for subsequent assemblies.
    out = CsrMatrix(builder);
    replan(builder, out);
    out.plan_id_ = plan_id_;
    return true;
  }
  reset(out);
  const auto& t = builder.triplets();
  for (std::size_t i = 0; i < t.size(); ++i) {
    out.values_[slot_[i]] += t[i].value;
  }
  return false;
}

CsrStream CsrAssembler::stream(CsrMatrix& out) const {
  reset(out);
  return CsrStream(out.values_.data(), slot_.data(), slot_.size());
}

void CsrAssembler::reset(CsrMatrix& out) const {
  if (out.plan_id_ != plan_id_) {
    out.n_ = n_;
    out.row_ptr_ = row_ptr_;
    out.col_idx_ = col_idx_;
    out.plan_id_ = plan_id_;
  }
  out.values_.assign(col_idx_.size(), 0.0);
}

bool CsrAssembler::plan_matches(const SparseBuilder& builder) const {
  const auto& t = builder.triplets();
  if (builder.dimension() != n_ || t.size() != pos_row_.size()) return false;
  for (std::size_t i = 0; i < t.size(); ++i) {
    if (t[i].row != pos_row_[i] || t[i].col != pos_col_[i]) return false;
  }
  return true;
}

void CsrAssembler::replan(const SparseBuilder& builder,
                          const CsrMatrix& reference) {
  const auto& t = builder.triplets();
  n_ = builder.dimension();
  row_ptr_ = reference.row_ptr_;
  col_idx_ = reference.col_idx_;
  pos_row_.resize(t.size());
  pos_col_.resize(t.size());
  slot_.resize(t.size());
  for (std::size_t i = 0; i < t.size(); ++i) {
    pos_row_[i] = t[i].row;
    pos_col_[i] = t[i].col;
    // Binary search the (sorted) column list of this row for the slot.
    const auto begin = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[t[i].row]);
    const auto end = col_idx_.begin() + static_cast<std::ptrdiff_t>(row_ptr_[t[i].row + 1]);
    const auto it = std::lower_bound(begin, end, t[i].col);
    slot_[i] = static_cast<std::size_t>(it - col_idx_.begin());
  }
  plan_id_ = next_plan_id.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace nvsram::linalg
