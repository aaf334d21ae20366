// Dense row-major matrix and vector helpers for the MNA solver.
//
// SRAM cell circuits are ~10-40 unknowns, and partially pivoted dense LU
// defines their arithmetic; PlannedLu (lu.h) replays it on the nonzeros, and
// the sparse path (sparse_lu.h) takes over for multi-hundred-node arrays.
#pragma once

#include <cstddef>
#include <vector>

namespace nvsram::linalg {

using Vector = std::vector<double>;

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  double& operator()(std::size_t r, std::size_t c) { return data_[r * cols_ + c]; }
  double operator()(std::size_t r, std::size_t c) const { return data_[r * cols_ + c]; }

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  void resize(std::size_t rows, std::size_t cols, double fill = 0.0);
  void set_zero();

  // y = A x  (sizes must match).
  Vector multiply(const Vector& x) const;

  // Frobenius norm.
  double frobenius_norm() const;

  // Raw storage access (row-major) for the LU factorizer.
  double* data() { return data_.data(); }
  const double* data() const { return data_.data(); }

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

// ---- vector helpers --------------------------------------------------------
double dot(const Vector& a, const Vector& b);
double norm_inf(const Vector& v);
double norm_2(const Vector& v);
// a += s * b
void axpy(double s, const Vector& b, Vector& a);

}  // namespace nvsram::linalg
