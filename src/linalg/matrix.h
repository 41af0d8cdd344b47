// Dense row-major matrix of doubles plus the handful of BLAS-1/2 kernels the
// thermal solvers need. The thermal networks in this project are a few
// hundred nodes, where a cache-friendly dense factorization (factored once,
// reused for thousands of triangular solves via the Woodbury identity) beats
// a general sparse direct solver in both code size and runtime.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace tecfan::linalg {

using Vector = std::vector<double>;

class DenseMatrix {
 public:
  DenseMatrix() = default;
  DenseMatrix(std::size_t rows, std::size_t cols, double fill = 0.0);

  static DenseMatrix identity(std::size_t n);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::span<double> row(std::size_t r) { return {&data_[r * cols_], cols_}; }
  std::span<const double> row(std::size_t r) const {
    return {&data_[r * cols_], cols_};
  }

  const std::vector<double>& data() const { return data_; }
  std::vector<double>& data() { return data_; }

  /// y = A x (sizes must match).
  void matvec(std::span<const double> x, std::span<double> y) const;

  /// y = A^T x.
  void matvec_transpose(std::span<const double> x, std::span<double> y) const;

  /// Returns true if |A - A^T| has no entry above tol (square only).
  bool is_symmetric(double tol = 1e-12) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// a += s * b.
void axpy(double s, std::span<const double> b, std::span<double> a);

/// Dot product.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> a);

/// Infinity norm.
double norm_inf(std::span<const double> a);

}  // namespace tecfan::linalg
