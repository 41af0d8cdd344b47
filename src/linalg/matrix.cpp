#include "linalg/matrix.h"

#include <cmath>

#include "util/error.h"

namespace tecfan::linalg {

DenseMatrix::DenseMatrix(std::size_t rows, std::size_t cols, double fill)
    : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

DenseMatrix DenseMatrix::identity(std::size_t n) {
  DenseMatrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void DenseMatrix::matvec(std::span<const double> x,
                         std::span<double> y) const {
  TECFAN_REQUIRE(x.size() == cols_ && y.size() == rows_,
                 "matvec size mismatch");
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = &data_[r * cols_];
    double s = 0.0;
    for (std::size_t c = 0; c < cols_; ++c) s += a[c] * x[c];
    y[r] = s;
  }
}

void DenseMatrix::matvec_transpose(std::span<const double> x,
                                   std::span<double> y) const {
  TECFAN_REQUIRE(x.size() == rows_ && y.size() == cols_,
                 "matvec_transpose size mismatch");
  for (std::size_t c = 0; c < cols_; ++c) y[c] = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* a = &data_[r * cols_];
    const double xr = x[r];
    for (std::size_t c = 0; c < cols_; ++c) y[c] += a[c] * xr;
  }
}

bool DenseMatrix::is_symmetric(double tol) const {
  if (rows_ != cols_) return false;
  for (std::size_t r = 0; r < rows_; ++r)
    for (std::size_t c = r + 1; c < cols_; ++c)
      if (std::abs((*this)(r, c) - (*this)(c, r)) > tol) return false;
  return true;
}

void axpy(double s, std::span<const double> b, std::span<double> a) {
  TECFAN_REQUIRE(a.size() == b.size(), "axpy size mismatch");
  for (std::size_t i = 0; i < a.size(); ++i) a[i] += s * b[i];
}

double dot(std::span<const double> a, std::span<const double> b) {
  TECFAN_REQUIRE(a.size() == b.size(), "dot size mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

double norm2(std::span<const double> a) { return std::sqrt(dot(a, a)); }

double norm_inf(std::span<const double> a) {
  double m = 0.0;
  for (double v : a) m = std::max(m, std::abs(v));
  return m;
}

}  // namespace tecfan::linalg
