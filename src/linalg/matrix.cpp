#include "linalg/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <functional>

#include "common/check.hpp"

namespace ff::linalg {

Matrix::Matrix(std::initializer_list<std::initializer_list<Complex>> rows) {
  rows_ = rows.size();
  cols_ = rows.begin() == rows.end() ? 0 : rows.begin()->size();
  data_.reserve(rows_ * cols_);
  for (const auto& r : rows) {
    FF_CHECK_MSG(r.size() == cols_, "ragged initializer list");
    data_.insert(data_.end(), r.begin(), r.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

void Matrix::set_zero(std::size_t rows, std::size_t cols) {
  rows_ = rows;
  cols_ = cols;
  data_.assign(rows * cols, Complex{});
}

Matrix Matrix::operator+(const Matrix& o) const {
  FF_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] += o.data_[i];
  return out;
}

Matrix Matrix::operator-(const Matrix& o) const {
  FF_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  Matrix out = *this;
  for (std::size_t i = 0; i < data_.size(); ++i) out.data_[i] -= o.data_[i];
  return out;
}

void multiply(const Matrix& a, const Matrix& b, Matrix& out) {
  FF_CHECK_MSG(a.cols() == b.rows(), "matmul shape mismatch " << a.rows() << "x" << a.cols()
                                     << " * " << b.rows() << "x" << b.cols());
  FF_CHECK_MSG(&out != &a && &out != &b, "multiply(): out aliases an operand");
  out.set_zero(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t k = 0; k < a.cols(); ++k) {
      const Complex aik = a(i, k);
      if (aik == Complex{}) continue;
      for (std::size_t j = 0; j < b.cols(); ++j) out(i, j) += aik * b(k, j);
    }
  }
}

Matrix Matrix::operator*(const Matrix& o) const {
  Matrix out;
  multiply(*this, o, out);
  return out;
}

Matrix Matrix::operator*(Complex s) const {
  Matrix out = *this;
  for (auto& x : out.data_) x *= s;
  return out;
}

Matrix& Matrix::operator+=(const Matrix& o) {
  FF_CHECK(rows_ == o.rows_ && cols_ == o.cols_);
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += o.data_[i];
  return *this;
}

Matrix& Matrix::operator*=(Complex s) {
  for (auto& x : data_) x *= s;
  return *this;
}

Matrix Matrix::adjoint() const {
  Matrix out(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i)
    for (std::size_t j = 0; j < cols_; ++j) out(j, i) = std::conj((*this)(i, j));
  return out;
}

double Matrix::frobenius() const {
  double acc = 0.0;
  for (const Complex x : data_) acc += std::norm(x);
  return std::sqrt(acc);
}

Matrix operator*(Complex s, const Matrix& m) { return m * s; }

namespace {

/// LU with partial pivoting; returns pivot sign and leaves LU packed in a.
/// Records the row permutation in `perm` unless it is null (the determinant
/// needs only the sign). Returns false if a pivot underflows (singular to
/// working precision).
bool lu_decompose(Matrix& a, std::vector<std::size_t>* perm, int& sign) {
  const std::size_t n = a.rows();
  if (perm != nullptr) {
    perm->resize(n);
    for (std::size_t i = 0; i < n; ++i) (*perm)[i] = i;
  }
  sign = 1;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t piv = k;
    double best = std::abs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(a(i, k));
      if (v > best) { best = v; piv = i; }
    }
    if (best < 1e-300) return false;
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(piv, j));
      if (perm != nullptr) std::swap((*perm)[k], (*perm)[piv]);
      sign = -sign;
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const Complex f = a(i, k) / a(k, k);
      a(i, k) = f;
      for (std::size_t j = k + 1; j < n; ++j) a(i, j) -= f * a(k, j);
    }
  }
  return true;
}

}  // namespace

Complex determinant_in_place(Matrix& a) {
  FF_CHECK(a.is_square());
  int sign = 0;
  if (!lu_decompose(a, nullptr, sign)) return Complex{0.0, 0.0};
  Complex det{static_cast<double>(sign), 0.0};
  for (std::size_t i = 0; i < a.rows(); ++i) det *= a(i, i);
  return det;
}

Complex determinant(const Matrix& a) {
  Matrix lu = a;
  return determinant_in_place(lu);
}

Matrix solve(const Matrix& a, const Matrix& b) {
  FF_CHECK(a.is_square());
  FF_CHECK(a.rows() == b.rows());
  Matrix lu = a;
  std::vector<std::size_t> perm;
  int sign = 0;
  FF_CHECK_MSG(lu_decompose(lu, &perm, sign), "solve(): singular matrix");
  const std::size_t n = a.rows();
  Matrix x(n, b.cols());
  for (std::size_t col = 0; col < b.cols(); ++col) {
    // Forward substitution with permuted RHS.
    CVec y(n);
    for (std::size_t i = 0; i < n; ++i) {
      Complex acc = b(perm[i], col);
      for (std::size_t j = 0; j < i; ++j) acc -= lu(i, j) * y[j];
      y[i] = acc;
    }
    // Back substitution.
    for (std::size_t ii = n; ii-- > 0;) {
      Complex acc = y[ii];
      for (std::size_t j = ii + 1; j < n; ++j) acc -= lu(ii, j) * x(j, col);
      x(ii, col) = acc / lu(ii, ii);
    }
  }
  return x;
}

Matrix inverse(const Matrix& a) { return solve(a, Matrix::identity(a.rows())); }

Matrix least_squares(const Matrix& a, const Matrix& b, double ridge) {
  FF_CHECK(a.rows() == b.rows());
  FF_CHECK_MSG(a.rows() >= a.cols(), "least_squares needs rows >= cols");
  // Householder QR on [A; sqrt(ridge) I] with RHS [b; 0].
  const std::size_t extra = ridge > 0.0 ? a.cols() : 0;
  const std::size_t m = a.rows() + extra;
  const std::size_t n = a.cols();
  Matrix r(m, n);
  Matrix qtb(m, b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < n; ++j) r(i, j) = a(i, j);
    for (std::size_t j = 0; j < b.cols(); ++j) qtb(i, j) = b(i, j);
  }
  if (extra > 0) {
    const double s = std::sqrt(ridge);
    for (std::size_t j = 0; j < n; ++j) r(a.rows() + j, j) = s;
  }

  CVec v(m);
  for (std::size_t k = 0; k < n; ++k) {
    // Householder vector for column k below the diagonal.
    double norm_sq = 0.0;
    for (std::size_t i = k; i < m; ++i) norm_sq += std::norm(r(i, k));
    const double alpha = std::sqrt(norm_sq);
    if (alpha < 1e-300) continue;
    const Complex rkk = r(k, k);
    const double rkk_abs = std::abs(rkk);
    const Complex phase = rkk_abs > 1e-300 ? rkk / rkk_abs : Complex{1.0, 0.0};
    const Complex beta = -phase * alpha;

    double vnorm_sq = 0.0;
    for (std::size_t i = k; i < m; ++i) {
      v[i] = r(i, k);
      if (i == k) v[i] -= beta;
      vnorm_sq += std::norm(v[i]);
    }
    if (vnorm_sq < 1e-300) continue;
    // Apply H = I - 2 v v^H / (v^H v) to R (cols k..n) and qtb.
    for (std::size_t j = k; j < n; ++j) {
      Complex dot{0.0, 0.0};
      for (std::size_t i = k; i < m; ++i) dot += std::conj(v[i]) * r(i, j);
      const Complex f = 2.0 * dot / vnorm_sq;
      for (std::size_t i = k; i < m; ++i) r(i, j) -= f * v[i];
    }
    for (std::size_t j = 0; j < qtb.cols(); ++j) {
      Complex dot{0.0, 0.0};
      for (std::size_t i = k; i < m; ++i) dot += std::conj(v[i]) * qtb(i, j);
      const Complex f = 2.0 * dot / vnorm_sq;
      for (std::size_t i = k; i < m; ++i) qtb(i, j) -= f * v[i];
    }
  }

  // Back substitution on the upper-triangular n x n block.
  Matrix x(n, b.cols());
  for (std::size_t col = 0; col < b.cols(); ++col) {
    for (std::size_t ii = n; ii-- > 0;) {
      Complex acc = qtb(ii, col);
      for (std::size_t j = ii + 1; j < n; ++j) acc -= r(ii, j) * x(j, col);
      FF_CHECK_MSG(std::abs(r(ii, ii)) > 1e-300, "least_squares: rank-deficient system");
      x(ii, col) = acc / r(ii, ii);
    }
  }
  return x;
}

std::vector<double> singular_values(const Matrix& a) {
  // One-sided Jacobi on the columns of a working copy W (starts as A, ends as
  // U * diag(sigma)). The rotations' product would be V, but nothing feeds it
  // back into W, so only W is rotated.
  const std::size_t m = a.rows(), n = a.cols();
  FF_CHECK(m > 0 && n > 0);
  Matrix w = a;

  const int max_sweeps = 60;
  for (int sweep = 0; sweep < max_sweeps; ++sweep) {
    double off = 0.0;
    for (std::size_t p = 0; p + 1 < n; ++p) {
      for (std::size_t q = p + 1; q < n; ++q) {
        // Compute the 2x2 Gram submatrix for columns p, q.
        Complex apq{0.0, 0.0};
        double app = 0.0, aqq = 0.0;
        for (std::size_t i = 0; i < m; ++i) {
          apq += std::conj(w(i, p)) * w(i, q);
          app += std::norm(w(i, p));
          aqq += std::norm(w(i, q));
        }
        const double mag = std::abs(apq);
        off += mag * mag;
        if (mag < 1e-30 * std::sqrt(std::max(app * aqq, 1e-300))) continue;

        // Complex Jacobi rotation diagonalizing [[app, apq],[conj(apq), aqq]].
        const Complex phase = apq / mag;
        const double tau = (aqq - app) / (2.0 * mag);
        const double t = (tau >= 0.0 ? 1.0 : -1.0) / (std::abs(tau) + std::sqrt(1.0 + tau * tau));
        const double c = 1.0 / std::sqrt(1.0 + t * t);
        const double s = c * t;
        const Complex sp = s * phase;

        for (std::size_t i = 0; i < m; ++i) {
          const Complex wp = w(i, p), wq = w(i, q);
          w(i, p) = c * wp - std::conj(sp) * wq;
          w(i, q) = sp * wp + c * wq;
        }
      }
    }
    if (off < 1e-28) break;
  }

  // Column norms are the singular values.
  std::vector<double> sigma(n);
  for (std::size_t j = 0; j < n; ++j) {
    double norm_sq = 0.0;
    for (std::size_t i = 0; i < m; ++i) norm_sq += std::norm(w(i, j));
    sigma[j] = std::sqrt(norm_sq);
  }
  std::sort(sigma.begin(), sigma.end(), std::greater<>());
  return sigma;
}

std::size_t rank(const Matrix& a, double tol) {
  const auto s = singular_values(a);
  if (s.empty() || s[0] <= 0.0) return 0;
  std::size_t r = 0;
  for (const double v : s)
    if (v > tol * s[0]) ++r;
  return r;
}

}  // namespace ff::linalg
