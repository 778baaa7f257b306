// Unit and property tests for the complex linear algebra kernel.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>

#include "common/rng.hpp"
#include "common/units.hpp"
#include "linalg/matrix.hpp"

namespace ff {
namespace {

using linalg::Matrix;

Matrix random_matrix(Rng& rng, std::size_t r, std::size_t c) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < r; ++i)
    for (std::size_t j = 0; j < c; ++j) m(i, j) = rng.cgaussian();
  return m;
}

double mat_dist(const Matrix& a, const Matrix& b) { return (a - b).frobenius(); }

bool same_bits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data().data(), b.data().data(), a.data().size() * sizeof(Complex)) == 0;
}

TEST(Matrix, BasicArithmetic) {
  const Matrix a{{Complex{1, 0}, Complex{2, 0}}, {Complex{3, 0}, Complex{4, 0}}};
  const Matrix i = Matrix::identity(2);
  EXPECT_NEAR(mat_dist(a * i, a), 0.0, 1e-14);
  EXPECT_NEAR(mat_dist(i * a, a), 0.0, 1e-14);
  EXPECT_NEAR(mat_dist(a + Matrix::zeros(2, 2), a), 0.0, 1e-14);
  EXPECT_NEAR(mat_dist(a - a, Matrix::zeros(2, 2)), 0.0, 1e-14);
}

TEST(Matrix, AdjointIsConjugateTranspose) {
  const Matrix a{{Complex{1, 2}}, {Complex{3, -4}}};
  const Matrix ah = a.adjoint();
  EXPECT_EQ(ah.rows(), 1u);
  EXPECT_EQ(ah.cols(), 2u);
  EXPECT_EQ(ah(0, 0), (Complex{1, -2}));
  EXPECT_EQ(ah(0, 1), (Complex{3, 4}));
}

class SquareSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SquareSizes, InverseTimesSelfIsIdentity) {
  Rng rng(GetParam());
  const Matrix a = random_matrix(rng, GetParam(), GetParam());
  const Matrix inv = linalg::inverse(a);
  EXPECT_NEAR(mat_dist(a * inv, Matrix::identity(GetParam())), 0.0, 1e-9);
}

TEST_P(SquareSizes, SolveSatisfiesSystem) {
  Rng rng(GetParam() + 100);
  const std::size_t n = GetParam();
  const Matrix a = random_matrix(rng, n, n);
  const Matrix b = random_matrix(rng, n, 2);
  const Matrix x = linalg::solve(a, b);
  EXPECT_NEAR(mat_dist(a * x, b), 0.0, 1e-9);
}

TEST_P(SquareSizes, DeterminantOfProductFactors) {
  Rng rng(GetParam() + 200);
  const std::size_t n = GetParam();
  const Matrix a = random_matrix(rng, n, n);
  const Matrix b = random_matrix(rng, n, n);
  const Complex lhs = linalg::determinant(a * b);
  const Complex rhs = linalg::determinant(a) * linalg::determinant(b);
  EXPECT_NEAR(std::abs(lhs - rhs), 0.0, 1e-8 * std::max(1.0, std::abs(rhs)));
}

INSTANTIATE_TEST_SUITE_P(Sizes, SquareSizes, ::testing::Values(1, 2, 3, 4, 6, 10));

TEST(Matrix, Determinant2x2Formula) {
  const Matrix a{{Complex{1, 1}, Complex{2, 0}}, {Complex{0, 3}, Complex{4, -1}}};
  const Complex expect = Complex{1, 1} * Complex{4, -1} - Complex{2, 0} * Complex{0, 3};
  EXPECT_NEAR(std::abs(linalg::determinant(a) - expect), 0.0, 1e-12);
}

TEST(Matrix, InPlaceFormsEqualTheirWrappers) {
  Rng rng(205);
  const Matrix a = random_matrix(rng, 3, 4);
  Matrix b = random_matrix(rng, 4, 2);
  b(1, 0) = Complex{};  // exercise the zero skip on the left operand too
  Matrix out = random_matrix(rng, 5, 5);  // stale shape and contents
  linalg::multiply(a, b, out);
  EXPECT_TRUE(same_bits(out, a * b));
  const Matrix sq = random_matrix(rng, 4, 4);
  Matrix lu = sq;
  const Complex in_place = linalg::determinant_in_place(lu);
  const Complex wrapped = linalg::determinant(sq);
  EXPECT_EQ(std::memcmp(&in_place, &wrapped, sizeof(Complex)), 0);
  Matrix c = b;
  EXPECT_THROW(linalg::multiply(a, c, c), std::logic_error);  // out aliases an operand
}

TEST(Matrix, SingularMatrixHasZeroDeterminant) {
  Matrix a(2, 2);
  a(0, 0) = {1, 0};
  a(0, 1) = {2, 0};
  a(1, 0) = {2, 0};
  a(1, 1) = {4, 0};  // row2 = 2*row1
  EXPECT_NEAR(std::abs(linalg::determinant(a)), 0.0, 1e-12);
  EXPECT_THROW(linalg::inverse(a), std::logic_error);
}

TEST(LeastSquares, ExactForConsistentSystem) {
  Rng rng(301);
  const Matrix a = random_matrix(rng, 20, 5);
  const Matrix x_true = random_matrix(rng, 5, 1);
  const Matrix b = a * x_true;
  const Matrix x = linalg::least_squares(a, b);
  EXPECT_NEAR(mat_dist(x, x_true), 0.0, 1e-9);
}

TEST(LeastSquares, ResidualIsOrthogonalToColumns) {
  Rng rng(302);
  const Matrix a = random_matrix(rng, 30, 4);
  const Matrix b = random_matrix(rng, 30, 1);
  const Matrix x = linalg::least_squares(a, b);
  const Matrix r = b - a * x;
  const Matrix proj = a.adjoint() * r;  // should be ~0
  EXPECT_NEAR(proj.frobenius(), 0.0, 1e-8);
}

TEST(LeastSquares, RidgeShrinksSolution) {
  Rng rng(303);
  const Matrix a = random_matrix(rng, 25, 6);
  const Matrix b = random_matrix(rng, 25, 1);
  const Matrix x0 = linalg::least_squares(a, b, 0.0);
  const Matrix x1 = linalg::least_squares(a, b, 100.0);
  EXPECT_LT(x1.frobenius(), x0.frobenius());
}

TEST(Svd, SingularValuesAreSortedNonNegative) {
  Rng rng(402);
  const Matrix a = random_matrix(rng, 5, 5);
  const auto sv = linalg::singular_values(a);
  for (std::size_t i = 0; i + 1 < sv.size(); ++i) {
    EXPECT_GE(sv[i], sv[i + 1]);
    EXPECT_GE(sv[i + 1], 0.0);
  }
}

TEST(Svd, FrobeniusEqualsSigmaNorm) {
  Rng rng(403);
  const Matrix a = random_matrix(rng, 4, 3);
  const auto sv = linalg::singular_values(a);
  double acc = 0.0;
  for (const double s : sv) acc += s * s;
  EXPECT_NEAR(std::sqrt(acc), a.frobenius(), 1e-9);
}

TEST(Svd, RankOneOuterProduct) {
  Rng rng(404);
  const Matrix u = random_matrix(rng, 4, 1);
  const Matrix v = random_matrix(rng, 4, 1);
  const Matrix a = u * v.adjoint();
  EXPECT_EQ(linalg::rank(a, 1e-8), 1u);
  const auto sv = linalg::singular_values(a);
  EXPECT_NEAR(sv[0], u.frobenius() * v.frobenius(), 1e-9);
}

TEST(Svd, UnitaryHasUnitSingularValues) {
  // The normalized 3x3 DFT matrix, F(j, k) = e^{-j 2 pi jk / 3} / sqrt(3).
  Matrix q(3, 3);
  for (std::size_t j = 0; j < 3; ++j)
    for (std::size_t k = 0; k < 3; ++k)
      q(j, k) = std::polar(1.0 / std::sqrt(3.0), -kTwoPi * static_cast<double>(j * k) / 3.0);
  for (const double sv : linalg::singular_values(q)) EXPECT_NEAR(sv, 1.0, 1e-12);
}

void expect_bits(const std::vector<double>& got, std::initializer_list<double> want,
                 const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  EXPECT_EQ(std::memcmp(got.data(), std::data(want), got.size() * sizeof(double)), 0)
      << what << ": sigma[0] = " << got[0];
}

TEST(Linalg, SingularValuesPinnedBitForBit) {
  // Recorded as hex floats from the Jacobi loop that also rotated V beside
  // W: V never feeds back into W, so rotating W alone keeps every bit.
  Rng rng(406);
  const Matrix m11 = random_matrix(rng, 1, 1);
  const Matrix m22 = random_matrix(rng, 2, 2);
  const Matrix m23 = random_matrix(rng, 2, 3);
  const Matrix m32 = random_matrix(rng, 3, 2);
  const Matrix m44 = random_matrix(rng, 4, 4);
  const Matrix u = random_matrix(rng, 3, 1);
  const Matrix v = random_matrix(rng, 3, 1);
  const Matrix rank_one = u * v.adjoint();
  Matrix zero_col = random_matrix(rng, 3, 3);
  for (std::size_t i = 0; i < 3; ++i) zero_col(i, 1) = Complex{};

  expect_bits(linalg::singular_values(m11), {0x1.db2e9190f8a9dp-1}, "1x1");
  expect_bits(linalg::singular_values(m22), {0x1.f0193d059fd07p+0, 0x1.67dc2bd58e904p-1},
              "2x2");
  expect_bits(linalg::singular_values(m23),
              {0x1.917cc7b62a934p+1, 0x1.5ba832caa50a6p+0, 0x1.5030d65c89d46p-173}, "2x3");
  expect_bits(linalg::singular_values(m32), {0x1.99201805149cfp+0, 0x1.b5086f5c9eff5p-1},
              "3x2");
  expect_bits(linalg::singular_values(m44),
              {0x1.b3cedd3ac7e6ep+1, 0x1.eebd85fbb70ebp+0, 0x1.7019830918daap-1,
               0x1.96a9170498d45p-3},
              "4x4");
  expect_bits(linalg::singular_values(rank_one),
              {0x1.495d676dc63a1p+1, 0x1.9ad2946d034dcp-53, 0x1.8a1b73ab25869p-55}, "rank one");
  expect_bits(linalg::singular_values(zero_col), {0x1.680550c7003dap+0, 0x1.56f5ae218bc82p-1, 0.0},
              "zero column");
}

}  // namespace
}  // namespace ff
