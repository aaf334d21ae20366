// Linear algebra tests: dense LU, CSR assembly, sparse LU, cross-checks on
// random systems.
#include <gtest/gtest.h>

#include <cmath>
#include <random>

#include "linalg/dense.h"
#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/sparse_lu.h"

namespace nvsram::linalg {
namespace {

DenseMatrix random_diag_dominant(std::size_t n, std::mt19937& rng) {
  std::uniform_real_distribution<double> dist(-1.0, 1.0);
  DenseMatrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    double row_sum = 0.0;
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      a(i, j) = dist(rng);
      row_sum += std::fabs(a(i, j));
    }
    a(i, i) = row_sum + 1.0 + std::fabs(dist(rng));
  }
  return a;
}

// ---- dense -----------------------------------------------------------------

TEST(Dense, MultiplyIdentity) {
  const auto eye = DenseMatrix::identity(4);
  const Vector x{1.0, -2.0, 3.0, 0.5};
  EXPECT_EQ(eye.multiply(x), x);
}

TEST(Dense, VectorHelpers) {
  Vector a{1.0, 2.0, 2.0};
  const Vector b{2.0, -1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 4.0);
  EXPECT_DOUBLE_EQ(norm_inf(b), 2.0);
  EXPECT_DOUBLE_EQ(norm_2(a), 3.0);
  axpy(2.0, b, a);
  EXPECT_DOUBLE_EQ(a[0], 5.0);
}

TEST(DenseLu, SolvesSmallSystem) {
  DenseMatrix a(2, 2);
  a(0, 0) = 2.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 3.0;
  const auto x = solve_dense(a, {5.0, 10.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 3.0, 1e-12);
}

TEST(DenseLu, RequiresPivoting) {
  // Zero on the first diagonal: fails without partial pivoting.
  DenseMatrix a(2, 2);
  a(0, 0) = 0.0; a(0, 1) = 1.0;
  a(1, 0) = 1.0; a(1, 1) = 1.0;
  const auto x = solve_dense(a, {2.0, 3.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

TEST(DenseLu, DetectsSingular) {
  DenseMatrix a(2, 2);
  a(0, 0) = 1.0; a(0, 1) = 2.0;
  a(1, 0) = 2.0; a(1, 1) = 4.0;
  EXPECT_FALSE(solve_dense(a, {1.0, 2.0}).has_value());
}

TEST(DenseLu, RandomRoundTrip) {
  std::mt19937 rng(42);
  for (std::size_t n : {3u, 8u, 20u, 50u}) {
    const auto a = random_diag_dominant(n, rng);
    Vector x_true(n);
    for (auto& v : x_true) v = std::uniform_real_distribution<double>(-5, 5)(rng);
    const auto b = a.multiply(x_true);
    const auto x = solve_dense(a, b);
    ASSERT_TRUE(x.has_value());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR((*x)[i], x_true[i], 1e-8) << "n=" << n << " i=" << i;
    }
  }
}

TEST(DenseLu, IterativeRefinementImproves) {
  std::mt19937 rng(7);
  const auto a = random_diag_dominant(30, rng);
  Vector x_true(30, 1.0);
  const auto b = a.multiply(x_true);
  LuFactorization lu;
  ASSERT_TRUE(lu.factorize(a));
  auto x = lu.solve(b);
  const auto x2 = lu.refine(a, b, x);
  Vector r1 = a.multiply(x), r2 = a.multiply(x2);
  for (std::size_t i = 0; i < 30; ++i) {
    r1[i] -= b[i];
    r2[i] -= b[i];
  }
  EXPECT_LE(norm_inf(r2), norm_inf(r1) + 1e-18);
}

// ---- CSR assembly -------------------------------------------------------------

TEST(Csr, AccumulatesDuplicates) {
  SparseBuilder builder(3);
  builder.add(0, 0, 1.0);
  builder.add(0, 0, 2.0);
  builder.add(1, 2, -1.0);
  builder.add(2, 2, 4.0);
  const CsrMatrix m(builder);
  EXPECT_DOUBLE_EQ(m.at(0, 0), 3.0);
  EXPECT_DOUBLE_EQ(m.at(1, 2), -1.0);
  EXPECT_DOUBLE_EQ(m.at(1, 1), 0.0);
  EXPECT_EQ(m.nonzeros(), 3u);
}

TEST(Csr, MultiplyMatchesDense) {
  std::mt19937 rng(3);
  SparseBuilder builder(10);
  std::uniform_int_distribution<std::size_t> idx(0, 9);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  for (int k = 0; k < 40; ++k) builder.add(idx(rng), idx(rng), val(rng));
  for (std::size_t i = 0; i < 10; ++i) builder.add(i, i, 5.0);
  const CsrMatrix m(builder);
  const auto d = m.to_dense();
  Vector x(10);
  for (auto& v : x) v = val(rng);
  const auto y1 = m.multiply(x);
  const auto y2 = d.multiply(x);
  for (std::size_t i = 0; i < 10; ++i) EXPECT_NEAR(y1[i], y2[i], 1e-12);
}

TEST(Csr, RejectsOutOfRange) {
  SparseBuilder builder(2);
  builder.add(0, 5, 1.0);
  EXPECT_THROW(CsrMatrix{builder}, std::out_of_range);
}

// ---- CSR assembly plan ----------------------------------------------------------

// Seeded stamp list with repeated positions.  Slot (1, 1) also receives
// 1e16, 1.0, -1e16 and 1.0, spread through the list.  A 1.0 added while
// one large term is pending rounds away, so the sum is 1 in stamp order
// and 0 or 2 when the duplicates are accumulated in another order.
SparseBuilder random_stamps(std::size_t n, std::size_t count, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_int_distribution<std::size_t> idx(0, n - 1);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  SparseBuilder builder(n);
  const double sensitive[] = {1e16, 1.0, -1e16, 1.0};
  const std::size_t stride = count / 4;
  for (std::size_t k = 0; k < count; ++k) {
    builder.add(idx(rng), idx(rng), val(rng));
    if (k % stride == 0 && k / stride < 4) {
      builder.add(1, 1, sensitive[k / stride]);
    }
  }
  return builder;
}

// Same positions, new values; slot (1, 1) keeps its order-sensitive ones.
SparseBuilder restamped(const SparseBuilder& b, unsigned seed) {
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> val(-2.0, 2.0);
  SparseBuilder out(b.dimension());
  for (const auto& t : b.triplets()) {
    out.add(t.row, t.col, t.row == 1 && t.col == 1 ? t.value : val(rng));
  }
  return out;
}

void expect_same_csr(const CsrMatrix& got, const CsrMatrix& want) {
  EXPECT_EQ(got.dimension(), want.dimension());
  EXPECT_EQ(got.row_ptr(), want.row_ptr());
  EXPECT_EQ(got.col_idx(), want.col_idx());
  EXPECT_EQ(got.values(), want.values());  // element-wise ==, bit for bit
}

TEST(CsrAssembler, FirstCallMatchesSortingConstructor) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SparseBuilder b = random_stamps(12, 90, seed);
    CsrAssembler assembler;
    CsrMatrix out;
    EXPECT_TRUE(assembler.assemble(b, out)) << "the first call plans";
    expect_same_csr(out, CsrMatrix(b));
  }
  // The order-sensitive slot alone: stamp order gives exactly 1.
  SparseBuilder b(2);
  b.add(1, 1, 1e16);
  b.add(0, 0, 2.0);
  b.add(1, 1, 1.0);
  b.add(1, 1, -1e16);
  b.add(1, 1, 1.0);
  CsrAssembler assembler;
  CsrMatrix out;
  assembler.assemble(b, out);
  EXPECT_EQ(out.at(1, 1), 1.0);
}

TEST(CsrAssembler, RepeatedCallsWithNewValuesReuseThePlan) {
  for (unsigned seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SparseBuilder first = random_stamps(12, 90, seed);
    CsrAssembler assembler;
    CsrMatrix out;
    ASSERT_TRUE(assembler.assemble(first, out));
    for (unsigned round = 1; round <= 4; ++round) {
      const SparseBuilder b = restamped(first, 100 * seed + round);
      EXPECT_FALSE(assembler.assemble(b, out))
          << "round " << round << ": unchanged positions must not replan";
      expect_same_csr(out, CsrMatrix(b));
    }
  }
}

TEST(CsrAssembler, ChangedPositionSequenceReplans) {
  const SparseBuilder base = random_stamps(12, 90, 7);

  SparseBuilder extra = base;
  extra.add(3, 5, 0.25);

  // The middle stamp moved one column over (wrapping at the edge).
  const auto& t = base.triplets();
  SparseBuilder moved(base.dimension());
  for (std::size_t i = 0; i < t.size(); ++i) {
    const std::size_t col =
        i == t.size() / 2 ? (t[i].col + 1) % base.dimension() : t[i].col;
    moved.add(t[i].row, col, t[i].value);
  }

  const SparseBuilder bigger = random_stamps(15, 110, 7);

  const SparseBuilder* const changes[] = {&extra, &moved, &bigger};
  for (const SparseBuilder* changed : changes) {
    CsrAssembler assembler;
    CsrMatrix out;
    ASSERT_TRUE(assembler.assemble(base, out));
    EXPECT_TRUE(assembler.assemble(*changed, out))
        << "a changed position sequence must replan";
    expect_same_csr(out, CsrMatrix(*changed));
    // The new plan is reused from then on.
    const SparseBuilder again = restamped(*changed, 11);
    EXPECT_FALSE(assembler.assemble(again, out));
    expect_same_csr(out, CsrMatrix(again));
  }
}

// ---- sparse LU ------------------------------------------------------------------

TEST(SparseLuTest, SolvesSmallAsymmetric) {
  SparseBuilder b(3);
  b.add(0, 0, 4.0); b.add(0, 1, -1.0);
  b.add(1, 0, -1.0); b.add(1, 1, 4.0); b.add(1, 2, -1.0);
  b.add(2, 1, -1.0); b.add(2, 2, 4.0);
  const CsrMatrix a(b);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(a));
  const auto x = lu.solve({1.0, 2.0, 3.0});
  const auto ax = a.multiply(x);
  EXPECT_NEAR(ax[0], 1.0, 1e-10);
  EXPECT_NEAR(ax[1], 2.0, 1e-10);
  EXPECT_NEAR(ax[2], 3.0, 1e-10);
}

TEST(SparseLuTest, NeedsPivotingOffDiagonal) {
  // Structurally requires row exchange (zero diagonal in row 0).
  SparseBuilder b(2);
  b.add(0, 1, 1.0);
  b.add(1, 0, 2.0);
  b.add(1, 1, 1.0);
  const CsrMatrix a(b);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(a));
  const auto x = lu.solve({3.0, 4.0});
  EXPECT_NEAR(x[1], 3.0, 1e-12);
  EXPECT_NEAR(x[0], 0.5, 1e-12);
}

TEST(SparseLuTest, DetectsSingular) {
  SparseBuilder b(2);
  b.add(0, 0, 1.0);
  b.add(0, 1, 1.0);
  // Row 1 empty: structurally singular.
  const CsrMatrix a(b);
  SparseLu lu;
  EXPECT_FALSE(lu.factorize(a));
}

TEST(SparseLuTest, MatchesDenseOnRandomSystems) {
  std::mt19937 rng(11);
  for (std::size_t n : {5u, 25u, 80u}) {
    SparseBuilder builder(n);
    std::uniform_int_distribution<std::size_t> idx(0, n - 1);
    std::uniform_real_distribution<double> val(-1.0, 1.0);
    for (std::size_t k = 0; k < 6 * n; ++k) {
      builder.add(idx(rng), idx(rng), val(rng));
    }
    for (std::size_t i = 0; i < n; ++i) builder.add(i, i, 8.0);
    const CsrMatrix a(builder);

    Vector b(n);
    for (auto& v : b) v = val(rng);

    SparseLu lu;
    ASSERT_TRUE(lu.factorize(a));
    const auto xs = lu.solve(b);
    const auto xd = solve_dense(a.to_dense(), b);
    ASSERT_TRUE(xd.has_value());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_NEAR(xs[i], (*xd)[i], 1e-8) << "n=" << n;
    }
  }
}

TEST(SparseLuTest, LargeGridSystem) {
  // 2D Laplacian on a 30x30 grid (900 unknowns) — the array-netlist scale.
  const std::size_t g = 30;
  const std::size_t n = g * g;
  SparseBuilder builder(n);
  auto at = [g](std::size_t r, std::size_t c) { return r * g + c; };
  for (std::size_t r = 0; r < g; ++r) {
    for (std::size_t c = 0; c < g; ++c) {
      const std::size_t i = at(r, c);
      builder.add(i, i, 4.0 + 1e-3);
      if (r > 0) builder.add(i, at(r - 1, c), -1.0);
      if (r + 1 < g) builder.add(i, at(r + 1, c), -1.0);
      if (c > 0) builder.add(i, at(r, c - 1), -1.0);
      if (c + 1 < g) builder.add(i, at(r, c + 1), -1.0);
    }
  }
  const CsrMatrix a(builder);
  Vector b(n, 1.0);
  SparseLu lu;
  ASSERT_TRUE(lu.factorize(a));
  const auto x = lu.solve(b);
  const auto ax = a.multiply(x);
  double worst = 0.0;
  for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, std::fabs(ax[i] - 1.0));
  EXPECT_LT(worst, 1e-9);
}

TEST(SolveSparse, PicksPathByDimension) {
  SparseBuilder b(2);
  b.add(0, 0, 2.0);
  b.add(1, 1, 4.0);
  const auto x = solve_sparse(CsrMatrix(b), {2.0, 8.0});
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR((*x)[0], 1.0, 1e-12);
  EXPECT_NEAR((*x)[1], 2.0, 1e-12);
}

}  // namespace
}  // namespace nvsram::linalg
