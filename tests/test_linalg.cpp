// Linear algebra tests: dense LU, the planned cell LU, CSR assembly, sparse
// LU, cross-checks on random systems.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
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

// ---- planned cell LU --------------------------------------------------------------

// An MNA-like stamp list: conductances between node pairs and to ground,
// drawn from a few repeated values; FET-like transconductances; and
// voltage-source branches, whose +-1 incidence entries tie exactly in
// magnitude.  Every stamp names an entry of a value table, so a draw keeps
// the positions and rescales each table entry (the unit 1 never), and
// equal values stay exactly equal.  The conductances are random, so no
// sum of them lands near another entry and a small rescale keeps the
// dense pivots.
struct MnaStamps {
  struct Stamp {
    std::size_t row, col;
    double sign;
    std::size_t value;  // index into the value table
  };
  std::size_t n = 0;
  std::vector<Stamp> stamps;
  std::vector<double> table;  // the unit, five conductances, gmin
};

MnaStamps mna_stamps(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  MnaStamps m;
  m.n = n;
  const std::size_t branches = std::max<std::size_t>(1, n / 5);
  const std::size_t nodes = n - branches;
  std::uniform_int_distribution<std::size_t> node(0, nodes - 1);
  std::uniform_int_distribution<std::size_t> conductance(1, 5);
  std::uniform_real_distribution<double> decades(-5.0, -2.0);
  m.table.push_back(1.0);
  for (int v = 0; v < 5; ++v) m.table.push_back(std::pow(10.0, decades(rng)));
  m.table.push_back(1e-12);
  constexpr std::size_t kGround = std::numeric_limits<std::size_t>::max();
  const auto add = [&](std::size_t r, std::size_t c, double sign,
                       std::size_t value) {
    if (r != kGround && c != kGround) m.stamps.push_back({r, c, sign, value});
  };
  const auto resistor = [&](std::size_t a, std::size_t b, std::size_t value) {
    add(a, a, 1.0, value);
    add(b, b, 1.0, value);
    add(a, b, -1.0, value);
    add(b, a, -1.0, value);
  };
  resistor(0, 1, 1);  // column 0 has an off-diagonal entry to flip to
  for (std::size_t i = 0; i < nodes; ++i) {
    const std::size_t other = node(rng);
    resistor(i, other == i || rng() % 4 == 0 ? kGround : other, conductance(rng));
  }
  for (std::size_t t = 0; t < nodes / 3; ++t) {
    const std::size_t d = node(rng), g = node(rng), s = node(rng);
    add(d, g, 1.0, conductance(rng));
    add(s, g, -1.0, conductance(rng));
  }
  // Each source drives its own node, against ground or a node no source
  // drives, so the sources form no loop.
  for (std::size_t b = 0; b < branches; ++b) {
    const std::size_t k = nodes + b;
    const std::size_t p = b;
    const std::size_t q = rng() % 2 ? kGround : branches + node(rng) % (nodes - branches);
    add(p, k, 1.0, 0);
    add(k, p, 1.0, 0);
    add(q, k, -1.0, 0);
    add(k, q, -1.0, 0);
  }
  for (std::size_t i = 0; i < nodes; ++i) add(i, i, 1.0, 6);  // gmin
  return m;
}

// One draw of `m`: every table entry but the unit rescaled by 1 + 1e-9 u.
SparseBuilder draw_values(const MnaStamps& m, std::mt19937& rng) {
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  std::vector<double> table = m.table;
  for (std::size_t v = 1; v < table.size(); ++v) table[v] *= 1.0 + 1e-9 * u(rng);
  SparseBuilder b(m.n);
  for (const auto& s : m.stamps) b.add(s.row, s.col, s.sign * table[s.value]);
  return b;
}

bool same_bits(const Vector& a, const Vector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

TEST(PlannedLu, ReplaysTheDenseLuBitForBit) {
  // One PlannedLu across four patterns.  Per pattern: draws that keep the
  // pivots, one where another row overtakes the step-0 pivot, one with a
  // zeroed column, one with a NaN and one with an Inf stamp, and one whose
  // solution overflows.  Every draw is checked against a fresh dense LU.
  PlannedLu lu;
  std::mt19937 rng(2024);
  std::uniform_real_distribution<double> val(-1.0, 1.0);
  for (std::size_t n : {5u, 23u, 60u, 160u}) {
    SCOPED_TRACE("n=" + std::to_string(n));
    const MnaStamps m = mna_stamps(n, static_cast<unsigned>(n));
    std::vector<std::size_t> planned_perm;  // the dense pivots last planned
    std::size_t replays = 0;
    enum Kind { kKeep, kFlip, kZeroColumn, kNan, kInf, kHugeRhs };
    const Kind draws[] = {kKeep, kKeep, kKeep, kKeep, kKeep,       kKeep,
                          kFlip, kKeep, kKeep, kZeroColumn, kKeep, kNan,
                          kInf,  kKeep, kHugeRhs};
    for (std::size_t d = 0; d < std::size(draws); ++d) {
      SCOPED_TRACE("draw " + std::to_string(d));
      SparseBuilder b = draw_values(m, rng);
      if (draws[d] == kFlip) {
        // Row 1 (row 0 if row 1 holds it) overtakes the step-0 pivot; both
        // rows are structural in column 0.
        b.add(planned_perm.at(0) == 1 ? 0 : 1, 0, 1e3);
      }
      if (draws[d] == kZeroColumn || draws[d] == kNan || draws[d] == kInf) {
        SparseBuilder changed(n);
        const std::size_t col = 1 + rng() % (n - 1);
        const std::size_t hit = rng() % b.triplets().size();
        for (std::size_t t = 0; t < b.triplets().size(); ++t) {
          Triplet s = b.triplets()[t];
          if (draws[d] == kZeroColumn && s.col == col) s.value = 0.0;
          if (draws[d] == kNan && t == hit) s.value = std::nan("");
          if (draws[d] == kInf && t == hit) s.value = HUGE_VAL;
          changed.add(s.row, s.col, s.value);
        }
        b = changed;
      }
      const CsrMatrix a(b);
      Vector rhs(n);
      for (auto& v : rhs) v = val(rng);
      if (d % 4 == 1) rhs[d % n] = -0.0;
      if (draws[d] == kHugeRhs) {
        for (auto& v : rhs) v *= 1e306;  // the solution overflows
      }

      LuFactorization ref;
      const bool ref_ok = ref.factorize(a.to_dense());
      const bool ok = lu.factorize(a);
      ASSERT_EQ(ok, ref_ok);
      if (draws[d] == kKeep) {
        ASSERT_TRUE(ok);
      }
      if (!ok) {
        EXPECT_EQ(lu.failed_pivot(), ref.failed_pivot());
        EXPECT_EQ(lu.non_finite(), ref.non_finite());
        continue;
      }
      EXPECT_TRUE(same_bits(lu.solve(rhs), ref.solve(rhs)));
      // A replay verifies exactly the dense pivots: it replans iff they
      // differ from the planned ones.
      EXPECT_EQ(lu.replanned(), ref.permutation() != planned_perm);
      if (d == 0 || draws[d] == kFlip) {
        EXPECT_TRUE(lu.replanned()) << "a new pattern or a flipped pivot replans";
      }
      if (lu.replanned()) {
        planned_perm = ref.permutation();
      } else {
        ++replays;
      }
    }
    EXPECT_GE(replays, 9u) << "kept pivot sequences must replay";
  }
}

TEST(PlannedLu, TiedPivotsResolveInTheDenseScanOrder) {
  // In this row order the dense loop takes row 2 at step 0 and swaps it to
  // the top, so step 1 scans rows 1, 0, 3, and rows 1 and 0 tie at 3 in
  // column 1: row 1 wins, though row 0 comes first by index.  Under every
  // ordering of the rows a replay of the same values must verify the dense
  // pivots (no replan) and reproduce the dense LU's bits.
  const double rows[4][4] = {{1, -3, 1, 0}, {0, 3, 0, 1}, {2, 0, 1, 1}, {0, 1, 1, 2}};
  std::vector<std::size_t> order{0, 1, 2, 3};
  do {
    SparseBuilder b(4);
    for (std::size_t r = 0; r < 4; ++r) {
      for (std::size_t c = 0; c < 4; ++c) {
        if (rows[order[r]][c] != 0.0) b.add(r, c, rows[order[r]][c]);
      }
    }
    const CsrMatrix a(b);
    LuFactorization ref;
    ASSERT_TRUE(ref.factorize(a.to_dense()));
    PlannedLu lu;
    ASSERT_TRUE(lu.factorize(a));
    ASSERT_TRUE(lu.replanned());
    ASSERT_TRUE(lu.factorize(a));
    EXPECT_FALSE(lu.replanned()) << "the replay must verify the dense pivots";
    const Vector rhs{0.5, -1.5, 2.5, 1.0};
    EXPECT_TRUE(same_bits(lu.solve(rhs), ref.solve(rhs)));
  } while (std::next_permutation(order.begin(), order.end()));
}

TEST(PlannedLu, SkippedZerosStayInvisibleAtTheEdges) {
  // Where a skipped zero could change a bit, the replay must still give
  // the dense LU's.  (a) A -0 on the right: the dense forward pass turns
  // -0 - (+0 * -1) into +0.  (b) An Inf in U above an explicit zero factor:
  // the dense loop skips that row, where 0 * Inf would put a NaN in U.
  struct Case {
    const char* name;
    std::vector<Triplet> entries;
    Vector rhs;
  };
  const double inf = std::numeric_limits<double>::infinity();
  const Case cases[] = {
      {"negative zero rhs", {{0, 0, 2.0}, {1, 1, 3.0}}, {-1.0, -0.0}},
      {"inf above a zero factor",
       {{0, 0, 1.0}, {0, 2, inf}, {1, 0, 0.0}, {1, 1, 1.0}, {1, 2, 1.0}, {2, 2, 1.0}},
       {1.0, 1.0, 1.0}},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    SparseBuilder b(c.rhs.size());
    for (const Triplet& t : c.entries) b.add(t.row, t.col, t.value);
    const CsrMatrix a(b);
    LuFactorization ref;
    ASSERT_TRUE(ref.factorize(a.to_dense()));
    PlannedLu lu;
    ASSERT_TRUE(lu.factorize(a));
    ASSERT_TRUE(lu.factorize(a));
    ASSERT_FALSE(lu.replanned()) << "the second factorization replays";
    EXPECT_TRUE(same_bits(lu.solve(c.rhs), ref.solve(c.rhs)));
  }
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

TEST(CsrAssembler, StreamedStampsMatchTheSortingConstructor) {
  // A plan from one stamp list, then the values of restamped lists added
  // one by one in stamp order through stream(): the sorting constructor's
  // sums, bit for bit, the order-sensitive slot included.
  for (unsigned seed = 1; seed <= 5; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    const SparseBuilder first = random_stamps(12, 90, seed);
    CsrAssembler assembler;
    CsrMatrix out;
    ASSERT_TRUE(assembler.assemble(first, out));
    for (unsigned round = 1; round <= 4; ++round) {
      const SparseBuilder b = restamped(first, 100 * seed + round);
      CsrStream stream = assembler.stream(out);
      for (const auto& t : b.triplets()) stream.add(t.value);
      EXPECT_TRUE(assembler.complete(stream));
      expect_same_csr(out, CsrMatrix(b));
    }
  }
  // A stream one stamp short or one over does not complete the plan.
  const SparseBuilder b = random_stamps(12, 90, 3);
  CsrAssembler assembler;
  CsrMatrix out;
  assembler.assemble(b, out);
  for (const std::size_t count : {b.triplets().size() - 1,
                                  b.triplets().size() + 1}) {
    CsrStream stream = assembler.stream(out);
    for (std::size_t k = 0; k < count; ++k) stream.add(1.0);
    EXPECT_FALSE(assembler.complete(stream)) << count << " stamps";
  }
}

TEST(CsrAssembler, PlanIdsNameOnePattern) {
  const SparseBuilder b = random_stamps(12, 90, 5);
  EXPECT_EQ(CsrMatrix(b).plan_id(), 0u) << "only a plan gives an id";
  CsrAssembler one;
  CsrAssembler two;
  EXPECT_FALSE(one.planned());
  CsrMatrix a1;
  CsrMatrix a2;
  one.assemble(b, a1);
  two.assemble(b, a2);
  EXPECT_NE(one.plan_id(), 0u);
  EXPECT_NE(one.plan_id(), two.plan_id()) << "ids are unique per plan";
  EXPECT_EQ(a1.plan_id(), one.plan_id());
  // A matrix holding another plan's pattern takes this plan's, id and all.
  one.assemble(restamped(b, 9), a2);
  EXPECT_EQ(a2.plan_id(), one.plan_id());
  expect_same_csr(a2, CsrMatrix(restamped(b, 9)));
  // A replan takes a new id.
  const std::uint64_t old_id = one.plan_id();
  SparseBuilder moved = b;
  moved.add(2, 7, 1.0);
  EXPECT_TRUE(one.assemble(moved, a1));
  EXPECT_NE(one.plan_id(), old_id);
  EXPECT_EQ(a1.plan_id(), one.plan_id());
}

TEST(CsrAssembler, FactorizationsComparePlanIdsThenPatterns) {
  // Diagonally heavy stamps above and below the dense cutoff.  Each LU
  // takes a matrix of another plan with an equal pattern (compared, then
  // adopted) and rejects one with another pattern.
  for (const std::size_t n : {std::size_t{12}, kDenseCutoff + 8}) {
    SCOPED_TRACE(std::to_string(n) + " unknowns");
    SparseBuilder b = random_stamps(n, 6 * n, 2);
    for (std::size_t i = 0; i < n; ++i) b.add(i, i, 40.0);
    SparseBuilder other = b;
    other.add(0, n - 1, 0.5);
    other.add(n - 1, 0, 0.5);
    CsrAssembler first;
    CsrAssembler second;
    CsrAssembler third;
    CsrMatrix a;
    CsrMatrix same;
    CsrMatrix changed;
    first.assemble(b, a);
    second.assemble(b, same);
    third.assemble(other, changed);
    ASSERT_NE(a.plan_id(), same.plan_id());

    SparseLu sparse;
    ASSERT_TRUE(sparse.analyze(a));
    EXPECT_TRUE(sparse.pattern_matches(a));
    EXPECT_TRUE(sparse.pattern_matches(same));
    EXPECT_TRUE(sparse.refactor(same));
    EXPECT_TRUE(sparse.pattern_matches(same));
    EXPECT_FALSE(sparse.pattern_matches(changed));

    PlannedLu planned;
    ASSERT_TRUE(planned.factorize(a));
    EXPECT_TRUE(planned.replanned());
    ASSERT_TRUE(planned.factorize(same));
    EXPECT_FALSE(planned.replanned()) << "an equal pattern under a new id";
    ASSERT_TRUE(planned.factorize(changed));
    EXPECT_TRUE(planned.replanned()) << "another pattern replans";
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
