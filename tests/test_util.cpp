// Utility module tests: formatting, CSV, root finding, interpolation, the
// seeded Mersenne twister, stats.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <limits>
#include <random>

#include "util/csv.h"
#include "util/interp.h"
#include "util/rootfind.h"
#include "util/seed_seq_mt.h"
#include "util/stats.h"
#include "util/table.h"
#include "util/units.h"

namespace nvsram::util {
namespace {

// ---- units / formatting ----

TEST(Units, ThermalVoltageAtRoomTemperature) {
  EXPECT_NEAR(thermal_voltage(300.0), 0.02585, 1e-4);
}

TEST(Units, LiteralsScaleCorrectly) {
  using namespace literals;
  EXPECT_DOUBLE_EQ(10.0_ns, 1e-8);
  EXPECT_DOUBLE_EQ(2.0_u, 2e-6);
  EXPECT_DOUBLE_EQ(1.5_pJ, 1.5e-12);
  EXPECT_DOUBLE_EQ(300.0_MHz, 3e8);
}

TEST(Units, SiFormatPicksPrefix) {
  EXPECT_EQ(si_format(1.5e-9, "s"), "1.500 ns");
  EXPECT_EQ(si_format(2.2e-6, "A", 1), "2.2 uA");
  EXPECT_EQ(si_format(6366.0, "Ohm", 2), "6.37 kOhm");
  EXPECT_EQ(si_format(-3e-12, "J"), "-3.000 pJ");
}

TEST(Units, SiFormatHandlesZero) {
  EXPECT_EQ(si_format(0.0, "W", 1), "0.0 W");
}

// ---- CSV ----

TEST(Csv, WritesHeaderAndRows) {
  const std::string path = "/tmp/nvsram_test_csv.csv";
  {
    CsvWriter csv(path, {"a", "b"});
    csv.row({1.0, 2.0});
    csv.row({3.0, 4.5});
    csv.flush();
    EXPECT_EQ(csv.rows_written(), 2u);
  }
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  EXPECT_EQ(line, "a,b");
  std::getline(in, line);
  EXPECT_NE(line.find("1.0"), std::string::npos);
  std::remove(path.c_str());
}

TEST(Csv, RejectsWidthMismatch) {
  CsvWriter csv("/tmp/nvsram_test_csv2.csv", {"a", "b"});
  EXPECT_THROW(csv.row({1.0}), std::runtime_error);
  std::remove("/tmp/nvsram_test_csv2.csv");
}

// ---- TablePrinter ----

TEST(Table, AlignsColumns) {
  TablePrinter t({"name", "value"});
  t.row({"x", "1"});
  t.row({"longer", "22"});
  std::ostringstream os;
  t.print(os);
  const auto text = os.str();
  EXPECT_NE(text.find("name"), std::string::npos);
  EXPECT_NE(text.find("longer"), std::string::npos);
  EXPECT_NE(text.find("----"), std::string::npos);
}

TEST(Table, RejectsWidthMismatch) {
  TablePrinter t({"a"});
  EXPECT_THROW(t.row({"x", "y"}), std::runtime_error);
}

// ---- root finding ----

TEST(Brent, FindsPolynomialRoot) {
  auto f = [](double x) { return x * x * x - 2.0 * x - 5.0; };
  const auto r = brent(f, 2.0, 3.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_TRUE(r->converged);
  EXPECT_NEAR(r->x, 2.0945514815, 1e-9);
}

TEST(Brent, FindsTranscendentalRoot) {
  auto f = [](double x) { return std::cos(x) - x; };
  const auto r = brent(f, 0.0, 1.0);
  ASSERT_TRUE(r.has_value());
  EXPECT_NEAR(r->x, 0.7390851332, 1e-9);
}

TEST(Brent, RejectsInvalidBracket) {
  auto f = [](double x) { return x * x + 1.0; };
  EXPECT_FALSE(brent(f, -1.0, 1.0).has_value());
}

TEST(Brent, AgreesWithBisection) {
  auto f = [](double x) { return std::exp(x) - 3.0; };
  const auto rb = brent(f, 0.0, 2.0);
  const auto rs = bisect(f, 0.0, 2.0, {.x_tolerance = 1e-13});
  ASSERT_TRUE(rb && rs);
  EXPECT_NEAR(rb->x, rs->x, 1e-9);
  EXPECT_LE(rb->iterations, rs->iterations);  // Brent should not be slower
}

TEST(BracketRoot, ExpandsUntilSignChange) {
  auto f = [](double x) { return x - 100.0; };
  const auto b = bracket_root(f, 0.0, 1.0);
  ASSERT_TRUE(b.has_value());
  EXPECT_LE(f(b->first) * f(b->second), 0.0);
}

// ---- interpolation ----

TEST(PiecewiseLinearTest, EvaluatesInsideAndClamps) {
  PiecewiseLinear pl({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  EXPECT_DOUBLE_EQ(pl(0.5), 5.0);
  EXPECT_DOUBLE_EQ(pl(1.5), 5.0);
  EXPECT_DOUBLE_EQ(pl(-1.0), 0.0);
  EXPECT_DOUBLE_EQ(pl(9.0), 0.0);
}

TEST(PiecewiseLinearTest, ExtrapolatesLinearly) {
  PiecewiseLinear pl({0.0, 1.0}, {0.0, 2.0});
  EXPECT_DOUBLE_EQ(pl.extrapolate(2.0), 4.0);
  EXPECT_DOUBLE_EQ(pl.extrapolate(-1.0), -2.0);
}

TEST(PiecewiseLinearTest, FirstCrossing) {
  PiecewiseLinear pl({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  const auto c = pl.first_crossing(5.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_DOUBLE_EQ(*c, 0.5);
  EXPECT_FALSE(pl.first_crossing(11.0).has_value());
}

TEST(PiecewiseLinearTest, Intersection) {
  PiecewiseLinear a({0.0, 10.0}, {0.0, 10.0});
  PiecewiseLinear b({0.0, 10.0}, {4.0, 4.0});
  const auto x = a.first_intersection(b);
  ASSERT_TRUE(x.has_value());
  EXPECT_NEAR(*x, 4.0, 1e-12);
}

TEST(PiecewiseLinearTest, RejectsUnsortedX) {
  EXPECT_THROW(PiecewiseLinear({0.0, 0.0}, {1.0, 2.0}), std::invalid_argument);
}

TEST(PiecewiseLinearTest, HintedEvaluationMatchesPlain) {
  // 121 knots with uneven spacing and an uneven, non-monotone curve.
  std::vector<double> xs, ys;
  for (int i = 0; i <= 120; ++i) {
    const double u = i / 120.0;
    xs.push_back(0.9 * u * u + 0.1 * u);
    ys.push_back(std::sin(7.0 * u) + 0.3 * u);
  }
  const PiecewiseLinear pl(xs, ys);

  std::vector<double> ascending;
  for (int k = 0; k <= 2000; ++k) ascending.push_back(-0.05 + 1.1 * k / 2000);
  std::vector<double> descending(ascending.rbegin(), ascending.rend());
  std::vector<double> shuffled = ascending;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(7));
  std::vector<double> edges = xs;  // every knot, then the clamps and beyond
  edges.insert(edges.end(),
               {xs.front(), xs.back(), std::nextafter(xs.front(), 1.0),
                std::nextafter(xs.back(), 0.0), -1.0, 2.0, xs[60], -1e300,
                1e300, xs[1], xs[119]});

  for (const auto* order : {&ascending, &descending, &shuffled, &edges}) {
    // A fresh hint, and one left past the last segment by another curve.
    for (std::size_t start : {std::size_t{0}, std::size_t{1000}}) {
      std::size_t segment = start;
      for (double x : *order) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(pl(x, segment)),
                  std::bit_cast<std::uint64_t>(pl(x)))
            << "x = " << x;
      }
    }
  }
}

TEST(PiecewiseLinearTest, NanArgumentGivesNan) {
  const PiecewiseLinear pl({0.0, 1.0, 2.0}, {0.0, 10.0, 0.0});
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_TRUE(std::isnan(pl(nan)));
  EXPECT_TRUE(std::isnan(pl.extrapolate(nan)));
  std::size_t segment = 1;
  EXPECT_TRUE(std::isnan(pl(nan, segment)));
  // The hint still works after a NaN.
  EXPECT_DOUBLE_EQ(pl(1.5, segment), 5.0);
}

TEST(TrapezoidIntegral, MatchesAnalytic) {
  std::vector<double> xs, ys;
  for (int i = 0; i <= 1000; ++i) {
    const double x = i / 1000.0;
    xs.push_back(x);
    ys.push_back(x * x);
  }
  EXPECT_NEAR(trapezoid_integral(xs, ys), 1.0 / 3.0, 1e-6);
}

// ---- seeded Mersenne twister ----

TEST(SeedSeqMt19937Test, MatchesStdEngineThroughTheHandover) {
  // 300 outputs cross output 227, where the engine hands over to a real
  // std::mt19937.
  constexpr std::uint32_t kMax = 0xFFFFFFFFu;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> seeds;
  for (const std::uint32_t a : {0u, 1u, 2u, 0x80000000u, kMax}) {
    for (const std::uint32_t b : {0u, 1u, 2u, 0x80000000u, kMax}) {
      seeds.emplace_back(a, b);
    }
  }
  std::mt19937 pick(2024);
  while (seeds.size() < 1100) {
    const auto a = static_cast<std::uint32_t>(pick());
    seeds.emplace_back(a, static_cast<std::uint32_t>(pick()));
  }
  for (const auto& [a, b] : seeds) {
    std::seed_seq seq{a, b};
    std::mt19937 want(seq);
    SeedSeqMt19937 got(a, b);
    for (int k = 0; k < 300; ++k) {
      const auto w = want();
      const auto g = got();
      if (g != w) {
        ADD_FAILURE() << "seed {" << a << ", " << b << "}, output " << k
                      << ": " << g << " != " << w;
        break;
      }
    }
  }
}

// ---- stats ----

TEST(RunningStatsTest, MeanVarianceMinMax) {
  RunningStats s;
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) s.add(x);
  EXPECT_DOUBLE_EQ(s.mean(), 5.0);
  EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(Monotone, DetectsViolations) {
  EXPECT_TRUE(is_monotone_nondecreasing({1.0, 1.0, 2.0}));
  EXPECT_FALSE(is_monotone_nondecreasing({1.0, 0.5}));
  EXPECT_TRUE(is_monotone_nondecreasing({1.0, 0.999}, 0.01));  // slack
  EXPECT_TRUE(is_monotone_nonincreasing({3.0, 2.0, 2.0}));
}

TEST(Spacing, LogspaceEndpointsAndGrowth) {
  const auto v = logspace(1e-9, 1e-3, 7);
  ASSERT_EQ(v.size(), 7u);
  EXPECT_NEAR(v.front(), 1e-9, 1e-15);
  EXPECT_NEAR(v.back(), 1e-3, 1e-9);
  EXPECT_NEAR(v[1] / v[0], 10.0, 1e-6);
  EXPECT_THROW(logspace(0.0, 1.0, 3), std::invalid_argument);
}

TEST(Spacing, Linspace) {
  const auto v = linspace(0.0, 1.0, 5);
  ASSERT_EQ(v.size(), 5u);
  EXPECT_DOUBLE_EQ(v[2], 0.5);
}

}  // namespace
}  // namespace nvsram::util
