// Waveform storage and measurement functions.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <random>
#include <vector>

#include "spice/waveform.h"

namespace nvsram::spice {
namespace {

Waveform make_ramp() {
  // time 0..10, "lin" = t, "sq" = t^2, sampled at integers.
  Waveform w({"lin", "sq"});
  for (int i = 0; i <= 10; ++i) {
    const double t = i;
    w.append(t, {t, t * t});
  }
  return w;
}

TEST(WaveformTest, AppendAndAccess) {
  const auto w = make_ramp();
  EXPECT_EQ(w.samples(), 11u);
  EXPECT_TRUE(w.has_series("lin"));
  EXPECT_FALSE(w.has_series("nope"));
  EXPECT_EQ(w.series("sq").back(), 100.0);
  EXPECT_THROW(w.series("nope"), std::out_of_range);
}

TEST(WaveformTest, AppendRejectsWidthMismatch) {
  Waveform w({"a"});
  EXPECT_THROW(w.append(0.0, {1.0, 2.0}), std::invalid_argument);
}

TEST(WaveformTest, ValueAtInterpolatesAndClamps) {
  const auto w = make_ramp();
  EXPECT_DOUBLE_EQ(w.value_at("lin", 3.5), 3.5);
  EXPECT_DOUBLE_EQ(w.value_at("sq", 3.5), 0.5 * (9 + 16));  // linear between samples
  EXPECT_DOUBLE_EQ(w.value_at("lin", -5.0), 0.0);
  EXPECT_DOUBLE_EQ(w.value_at("lin", 99.0), 10.0);
}

TEST(WaveformTest, IntegralFullAndClipped) {
  const auto w = make_ramp();
  // Integral of t over [0,10] = 50 exactly (trapezoid is exact for linear).
  EXPECT_NEAR(w.integral("lin", 0.0, 10.0), 50.0, 1e-12);
  // Clipped to [2.5, 7.5]: 0.5*(7.5^2 - 2.5^2) = 25.
  EXPECT_NEAR(w.integral("lin", 2.5, 7.5), 25.0, 1e-12);
  // Degenerate and reversed windows.
  EXPECT_DOUBLE_EQ(w.integral("lin", 4.0, 4.0), 0.0);
  EXPECT_DOUBLE_EQ(w.integral("lin", 7.0, 3.0), 0.0);
}

TEST(WaveformTest, AverageOverWindow) {
  const auto w = make_ramp();
  EXPECT_NEAR(w.average("lin", 0.0, 10.0), 5.0, 1e-12);
  EXPECT_NEAR(w.average("lin", 4.0, 6.0), 5.0, 1e-12);
}

TEST(WaveformTest, MinMaxFinal) {
  const auto w = make_ramp();
  EXPECT_DOUBLE_EQ(w.maximum("sq"), 100.0);
  EXPECT_DOUBLE_EQ(w.minimum("sq"), 0.0);
  EXPECT_DOUBLE_EQ(w.final_value("lin"), 10.0);
}

TEST(WaveformTest, CrossTimeRisingFromOffset) {
  const auto w = make_ramp();
  const auto t = w.cross_time("lin", 4.5);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 4.5);
  // From a later start time there is no second crossing of a ramp.
  EXPECT_FALSE(w.cross_time("lin", 4.5, 6.0).has_value());
  EXPECT_FALSE(w.cross_time("lin", 99.0).has_value());
}

TEST(WaveformTest, CrossTimeFalling) {
  Waveform w({"v"});
  w.append(0.0, {1.0});
  w.append(1.0, {0.0});
  w.append(2.0, {1.0});
  const auto t = w.cross_time("v", 0.5);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(*t, 0.5);  // falling edge first
  const auto t2 = w.cross_time("v", 0.5, 1.0);
  ASSERT_TRUE(t2.has_value());
  EXPECT_DOUBLE_EQ(*t2, 1.5);  // then the rising one
}

TEST(WaveformTest, CsvRoundTrip) {
  const auto w = make_ramp();
  const std::string path = "/tmp/nvsram_waveform_test.csv";
  w.write_csv(path);
  std::ifstream in(path);
  std::string header;
  std::getline(in, header);
  EXPECT_EQ(header, "time,lin,sq");
  int rows = 0;
  std::string line;
  while (std::getline(in, line)) ++rows;
  EXPECT_EQ(rows, 11);
  std::remove(path.c_str());
}

TEST(WaveformTest, EmptyWaveformMeasurementsThrow) {
  Waveform w({"v"});
  EXPECT_THROW(w.value_at("v", 0.0), std::logic_error);
  EXPECT_THROW(w.final_value("v"), std::logic_error);
}

// ---- thinned waveforms ----------------------------------------------------

bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

// The same samples appended to a full waveform and to one thinned to
// `instants`.
std::pair<Waveform, Waveform> full_and_thinned(
    const std::vector<double>& times, const std::vector<double>& instants) {
  Waveform full({"sin", "sq"});
  Waveform thin({"sin", "sq"}, instants);
  for (double t : times) {
    full.append(t, {std::sin(3.0 * t), t * t});
    thin.append(t, {std::sin(3.0 * t), t * t});
  }
  return {std::move(full), std::move(thin)};
}

TEST(WaveformThinned, RequestedInstantsReadTheSameBits) {
  // Samples at 0, 0.5, ..., 10.  Instants: before the first sample, exactly
  // on a sample, two inside one step, between steps, exactly on the last
  // sample and after it.
  std::vector<double> times;
  for (int i = 0; i <= 20; ++i) times.push_back(0.5 * i);
  const std::vector<double> instants{-1.0, 3.0, 4.1, 4.3, 7.25, 10.0, 12.0};
  const auto [full, thin] = full_and_thinned(times, instants);
  EXPECT_FALSE(full.thinned());
  EXPECT_TRUE(thin.thinned());
  EXPECT_EQ(full.samples(), times.size());
  EXPECT_LT(thin.samples(), full.samples());
  for (const char* label : {"sin", "sq"}) {
    for (double t : instants) {
      EXPECT_TRUE(same_bits(thin.value_at(label, t), full.value_at(label, t)))
          << label << " at " << t;
    }
    EXPECT_TRUE(same_bits(thin.final_value(label), full.final_value(label)));
  }
  // Kept: the first and last samples and each instant's bracketing pair
  // (3 and 3.5, 4 and 4.5, 7 and 7.5).
  EXPECT_EQ(thin.time(),
            (std::vector<double>{0.0, 3.0, 3.5, 4.0, 4.5, 7.0, 7.5, 10.0}));
}

TEST(WaveformThinned, RandomStepsAndInstantsReadTheSameBits) {
  std::mt19937 rng(7);
  std::uniform_real_distribution<double> step(1e-3, 1.0);
  std::vector<double> times{0.0};
  for (int i = 0; i < 400; ++i) times.push_back(times.back() + step(rng));
  std::uniform_real_distribution<double> anywhere(-1.0, times.back() + 1.0);
  std::uniform_int_distribution<std::size_t> sample(0, times.size() - 1);
  std::vector<double> instants;
  for (int i = 0; i < 40; ++i) {
    instants.push_back(anywhere(rng));
    instants.push_back(times[sample(rng)]);  // exactly on a sample
  }
  const auto [full, thin] = full_and_thinned(times, instants);
  EXPECT_LE(thin.samples(), 2 * instants.size() + 2);
  for (double t : instants) {
    EXPECT_TRUE(same_bits(thin.value_at("sin", t), full.value_at("sin", t)))
        << "at " << t;
  }
}

TEST(WaveformThinned, EverythingElseThrows) {
  std::vector<double> times;
  for (int i = 0; i <= 10; ++i) times.push_back(i);
  const auto [full, thin] = full_and_thinned(times, {2.5, 6.0});
  EXPECT_THROW(thin.value_at("sin", 2.4), std::logic_error);
  EXPECT_THROW(thin.value_at("sin", 6.5), std::logic_error);
  EXPECT_THROW(thin.integral("sin", 0.0, 10.0), std::logic_error);
  EXPECT_THROW(thin.average("sin", 0.0, 10.0), std::logic_error);
  EXPECT_THROW(thin.maximum("sin"), std::logic_error);
  EXPECT_THROW(thin.minimum("sin"), std::logic_error);
  EXPECT_THROW(thin.cross_time("sin", 0.0), std::logic_error);
  const std::string path = "/tmp/nvsram_waveform_thinned_test.csv";
  EXPECT_THROW(thin.write_csv(path), std::logic_error);
  std::remove(path.c_str());
  // The full waveform answers all of them.
  EXPECT_NO_THROW(full.value_at("sin", 2.4));
  EXPECT_NO_THROW(full.integral("sin", 0.0, 10.0));
  EXPECT_NO_THROW(full.cross_time("sin", 0.0));
}

}  // namespace
}  // namespace nvsram::spice
