// Element-level simulator checks: sources, RC transients against analytic
// solutions, diode Newton convergence, energy conservation, and the device
// kind tags and inline pin lists the topology queries rely on.
#include <gtest/gtest.h>

#include <cmath>
#include <iterator>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "models/finfet.h"
#include "models/mtj.h"
#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "spice/tran.h"
#include "util/stats.h"

namespace nvsram {
namespace {

using spice::Circuit;
using spice::DCAnalysis;
using spice::Probe;
using spice::PulseSpec;
using spice::SourceSpec;
using spice::TranAnalysis;
using spice::TranOptions;

// ---- SourceSpec ------------------------------------------------------------

TEST(SourceSpec, DcIsConstant) {
  const auto s = SourceSpec::dc(1.5);
  EXPECT_DOUBLE_EQ(s.value(0.0), 1.5);
  EXPECT_DOUBLE_EQ(s.value(1e-3), 1.5);
}

TEST(SourceSpec, PulseShape) {
  PulseSpec p;
  p.v_initial = 0.0;
  p.v_pulsed = 1.0;
  p.delay = 1e-9;
  p.rise = 1e-10;
  p.fall = 1e-10;
  p.width = 2e-9;
  const auto s = SourceSpec::pulse(p);
  EXPECT_DOUBLE_EQ(s.value(0.0), 0.0);
  EXPECT_DOUBLE_EQ(s.value(0.9e-9), 0.0);
  EXPECT_NEAR(s.value(1.05e-9), 0.5, 1e-12);  // mid-rise
  EXPECT_DOUBLE_EQ(s.value(2e-9), 1.0);       // on the plateau
  EXPECT_DOUBLE_EQ(s.value(5e-9), 0.0);       // after the fall
}

TEST(SourceSpec, PulsePeriodic) {
  PulseSpec p;
  p.v_pulsed = 1.0;
  p.rise = 1e-12;
  p.fall = 1e-12;
  p.width = 1e-9;
  p.period = 4e-9;
  const auto s = SourceSpec::pulse(p);
  EXPECT_DOUBLE_EQ(s.value(0.5e-9), 1.0);
  EXPECT_DOUBLE_EQ(s.value(2e-9), 0.0);
  EXPECT_DOUBLE_EQ(s.value(4.5e-9), 1.0);  // second period
}

TEST(SourceSpec, PwlInterpolatesAndClamps) {
  const auto s = SourceSpec::pwl({{1e-9, 0.0}, {2e-9, 1.0}, {4e-9, 1.0}});
  EXPECT_DOUBLE_EQ(s.value(0.0), 0.0);      // clamp before
  EXPECT_NEAR(s.value(1.5e-9), 0.5, 1e-12);  // interior
  EXPECT_DOUBLE_EQ(s.value(9e-9), 1.0);     // clamp after
}

TEST(SourceSpec, PwlRejectsNonIncreasingTimes) {
  EXPECT_THROW(SourceSpec::pwl({{1e-9, 0.0}, {1e-9, 1.0}}),
               std::invalid_argument);
}

TEST(SourceSpec, BreakpointsInsideWindowOnly) {
  const auto s = SourceSpec::pwl({{1e-9, 0.0}, {2e-9, 1.0}, {9e-9, 1.0}});
  std::vector<double> bp;
  s.breakpoints(5e-9, bp);
  EXPECT_EQ(bp.size(), 2u);  // 1 ns and 2 ns; 9 ns beyond stop
}

// ---- DC basics ----------------------------------------------------------------

TEST(DCAnalysis, VoltageDivider) {
  Circuit ckt;
  const auto n1 = ckt.node("a");
  const auto n2 = ckt.node("b");
  ckt.add<spice::VSource>("V1", n1, spice::kGround, SourceSpec::dc(2.0));
  ckt.add<spice::Resistor>("R1", n1, n2, 1000.0);
  ckt.add<spice::Resistor>("R2", n2, spice::kGround, 3000.0);
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->node_voltage(n2), 1.5, 1e-6);
}

TEST(DCAnalysis, VSourceBranchCurrent) {
  Circuit ckt;
  const auto n1 = ckt.node("a");
  auto* v = ckt.add<spice::VSource>("V1", n1, spice::kGround, SourceSpec::dc(1.0));
  ckt.add<spice::Resistor>("R1", n1, spice::kGround, 100.0);
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  // 10 mA delivered: branch current (+ -> - internally) is -10 mA.
  EXPECT_NEAR(sol->device_current(*v), -0.01, 1e-9);
  EXPECT_NEAR(v->delivered_power(sol->view(), 0.0), 0.01, 1e-9);
}

TEST(DCAnalysis, CurrentSourceIntoResistor) {
  Circuit ckt;
  const auto n1 = ckt.node("a");
  ckt.add<spice::ISource>("I1", spice::kGround, n1, SourceSpec::dc(1e-3));
  ckt.add<spice::Resistor>("R1", n1, spice::kGround, 2000.0);
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->node_voltage(n1), 2.0, 1e-6);
}

TEST(DCAnalysis, DiodeResistorOperatingPoint) {
  // 1 V source, 1 kOhm, diode to ground: V_D ~ n Vt ln(I/Is).
  Circuit ckt;
  const auto n1 = ckt.node("a");
  const auto n2 = ckt.node("d");
  ckt.add<spice::VSource>("V1", n1, spice::kGround, SourceSpec::dc(1.0));
  ckt.add<spice::Resistor>("R1", n1, n2, 1000.0);
  ckt.add<spice::Diode>("D1", n2, spice::kGround);
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  const double vd = sol->node_voltage(n2);
  EXPECT_GT(vd, 0.4);
  EXPECT_LT(vd, 0.75);
  // KCL: resistor current equals diode current.
  const double ir = (1.0 - vd) / 1000.0;
  const double id = 1e-14 * (std::exp(vd / 0.02585) - 1.0);
  EXPECT_NEAR(ir, id, ir * 0.01);
}

TEST(DCAnalysis, FloatingNodeHandledByGmin) {
  Circuit ckt;
  const auto n1 = ckt.node("a");
  const auto n2 = ckt.node("float");
  ckt.add<spice::VSource>("V1", n1, spice::kGround, SourceSpec::dc(1.0));
  ckt.add<spice::Capacitor>("C1", n1, n2, 1e-15);
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->node_voltage(n2), 0.0, 1e-6);
}

// ---- transient accuracy --------------------------------------------------------

TEST(TranAnalysis, RcChargingMatchesAnalytic) {
  // Step 0 -> 1 V into R = 1k, C = 1 pF; tau = 1 ns.
  Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_out = ckt.node("out");
  PulseSpec p;
  p.v_initial = 0.0;
  p.v_pulsed = 1.0;
  p.delay = 0.1e-9;
  p.rise = 1e-12;
  p.width = 100e-9;
  ckt.add<spice::VSource>("V1", n_in, spice::kGround, SourceSpec::pulse(p));
  ckt.add<spice::Resistor>("R1", n_in, n_out, 1000.0);
  ckt.add<spice::Capacitor>("C1", n_out, spice::kGround, 1e-12);

  TranOptions opt;
  opt.t_stop = 8e-9;
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(n_out, "V(out)")});
  const auto wave = tran.run();

  const double tau = 1e-9;
  for (double t : {1e-9, 2e-9, 3e-9, 5e-9}) {
    const double expected = 1.0 - std::exp(-(t - 0.1e-9 - 0.5e-12) / tau);
    EXPECT_NEAR(wave.value_at("V(out)", t), expected, 0.01)
        << "mismatch at t=" << t;
  }
}

TEST(TranAnalysis, RcEnergyConservation) {
  // After a full charge, the source has delivered C V^2 (half stored, half
  // dissipated in R).
  Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_out = ckt.node("out");
  PulseSpec p;
  p.v_initial = 0.0;
  p.v_pulsed = 1.0;
  p.delay = 0.1e-9;
  p.rise = 1e-12;
  p.width = 1.0;  // stays high
  auto* src =
      ckt.add<spice::VSource>("V1", n_in, spice::kGround, SourceSpec::pulse(p));
  ckt.add<spice::Resistor>("R1", n_in, n_out, 1000.0);
  ckt.add<spice::Capacitor>("C1", n_out, spice::kGround, 1e-12);

  TranOptions opt;
  opt.t_stop = 20e-9;  // 20 tau
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(n_out, "V(out)")});
  (void)tran.run();
  EXPECT_NEAR(tran.source_energy(src->name()), 1e-12, 2e-14);
}

TEST(TranAnalysis, BackwardEulerAlsoAccurate) {
  Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_out = ckt.node("out");
  ckt.add<spice::VSource>("V1", n_in, spice::kGround,
                          SourceSpec::pwl({{0.1e-9, 0.0}, {0.101e-9, 1.0}}));
  ckt.add<spice::Resistor>("R1", n_in, n_out, 1000.0);
  ckt.add<spice::Capacitor>("C1", n_out, spice::kGround, 1e-12);

  TranOptions opt;
  opt.t_stop = 6e-9;
  opt.method = spice::IntegrationMethod::kBackwardEuler;
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(n_out, "V(out)")});
  const auto wave = tran.run();
  const double t = 2.1e-9;
  const double expected = 1.0 - std::exp(-(t - 0.1005e-9) / 1e-9);
  EXPECT_NEAR(wave.value_at("V(out)", t), expected, 0.02);
}

TEST(TranAnalysis, CapacitorDividerStep) {
  // Two series capacitors divide a fast step by the inverse-C ratio.
  Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_mid = ckt.node("mid");
  ckt.add<spice::VSource>("V1", n_in, spice::kGround,
                          SourceSpec::pwl({{1e-9, 0.0}, {1.01e-9, 1.0}}));
  ckt.add<spice::Capacitor>("C1", n_in, n_mid, 3e-15);
  ckt.add<spice::Capacitor>("C2", n_mid, spice::kGround, 1e-15);

  TranOptions opt;
  opt.t_stop = 2e-9;
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(n_mid, "V(mid)")});
  const auto wave = tran.run();
  EXPECT_NEAR(wave.value_at("V(mid)", 1.5e-9), 0.75, 0.02);
}

TEST(TranAnalysis, StatsReportProgress) {
  Circuit ckt;
  const auto n_in = ckt.node("in");
  ckt.add<spice::VSource>("V1", n_in, spice::kGround, SourceSpec::dc(1.0));
  ckt.add<spice::Resistor>("R1", n_in, spice::kGround, 1000.0);
  TranOptions opt;
  opt.t_stop = 1e-9;
  TranAnalysis tran(ckt, opt, {});
  (void)tran.run();
  EXPECT_GT(tran.stats().accepted_steps, 10u);
}

TEST(TranAnalysis, RejectsNonPositiveStop) {
  Circuit ckt;
  const auto n_in = ckt.node("in");
  ckt.add<spice::VSource>("V1", n_in, spice::kGround, SourceSpec::dc(1.0));
  ckt.add<spice::Resistor>("R1", n_in, spice::kGround, 1000.0);
  TranOptions opt;
  opt.t_stop = 0.0;
  TranAnalysis tran(ckt, opt, {});
  EXPECT_THROW(tran.run(), std::invalid_argument);
}

// ---- device kind tags and pin lists -------------------------------------------

// device_cast<T> must agree with dynamic_cast for every class T, through
// both overloads; a kKind copied from another class would break it.
template <typename T>
void expect_cast_matches(spice::Device* dev) {
  const spice::Device* cdev = dev;
  EXPECT_EQ(spice::device_cast<T>(dev), dynamic_cast<T*>(dev)) << dev->name();
  EXPECT_EQ(spice::device_cast<T>(cdev), dynamic_cast<const T*>(cdev))
      << dev->name();
}

template <typename... T>
void expect_casts_match(spice::Device* dev) {
  (expect_cast_matches<T>(dev), ...);
}

TEST(DeviceKind, CastMatchesDynamicCast) {
  Circuit c;
  const auto a = c.node("a");
  const auto b = c.node("b");
  c.add<spice::Resistor>("R1", a, b, 1e3);
  c.add<spice::Capacitor>("C1", a, b, 1e-15);
  c.add<spice::VSource>("V1", a, spice::kGround, SourceSpec::dc(1.0));
  c.add<spice::ISource>("I1", a, spice::kGround, SourceSpec::dc(1e-6));
  c.add<spice::Diode>("D1", a, b);
  c.add<spice::MTJElement>("Y1", a, b, models::paper_mtj());
  c.add<spice::FinFETElement>("M1", a, b, spice::kGround,
                              models::ptm20_nmos());
  ASSERT_EQ(c.devices().size(), 7u);

  std::set<spice::DeviceKind> kinds;
  for (const auto& dev : c.devices()) {
    kinds.insert(dev->kind());
    expect_casts_match<spice::Resistor, spice::Capacitor, spice::VSource,
                       spice::ISource, spice::Diode, spice::MTJElement,
                       spice::FinFETElement>(dev.get());
  }
  EXPECT_EQ(kinds.size(), 7u);
  EXPECT_EQ(spice::device_cast<spice::VSource>(
                static_cast<spice::Device*>(nullptr)),
            nullptr);
  EXPECT_EQ(spice::device_cast<spice::VSource>(
                static_cast<const spice::Device*>(nullptr)),
            nullptr);
}

TEST(DeviceKind, InlineListHoldsItsCapacityAndThrowsPastIt) {
  const spice::TerminalList pins{{"drain", 1}, {"gate", 2}, {"source", 3}};
  ASSERT_EQ(pins.size(), 3u);
  EXPECT_EQ(std::distance(pins.begin(), pins.end()), 3);
  EXPECT_EQ(pins.front().node, 1u);
  EXPECT_STREQ(pins[2].role, "source");
  EXPECT_TRUE(spice::DcPathList{}.empty());
  EXPECT_THROW((spice::TerminalList{{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}}),
               std::length_error);
  EXPECT_THROW((spice::DcPathList{{1, 2}, {3, 4}}), std::length_error);
}

// ---- stamp positions -----------------------------------------------------------

// The (row, col) sequence of a builder's triplets.
std::vector<std::pair<std::size_t, std::size_t>> positions(
    const linalg::SparseBuilder& b) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (const auto& t : b.triplets()) out.emplace_back(t.row, t.col);
  return out;
}

TEST(DeviceStampPattern, StampWritesExactlyThePatternPositions) {
  // A warm NewtonWorkspace adds stamp k into the k-th planned slot without
  // looking at its position, so every device kind must stamp exactly the
  // sequence stamp_pattern() records: at DC and in a transient, at a small
  // and a large iterate (the diode past its limiting knee), with the MTJs
  // in both states and pins on ground.
  Circuit c;
  const auto a = c.node("a");
  const auto b = c.node("b");
  const auto d = c.node("d");
  const auto g = spice::kGround;
  c.add<spice::Resistor>("R1", a, b, 1e3);
  c.add<spice::Resistor>("R2", b, g, 1e3);
  c.add<spice::Capacitor>("C1", a, b, 1e-15);
  c.add<spice::Capacitor>("C2", g, d, 1e-15);
  c.add<spice::VSource>("V1", a, g, SourceSpec::dc(1.0));
  c.add<spice::VSource>("V2", b, d, SourceSpec::dc(0.5));
  c.add<spice::ISource>("I1", a, b, SourceSpec::dc(1e-6));
  c.add<spice::Diode>("D1", a, b);
  c.add<spice::Diode>("D2", g, d);
  c.add<spice::MTJElement>("Y1", a, b, models::paper_mtj());
  c.add<spice::MTJElement>("Y2", d, g, models::paper_mtj(),
                           models::MtjState::kAntiparallel);
  c.add<spice::FinFETElement>("M1", a, b, g, models::ptm20_nmos());
  c.add<spice::FinFETElement>("M2", d, a, b, models::ptm20_pmos());
  const spice::MnaLayout layout = c.build_layout();
  const std::size_t n = layout.unknown_count();

  std::set<spice::DeviceKind> kinds;
  for (const double scale : {0.1, 2.0}) {
    linalg::Vector x(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = scale * (i % 2 == 0 ? 1.0 : -0.5) * static_cast<double>(i + 1);
    }
    for (const bool dc : {true, false}) {
      for (const auto& dev : c.devices()) {
        SCOPED_TRACE(dev->name() + (dc ? " at DC" : " in a transient") +
                     ", iterate scale " + std::to_string(scale));
        linalg::SparseBuilder stamped(n);
        linalg::Vector rhs(n, 0.0);
        spice::StampContext sctx(layout, x, stamped, rhs, 1e-9, 1e-12, dc,
                                 spice::IntegrationMethod::kTrapezoidal, 1.0);
        dev->stamp(sctx);
        linalg::SparseBuilder patterned(n);
        spice::PatternContext pctx(layout, patterned, dc);
        dev->stamp_pattern(pctx);
        EXPECT_EQ(positions(stamped), positions(patterned));
        kinds.insert(dev->kind());
      }
    }
  }
  EXPECT_EQ(kinds.size(), 7u) << "every device kind is covered";
}

}  // namespace
}  // namespace nvsram
