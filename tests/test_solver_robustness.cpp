// Solver robustness: bistable DC convergence, warm starts, singular systems,
// breakpoint handling, adaptive step behaviour, event-driven control, the
// recovery ladder under injected faults, and non-finite guards.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <set>
#include <string>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/sparse_lu.h"
#include "models/paper_params.h"
#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/fault.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "spice/tran.h"
#include "sram/array.h"
#include "sram/testbench.h"
#include "util/watchdog.h"

namespace nvsram::spice {
namespace {

using models::PaperParams;

// Cross-coupled inverter pair (a latch) with no access devices.
struct LatchFixture {
  Circuit ckt;
  NodeId q, qb, vdd;

  LatchFixture() {
    const auto pp = PaperParams::table1();
    q = ckt.node("q");
    qb = ckt.node("qb");
    vdd = ckt.node("vdd");
    ckt.add<VSource>("Vdd", vdd, kGround, SourceSpec::dc(0.9));
    add_finfet(ckt, "pu_q", q, qb, vdd, pp.pmos(1));
    add_finfet(ckt, "pd_q", q, qb, kGround, pp.nmos(1));
    add_finfet(ckt, "pu_qb", qb, q, vdd, pp.pmos(1));
    add_finfet(ckt, "pd_qb", qb, q, kGround, pp.nmos(1));
  }
};

TEST(NewtonRobustness, BistableLatchConvergesFromZero) {
  LatchFixture f;
  DCAnalysis dc(f.ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  // Any valid DC point: both nodes within the rails and KCL satisfied.
  const double vq = sol->node_voltage(f.q);
  const double vqb = sol->node_voltage(f.qb);
  EXPECT_GE(vq, -1e-3);
  EXPECT_LE(vq, 0.901);
  EXPECT_GE(vqb, -1e-3);
  EXPECT_LE(vqb, 0.901);
}

TEST(NewtonRobustness, WarmStartSelectsIntendedState) {
  LatchFixture f;
  const MnaLayout layout = f.ckt.build_layout();
  for (bool data : {true, false}) {
    linalg::Vector guess(layout.unknown_count(), 0.0);
    guess[layout.node_index(f.vdd)] = 0.9;
    guess[layout.node_index(f.q)] = data ? 0.9 : 0.0;
    guess[layout.node_index(f.qb)] = data ? 0.0 : 0.9;
    DCAnalysis dc(f.ckt);
    const auto sol = dc.solve(&guess);
    ASSERT_TRUE(sol.has_value());
    if (data) {
      EXPECT_GT(sol->node_voltage(f.q), 0.85);
      EXPECT_LT(sol->node_voltage(f.qb), 0.05);
    } else {
      EXPECT_LT(sol->node_voltage(f.q), 0.05);
      EXPECT_GT(sol->node_voltage(f.qb), 0.85);
    }
  }
}

TEST(NewtonRobustness, IterationCapNamesTheWorstUnknown) {
  // One Newton iteration from zero cannot settle the latch; the failure
  // must still name the unknown furthest outside its tolerance.
  LatchFixture f;
  DCOptions opts;
  opts.newton.max_iterations = 1;
  DCAnalysis dc(f.ckt, opts);
  ASSERT_FALSE(dc.solve().has_value());
  const SolveDiagnostics& diag = dc.last_diagnostics();
  ASSERT_FALSE(diag.worst_node.empty());
  const MnaLayout layout = f.ckt.build_layout();
  std::set<std::string> names;
  for (std::size_t i = 0; i < layout.unknown_count(); ++i) {
    names.insert(unknown_name(f.ckt, layout, i));
  }
  EXPECT_TRUE(names.count(diag.worst_node))
      << "'" << diag.worst_node << "' names no node or branch[k]";
  EXPECT_GT(diag.worst_delta, diag.worst_tol);
  EXPECT_NE(diag.describe().find("worst '" + diag.worst_node + "'"),
            std::string::npos)
      << diag.describe();
}

TEST(NewtonRobustness, ConflictingVoltageSourcesFail) {
  // Two sources forcing different voltages across the same node pair:
  // structurally singular — every strategy must give up, not crash.
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add<VSource>("V1", a, kGround, SourceSpec::dc(1.0));
  ckt.add<VSource>("V2", a, kGround, SourceSpec::dc(2.0));
  ckt.add<Resistor>("R1", a, kGround, 1e3);
  DCAnalysis dc(ckt);
  EXPECT_FALSE(dc.solve().has_value());
}

TEST(NewtonRobustness, DanglingCurrentSourceHandledByGmin) {
  // A current source into a node with no DC path: the gmin diagonal keeps
  // the system solvable (the node floats high, bounded by I/gmin).
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<ISource>("I1", kGround, n, SourceSpec::dc(1e-12));
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_GT(sol->node_voltage(n), 0.0);
}

TEST(NewtonRobustness, DeepDiodeStackConverges) {
  // Six series diodes from 5 V: strongly nonlinear; requires limiting.
  Circuit ckt;
  NodeId prev = ckt.node("in");
  ckt.add<VSource>("V1", prev, kGround, SourceSpec::dc(5.0));
  ckt.add<Resistor>("R1", prev, ckt.node("d0"), 100.0);
  prev = ckt.node("d0");
  for (int i = 0; i < 6; ++i) {
    // Built with += rather than operator+: GCC 12 at -O3 flags the inlined
    // "literal + to_string" concat with a spurious -Wrestrict (PR105651).
    std::string node_name = "d";
    node_name += std::to_string(i + 1);
    std::string diode_name = "D";
    diode_name += std::to_string(i);
    const NodeId next = (i == 5) ? kGround : ckt.node(node_name);
    ckt.add<Diode>(diode_name, prev, next);
    prev = next;
  }
  DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  // Each junction drops 0.55-0.75 V.
  const double v0 = sol->node_voltage(ckt.find_node("d0"));
  EXPECT_GT(v0, 6 * 0.5);
  EXPECT_LT(v0, 6 * 0.8);
}

// ---- transient control ----

TEST(TranRobustness, BreakpointsAreHitExactly) {
  // A 10 ps edge inside a long quiet run must not be stepped over.
  Circuit ckt;
  const auto n_in = ckt.node("in");
  const auto n_out = ckt.node("out");
  ckt.add<VSource>("V1", n_in, kGround,
                   SourceSpec::pwl({{500e-9, 0.0}, {500.01e-9, 1.0}}));
  ckt.add<Resistor>("R1", n_in, n_out, 100.0);
  ckt.add<Capacitor>("C1", n_out, kGround, 1e-15);
  TranOptions opt;
  opt.t_stop = 1e-6;
  opt.dt_max = 50e-9;  // much coarser than the edge
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(n_out, "out")});
  const auto wave = tran.run();
  EXPECT_LT(wave.value_at("out", 499.9e-9), 0.01);
  EXPECT_GT(wave.value_at("out", 502e-9), 0.95);
}

TEST(TranRobustness, QuietCircuitTakesLargeSteps) {
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<VSource>("V1", n, kGround, SourceSpec::dc(1.0));
  ckt.add<Resistor>("R1", n, kGround, 1e3);
  ckt.add<Capacitor>("C1", n, kGround, 1e-12);
  TranOptions opt;
  opt.t_stop = 1e-3;  // a full millisecond
  TranAnalysis tran(ckt, opt, {});
  (void)tran.run();
  // dt_max defaults to t_stop/50: expect on the order of 50-200 steps, not
  // millions.
  EXPECT_LT(tran.stats().accepted_steps, 500u);
}

TEST(TranRobustness, MtjEventShrinksStepAndIsCounted) {
  const auto pp = PaperParams::table1();
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add<MTJElement>("mtj", a, kGround, pp.mtj, models::MtjState::kParallel);
  PulseSpec pulse;
  pulse.v_pulsed = 1.6 * pp.mtj.critical_current();
  pulse.delay = 1e-9;
  pulse.rise = 0.1e-9;
  pulse.fall = 0.1e-9;
  pulse.width = 20e-9;
  ckt.add<ISource>("I1", a, kGround, SourceSpec::pulse(pulse));
  TranOptions opt;
  opt.t_stop = 25e-9;
  TranAnalysis tran(ckt, opt, {});
  (void)tran.run();
  EXPECT_EQ(tran.stats().device_events, 1u);
}

TEST(TranRobustness, EnergyAccountingAcrossManySources) {
  // Two sources in a loop: delivered energies must sum to the dissipation
  // in the resistor (conservation check with multiple sources).
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto b = ckt.node("b");
  ckt.add<VSource>("V1", a, kGround, SourceSpec::dc(2.0));
  ckt.add<VSource>("V2", b, kGround, SourceSpec::dc(1.0));
  ckt.add<Resistor>("R1", a, b, 1e3);
  TranOptions opt;
  opt.t_stop = 1e-6;
  TranAnalysis tran(ckt, opt, {});
  (void)tran.run();
  // i = 1 mA; V1 delivers 2 mW, V2 absorbs 1 mW; over 1 us: 2 / -1 / 1 nJ.
  EXPECT_NEAR(tran.source_energy("V1"), 2e-9, 2e-11);
  EXPECT_NEAR(tran.source_energy("V2"), -1e-9, 1e-11);
  const double net = tran.source_energy("V1") + tran.source_energy("V2");
  EXPECT_NEAR(net, 1e-9, 1e-11);
}

TEST(TranRobustness, TrapAndBeAgreeOnSmoothCircuit) {
  for (auto method : {IntegrationMethod::kTrapezoidal,
                      IntegrationMethod::kBackwardEuler}) {
    Circuit ckt;
    const auto n_in = ckt.node("in");
    const auto n_out = ckt.node("out");
    ckt.add<VSource>("V1", n_in, kGround,
                     SourceSpec::pwl({{1e-9, 0.0}, {3e-9, 1.0}}));  // slow ramp
    ckt.add<Resistor>("R1", n_in, n_out, 1e3);
    ckt.add<Capacitor>("C1", n_out, kGround, 0.2e-12);
    TranOptions opt;
    opt.t_stop = 6e-9;
    opt.method = method;
    TranAnalysis tran(ckt, opt, {Probe::node_voltage(n_out, "out")});
    const auto wave = tran.run();
    EXPECT_NEAR(wave.value_at("out", 5.9e-9), 1.0, 0.01);
  }
}

// ---- non-finite guards in the factorizations ----

TEST(NonFiniteGuards, DenseLuReportsNanPivotColumn) {
  linalg::DenseMatrix a(2, 2);
  a(0, 0) = std::numeric_limits<double>::quiet_NaN();
  a(0, 1) = 1.0;
  a(1, 0) = 1.0;
  a(1, 1) = 2.0;
  linalg::LuFactorization lu;
  EXPECT_FALSE(lu.factorize(a));
  EXPECT_TRUE(lu.non_finite());
  EXPECT_EQ(lu.failed_pivot(), 0u);
}

TEST(NonFiniteGuards, DenseLuDistinguishesTinyPivotFromNan) {
  linalg::DenseMatrix a(2, 2);  // all-zero: singular but finite
  linalg::LuFactorization lu;
  EXPECT_FALSE(lu.factorize(a));
  EXPECT_FALSE(lu.non_finite());
  EXPECT_NE(lu.failed_pivot(), linalg::kNoFailedPivot);
}

TEST(NonFiniteGuards, SparseLuReportsNanPivotColumn) {
  linalg::SparseBuilder b(3);
  b.add(0, 0, 1.0);
  b.add(1, 1, std::numeric_limits<double>::infinity());
  b.add(2, 2, 1.0);
  b.add(1, 2, 0.5);
  linalg::SparseLu lu;
  EXPECT_FALSE(lu.factorize(linalg::CsrMatrix(b)));
  EXPECT_TRUE(lu.non_finite());
  EXPECT_NE(lu.failed_pivot(), linalg::kNoFailedPivot);
}

// ---- fault injection & the recovery ladder ----

TEST(FaultInjection, PlanParserRoundTrip) {
  const auto plan =
      FaultPlan::parse("nan-stamp@3x2:dev=pu_q; singular@7 ;stall@0x-1");
  ASSERT_EQ(plan.specs().size(), 3u);
  EXPECT_EQ(plan.specs()[0].kind, FaultKind::kNanStamp);
  EXPECT_EQ(plan.specs()[0].at_solve, 3);
  EXPECT_EQ(plan.specs()[0].count, 2);
  EXPECT_EQ(plan.specs()[0].device, "pu_q");
  EXPECT_TRUE(plan.specs()[0].covers(4));
  EXPECT_FALSE(plan.specs()[0].covers(5));
  EXPECT_EQ(plan.specs()[1].kind, FaultKind::kSingular);
  EXPECT_EQ(plan.specs()[2].count, -1);
  EXPECT_TRUE(plan.specs()[2].covers(1000));
  EXPECT_THROW(FaultPlan::parse("melt@3"), std::invalid_argument);
  EXPECT_THROW(FaultPlan::parse("stall@"), std::invalid_argument);
}

TEST(FaultInjection, NanStampOnFirstSolveRecoversViaLadder) {
  // The plain DC solve is poisoned; the gmin-ramp rungs are clean solves,
  // so the ladder must deliver the operating point anyway.
  LatchFixture f;
  f.ckt.set_fault_plan(FaultPlan::parse("nan-stamp@0"));
  DCAnalysis dc(f.ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(dc.last_diagnostics().converged);
  EXPECT_EQ(dc.last_diagnostics().stage, RecoveryStage::kGminRamp);
}

TEST(FaultInjection, PersistentNanStampAttributesCulpritDevice) {
  LatchFixture f;
  f.ckt.set_fault_plan(FaultPlan::parse("nan-stamp@0x-1:dev=pu_q"));
  DCAnalysis dc(f.ckt);
  EXPECT_FALSE(dc.solve().has_value());
  const auto& diag = dc.last_diagnostics();
  EXPECT_EQ(diag.stage, RecoveryStage::kExhausted);
  EXPECT_EQ(diag.non_finite, NonFiniteSite::kStamp);
  EXPECT_EQ(diag.non_finite_device, "pu_q");
  EXPECT_TRUE(diag.injected);
  // The human-readable line carries the same attribution.
  EXPECT_NE(diag.describe().find("pu_q"), std::string::npos);
}

TEST(FaultInjection, PersistentSingularFaultReportsSingular) {
  LatchFixture f;
  f.ckt.set_fault_plan(FaultPlan::parse("singular@0x-1"));
  DCAnalysis dc(f.ckt);
  EXPECT_FALSE(dc.solve().has_value());
  EXPECT_TRUE(dc.last_diagnostics().singular);
  EXPECT_TRUE(dc.last_diagnostics().injected);
}

TEST(FaultInjection, TransientStallSalvagedByLadder) {
  // Stall the first transient step and pin dt_min next to dt_max so
  // dt-halving bottoms out immediately: the mid-step ladder must salvage
  // the point and the run must still produce the right waveform.
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<VSource>("V1", n, kGround, SourceSpec::dc(1.0));
  ckt.add<Resistor>("R1", n, ckt.node("out"), 1e3);
  ckt.add<Capacitor>("C1", ckt.find_node("out"), kGround, 1e-12);
  // Solve 0 is the DC init; solve 1 is the first timestep and solve 2 the
  // ladder's plain retry — stall both so a gmin rung must do the salvage.
  ckt.set_fault_plan(FaultPlan::parse("stall@1x2"));
  TranOptions opt;
  opt.t_stop = 20e-9;
  opt.dt_initial = 1e-10;
  opt.dt_min = 0.5e-10;
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(ckt.find_node("out"), "out")});
  const auto wave = tran.run();
  EXPECT_GE(tran.stats().recoveries(), 1u);
  EXPECT_NEAR(wave.value_at("out", 19e-9), 1.0, 0.01);
}

TEST(FaultInjection, DcStallRecoveredBySourceRampFromZero) {
  // Solve 0 is the plain solve and solve 1 the first gmin rung: stalling
  // both leaves the source ramp, which a DC solve starts from a zero vector
  // rather than from the guess.  Four Newton iterations per rung cover every
  // step of the ramp from zero (three at most here) but not its first step
  // from a guess holding q and the rail at 0.9 V (eight).
  LatchFixture f;
  const MnaLayout layout = f.ckt.build_layout();
  linalg::Vector guess(layout.unknown_count(), 0.0);
  guess[layout.node_index(f.vdd)] = 0.9;
  guess[layout.node_index(f.q)] = 0.9;
  DCOptions opts;
  opts.newton.max_iterations = 4;
  for (const bool warm : {false, true}) {
    f.ckt.set_fault_plan(FaultPlan::parse("stall@0x2"));
    DCAnalysis dc(f.ckt, opts);
    const auto sol = dc.solve(warm ? &guess : nullptr);
    ASSERT_TRUE(sol.has_value()) << dc.last_diagnostics().describe();
    EXPECT_EQ(dc.last_diagnostics().stage, RecoveryStage::kSourceRamp);
    // Ramped from zero, the symmetric latch may settle at its metastable
    // point; either way both nodes sit within the rails.
    for (const NodeId n : {f.q, f.qb}) {
      EXPECT_GE(sol->node_voltage(n), -1e-3);
      EXPECT_LE(sol->node_voltage(n), 0.901);
    }
  }
}

TEST(FaultInjection, TransientStallRecoveredBySourceRamp) {
  // Stall the first step (solve 1), the ladder's plain retry (solve 2) and
  // its first gmin rung (solve 3): the source ramp salvages the step.
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<VSource>("V1", n, kGround, SourceSpec::dc(1.0));
  ckt.add<Resistor>("R1", n, ckt.node("out"), 1e3);
  ckt.add<Capacitor>("C1", ckt.find_node("out"), kGround, 1e-12);
  ckt.set_fault_plan(FaultPlan::parse("stall@1x3"));
  TranOptions opt;
  opt.t_stop = 20e-9;
  opt.dt_initial = 1e-10;
  opt.dt_min = 0.5e-10;
  TranAnalysis tran(ckt, opt, {Probe::node_voltage(ckt.find_node("out"), "out")});
  const auto wave = tran.run();
  EXPECT_EQ(tran.stats().source_recoveries, 1u);
  EXPECT_EQ(tran.stats().gmin_recoveries, 0u);
  EXPECT_NEAR(wave.value_at("out", 19e-9), 1.0, 0.01);
}

TEST(FaultInjection, ExhaustedLadderThrowsSolverErrorWithDiagnostics) {
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<VSource>("V1", n, kGround, SourceSpec::dc(1.0));
  ckt.add<Resistor>("R1", n, kGround, 1e3);
  ckt.set_fault_plan(FaultPlan::parse("stall@0x-1"));
  TranOptions opt;
  opt.t_stop = 1e-9;
  TranAnalysis tran(ckt, opt, {});
  try {
    (void)tran.run();
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_EQ(e.diagnostics().stage, RecoveryStage::kExhausted);
    EXPECT_TRUE(e.diagnostics().injected);
    EXPECT_FALSE(e.diagnostics().converged);
    // what() embeds the describe() line.
    EXPECT_NE(std::string(e.what()).find("recovery"), std::string::npos);
  }
}

TEST(FaultInjection, TestbenchStaticPowerThrowsWithDiagnostics) {
  sram::TestbenchOptions opts;
  opts.ideal_bitlines = true;
  sram::CellTestbench tb(sram::CellKind::k6T, PaperParams::table1(), opts);
  tb.circuit().set_fault_plan(FaultPlan::parse("singular@0x-1"));
  try {
    (void)tb.static_power(sram::CellTestbench::StaticMode::kNormal);
    FAIL() << "expected SolverError";
  } catch (const SolverError& e) {
    EXPECT_TRUE(e.diagnostics().singular);
    EXPECT_TRUE(e.diagnostics().injected);
  }
}

// ---- array-sized drills: the sparse factorization path under faults ----
//
// Above linalg::kDenseCutoff unknowns solve_newton switches to SparseLu, so
// these drills exercise the sparse pivot guards end-to-end: a real power
// domain netlist, an injected fault, and the diagnostics that surface.

// A 6x6 NV array plus its drivers comfortably exceeds the dense cutoff.
sram::ArrayTestbench make_array_bench() {
  sram::ArrayOptions opts;
  opts.rows = 6;
  opts.cols = 6;
  opts.nonvolatile = true;
  return sram::ArrayTestbench(PaperParams::table1(), opts);
}

TEST(ArrayScaleFaults, ArrayCircuitUsesTheSparsePath) {
  auto tb = make_array_bench();
  const MnaLayout layout = tb.circuit().build_layout();
  ASSERT_GT(layout.unknown_count(), linalg::kDenseCutoff);
  DCAnalysis dc(tb.circuit());
  EXPECT_TRUE(dc.solve().has_value());
}

TEST(ArrayScaleFaults, NanStampGuardFiresAtArrayScale) {
  auto tb = make_array_bench();
  tb.circuit().set_fault_plan(FaultPlan::parse("nan-stamp@0x-1"));
  DCAnalysis dc(tb.circuit());
  EXPECT_FALSE(dc.solve().has_value());
  const auto& diag = dc.last_diagnostics();
  EXPECT_EQ(diag.stage, RecoveryStage::kExhausted);
  EXPECT_EQ(diag.non_finite, NonFiniteSite::kStamp);
  EXPECT_TRUE(diag.injected);
}

TEST(ArrayScaleFaults, SingularGuardFiresAtArrayScale) {
  auto tb = make_array_bench();
  tb.circuit().set_fault_plan(FaultPlan::parse("singular@0x-1"));
  DCAnalysis dc(tb.circuit());
  EXPECT_FALSE(dc.solve().has_value());
  EXPECT_TRUE(dc.last_diagnostics().singular);
  EXPECT_TRUE(dc.last_diagnostics().injected);
}

TEST(ArrayScaleFaults, StalledFirstSolveRecoversViaLadderAtArrayScale) {
  auto tb = make_array_bench();
  tb.circuit().set_fault_plan(FaultPlan::parse("stall@0"));
  DCAnalysis dc(tb.circuit());
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  EXPECT_TRUE(dc.last_diagnostics().converged);
  EXPECT_NE(dc.last_diagnostics().stage, RecoveryStage::kNone);
}

TEST(NonFiniteGuards, SparseNanPivotCaughtAtArrayScale) {
  // Direct factorization-level check at a size the sweep arrays reach: a
  // well-conditioned tridiagonal system with one NaN planted mid-matrix.
  const std::size_t n = 2 * linalg::kDenseCutoff;
  linalg::SparseBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, i == 123 ? std::numeric_limits<double>::quiet_NaN() : 4.0);
    if (i + 1 < n) {
      b.add(i, i + 1, -1.0);
      b.add(i + 1, i, -1.0);
    }
  }
  linalg::SparseLu lu;
  EXPECT_FALSE(lu.factorize(linalg::CsrMatrix(b)));
  EXPECT_TRUE(lu.non_finite());
  EXPECT_NE(lu.failed_pivot(), linalg::kNoFailedPivot);
}

TEST(NonFiniteGuards, SparseSingularPivotCaughtAtArrayScale) {
  // Same size, finite entries, one fully decoupled zero row: singular, and
  // reported as a failed pivot rather than non-finite.
  const std::size_t n = 2 * linalg::kDenseCutoff;
  linalg::SparseBuilder b(n);
  for (std::size_t i = 0; i < n; ++i) {
    b.add(i, i, i == 123 ? 0.0 : 4.0);
    if (i + 1 < n && i != 123 && i + 1 != 123) {
      b.add(i, i + 1, -1.0);
      b.add(i + 1, i, -1.0);
    }
  }
  linalg::SparseLu lu;
  EXPECT_FALSE(lu.factorize(linalg::CsrMatrix(b)));
  EXPECT_FALSE(lu.non_finite());
  EXPECT_NE(lu.failed_pivot(), linalg::kNoFailedPivot);
}

// ---- wall-clock watchdog ----

TEST(TranRobustness, WatchdogAbortsLongTransient) {
  Circuit ckt;
  const auto n = ckt.node("n");
  ckt.add<VSource>("V1", n, kGround, SourceSpec::dc(1.0));
  ckt.add<Resistor>("R1", n, ckt.node("out"), 1e3);
  ckt.add<Capacitor>("C1", ckt.find_node("out"), kGround, 1e-12);
  TranOptions opt;
  opt.t_stop = 1.0;       // absurdly long simulated time
  opt.dt_max = 1e-9;      // forces ~1e9 steps: can never finish in budget
  opt.max_wall_seconds = 0.05;
  TranAnalysis tran(ckt, opt, {});
  EXPECT_THROW((void)tran.run(), util::WatchdogError);
}

}  // namespace
}  // namespace nvsram::spice
