// Testbench mechanics: the shared Script (tracks, phases, run, energy
// accounting) and CellTestbench's scheduling, bias sets, energy windows and
// the one DC workspace its operating points share.
#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "models/paper_params.h"
#include "spice/elements.h"
#include "sram/script.h"
#include "sram/testbench.h"

namespace nvsram {
namespace {

using models::PaperParams;
using sram::CellKind;
using sram::CellTestbench;
using sram::Script;
using sram::TestbenchOptions;

// Two drivers across a resistor: the smallest circuit a Script can run.
struct TwoDriverScript {
  spice::Circuit circuit;
  Script script;
  Script::TrackId a, b;

  TwoDriverScript() {
    const spice::NodeId na = circuit.node("a");
    const spice::NodeId nb = circuit.node("b");
    a = script.add_driver(circuit, "Va", na, 0.0);
    b = script.add_driver(circuit, "Vb", nb, 1.0);
    circuit.add<spice::Resistor>("R", na, nb, 1e3);
  }
};

TEST(Script, SetLevelStartsOnePercentOfASlewAfterTheLastCorner) {
  TwoDriverScript s;
  const auto& corners = s.script.track(s.a).corners;
  s.script.set_level(s.a, 1e-9, 1.0);
  ASSERT_EQ(corners.size(), 2u);
  EXPECT_DOUBLE_EQ(corners[0].first, 1e-9);
  EXPECT_DOUBLE_EQ(corners[1].first, 1e-9 + sram::kSlew);
  // Asked to start inside the previous edge: it waits for the last corner.
  s.script.set_level(s.a, 1e-9, 0.0, 0.5e-9);
  ASSERT_EQ(corners.size(), 4u);
  EXPECT_DOUBLE_EQ(corners[2].first, corners[1].first + 0.01 * sram::kSlew);
  EXPECT_DOUBLE_EQ(corners[2].second, 1.0);
  EXPECT_DOUBLE_EQ(corners[3].first, corners[2].first + 0.5e-9);
  EXPECT_DOUBLE_EQ(corners[3].second, 0.0);
  // A later start is kept as asked.
  s.script.set_level(s.a, 5e-9, 1.0);
  ASSERT_EQ(corners.size(), 6u);
  EXPECT_DOUBLE_EQ(corners[4].first, 5e-9);
}

TEST(Script, SetLevelAddsNoCornerWhenTheLevelHolds) {
  TwoDriverScript s;
  s.script.set_level(s.b, 1e-9, 1.0);  // b starts at 1 V
  EXPECT_TRUE(s.script.track(s.b).corners.empty());
  s.script.set_level(s.a, 1e-9, 0.7);
  s.script.set_level(s.a, 2e-9, 0.7);
  EXPECT_EQ(s.script.track(s.a).corners.size(), 2u);
  EXPECT_DOUBLE_EQ(s.script.track(s.a).level, 0.7);
  EXPECT_THROW(s.script.set_level(Script::TrackId{}, 0.0, 1.0),
               std::out_of_range);
}

TEST(Script, RunRejectsAnEmptySchedule) {
  TwoDriverScript s;
  s.script.set_level(s.a, 0.0, 1.0);  // tracks alone schedule no phase
  s.script.advance_to(1e-9);
  EXPECT_THROW(s.script.run(s.circuit, {}), std::logic_error);
}

TEST(Script, EnergyIsTheSumOverTheDrivers) {
  TwoDriverScript s;
  s.script.set_level(s.a, 1e-9, 1.0, 1e-9);
  s.script.add_phase("ramp", 0.0, 3e-9);
  s.script.advance_to(3e-9);
  const auto res = s.script.run(s.circuit, {});
  EXPECT_EQ(res.sources, (std::vector<std::string>{"Va", "Vb"}));
  EXPECT_EQ(res.wave.labels(), (std::vector<std::string>{"E:Va", "E:Vb"}));
  const std::pair<double, double> windows[] = {{0.0, 3e-9}, {0.5e-9, 1.7e-9}};
  for (const auto& [t0, t1] : windows) {
    double sum = 0.0;
    for (const std::string name : {"Va", "Vb"}) {
      sum += res.wave.value_at("E:" + name, t1) -
             res.wave.value_at("E:" + name, t0);
    }
    EXPECT_EQ(res.energy(t0, t1), sum);
  }
  // Before the ramp the resistor drops 1 V: 1 mW for 1 ns.  Over the 1 ns
  // ramp its drop falls linearly to zero, which dissipates a third of that
  // again.  The drivers deliver what it dissipates, 4/3 pJ.
  EXPECT_NEAR(res.energy(0.0, 3e-9), 4e-12 / 3.0, 0.02e-12);
  EXPECT_EQ(res.total_energy(),
            res.wave.final_value("E:Va") + res.wave.final_value("E:Vb"));
}

TEST(Testbench, ScheduleAdvancesClock) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  EXPECT_DOUBLE_EQ(tb.now(), 0.0);
  tb.op_write(true);
  EXPECT_NEAR(tb.now(), PaperParams::table1().clock_period(), 1e-15);
  tb.op_idle(5e-9);
  EXPECT_NEAR(tb.now(), PaperParams::table1().clock_period() + 5e-9, 1e-15);
}

TEST(Testbench, PhasesAreOrderedAndNamed) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(true);
  tb.op_read();
  tb.op_store();
  const auto& phases = tb.scheduled_phases();
  ASSERT_EQ(phases.size(), 4u);  // write1, read, store_h, store_l
  EXPECT_EQ(phases[0].name, "write1");
  EXPECT_EQ(phases[1].name, "read");
  EXPECT_EQ(phases[2].name, "store_h");
  EXPECT_EQ(phases[3].name, "store_l");
  for (std::size_t i = 1; i < phases.size(); ++i) {
    EXPECT_GE(phases[i].t0, phases[i - 1].t1 - 1e-12);
  }
}

TEST(Testbench, PhaseLookupByOccurrence) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_read();
  tb.op_read();
  EXPECT_LT(tb.phase("read", 0).t0, tb.phase("read", 1).t0);
  EXPECT_THROW(tb.phase("read", 2), std::out_of_range);
  EXPECT_THROW(tb.phase("nothing"), std::out_of_range);
  // The run's result looks its phases up the same way.
  const auto res = tb.run();
  EXPECT_EQ(res.phase("read", 1).t0, tb.phase("read", 1).t0);
  EXPECT_THROW(res.phase("read", 2), std::out_of_range);
}

TEST(Testbench, StorePhaseDurationsMatchConfig) {
  auto pp = PaperParams::table1();
  pp.store_pulse = 8e-9;
  TestbenchOptions opts;
  opts.store_margin = 1e-9;
  CellTestbench tb(CellKind::kNvSram, pp, opts);
  tb.op_write(true);
  tb.op_store();
  EXPECT_NEAR(tb.phase("store_h").duration(), 9e-9, 1e-12);
  EXPECT_NEAR(tb.phase("store_l").duration(), 9e-9, 1e-12);
}

TEST(Testbench, BiasSetsReflectTable1) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  const auto normal = tb.bias_normal();
  EXPECT_DOUBLE_EQ(normal.vdd, 0.9);
  EXPECT_DOUBLE_EQ(normal.ctrl, 0.07);
  EXPECT_DOUBLE_EQ(normal.sr, 0.0);
  const auto sleep = tb.bias_sleep();
  EXPECT_DOUBLE_EQ(sleep.vdd, 0.7);
  EXPECT_DOUBLE_EQ(sleep.ctrl, 0.04);
  const auto sh = tb.bias_shutdown();
  EXPECT_DOUBLE_EQ(sh.pg, 1.0);
  EXPECT_DOUBLE_EQ(sh.bl, 0.0);
  const auto h = tb.bias_store_h();
  EXPECT_DOUBLE_EQ(h.sr, 0.65);
  EXPECT_DOUBLE_EQ(h.ctrl, 0.0);
  const auto l = tb.bias_store_l();
  EXPECT_DOUBLE_EQ(l.ctrl, 0.5);
}

TEST(Testbench, SixTHasNoSrCtrlBias) {
  CellTestbench tb(CellKind::k6T, PaperParams::table1());
  EXPECT_DOUBLE_EQ(tb.bias_normal().ctrl, 0.0);
  EXPECT_EQ(tb.mtj_q(), nullptr);
}

TEST(Testbench, EnergyWindowsPartitionTotal) {
  // Sum of per-phase energies == energy over the full run window.
  CellTestbench tb(CellKind::k6T, PaperParams::table1());
  tb.op_write(true);
  tb.op_read();
  tb.op_write(false);
  auto res = tb.run();
  double sum = 0.0;
  for (const auto& ph : res.phases) sum += res.energy(ph);
  const double total = res.energy(0.0, res.phases.back().t1);
  EXPECT_NEAR(sum, total, std::abs(total) * 1e-9);

  // The periphery 6T columns, in order: bench_fig6_osr.csv's header.
  const std::vector<std::string> columns = {
      "V(Q)",   "V(QB)",  "V(VVDD)", "V(BL)",  "V(BLB)", "P:Vvdd",
      "E:Vvdd", "P:Vpg",  "E:Vpg",   "P:Vwl",  "E:Vwl",  "P:Vpch",
      "E:Vpch", "P:Vwd0", "E:Vwd0",  "P:Vwd1", "E:Vwd1"};
  EXPECT_EQ(res.wave.labels(), columns);
}

TEST(Testbench, RunAtInstantsProbesNoSourcePower) {
  // A run that names its instants keeps the energy columns and drops the
  // power ones, which only a full waveform prints; the energies match the
  // full run's bit for bit.
  const auto schedule = [](CellTestbench& tb) {
    tb.op_write(true);
    tb.op_read();
  };
  CellTestbench full_tb(CellKind::k6T, PaperParams::table1());
  schedule(full_tb);
  const auto full = full_tb.run();
  CellTestbench thin_tb(CellKind::k6T, PaperParams::table1());
  schedule(thin_tb);
  const auto& rd = full.phase("read");
  const auto thin = thin_tb.run({rd.t0, rd.t1});

  const std::vector<std::string> columns = {
      "V(Q)",   "V(QB)",  "V(VVDD)", "V(BL)",  "V(BLB)", "E:Vvdd", "E:Vpg",
      "E:Vwl",  "E:Vpch", "E:Vwd0",  "E:Vwd1"};
  EXPECT_EQ(thin.wave.labels(), columns);
  for (const auto& label : thin.wave.labels()) {
    EXPECT_NE(label.rfind("P:", 0), 0u) << label;
  }
  EXPECT_EQ(thin.energy(thin.phase("read")), full.energy(rd));
}

TEST(Testbench, EnergyIsPositiveForActiveOps) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1());
  tb.op_write(true);
  tb.op_read();
  auto res = tb.run();
  EXPECT_GT(res.energy(res.phase("write1")), 0.0);
  EXPECT_GT(res.energy(res.phase("read")), 0.0);
}

TEST(Testbench, AveragePowerConsistentWithEnergy) {
  CellTestbench tb(CellKind::k6T, PaperParams::table1());
  tb.op_idle(10e-9);
  auto res = tb.run();
  const auto& ph = res.phase("idle");
  EXPECT_NEAR(res.average_power(ph.t0, ph.t1) * ph.duration(),
              res.energy(ph), 1e-20);
}

TEST(Testbench, IdleStaticPowerMatchesDcMeasurement) {
  // The transient's quiescent power must agree with the DC static power.
  TestbenchOptions dc_opts;
  dc_opts.ideal_bitlines = true;
  CellTestbench tb_dc(CellKind::k6T, PaperParams::table1(), dc_opts);
  const double p_dc = tb_dc.static_power(CellTestbench::StaticMode::kNormal);

  CellTestbench tb(CellKind::k6T, PaperParams::table1(), dc_opts);
  tb.op_write(true);
  tb.op_idle(200e-9);
  auto res = tb.run();
  const auto& idle = res.phase("idle");
  // Skip the first 50 ns (write settling) and average the rest.
  const double p_tran = res.average_power(idle.t0 + 50e-9, idle.t1);
  EXPECT_NEAR(p_tran, p_dc, 0.25 * p_dc);
}

TEST(Testbench, BackwardEulerOptionRuns) {
  TestbenchOptions opts;
  opts.method = spice::IntegrationMethod::kBackwardEuler;
  CellTestbench tb(CellKind::k6T, PaperParams::table1(), opts);
  tb.op_write(true);
  tb.op_idle(1e-9);
  auto res = tb.run();
  EXPECT_GT(res.wave.value_at("V(Q)", tb.now() - 0.2e-9), 0.8);
}

TEST(Testbench, RunTwiceIsRepeatable) {
  CellTestbench tb(CellKind::k6T, PaperParams::table1());
  tb.op_write(true);
  tb.op_idle(1e-9);
  auto r1 = tb.run();
  auto r2 = tb.run();
  EXPECT_NEAR(r1.energy(r1.phase("write1")), r2.energy(r2.phase("write1")),
              1e-18);
}

TEST(Testbench, StatsExposeSolverWork) {
  CellTestbench tb(CellKind::k6T, PaperParams::table1());
  tb.op_write(true);
  auto res = tb.run();
  EXPECT_GT(res.stats.accepted_steps, 50u);
  EXPECT_GT(res.stats.total_newton_iterations, res.stats.accepted_steps);
}

// ---- DC solves on the bench's one workspace ----

TEST(Testbench, RepeatDcSolvePlansOnce) {
  CellTestbench tb(CellKind::kNvSram, PaperParams::table1(),
                   TestbenchOptions{.ideal_bitlines = true});
  ASSERT_TRUE(tb.solve_dc(tb.bias_normal(), true));
  const spice::NewtonWorkspace& ws = tb.dc_workspace();
  const std::size_t plans = ws.plan_count;
  const std::size_t pivot_plans = ws.pivot_plan_count;
  EXPECT_GE(plans, 1u);
  EXPECT_GE(pivot_plans, 1u);
  ASSERT_TRUE(tb.solve_dc(tb.bias_normal(), true));
  EXPECT_EQ(ws.plan_count, plans);
  EXPECT_EQ(ws.pivot_plan_count, pivot_plans);
}

TEST(Testbench, SharedDcWorkspaceMatchesFreshBench) {
  // Operating points solved one after another on one bench equal, bit for
  // bit, those of a fresh bench per bias, in either order.
  using Bias = CellTestbench::BiasSet (CellTestbench::*)() const;
  const std::vector<std::pair<const char*, Bias>> biases = {
      {"normal", &CellTestbench::bias_normal},
      {"sleep", &CellTestbench::bias_sleep},
      {"shutdown", &CellTestbench::bias_shutdown},
      {"store_h", &CellTestbench::bias_store_h},
      {"store_l", &CellTestbench::bias_store_l}};
  const auto pp = PaperParams::table1();
  for (const CellKind kind : {CellKind::k6T, CellKind::kNvSram}) {
    for (const bool ideal : {true, false}) {
      const TestbenchOptions opts{.ideal_bitlines = ideal};
      for (const bool data : {true, false}) {
        std::vector<linalg::Vector> fresh;
        for (const auto& [name, bias] : biases) {
          CellTestbench tb(kind, pp, opts);
          const auto sol = tb.solve_dc((tb.*bias)(), data);
          ASSERT_TRUE(sol) << name;
          fresh.push_back(sol->raw());
        }
        for (const bool reverse : {false, true}) {
          CellTestbench tb(kind, pp, opts);
          for (std::size_t k = 0; k < biases.size(); ++k) {
            const std::size_t i = reverse ? biases.size() - 1 - k : k;
            const auto sol = tb.solve_dc((tb.*biases[i].second)(), data);
            ASSERT_TRUE(sol) << biases[i].first;
            EXPECT_TRUE(sol->raw() == fresh[i])
                << (kind == CellKind::k6T ? "6T " : "NV ")
                << (ideal ? "ideal " : "periphery ") << biases[i].first
                << ", data " << data << (reverse ? ", reversed" : "");
          }
        }
      }
    }
  }
}

}  // namespace
}  // namespace nvsram
