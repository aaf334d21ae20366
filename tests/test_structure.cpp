// Structural MNA analysis: the linalg structure pass, analyze_structure
// fixtures (floating gates, dangling branches, disconnected blocks), the
// nvlint structural rules, the no-false-positive sweep over every shipped
// netlist and testbench circuit, and the NewtonWorkspace reuse of its
// assembly plan and symbolic analysis (bit-identical results, plan-once and
// analyze-once counters).
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <random>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "linalg/structure.h"
#include "lint/linter.h"
#include "models/paper_params.h"
#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"
#include "spice/newton.h"
#include "spice/structural_analysis.h"
#include "sram/array.h"
#include "sram/testbench.h"

namespace nvsram {
namespace {

using models::PaperParams;
using spice::Circuit;
using spice::kGround;

// ---- linalg structure pass --------------------------------------------------

linalg::SparsityPattern pattern_of(
    std::size_t n, const std::vector<std::pair<std::size_t, std::size_t>>& pos) {
  std::vector<linalg::Triplet> t;
  for (const auto& [r, c] : pos) t.push_back({r, c, 1.0});
  return linalg::SparsityPattern::from_triplets(n, t);
}

TEST(Structure, PerfectMatchingOnFullDiagonal) {
  const auto p = pattern_of(3, {{0, 0}, {1, 1}, {2, 2}, {0, 2}});
  const auto m = linalg::maximum_matching(p);
  EXPECT_TRUE(m.perfect(3));
  EXPECT_TRUE(m.unmatched_rows().empty());
  EXPECT_TRUE(m.unmatched_cols().empty());
}

TEST(Structure, MatchingFindsOffDiagonalTransversal) {
  // Antidiagonal: no (i, i) positions at all, still structurally sound.
  const auto p = pattern_of(3, {{0, 2}, {1, 1}, {2, 0}});
  EXPECT_TRUE(linalg::maximum_matching(p).perfect(3));
}

TEST(Structure, DeficientPatternNamesTheDefect) {
  // Column 2 is empty and row 2 is empty: deficiency 1 on each side.
  const auto p = pattern_of(3, {{0, 0}, {0, 1}, {1, 0}, {1, 1}});
  const auto m = linalg::maximum_matching(p);
  EXPECT_FALSE(m.perfect(3));
  EXPECT_EQ(m.size, 2u);
  ASSERT_EQ(m.unmatched_rows().size(), 1u);
  ASSERT_EQ(m.unmatched_cols().size(), 1u);
  EXPECT_EQ(m.unmatched_rows()[0], 2u);
  EXPECT_EQ(m.unmatched_cols()[0], 2u);
}

TEST(Structure, ConnectedComponentsSplitsIndependentBlocks) {
  const auto p = pattern_of(4, {{0, 0}, {0, 1}, {1, 0}, {2, 2}, {3, 3}});
  const auto c = linalg::connected_components(p);
  EXPECT_EQ(c.count, 3u);
  EXPECT_EQ(c.row_component[0], c.row_component[1]);
  EXPECT_NE(c.row_component[0], c.row_component[2]);
  EXPECT_NE(c.row_component[2], c.row_component[3]);
}

TEST(Structure, MinDegreeOrderIsAPermutation) {
  const auto p = pattern_of(
      4, {{0, 0}, {0, 3}, {1, 1}, {2, 2}, {3, 0}, {3, 3}, {1, 2}, {2, 1}});
  const auto m = linalg::maximum_matching(p);
  ASSERT_TRUE(m.perfect(4));
  const auto order = linalg::min_degree_order(p, m);
  std::set<std::size_t> seen(order.begin(), order.end());
  EXPECT_EQ(order.size(), 4u);
  EXPECT_EQ(seen.size(), 4u);
  EXPECT_EQ(*seen.rbegin(), 3u);
}

// The sort-and-unique from_triplets once was: sort every (row, col) pair,
// drop repeats, then cut rows.  Returns (row_ptr, col_idx).
std::pair<std::vector<std::size_t>, std::vector<std::size_t>> sorted_reference(
    std::size_t n, const std::vector<linalg::Triplet>& triplets) {
  std::vector<std::pair<std::size_t, std::size_t>> pos;
  for (const auto& t : triplets) pos.emplace_back(t.row, t.col);
  std::sort(pos.begin(), pos.end());
  pos.erase(std::unique(pos.begin(), pos.end()), pos.end());
  std::vector<std::size_t> row_ptr(n + 1, 0);
  std::vector<std::size_t> col_idx;
  std::size_t i = 0;
  for (std::size_t r = 0; r < n; ++r) {
    row_ptr[r] = col_idx.size();
    while (i < pos.size() && pos[i].first == r) {
      col_idx.push_back(pos[i++].second);
    }
  }
  row_ptr[n] = col_idx.size();
  return {row_ptr, col_idx};
}

void expect_matches_reference(std::size_t n,
                              const std::vector<linalg::Triplet>& triplets) {
  const auto p = linalg::SparsityPattern::from_triplets(n, triplets);
  const auto [row_ptr, col_idx] = sorted_reference(n, triplets);
  EXPECT_EQ(p.dimension(), n);
  EXPECT_EQ(p.row_ptr(), row_ptr) << "n=" << n << " nnz=" << triplets.size();
  EXPECT_EQ(p.col_idx(), col_idx) << "n=" << n << " nnz=" << triplets.size();
}

TEST(Structure, FromTripletsMatchesSortedReference) {
  expect_matches_reference(0, {});
  expect_matches_reference(1, {});
  expect_matches_reference(5, {});
  expect_matches_reference(1, {{0, 0, 1.0}, {0, 0, 1.0}, {0, 0, 1.0}});
  // Reversed order, with a repeat and empty rows 1 and 3.
  expect_matches_reference(
      5, {{4, 4, 1.0}, {4, 0, 1.0}, {2, 3, 1.0}, {2, 1, 1.0}, {2, 3, 1.0},
          {0, 4, 1.0}, {0, 2, 1.0}, {0, 0, 1.0}});

  std::mt19937_64 rng(20261017);
  for (int trial = 0; trial < 200; ++trial) {
    const std::size_t n = 1 + rng() % 40;
    // Few distinct columns per row and about a third of rows left empty,
    // so repeats and empty rows are common.
    const std::size_t nnz = rng() % (4 * n + 1);
    std::vector<linalg::Triplet> t;
    for (std::size_t k = 0; k < nnz; ++k) {
      std::size_t row = rng() % n;
      if (row % 3 == 1) row = (row + 1) % n;
      t.push_back({row, rng() % std::min<std::size_t>(n, 6), 1.0});
      if (rng() % 4 == 0) t.push_back(t.back());
    }
    if (trial % 2 == 1) std::reverse(t.begin(), t.end());
    expect_matches_reference(n, t);
  }

  using Triplets = std::vector<linalg::Triplet>;
  EXPECT_THROW(linalg::SparsityPattern::from_triplets(
                   3, Triplets{{0, 0, 1.0}, {3, 0, 1.0}}),
               std::out_of_range);
  EXPECT_THROW(
      linalg::SparsityPattern::from_triplets(3, Triplets{{2, 3, 1.0}}),
      std::out_of_range);
  EXPECT_THROW(
      linalg::SparsityPattern::from_triplets(0, Triplets{{0, 0, 1.0}}),
      std::out_of_range);
}

// ---- analyze_structure fixtures ---------------------------------------------

// The column order SparseLu::analyze derives from a report's pattern is a
// permutation of the unknowns.
void expect_min_degree_permutation(const spice::StructuralReport& report) {
  const auto matching = linalg::maximum_matching(report.pattern);
  ASSERT_TRUE(matching.perfect(report.unknown_count));
  const auto order = linalg::min_degree_order(report.pattern, matching);
  std::set<std::size_t> seen(order.begin(), order.end());
  EXPECT_EQ(order.size(), report.unknown_count);
  EXPECT_EQ(seen.size(), report.unknown_count);
  ASSERT_FALSE(seen.empty());
  EXPECT_EQ(*seen.rbegin(), report.unknown_count - 1);
}

TEST(StructuralAnalysis, FloatingFetGateIsSingularWithNamedCulprits) {
  // Power-switch gate 'pg' driven by nothing but a capacitor: at DC the
  // capacitor stamps no positions and the FET gate row is empty (insulated
  // gate), so KCL at 'pg' can never be pivoted — singular for every value.
  const auto pp = PaperParams::table1();
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto vvdd = ckt.node("vvdd");
  const auto pg = ckt.node("pg");
  ckt.add<spice::VSource>("V1", vdd, kGround, spice::SourceSpec::dc(0.9));
  spice::add_finfet(ckt, "Mpsw", vvdd, pg, vdd, pp.pmos(1));
  ckt.add<spice::Resistor>("R1", vvdd, kGround, 10e3);
  ckt.add<spice::Capacitor>("C1", pg, kGround, 1e-15);

  const auto report = spice::analyze_structure(ckt, /*dc=*/true);
  EXPECT_TRUE(report.structurally_singular);
  EXPECT_FALSE(report.clean());
  ASSERT_FALSE(report.unsolvable_equations.empty());
  const auto& eq = report.unsolvable_equations.front();
  EXPECT_EQ(eq.unknown, "V(pg)");
  EXPECT_EQ(eq.node, "pg");
  // Repair candidates: every device with a terminal at the defective node.
  EXPECT_TRUE(std::count(eq.devices.begin(), eq.devices.end(), "Mpsw"));
  EXPECT_TRUE(std::count(eq.devices.begin(), eq.devices.end(), "C1"));
  // One unknown is also unmatched (deficiency is symmetric in count).
  EXPECT_FALSE(report.undetermined_unknowns.empty());
}

TEST(StructuralAnalysis, TransientPatternAbsorbsTheGateDefect) {
  // Same circuit, dc=false: the capacitor's companion conductance restores
  // the 'pg' row, so the transient pattern is structurally sound.
  const auto pp = PaperParams::table1();
  Circuit ckt;
  const auto vdd = ckt.node("vdd");
  const auto vvdd = ckt.node("vvdd");
  const auto pg = ckt.node("pg");
  ckt.add<spice::VSource>("V1", vdd, kGround, spice::SourceSpec::dc(0.9));
  spice::add_finfet(ckt, "Mpsw", vvdd, pg, vdd, pp.pmos(1));
  ckt.add<spice::Resistor>("R1", vvdd, kGround, 10e3);
  ckt.add<spice::Capacitor>("C1", pg, kGround, 1e-15);

  const auto report = spice::analyze_structure(ckt, /*dc=*/false);
  EXPECT_FALSE(report.structurally_singular);
  EXPECT_TRUE(report.unsolvable_equations.empty());
}

TEST(StructuralAnalysis, GroundStrappedSourceIsADanglingBranch) {
  Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add<spice::VSource>("V1", a, kGround, spice::SourceSpec::dc(1.0));
  ckt.add<spice::Resistor>("R1", a, kGround, 1e3);
  // Both terminals grounded: the branch row AND column are empty.
  ckt.add<spice::VSource>("Vbad", kGround, kGround, spice::SourceSpec::dc(0.5));

  const auto report = spice::analyze_structure(ckt, /*dc=*/true);
  ASSERT_EQ(report.dangling_branches.size(), 1u);
  const auto& d = report.dangling_branches.front();
  EXPECT_EQ(d.device, "Vbad");
  EXPECT_EQ(d.unknown, "I(Vbad)");
  EXPECT_TRUE(d.empty_row);
  EXPECT_TRUE(d.empty_col);
  EXPECT_TRUE(report.structurally_singular);  // the empty row/col unmatches
}

TEST(StructuralAnalysis, UngroundedMtjIslandIsAFloatingBlock) {
  // An MTJ + resistor pair with no path to ground: structurally matchable
  // (every row has its diagonal) yet numerically singular — its KCL rows
  // sum to zero.  Must surface as a floating block, NOT as singular.
  const auto pp = PaperParams::table1();
  Circuit ckt;
  const auto a = ckt.node("a");
  const auto x = ckt.node("x");
  const auto y = ckt.node("y");
  ckt.add<spice::VSource>("V1", a, kGround, spice::SourceSpec::dc(0.9));
  ckt.add<spice::Resistor>("R1", a, kGround, 1e3);
  ckt.add<spice::MTJElement>("Y1", x, y, pp.mtj);
  ckt.add<spice::Resistor>("R2", x, y, 10e3);

  const auto report = spice::analyze_structure(ckt, /*dc=*/true);
  EXPECT_FALSE(report.structurally_singular);
  ASSERT_EQ(report.floating_blocks.size(), 1u);
  const auto& blk = report.floating_blocks.front();
  EXPECT_EQ(blk.unknowns.size(), 2u);
  EXPECT_TRUE(std::count(blk.unknowns.begin(), blk.unknowns.end(), "V(x)"));
  EXPECT_TRUE(std::count(blk.unknowns.begin(), blk.unknowns.end(), "V(y)"));
  EXPECT_TRUE(std::count(blk.devices.begin(), blk.devices.end(), "Y1"));
  EXPECT_TRUE(std::count(blk.devices.begin(), blk.devices.end(), "R2"));
}

TEST(StructuralAnalysis, SoundLatchPatternIsClean) {
  const auto pp = PaperParams::table1();
  Circuit ckt;
  const auto q = ckt.node("q");
  const auto qb = ckt.node("qb");
  const auto vdd = ckt.node("vdd");
  ckt.add<spice::VSource>("Vdd", vdd, kGround, spice::SourceSpec::dc(0.9));
  spice::add_finfet(ckt, "pu_q", q, qb, vdd, pp.pmos(1));
  spice::add_finfet(ckt, "pd_q", q, qb, kGround, pp.nmos(1));
  spice::add_finfet(ckt, "pu_qb", qb, q, vdd, pp.pmos(1));
  spice::add_finfet(ckt, "pd_qb", qb, q, kGround, pp.nmos(1));

  const auto report = spice::analyze_structure(ckt, /*dc=*/true);
  EXPECT_TRUE(report.clean());
  expect_min_degree_permutation(report);
}

// ---- nvlint structural rules ------------------------------------------------

std::unique_ptr<spice::ParsedNetlist> parse(const std::string& text) {
  spice::NetlistParser p;
  return p.parse(text);
}

TEST(StructureLint, FloatingGateNetlistRejectedWithLineNumbers) {
  auto net = parse(
      "floating power-switch gate\n"
      "V1 vdd 0 DC 0.9\n"
      "Mpsw vvdd pg vdd pfin\n"
      "R1 vvdd 0 10k\n"
      "C1 pg 0 1f\n"
      ".probe v(vvdd)\n"
      ".dc V1 0 0.9 5\n");
  const auto diags = net->lint().by_rule(lint::rules::kStructuralSingular);
  ASSERT_FALSE(diags.empty());
  bool named_pg = false;
  for (const auto& d : diags) {
    EXPECT_EQ(d.severity, lint::Severity::kError);
    EXPECT_GT(d.line, 0);
    if (d.message.find("V(pg)") != std::string::npos) named_pg = true;
  }
  EXPECT_TRUE(named_pg) << "diagnostics must name the defective unknown";
}

TEST(StructureLint, VsourceLoopIsSoundNotStructurallySingular) {
  // Two sources forcing the same (non-ground) node pair: a value conflict,
  // not a topology defect.  The matrix admits a perfect matching, so the
  // structural rules must stay quiet while vsource-loop fires.
  auto net = parse(
      "conflicting sources\n"
      "V1 a b DC 1\n"
      "V2 a b DC 2\n"
      "R1 a 0 1k\n"
      "R2 b 0 1k\n");
  const auto report = net->lint();
  EXPECT_FALSE(report.by_rule(lint::rules::kVsourceLoop).empty());
  EXPECT_TRUE(report.by_rule(lint::rules::kStructuralSingular).empty());
  EXPECT_TRUE(report.by_rule(lint::rules::kDanglingBranchEquation).empty());
}

TEST(StructureLint, DisconnectedBlockWarnsOnce) {
  auto net = parse(
      "island\n"
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R2 x y 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kDisconnectedBlock);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, lint::Severity::kWarning);
  EXPECT_EQ(diags[0].line, 4);  // R2 defines the island
}

TEST(StructureLint, GroundStrappedSourceFlagsDanglingBranch) {
  auto net = parse(
      "strapped\n"
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "Vbad 0 0 DC 0.5\n");
  const auto diags = net->lint().by_rule(lint::rules::kDanglingBranchEquation);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "Vbad");
  EXPECT_EQ(diags[0].severity, lint::Severity::kError);
}

// ---- no false positives on everything we ship -------------------------------

TEST(StructureLint, AllShippedNetlistsAreStructurallyClean) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(NVSRAM_NETLIST_DIR)) {
    if (entry.path().extension() != ".cir") continue;
    ++seen;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream ss;
    ss << in.rdbuf();
    const auto report = parse(ss.str())->lint();
    for (const char* rule :
         {lint::rules::kStructuralSingular, lint::rules::kDisconnectedBlock,
          lint::rules::kDanglingBranchEquation}) {
      EXPECT_TRUE(report.by_rule(rule).empty())
          << entry.path() << " trips " << rule << ":\n" << report.format();
    }
  }
  EXPECT_GE(seen, 4u);
}

TEST(StructureLint, TestbenchCircuitsAreStructurallyClean) {
  const auto pp = PaperParams::table1();
  for (auto kind : {sram::CellKind::k6T, sram::CellKind::kNvSram}) {
    sram::CellTestbench tb(kind, pp);
    const auto report = lint::lint_circuit(tb.circuit());
    for (const char* rule :
         {lint::rules::kStructuralSingular, lint::rules::kDisconnectedBlock,
          lint::rules::kDanglingBranchEquation}) {
      EXPECT_TRUE(report.by_rule(rule).empty())
          << "testbench kind=" << static_cast<int>(kind) << " trips " << rule
          << ":\n" << report.format();
    }
  }
}

TEST(StructuralAnalysis, ArrayScalePatternIsClean) {
  sram::ArrayOptions opts;
  opts.rows = 4;
  opts.cols = 4;
  opts.nonvolatile = true;
  sram::ArrayTestbench tb(PaperParams::table1(), opts);
  const auto report = spice::analyze_structure(tb.circuit(), /*dc=*/true);
  EXPECT_TRUE(report.clean()) << "array circuit must not trip the analyzer";
  expect_min_degree_permutation(report);
}

// ---- NewtonWorkspace: assembly plan and symbolic reuse ----------------------

sram::ArrayTestbench make_array_bench(double vdd_trim = 0.0) {
  sram::ArrayOptions opts;
  opts.rows = 6;
  opts.cols = 6;
  opts.nonvolatile = true;
  auto pp = PaperParams::table1();
  pp.vdd += vdd_trim;
  return sram::ArrayTestbench(pp, opts);
}

TEST(NewtonWorkspace, FreshAndAlreadyPlannedWorkspacesAgree) {
  // Three identically constructed array circuits (above the dense cutoff,
  // so the sparse path).  `planned` solves the first one, so it enters the
  // compared solve with its assembly plan and LU analysis in place; the
  // other compared solve starts from a fresh workspace.
  auto tb0 = make_array_bench();
  auto tb1 = make_array_bench();
  auto tb2 = make_array_bench();
  const spice::MnaLayout l0 = tb0.circuit().build_layout();
  const spice::MnaLayout l1 = tb1.circuit().build_layout();
  const spice::MnaLayout l2 = tb2.circuit().build_layout();
  ASSERT_GT(l1.unknown_count(), linalg::kDenseCutoff);
  ASSERT_EQ(l1.unknown_count(), l2.unknown_count());

  const spice::NewtonOptions opts;
  spice::NewtonWorkspace planned;
  linalg::Vector x0(l0.unknown_count(), 0.0);
  ASSERT_TRUE(spice::solve_newton(tb0.circuit(), l0, x0, 0.0, 0.0,
                                  /*dc=*/true,
                                  spice::IntegrationMethod::kTrapezoidal,
                                  opts, planned)
                  .converged);
  ASSERT_EQ(planned.plan_count, 1u);

  linalg::Vector x1(l1.unknown_count(), 0.0);
  linalg::Vector x2(l2.unknown_count(), 0.0);
  spice::NewtonWorkspace fresh;
  const auto r1 =
      spice::solve_newton(tb1.circuit(), l1, x1, 0.0, 0.0, /*dc=*/true,
                          spice::IntegrationMethod::kTrapezoidal, opts, fresh);
  const auto r2 =
      spice::solve_newton(tb2.circuit(), l2, x2, 0.0, 0.0, /*dc=*/true,
                          spice::IntegrationMethod::kTrapezoidal, opts, planned);
  EXPECT_EQ(r1.converged, r2.converged);
  EXPECT_EQ(r1.iterations, r2.iterations);
  EXPECT_EQ(x1, x2);
  EXPECT_EQ(fresh.plan_count, 1u) << "one stamp sequence, one plan";
  EXPECT_EQ(planned.plan_count, 1u) << "same topology: the plan carries over";
  // Reuse must dominate: far more numeric refactors than symbolic analyses.
  // (A cold start can cost an extra analysis when the all-cutoff first
  // iterate defeats the fixed pivot order and the threshold-pivoting
  // fallback invalidates it.)
  EXPECT_GE(fresh.analyze_count, 1u);
  EXPECT_GT(fresh.refactor_count, fresh.analyze_count);
}

TEST(NewtonWorkspace, WarmResolveReusesTheSymbolicAnalysis) {
  auto tb = make_array_bench();
  spice::DCAnalysis dc(tb.circuit());
  const auto first = dc.solve();
  ASSERT_TRUE(first.has_value());
  const std::size_t analyzes = dc.workspace().analyze_count;
  const std::size_t refactors = dc.workspace().refactor_count;
  EXPECT_GE(analyzes, 1u);
  EXPECT_GE(refactors, 1u);

  // Warm re-solve from the converged point: every iteration hits the
  // refactor fast path, so the analysis count must not move.
  const linalg::Vector guess = first->raw();
  ASSERT_TRUE(dc.solve(&guess).has_value());
  EXPECT_EQ(dc.workspace().analyze_count, analyzes)
      << "warm re-solve must reuse the symbolic analysis";
  EXPECT_GT(dc.workspace().refactor_count, refactors);
}

TEST(NewtonWorkspace, ColdAndWarmSolvesPlanOnce) {
  // Every iteration of every solve on one circuit stamps the same position
  // sequence, so a cold solve (with whatever recovery it needs) plus a warm
  // re-solve sort the stamps exactly once: on the NV cell (planned cell LU)
  // and on the 6x6 array (sparse LU).  On the cell, the warm re-solves keep
  // the pivots the cold solve planned: a tie-order bug that replanned on
  // every iteration would pass every result test and show only as a
  // slower benchmark.
  sram::CellTestbench cell(sram::CellKind::kNvSram, PaperParams::table1());
  auto array = make_array_bench();
  struct Case {
    const char* name;
    Circuit& circuit;
    bool sparse;
  };
  for (const Case& c : {Case{"NV cell", cell.circuit(), false},
                        Case{"6x6 array", array.circuit(), true}}) {
    SCOPED_TRACE(c.name);
    ASSERT_EQ(c.circuit.build_layout().unknown_count() > linalg::kDenseCutoff,
              c.sparse);
    spice::DCAnalysis dc(c.circuit);
    const auto cold = dc.solve();
    ASSERT_TRUE(cold.has_value());
    const std::size_t pivot_plans = dc.workspace().pivot_plan_count;
    EXPECT_EQ(pivot_plans > 0, !c.sparse) << "the dense LU runs to plan pivots";
    const linalg::Vector guess = cold->raw();
    for (int warm = 0; warm < 6; ++warm) {
      ASSERT_TRUE(dc.solve(&guess).has_value());
    }
    EXPECT_EQ(dc.workspace().plan_count, 1u);
    EXPECT_EQ(dc.workspace().pivot_plan_count, pivot_plans)
        << "warm re-solves must replay the planned pivots";
  }
}

TEST(NewtonWorkspace, SharedAcrossSweepPointsMatchesFresh) {
  // Adjacent sweep points (VDD trims) on one array topology, each
  // warm-started from the first point's operating point.  One workspace
  // carried across the points reproduces fresh per-point solves bit for
  // bit, and plans the assembly and runs the symbolic analysis once for
  // the whole sweep.
  auto base = make_array_bench();
  spice::DCAnalysis dc(base.circuit());
  const auto warm = dc.solve();
  ASSERT_TRUE(warm.has_value());

  const spice::NewtonOptions opts;
  spice::NewtonWorkspace shared;
  for (int point = 0; point < 4; ++point) {
    auto fresh_tb = make_array_bench(1e-3 * point);
    auto shared_tb = make_array_bench(1e-3 * point);
    const spice::MnaLayout fresh_layout = fresh_tb.circuit().build_layout();
    const spice::MnaLayout shared_layout = shared_tb.circuit().build_layout();
    ASSERT_GT(fresh_layout.unknown_count(), linalg::kDenseCutoff);
    linalg::Vector x_fresh = warm->raw();
    linalg::Vector x_shared = warm->raw();
    spice::NewtonWorkspace fresh;
    const auto r_fresh = spice::solve_newton(
        fresh_tb.circuit(), fresh_layout, x_fresh, 0.0, 0.0, /*dc=*/true,
        spice::IntegrationMethod::kBackwardEuler, opts, fresh);
    const auto r_shared = spice::solve_newton(
        shared_tb.circuit(), shared_layout, x_shared, 0.0, 0.0, /*dc=*/true,
        spice::IntegrationMethod::kBackwardEuler, opts, shared);
    ASSERT_TRUE(r_fresh.converged) << "point " << point;
    EXPECT_EQ(r_fresh.iterations, r_shared.iterations) << "point " << point;
    EXPECT_EQ(x_fresh, x_shared) << "point " << point;
    EXPECT_EQ(fresh.plan_count, 1u) << "point " << point;
    EXPECT_EQ(fresh.analyze_count, 1u) << "point " << point;
  }
  EXPECT_EQ(shared.plan_count, 1u)
      << "one topology, one stamp sequence: one plan for the whole sweep";
  EXPECT_EQ(shared.analyze_count, 1u)
      << "one topology, one pattern: one analysis for the whole sweep";
}

TEST(NewtonWorkspace, NewTopologyReplansAndMatchesFresh) {
  // One workspace handed three topologies in turn (6x6 array, 4x8 array,
  // NV cell) replans for each, and each solve is bit-identical to one on a
  // fresh workspace.
  sram::ArrayOptions wide;
  wide.rows = 4;
  wide.cols = 8;
  wide.nonvolatile = true;
  auto square_a = make_array_bench();
  auto square_b = make_array_bench();
  sram::ArrayTestbench wide_a(PaperParams::table1(), wide);
  sram::ArrayTestbench wide_b(PaperParams::table1(), wide);
  sram::CellTestbench cell_a(sram::CellKind::kNvSram, PaperParams::table1());
  sram::CellTestbench cell_b(sram::CellKind::kNvSram, PaperParams::table1());
  const std::pair<Circuit*, Circuit*> topologies[] = {
      {&square_a.circuit(), &square_b.circuit()},
      {&wide_a.circuit(), &wide_b.circuit()},
      {&cell_a.circuit(), &cell_b.circuit()}};

  const spice::NewtonOptions opts;
  spice::NewtonWorkspace reused;
  std::size_t plans = 0;
  for (const auto& [fresh_circuit, reused_circuit] : topologies) {
    const spice::MnaLayout fresh_layout = fresh_circuit->build_layout();
    const spice::MnaLayout reused_layout = reused_circuit->build_layout();
    SCOPED_TRACE(std::to_string(fresh_layout.unknown_count()) + " unknowns");
    linalg::Vector x_fresh(fresh_layout.unknown_count(), 0.0);
    linalg::Vector x_reused(reused_layout.unknown_count(), 0.0);
    spice::NewtonWorkspace fresh;
    const auto r_fresh = spice::solve_newton(
        *fresh_circuit, fresh_layout, x_fresh, 0.0, 0.0, /*dc=*/true,
        spice::IntegrationMethod::kBackwardEuler, opts, fresh);
    const auto r_reused = spice::solve_newton(
        *reused_circuit, reused_layout, x_reused, 0.0, 0.0, /*dc=*/true,
        spice::IntegrationMethod::kBackwardEuler, opts, reused);
    ASSERT_TRUE(r_fresh.converged);
    EXPECT_EQ(r_fresh.iterations, r_reused.iterations);
    EXPECT_EQ(x_fresh, x_reused);
    EXPECT_EQ(reused.plan_count, ++plans) << "a new topology must replan";
  }
}

TEST(NewtonWorkspace, CircuitThatGainsADeviceReplansAndMatchesFresh) {
  // A workspace warm on a circuit, which then gains a device: the new
  // topology id makes the next solve record its stamps, find them off the
  // plan and replan, and the solve is bit-identical to one on a fresh
  // workspace.  Warm solves before the change stream: they record nothing.
  sram::CellTestbench cell_a(sram::CellKind::kNvSram, PaperParams::table1());
  sram::CellTestbench cell_b(sram::CellKind::kNvSram, PaperParams::table1());
  auto array_a = make_array_bench();
  auto array_b = make_array_bench();
  const std::pair<Circuit*, Circuit*> cases[] = {
      {&cell_a.circuit(), &cell_b.circuit()},
      {&array_a.circuit(), &array_b.circuit()}};
  const spice::NewtonOptions opts;
  for (const auto& [warm_circuit, fresh_circuit] : cases) {
    spice::NewtonWorkspace ws;
    const spice::MnaLayout before = warm_circuit->build_layout();
    SCOPED_TRACE(std::to_string(before.unknown_count()) + " unknowns");
    linalg::Vector op(before.unknown_count(), 0.0);
    ASSERT_TRUE(spice::solve_newton_with_recovery(
                    *warm_circuit, before, op, 0.0, 0.0, /*dc=*/true,
                    spice::IntegrationMethod::kBackwardEuler, opts, ws)
                    .converged);
    const std::size_t plans = ws.plan_count;
    ws.builder.clear();
    linalg::Vector again = op;
    ASSERT_TRUE(spice::solve_newton(*warm_circuit, before, again, 0.0, 0.0,
                                    /*dc=*/true,
                                    spice::IntegrationMethod::kBackwardEuler,
                                    opts, ws)
                    .converged);
    EXPECT_TRUE(ws.builder.triplets().empty()) << "a warm solve streams";
    EXPECT_EQ(ws.plan_count, plans);

    for (Circuit* c : {warm_circuit, fresh_circuit}) {
      c->add<spice::Resistor>("Rextra", c->find_node(c->node_name(1)),
                              spice::kGround, 1e5);
    }
    const spice::MnaLayout warm_layout = warm_circuit->build_layout();
    const spice::MnaLayout fresh_layout = fresh_circuit->build_layout();
    linalg::Vector x_warm = op;
    linalg::Vector x_fresh = op;
    spice::NewtonWorkspace fresh;
    const auto r_warm = spice::solve_newton(
        *warm_circuit, warm_layout, x_warm, 0.0, 0.0, /*dc=*/true,
        spice::IntegrationMethod::kBackwardEuler, opts, ws);
    const auto r_fresh = spice::solve_newton(
        *fresh_circuit, fresh_layout, x_fresh, 0.0, 0.0, /*dc=*/true,
        spice::IntegrationMethod::kBackwardEuler, opts, fresh);
    ASSERT_TRUE(r_fresh.converged);
    EXPECT_EQ(r_warm.converged, r_fresh.converged);
    EXPECT_EQ(r_warm.iterations, r_fresh.iterations);
    EXPECT_EQ(x_warm, x_fresh);
    EXPECT_EQ(ws.plan_count, plans + 1) << "a new topology must replan";
    EXPECT_EQ(fresh.plan_count, 1u);
  }
}

TEST(NewtonWorkspace, StructuralVerdictSoundOnNumericFailure) {
  // Injected singular fault on a sound circuit: the diagnostics must say
  // "structurally sound" so the failure reads as a value problem.
  auto tb = make_array_bench();
  tb.circuit().set_fault_plan(spice::FaultPlan::parse("singular@0x-1"));
  spice::DCAnalysis dc(tb.circuit());
  EXPECT_FALSE(dc.solve().has_value());
  EXPECT_TRUE(dc.last_diagnostics().singular);
}

// ---- shared relaxation presets ----------------------------------------------

TEST(RelaxationLadder, AttemptZeroIsIdentity) {
  spice::NewtonOptions base;
  base.reltol = 1e-4;
  const auto r = base.relaxed(0);
  EXPECT_EQ(r.reltol, base.reltol);
  EXPECT_EQ(r.abstol_v, base.abstol_v);
  EXPECT_EQ(r.gmin, base.gmin);
  EXPECT_EQ(r.max_iterations, base.max_iterations);
}

TEST(RelaxationLadder, LaterAttemptsLoosenMonotonicallyAndCap) {
  const spice::NewtonOptions base;
  const auto r1 = base.relaxed(1);
  const auto r2 = base.relaxed(2);
  EXPECT_GT(r1.reltol, base.reltol);
  EXPECT_GE(r2.reltol, r1.reltol);
  EXPECT_GT(r1.max_iterations, base.max_iterations);
  EXPECT_LE(r2.reltol, 1e-2);  // hard cap: never worse than 1%
  EXPECT_LE(base.relaxed(9).reltol, 1e-2);

  spice::TranOptions topt;
  const auto t1 = topt.relaxed(1);
  EXPECT_GT(t1.lte_reltol, topt.lte_reltol);
  EXPECT_GT(t1.newton.reltol, topt.newton.reltol);
  EXPECT_LE(topt.relaxed(9).lte_reltol, 2e-2);
}

}  // namespace
}  // namespace nvsram
