// Static-analysis (lint) layer: one targeted test per rule, regression that
// every shipped netlist lints clean, exact findings on generated NV-SRAM
// arrays, and the run_* fail-fast gating.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/linter.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "spice/elements.h"
#include "spice/netlist_parser.h"
#include "support/array_gen.h"
#include "support/power_deck.h"

namespace nvsram {
namespace {

using lint::Diagnostic;
using lint::LintOptions;
using lint::LintReport;
using lint::Severity;
using spice::NetlistParser;
using testsupport::ArrayDefect;
using testsupport::make_nvsram_array_netlist;

std::unique_ptr<spice::ParsedNetlist> parse(const std::string& text) {
  NetlistParser p;
  return p.parse(text);
}

// ---- clean circuits produce empty reports -----------------------------------

TEST(Lint, CleanDividerPassesAllRules) {
  auto net = parse(
      "divider\n"
      "V1 in 0 DC 2\n"
      "R1 in out 1k\n"
      "R2 out 0 1k\n"
      ".probe v(out)\n"
      ".dc V1 0 2 5\n");
  const LintReport report = net->lint();
  EXPECT_TRUE(report.empty()) << report.format();
}

TEST(Lint, RuleCatalogHasAtLeastEightUniqueRules) {
  std::set<std::string> ids;
  for (const auto& r : lint::rule_catalog()) ids.insert(r.id);
  EXPECT_GE(ids.size(), 8u);
  EXPECT_EQ(ids.size(), lint::rule_catalog().size()) << "duplicate rule ids";
}

// ---- float-node -------------------------------------------------------------

TEST(Lint, FloatNodeFlagsDegreeOneNode) {
  auto net = parse(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "R2 out dangl 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kFloatNode);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].node, "dangl");
  EXPECT_EQ(diags[0].severity, Severity::kWarning);
  EXPECT_EQ(diags[0].line, 3);  // dangl first appears on line 3
}

// ---- no-dc-path -------------------------------------------------------------

TEST(Lint, NoDcPathFlagsCapacitorIsolatedNode) {
  auto net = parse(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "C1 out float 1p\n"
      "C2 float 0 1p\n");
  const auto diags = net->lint().by_rule(lint::rules::kNoDcPath);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_NE(diags[0].message.find("float"), std::string::npos);
}

TEST(Lint, NoDcPathGroupsIslandIntoOneDiagnostic) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R2 x y 1k\n"
      "R3 y z 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kNoDcPath);
  ASSERT_EQ(diags.size(), 1u);  // x, y, z are one island
  EXPECT_NE(diags[0].message.find("'x'"), std::string::npos);
  EXPECT_NE(diags[0].message.find("'z'"), std::string::npos);
}

// ---- vsource-loop / vsource-shorted ----------------------------------------

TEST(Lint, ParallelVoltageSourcesFlaggedAsLoop) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "V2 a 0 DC 1\n"
      "R1 a 0 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kVsourceLoop);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "V2");
  EXPECT_EQ(diags[0].line, 2);
}

TEST(Lint, CyclicVoltageSourceLoopFlagged) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "V2 a b DC 0.5\n"
      "V3 b 0 DC 0.5\n"
      "R1 b 0 1k\n");
  EXPECT_EQ(net->lint().by_rule(lint::rules::kVsourceLoop).size(), 1u);
}

TEST(Lint, VcvsOutputParticipatesInVoltageLoop) {
  auto net = parse(
      "V1 in 0 DC 1\n"
      "E1 out 0 in 0 2\n"
      "V2 out 0 DC 2\n"
      "R1 out 0 1k\n");
  EXPECT_EQ(net->lint().by_rule(lint::rules::kVsourceLoop).size(), 1u);
}

TEST(Lint, ShortedVoltageSourceFlagged) {
  auto net = parse(
      "V1 a a DC 1\n"
      "R1 a 0 1k\n"
      "V2 a 0 DC 1\n");
  const auto diags = net->lint().by_rule(lint::rules::kVsourceShorted);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "V1");
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

// ---- self-connected ---------------------------------------------------------

TEST(Lint, SelfConnectedResistorFlagged) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a a 1k\n"
      "R2 a 0 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kSelfConnected);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "R1");
}

TEST(Lint, FetWithDrainTiedToSourceFlagged) {
  auto net = parse(
      "Vd d 0 DC 0.9\n"
      "Vg g 0 DC 0.9\n"
      "M1 d g d nfin\n"
      "R1 d 0 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kSelfConnected);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "M1");
}

// ---- nonphysical-value ------------------------------------------------------

TEST(Lint, NegativeDiodeSaturationCurrentFlagged) {
  // R/C/L/FET/MTJ constructors validate and surface as located parse errors
  // (see ParserLocation below); the diode card takes is= unchecked, so it is
  // the lint rule's job to catch it.
  auto net = parse(
      "V1 a 0 DC 1\n"
      "D1 a 0 is=-1f\n"
      "R1 a 0 1k\n");
  const auto diags = net->lint().by_rule(lint::rules::kNonphysicalValue);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "D1");
  EXPECT_EQ(diags[0].severity, Severity::kError);
  EXPECT_EQ(diags[0].line, 2);
}

TEST(Lint, NonphysicalValueCatchesProgrammaticDiode) {
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add<spice::VSource>("V1", a, spice::kGround, spice::SourceSpec::dc(1.0));
  ckt.add<spice::Diode>("D1", a, spice::kGround, 0.0);
  ckt.add<spice::Resistor>("R1", a, spice::kGround, 1e3);
  const auto diags =
      lint::lint_circuit(ckt).by_rule(lint::rules::kNonphysicalValue);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "D1");
  EXPECT_EQ(diags[0].line, -1);  // no netlist: no source location
}

// ---- card-unresolved --------------------------------------------------------

TEST(Lint, DcCardWithUnknownSourceFlagged) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      ".dc Vmissing 0 1 5\n");
  const auto diags = net->lint().by_rule(lint::rules::kCardUnresolved);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

TEST(Lint, DcCardSweepingAResistorFlagged) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      ".dc R1 0 1 5\n");
  EXPECT_EQ(net->lint().by_rule(lint::rules::kCardUnresolved).size(), 1u);
}

TEST(Lint, AcCardWithUnknownSourceFlagged) {
  auto net = parse(
      "V1 a 0 DC 0\n"
      "R1 a 0 1k\n"
      ".ac Vnope 1e6 1e9\n");
  EXPECT_EQ(net->lint().by_rule(lint::rules::kCardUnresolved).size(), 1u);
}

// ---- probe-unresolved -------------------------------------------------------

TEST(Lint, ProbeOfForeignDeviceFlagged) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n");
  // Programmatic post-editing can attach probes that do not belong to this
  // circuit; the parser itself rejects unknown targets at parse time.
  spice::Circuit other;
  auto* foreign =
      other.add<spice::Resistor>("Rx", other.node("x"), spice::kGround, 1e3);
  net->add_probe(spice::Probe::device_current(foreign, "i(Rx)"));
  const auto diags = net->lint().by_rule(lint::rules::kProbeUnresolved);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].severity, Severity::kError);
}

// ---- subckt-unused-port -----------------------------------------------------

TEST(Lint, UnusedSubcktPortFlagged) {
  auto net = parse(
      "buf with dead vdd port\n"
      ".subckt buf in out vdd\n"
      "R1 in out 1k\n"
      ".ends\n"
      "V1 a 0 DC 1\n"
      "Vd d 0 DC 1\n"
      "X1 a b d buf\n");
  const auto diags = net->lint().by_rule(lint::rules::kSubcktUnusedPort);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].node, "vdd");
  EXPECT_EQ(diags[0].line, 2);  // the .subckt card
}

// ---- paper-specific topology ------------------------------------------------

TEST(Lint, MissingCrossCouplingInNvCellFlagged) {
  // 2 MTJs + 6 FETs, but every gate hangs on one driver: no cross-coupled
  // inverter pair anywhere.
  auto net = parse(
      "broken cell\n"
      "Vdd vdd 0 DC 0.9\n"
      "Vg g 0 DC 0.9\n"
      "M1 a g vdd pfin\n"
      "M2 a g 0 nfin\n"
      "M3 b g vdd pfin\n"
      "M4 b g 0 nfin\n"
      "M5 c g a nfin\n"
      "M6 d g b nfin\n"
      "Y1 0 c P\n"
      "Y2 0 d P\n");
  EXPECT_EQ(net->lint().by_rule(lint::rules::kSramCrossCoupling).size(), 1u);
}

TEST(Lint, SmallMtjCircuitsNotHeldToCellTopology) {
  auto net = parse(
      "store branch in isolation\n"
      "Vq q 0 DC 0.9\n"
      "Vsr sr 0 DC 0.65\n"
      "M1 q sr y nfin\n"
      "Y1 0 y P\n");
  EXPECT_TRUE(net->lint().by_rule(lint::rules::kSramCrossCoupling).empty());
}

TEST(Lint, MtjPinnedLayerOnStoreBranchFlagged) {
  // Swapped MTJ: pinned layer on the FET side, free layer to the driver.
  auto net = parse(
      "swapped store branch\n"
      "Vq q 0 DC 0.9\n"
      "Vsr sr 0 DC 0.65\n"
      "Vctl ctrl 0 DC 0\n"
      "M1 q sr y nfin\n"
      "Y1 y ctrl P\n");
  const auto diags = net->lint().by_rule(lint::rules::kMtjOrientation);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_EQ(diags[0].device, "Y1");
}

TEST(Lint, MtjFreeLayerOnStoreBranchAccepted) {
  auto net = parse(
      "correct store branch\n"
      "Vq q 0 DC 0.9\n"
      "Vsr sr 0 DC 0.65\n"
      "Vctl ctrl 0 DC 0\n"
      "M1 q sr y nfin\n"
      "Y1 ctrl y P\n");
  EXPECT_TRUE(net->lint().by_rule(lint::rules::kMtjOrientation).empty());
}

// ---- options: per-rule disable, severity floor ------------------------------

TEST(Lint, DisabledRuleIsSkipped) {
  auto net = parse(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "R2 out dangl 1k\n");
  LintOptions opt;
  opt.disable(lint::rules::kFloatNode);
  EXPECT_TRUE(net->lint(opt).empty());
}

TEST(Lint, MinSeverityDropsWarnings) {
  auto net = parse(
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "R2 out dangl 1k\n");
  LintOptions opt;
  opt.min_severity = Severity::kError;
  EXPECT_TRUE(net->lint(opt).empty());
}

// ---- run_* gating: fail fast before Newton ----------------------------------

TEST(LintGate, FloatingNodeNetlistRejectedBeforeSimulation) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R2 x y 1k\n"
      ".probe v(a)\n"
      ".tran 1n\n");
  EXPECT_THROW(net->run_tran(), lint::LintError);
  try {
    net->run_tran();
  } catch (const lint::LintError& e) {
    EXPECT_FALSE(e.report().by_rule(lint::rules::kNoDcPath).empty());
    EXPECT_NE(std::string(e.what()).find("no-dc-path"), std::string::npos);
  }
}

TEST(LintGate, SingularVoltageLoopRejectedAtLintTimeNotAfterNewton) {
  const char* text =
      "V1 a 0 DC 1\n"
      "V2 a 0 DC 1\n"
      "R1 a 0 1k\n";
  // With the gate on, run_op throws before any Newton iteration.
  auto gated = parse(text);
  EXPECT_THROW(gated->run_op(), lint::LintError);
  // With the gate off, the solver grinds through its strategies and comes
  // back empty-handed (`singular` path) — the behaviour lint preempts.
  auto ungated = parse(text);
  ungated->set_lint_on_run(false);
  EXPECT_FALSE(ungated->run_op().has_value());
}

TEST(LintGate, OptOutFlagAllowsDegenerateCircuits) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R2 x y 1k\n"
      ".tran 1n\n");
  net->set_lint_on_run(false);
  EXPECT_NO_THROW(net->run_tran());  // gmin keeps the island solvable
}

TEST(LintGate, PerRuleDisableAllowsTargetedOptOut) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      "R2 x y 1k\n"
      ".tran 1n\n");
  net->lint_options().disable(lint::rules::kNoDcPath)
      .disable(lint::rules::kFloatNode);
  EXPECT_NO_THROW(net->run_tran());
}

TEST(LintGate, EveryRunLintsTheNetlistAsItStands) {
  auto net = parse(
      "V1 a 0 DC 1\n"
      "R1 a 0 1k\n"
      ".tran 1n\n");
  EXPECT_NO_THROW(net->run_tran());
  // An edit after a clean run is linted on the next run: the verdict of
  // the netlist as parsed does not carry over.
  spice::Circuit& ckt = net->circuit();
  ckt.add<spice::Resistor>("R2", ckt.node("x"), ckt.node("y"), 1e3);
  EXPECT_THROW(net->run_tran(), lint::LintError);
  // So is an options change.
  net->lint_options().disable(lint::rules::kNoDcPath)
      .disable(lint::rules::kFloatNode);
  EXPECT_NO_THROW(net->run_tran());
}

// ---- parser location satellite ----------------------------------------------

TEST(ParserLocation, DuplicateDeviceNameCarriesLine) {
  NetlistParser p;
  try {
    p.parse("R1 a 0 1k\nR1 a 0 2k\n");
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ParserLocation, NegativeResistanceCarriesLine) {
  NetlistParser p;
  try {
    p.parse("t\nR1 a 0 1k\nR2 a 0 -5\n");
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("positive"), std::string::npos);
  }
}

TEST(ParserLocation, ZeroFinCountRejectedWithLine) {
  NetlistParser p;
  try {
    p.parse(
        "Vd d 0 DC 0.9\n"
        "Vg g 0 DC 0.9\n"
        "M1 d g 0 nfin fins=0\n");
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("fin_count"), std::string::npos);
  }
}

// A NaN, infinite or hexadecimal value fails as a located "bad number"
// instead of reaching the transient (or, for hex, a wrong value).
TEST(ParserLocation, NonDecimalNumbersFailOnTheirLine) {
  const char* decks[] = {
      "t\nR1 a 0 1k\nV1 a 0 DC nan\n",
      "t\nR1 a 0 1k\nC1 a 0 inf\n",
      "t\nR1 a 0 1k\n.tran nan\n",
      "t\nV1 a 0 DC 1\nR1 a 0 0x10\n",
  };
  NetlistParser p;
  for (const char* deck : decks) {
    try {
      p.parse(deck);
      ADD_FAILURE() << "expected NetlistError: " << deck;
    } catch (const spice::NetlistError& e) {
      EXPECT_EQ(e.line(), 3) << deck;
      EXPECT_NE(std::string(e.what()).find("bad number"), std::string::npos)
          << e.what();
    }
  }
}

// fins=, .dc points and .ac points-per-decade take whole numbers that fit
// an int; a fraction is not truncated and 1e30 is not cast.
TEST(ParserLocation, IntegerFieldsRejectFractionsAndOverflow) {
  const std::pair<const char*, const char*> cases[] = {
      {"t\nVd d 0 DC 0.9\nM1 d d 0 nfin fins=2.7\n", "fins"},
      {"t\nVd d 0 DC 0.9\nM1 d d 0 nfin fins=1e30\n", "fins"},
      {"t\nVd d 0 DC 0.9\nM1 d d 0 nfin fins=-3e9\n", "fins"},
      {"t\nV1 a 0 DC 1\n.dc V1 0 1 10.5\n", ".dc points"},
      {"t\nV1 a 0 DC 1\n.dc V1 0 1 1e30\n", ".dc points"},
      {"t\nV1 a 0 DC 1\n.ac V1 1e6 1e9 2.5\n", ".ac points-per-decade"},
      {"t\nV1 a 0 DC 1\n.ac V1 1e6 1e9 1e30\n", ".ac points-per-decade"},
  };
  NetlistParser p;
  for (const auto& [deck, field] : cases) {
    try {
      p.parse(deck);
      ADD_FAILURE() << "expected NetlistError: " << deck;
    } catch (const spice::NetlistError& e) {
      const std::string what = e.what();
      EXPECT_EQ(e.line(), 3) << what;
      EXPECT_NE(what.find(std::string(field) + " must be an integer"),
                std::string::npos)
          << what;
    }
  }
  // Whole numbers in any notation still parse.
  auto net = p.parse(
      "t\nVd d 0 DC 0.9\nM1 d d 0 nfin fins=2e0\n.dc Vd 0 1 1e1\n");
  ASSERT_TRUE(net->dc_card().has_value());
  EXPECT_EQ(net->dc_card()->points, 10);
}

TEST(ParserLocation, NegativeMtjTauRejectedWithLine) {
  NetlistParser p;
  try {
    p.parse(
        "V1 a 0 DC 0.2\n"
        "Y1 a 0 P tau0=-3n\n"
        "R1 a 0 1k\n");
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("positive"), std::string::npos);
  }
}

TEST(ParserLocation, SubcktBodyErrorPointsAtBodyLine) {
  NetlistParser p;
  try {
    p.parse(
        "t\n"
        ".subckt bad a\n"
        "R0 a mid 1k ; series\n"
        "R1 mid 0 -1\n"
        ".ends\n"
        "V1 in 0 DC 1\n"
        "X1 in bad\n"
        "X2 in bad\n");
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.line(), 4);  // the R card inside the body
  }
  // The second instance's body error is located on the body line too: a
  // repeated instance name collides at the body's first device.
  try {
    p.parse(
        "t\n"
        ".subckt cell a\n"
        "R1 a mid 1k ; series\n"
        "R2 mid 0 1k\n"
        ".ends\n"
        "V1 in 0 DC 1\n"
        "X1 in cell\n"
        "X1 in cell\n");
    FAIL() << "expected NetlistError";
  } catch (const spice::NetlistError& e) {
    EXPECT_EQ(e.line(), 3);
    EXPECT_NE(std::string(e.what()).find("duplicate"), std::string::npos);
  }
}

TEST(ParserLocation, DeviceAndNodeLinesRecorded) {
  auto net = parse(
      "title\n"
      "V1 in 0 DC 1\n"
      "R1 in out 1k\n"
      "R2 out 0 1k\n"
      ".subckt div a\n"
      "R1 a mid 1k ; upper leg\n"
      "R2 mid 0 1k\n"
      ".ends\n"
      "X1 out div\n"
      "X2 out div\n");
  EXPECT_EQ(net->device_line("V1"), 2);
  EXPECT_EQ(net->device_line("R2"), 4);
  EXPECT_EQ(net->node_line("out"), 3);
  EXPECT_EQ(net->device_line("nope"), -1);
  // Every instance's devices and internal nodes carry their body lines.
  EXPECT_EQ(net->device_line("X1.R1"), 6);
  EXPECT_EQ(net->device_line("X2.R1"), 6);
  EXPECT_EQ(net->device_line("X2.R2"), 7);
  EXPECT_EQ(net->node_line("X1.mid"), 6);
  EXPECT_EQ(net->node_line("X2.mid"), 6);
}

// ---- regression: every shipped netlist lints clean --------------------------

TEST(LintRegression, AllShippedNetlistsLintClean) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(NVSRAM_NETLIST_DIR)) {
    if (entry.path().extension() != ".cir") continue;
    ++seen;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream ss;
    ss << in.rdbuf();
    auto net = parse(ss.str());
    const LintReport report = net->lint();
    EXPECT_TRUE(report.empty())
        << entry.path() << " has diagnostics:\n" << report.format();
  }
  EXPECT_GE(seen, 5u) << "netlists/ should ship at least the five seeds";
}

// ---- regression: generated NV-SRAM arrays -----------------------------------
// Exact findings on tests/support/array_gen decks.  A definition-local defect
// replicates into every instance, so the counts scale with the array.

using Verdict = std::map<std::pair<std::string, Severity>, int>;

Verdict lint_verdict(const std::string& deck, const LintOptions& options = {}) {
  const LintReport report = parse(deck)->lint(options);
  Verdict v;
  for (const auto& d : report.diagnostics()) ++v[{d.rule, d.severity}];
  return v;
}

std::string describe(const Verdict& v) {
  std::ostringstream ss;
  for (const auto& [key, count] : v) {
    ss << key.first << " (" << lint::to_string(key.second) << ") x" << count
       << "\n";
  }
  return ss.str();
}

TEST(LintArrays, CleanArraysHaveNoFindings) {
  for (const int n : {4, 16, 64}) {
    const Verdict got = lint_verdict(make_nvsram_array_netlist(n, n));
    EXPECT_TRUE(got.empty()) << n << "x" << n << ":\n" << describe(got);
  }
}

TEST(LintArrays, FloatNodeDefectFindings) {
  const Verdict want = {
      {{lint::rules::kFloatNode, Severity::kWarning}, 256},
      {{lint::rules::kNoDcPath, Severity::kError}, 256},
      // The linter names at most 8 undetermined unknowns and 8 unsolvable
      // equations.
      {{lint::rules::kStructuralSingular, Severity::kError}, 16},
  };
  const Verdict got =
      lint_verdict(make_nvsram_array_netlist(16, 16, ArrayDefect::kFloatNode));
  EXPECT_EQ(got, want) << describe(got);
}

TEST(LintArrays, UnusedPortDefectFiresOncePerDefinition) {
  const Verdict want = {
      {{lint::rules::kSubcktUnusedPort, Severity::kWarning}, 1},
  };
  const Verdict got =
      lint_verdict(make_nvsram_array_netlist(16, 16, ArrayDefect::kUnusedPort));
  EXPECT_EQ(got, want) << describe(got);
}

TEST(LintArrays, BadValueDefectFindings) {
  const Verdict want = {
      {{lint::rules::kNonphysicalValue, Severity::kError}, 256},
  };
  const Verdict got =
      lint_verdict(make_nvsram_array_netlist(16, 16, ArrayDefect::kBadValue));
  EXPECT_EQ(got, want) << describe(got);
}

// The generated deck carries the NVPG-style store/gate/restore schedule; the
// .arch card switches the protocol pass's state machine, so one deck per
// architecture exercises all three temporal rule sets.
TEST(LintArrays, ArchAnnotatedDecksAreClean) {
  for (const char* arch : {"nvpg", "nof", "osr"}) {
    const Verdict got = lint_verdict(make_nvsram_array_netlist(2, 2) +
                                     ".arch " + std::string(arch) + "\n");
    EXPECT_TRUE(got.empty()) << ".arch " << arch << ":\n" << describe(got);
  }
}

TEST(LintArrays, OptionsFilterDefectFindings) {
  LintOptions options;
  options.disable(lint::rules::kFloatNode);
  options.min_severity = Severity::kWarning;
  const Verdict want = {
      {{lint::rules::kNoDcPath, Severity::kError}, 16},
      {{lint::rules::kStructuralSingular, Severity::kError}, 16},
  };
  const Verdict got = lint_verdict(
      make_nvsram_array_netlist(4, 4, ArrayDefect::kFloatNode), options);
  EXPECT_EQ(got, want) << describe(got);
}

// ---- subckt-unused-port attribution (regression) ----------------------------
// The unused-port diagnostic must fire once per definition, attributed to
// the .subckt card's line, and must treat port references in the body
// case-insensitively (ports resolve case-insensitively, so "BL" used as
// "bl" is not unused).

TEST(SubcktUnusedPort, AttributionAndCaseFolding) {
  const char* deck =
      "unused port attribution\n"
      ".subckt cell BL wl nc\n"
      "R1 bl wl 1k\n"
      ".ends\n"
      "V1 a 0 DC 1.0\n"
      "X1 a b c cell\n"
      "X2 a b c cell\n"
      "R9 b 0 1k\n"
      "R8 c 0 1k\n"
      ".end\n";
  NetlistParser parser;
  auto nl = parser.parse(deck);
  const LintReport report = nvsram::lint::lint_netlist(*nl);
  std::vector<const Diagnostic*> unused;
  for (const auto& d : report.diagnostics()) {
    if (d.rule == nvsram::lint::rules::kSubcktUnusedPort) unused.push_back(&d);
  }
  ASSERT_EQ(unused.size(), 1u)
      << "one finding per definition, not per instance";
  // "BL" is referenced as "bl" in the body: only "nc" is unused.
  EXPECT_NE(unused[0]->message.find("'nc'"), std::string::npos)
      << unused[0]->message;
  EXPECT_EQ(unused[0]->message.find("'BL'"), std::string::npos)
      << unused[0]->message;
  EXPECT_EQ(unused[0]->line, 2) << "attributed to the .subckt card line";
}

// ---- golden: formatted reports of the lint corpus ---------------------------
// Pins LintReport::format() byte for byte, as nvlint prints it, on every
// seeded-violation fixture, every shipped netlist, the 4x4 generated array
// for each defect kind, and the 8x8 array with power-intent findings on
// several rows (tests/support/power_deck.h).  Regenerate after an
// intentional diagnostic change with NVSRAM_UPDATE_GOLDENS=1 ./test_lint.

std::vector<std::filesystem::path> cir_files(const std::string& dir) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".cir") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  return files;
}

std::string read_text(const std::filesystem::path& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::string corpus_reports() {
  std::ostringstream out;
  auto add = [&out](const std::string& label, const std::string& deck) {
    out << "== " << label << "\n";
    const std::string report = parse(deck)->lint().format();
    if (!report.empty()) out << report << "\n";
  };
  for (const auto& f : cir_files(NVSRAM_BAD_NETLIST_DIR)) {
    add("tests/netlists_bad/" + f.filename().string(), read_text(f));
  }
  for (const auto& f : cir_files(NVSRAM_NETLIST_DIR)) {
    add("netlists/" + f.filename().string(), read_text(f));
  }
  const std::pair<const char*, ArrayDefect> defects[] = {
      {"clean", ArrayDefect::kNone},
      {"float-node", ArrayDefect::kFloatNode},
      {"unused-port", ArrayDefect::kUnusedPort},
      {"bad-value", ArrayDefect::kBadValue},
  };
  for (const auto& [name, defect] : defects) {
    add(std::string("array 4x4 ") + name,
        make_nvsram_array_netlist(4, 4, defect));
  }
  add("array 8x8 late word-line pulses + header bypass",
      testsupport::make_power_violation_array_netlist());
  return out.str();
}

TEST(LintGolden, ReportsMatchCheckedInFile) {
  const std::string actual = corpus_reports();
  const std::string path =
      std::string(NVSRAM_GOLDEN_DIR) + "/lint_reports.txt";
  if (std::getenv("NVSRAM_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run NVSRAM_UPDATE_GOLDENS=1 ./test_lint once and commit it";
  std::ostringstream ss;
  ss << in.rdbuf();
  const std::string golden = ss.str();
  if (golden == actual) return;
  // Name the first differing line rather than dumping both reports.
  std::istringstream g(golden), a(actual);
  std::string gl, al;
  for (int line = 1;; ++line) {
    const bool gok = static_cast<bool>(std::getline(g, gl));
    const bool aok = static_cast<bool>(std::getline(a, al));
    if (gok != aok || gl != al) {
      ADD_FAILURE() << path << " line " << line << " differs\n  golden: "
                    << (gok ? gl : "<end>") << "\n  actual: "
                    << (aok ? al : "<end>");
      return;
    }
    if (!gok) break;
  }
  ADD_FAILURE() << path << " differs from the reports (trailing newline)";
}

// The 8x8 deck is the only corpus entry that fires the power-intent rules on
// a multi-row array; keep it doing so.
TEST(LintGolden, PowerDeckFiresAcrossRows) {
  const Verdict got =
      lint_verdict(testsupport::make_power_violation_array_netlist());
  auto errors = [&got](const char* rule) {
    const auto it = got.find({rule, Severity::kError});
    return it == got.end() ? 0 : it->second;
  };
  EXPECT_EQ(errors(lint::rules::kPowerWlInOffWindow), 2) << describe(got);
  EXPECT_EQ(errors(lint::rules::kPowerSneakPath), 18) << describe(got);
  EXPECT_EQ(errors(lint::rules::kDataReadBeforeRestore), 1) << describe(got);
}

}  // namespace
}  // namespace nvsram
