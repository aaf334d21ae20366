// Power-intent static analyzer tests.
//
// Five layers:
//  * domain extraction — the Fig. 2 cell netlist partitions into an
//    always-on supply domain and the gated vvdd domain behind Mpsw;
//  * abstract power state — the off window follows the PS gate PWL through
//    the 0.5*VDD threshold, plus unit tests of the window algebra;
//  * seeded violations — one netlist per power-* rule in
//    tests/netlists_bad/, each asserting line/phase attribution, plus the
//    float-node dedupe regression for power-domain-floating;
//  * entry points — the protocol, power and dataflow passes given the
//    linter's shared Schedule report exactly what their standalone forms
//    report, and an NMOS footer's gate line is read with its own polarity;
//  * no false positives — the shipped netlists/ corpus and all three
//    benchmark schedules produce zero power-* diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/dataflow/check.h"
#include "lint/power/check.h"
#include "lint/power/domain.h"
#include "lint/power/state.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "lint/schedule.h"
#include "lint/temporal/protocol.h"
#include "lint/temporal/timeline.h"
#include "models/paper_params.h"
#include "spice/circuit.h"
#include "spice/netlist_parser.h"
#include "sram/schedules.h"
#include "sram/testbench.h"
#include "support/power_deck.h"

namespace nvsram::lint::power {
namespace {

using temporal::Window;

std::unique_ptr<spice::ParsedNetlist> parse_file(const std::string& path) {
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  spice::NetlistParser parser;
  return parser.parse(ss.str());
}

std::unique_ptr<spice::ParsedNetlist> parse_bad(const char* file) {
  return parse_file(std::string(NVSRAM_BAD_NETLIST_DIR) + "/" + file);
}

std::vector<Diagnostic> of_rule(const std::vector<Diagnostic>& diags,
                                const char* rule) {
  std::vector<Diagnostic> out;
  for (const auto& d : diags) {
    if (d.rule == rule) out.push_back(d);
  }
  return out;
}

bool any_power_rule(const std::vector<Diagnostic>& diags) {
  for (const auto& d : diags) {
    if (d.rule.rfind("power-", 0) == 0) return true;
  }
  return false;
}

// ---- rule registry ----------------------------------------------------------

TEST(PowerRules, CatalogHasThePowerFamily) {
  const char* ids[] = {rules::kPowerWlInOffWindow, rules::kPowerSneakPath,
                       rules::kPowerMissingIsolation,
                       rules::kPowerDomainFloating,
                       rules::kPowerSharedRailConflict};
  for (const char* id : ids) {
    EXPECT_STREQ(rule_family(id), "power") << id;
    bool found = false;
    for (const auto& r : rule_catalog()) {
      if (std::string(r.id) == id) found = true;
    }
    EXPECT_TRUE(found) << id << " missing from rule_catalog()";
  }
  EXPECT_EQ(default_severity(rules::kPowerWlInOffWindow), Severity::kError);
  EXPECT_EQ(default_severity(rules::kPowerSneakPath), Severity::kError);
  EXPECT_EQ(default_severity(rules::kPowerDomainFloating), Severity::kError);
  EXPECT_EQ(default_severity(rules::kPowerMissingIsolation),
            Severity::kWarning);
  EXPECT_EQ(default_severity(rules::kPowerSharedRailConflict),
            Severity::kWarning);
}

// ---- window algebra ---------------------------------------------------------

TEST(WindowAlgebra, IntersectUnionSubtract) {
  const std::vector<Window> a = {{0.0, 10.0}, {20.0, 30.0}};
  const std::vector<Window> b = {{5.0, 25.0}};

  const auto inter = windows_intersect(a, b);
  ASSERT_EQ(inter.size(), 2u);
  EXPECT_DOUBLE_EQ(inter[0].t0, 5.0);
  EXPECT_DOUBLE_EQ(inter[0].t1, 10.0);
  EXPECT_DOUBLE_EQ(inter[1].t0, 20.0);
  EXPECT_DOUBLE_EQ(inter[1].t1, 25.0);

  const auto uni = windows_union(a, b);
  ASSERT_EQ(uni.size(), 1u);
  EXPECT_DOUBLE_EQ(uni[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(uni[0].t1, 30.0);

  const auto sub = windows_subtract(a, b);
  ASSERT_EQ(sub.size(), 2u);
  EXPECT_DOUBLE_EQ(sub[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(sub[0].t1, 5.0);
  EXPECT_DOUBLE_EQ(sub[1].t0, 25.0);
  EXPECT_DOUBLE_EQ(sub[1].t1, 30.0);
}

TEST(WindowAlgebra, EmptyOperands) {
  const std::vector<Window> a = {{1.0, 2.0}};
  EXPECT_TRUE(windows_intersect(a, {}).empty());
  EXPECT_TRUE(windows_intersect({}, a).empty());
  EXPECT_TRUE(windows_subtract({}, a).empty());
  ASSERT_EQ(windows_union({}, a).size(), 1u);
  ASSERT_EQ(windows_subtract(a, {}).size(), 1u);
}

TEST(WindowAlgebra, AdjacentHalfOpenWindowsShareNoPoint) {
  // Windows are half-open [t0, t1): [0,10) and [10,20) touch at t=10 but
  // overlap nowhere, so their intersection is empty, their union is the
  // single seam-free window [0,20), and subtracting one from the other is
  // the identity.
  const std::vector<Window> a = {{0.0, 10.0}};
  const std::vector<Window> b = {{10.0, 20.0}};

  EXPECT_TRUE(windows_intersect(a, b).empty());
  EXPECT_TRUE(windows_intersect(b, a).empty());

  const auto uni = windows_union(a, b);
  ASSERT_EQ(uni.size(), 1u);
  EXPECT_DOUBLE_EQ(uni[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(uni[0].t1, 20.0);

  const auto sub = windows_subtract(a, b);
  ASSERT_EQ(sub.size(), 1u);
  EXPECT_DOUBLE_EQ(sub[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(sub[0].t1, 10.0);
}

TEST(WindowAlgebra, OffAtUsesHalfOpenBoundaries) {
  // off_at must agree with the same convention: the instant of gate-off
  // belongs to the off window, the instant recovery completes does not.
  // An event exactly at a seam between adjacent windows is therefore
  // counted exactly once.
  DomainSchedule sched;
  sched.off = {{10.0, 20.0}, {20.0, 30.0}};
  EXPECT_FALSE(sched.off_at(9.999999));
  EXPECT_TRUE(sched.off_at(10.0));   // collapse edge: off
  EXPECT_TRUE(sched.off_at(20.0));   // seam: owned by the second window
  EXPECT_TRUE(sched.off_at(29.999999));
  EXPECT_FALSE(sched.off_at(30.0));  // recovery complete: on again
  EXPECT_FALSE(sched.off_at(35.0));
}

// ---- domain extraction on the Fig. 2 cell -----------------------------------

TEST(DomainExtraction, Fig2CellSplitsAtThePowerSwitch) {
  const auto net =
      parse_file(std::string(NVSRAM_NETLIST_DIR) + "/nvsram_cell_full.cir");
  const DomainMap map = extract_domains(net->circuit(), net.get());

  const PowerDomain* gated = map.find("vvdd");
  ASSERT_NE(gated, nullptr) << map.describe(net->circuit());
  EXPECT_EQ(gated->kind, DomainKind::kGated);
  ASSERT_EQ(gated->switches.size(), 1u);
  EXPECT_EQ(gated->switches[0].fet->name(), "Mpsw");
  EXPECT_TRUE(gated->switches[0].pmos);
  EXPECT_EQ(gated->switches[0].gate_signal, "Vpg");

  // The storage nodes sit inside the gated domain; the header's supply side
  // stays always-on, and driven signal nets belong to neither.
  const auto& ckt = net->circuit();
  const int gid = gated->id;
  EXPECT_EQ(map.domain_of(ckt.find_node("Xcell.q")), gid);
  EXPECT_EQ(map.domain_of(ckt.find_node("Xcell.qb")), gid);
  const int vdd_dom = map.domain_of(ckt.find_node("vdd"));
  ASSERT_GE(vdd_dom, 0);
  EXPECT_EQ(map.domains[static_cast<std::size_t>(vdd_dom)].kind,
            DomainKind::kAlwaysOn);
  EXPECT_EQ(gated->parent, vdd_dom);
  EXPECT_LT(map.domain_of(ckt.find_node("wl")), 0);
}

TEST(PowerStateAbstraction, OffWindowFollowsTheGateRamp) {
  const auto net =
      parse_file(std::string(NVSRAM_NETLIST_DIR) + "/nvsram_cell_full.cir");
  const DomainMap map = extract_domains(net->circuit(), net.get());
  const temporal::Timeline tl = temporal::extract_timeline(*net);
  const PowerState state = compute_power_state(map, tl);

  // VDD derives from the power-role sources (0.9 V), threshold is half.
  EXPECT_DOUBLE_EQ(state.vdd, 0.9);
  EXPECT_DOUBLE_EQ(state.threshold, 0.45);

  const PowerDomain* gated = map.find("vvdd");
  ASSERT_NE(gated, nullptr);
  const DomainSchedule& sched = state.of(gated->id);
  EXPECT_FALSE(sched.always_on());
  // Vpg: PWL(60n 0  60.5n 1.0  2105n 1.0  2105.5n 0) crosses 0.45 V at
  // 60.225 ns rising and 2105.275 ns falling.
  ASSERT_EQ(sched.off.size(), 1u);
  EXPECT_NEAR(sched.off[0].t0, 60.225e-9, 1e-12);
  EXPECT_NEAR(sched.off[0].t1, 2105.275e-9, 1e-12);
  EXPECT_TRUE(sched.off_at(1.0e-6));
  EXPECT_FALSE(sched.off_at(10.0e-9));
}

// ---- seeded violations ------------------------------------------------------

TEST(PowerSeeded, WordlineAssertsInsideTheOffWindow) {
  const auto net = parse_bad("bad_wl_in_off_window.cir");
  const LintReport report = net->lint();
  const auto hits =
      of_rule(report.diagnostics(), rules::kPowerWlInOffWindow);
  ASSERT_EQ(hits.size(), 1u) << report.format();
  EXPECT_EQ(hits[0].line, 22);  // the Vwl card with the 1000 ns pulse
  EXPECT_FALSE(hits[0].phase.empty());
  EXPECT_NE(hits[0].message.find("word line 'Vwl'"), std::string::npos)
      << hits[0].message;
  EXPECT_NE(hits[0].message.find("vvdd"), std::string::npos);
}

TEST(PowerSeeded, BypassResistorIsASneakPath) {
  const auto net = parse_bad("bad_sneak_path.cir");
  const LintReport report = net->lint();
  const auto hits = of_rule(report.diagnostics(), rules::kPowerSneakPath);
  ASSERT_GE(hits.size(), 1u) << report.format();
  // The strap itself is the first conducting edge out of the held supply.
  EXPECT_EQ(hits[0].device, "Rbyp");
  EXPECT_GT(hits[0].line, 0);
  EXPECT_FALSE(hits[0].phase.empty());
  EXPECT_NE(hits[0].message.find("vdd -> vvdd"), std::string::npos)
      << hits[0].message;
}

TEST(PowerSeeded, UnisolatedReceiverGetsAWarning) {
  const auto net = parse_bad("bad_missing_isolation.cir");
  const LintReport report = net->lint();
  EXPECT_FALSE(report.has_errors()) << report.format();
  const auto hits =
      of_rule(report.diagnostics(), rules::kPowerMissingIsolation);
  ASSERT_EQ(hits.size(), 1u) << report.format();
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].device, "Xcell.Mko");
  EXPECT_EQ(hits[0].line, 17);
  EXPECT_FALSE(hits[0].phase.empty());
}

TEST(PowerSeeded, DeclaredRailWithoutSupplyFloats) {
  const auto net = parse_bad("bad_domain_floating.cir");
  const LintReport report = net->lint();
  const auto hits =
      of_rule(report.diagnostics(), rules::kPowerDomainFloating);
  ASSERT_EQ(hits.size(), 1u) << report.format();
  EXPECT_EQ(hits[0].line, 20);  // the .domain card
  EXPECT_EQ(hits[0].node, "vvdd");
}

TEST(PowerSeeded, TwoGateSchedulesOnOneRailConflict) {
  const auto net = parse_bad("bad_shared_rail.cir");
  const LintReport report = net->lint();
  const auto hits =
      of_rule(report.diagnostics(), rules::kPowerSharedRailConflict);
  ASSERT_EQ(hits.size(), 1u) << report.format();
  EXPECT_EQ(hits[0].severity, Severity::kWarning);
  EXPECT_EQ(hits[0].device, "Mpsw2");  // the later, disagreeing switch
  EXPECT_GT(hits[0].line, 0);
}

// ---- float-node dedupe regression -------------------------------------------
// A dangling declared rail is already reported by the structural rules; the
// power pass must not restate it — but the underlying check still fires when
// nothing else claimed the node.

TEST(PowerDedupe, StructuralRulesSuppressDomainFloating) {
  const char* src =
      "dedupe: float-node already reports the dangling declared rail\n"
      "Vdd vdd 0 DC 0.9\n"
      "R1 vdd out 1k\n"
      "R2 out 0 1k\n"
      "C1 flt 0 1p\n"
      ".domain flt cell gated\n"
      ".tran 100n 1n\n"
      ".end\n";
  spice::NetlistParser parser;
  const auto net = parser.parse(src);

  const LintReport report = net->lint();
  EXPECT_FALSE(of_rule(report.diagnostics(), rules::kFloatNode).empty())
      << report.format();
  EXPECT_TRUE(
      of_rule(report.diagnostics(), rules::kPowerDomainFloating).empty())
      << "power-domain-floating must dedupe against float-node:\n"
      << report.format();

  // The rule itself still knows the rail floats: with no structural report
  // to defer to, check_power restates it.
  const temporal::Timeline tl = temporal::extract_timeline(*net);
  const auto direct = check_power(net->circuit(), tl, net.get(), {});
  EXPECT_FALSE(of_rule(direct, rules::kPowerDomainFloating).empty());
}

// ---- shared vs standalone entry points --------------------------------------
// The linter builds one Schedule (off windows, accesses, SR pulses, the
// domain map and its power state) and hands it to the protocol, power and
// dataflow passes.  The benchmark calls the standalone forms, which build
// their own; the two must report the same diagnostics, field for field and
// in order.

std::vector<std::string> rendered(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags) {
    out.push_back(d.format() + " |device=" + d.device + " |node=" + d.node);
  }
  return out;
}

// bad_data_lost.cir's schedule, gated either by a PMOS header on the cell's
// supply (off while Vpg is high) or by an NMOS footer on its ground (off
// while Vpg is low).  Either way the write at 30 ns is never stored, so the
// 60 ns gate-off loses it.
std::string gated_cell_deck(bool footer) {
  std::string deck =
      "gated cell: write, store, write, gate-off\n"
      ".subckt nvcell bl blb wl vhi vlo sr ctrl\n"
      "Mpu1 q  qb vhi pfin\n"
      "Mpd1 q  qb vlo nfin\n"
      "Mpu2 qb q  vhi pfin\n"
      "Mpd2 qb q  vlo nfin\n"
      "Max1 bl  wl q  nfin\n"
      "Max2 blb wl qb nfin\n"
      "Mps1 q  sr y1 nfin\n"
      "Y1   ctrl y1 P\n"
      "Mps2 qb sr y2 nfin\n"
      "Y2   ctrl y2 P\n"
      ".ends\n"
      "Vdd  vdd 0 DC 0.9\n";
  deck += footer
              ? "Vpg  pg  0 PWL(0 0.9 60n 0.9 60.5n 0 2105n 0 2105.5n 0.9)\n"
                "Mft  vvss pg 0 nfin fins=7\n"
                "Xcell bl blb wl vdd vvss sr ctrl nvcell\n"
              : "Vpg  pg  0 PWL(60n 0 60.5n 1.0 2105n 1.0 2105.5n 0)\n"
                "Mpsw vvdd pg vdd pfin fins=7 vth=0.40\n"
                "Xcell bl blb wl vvdd 0 sr ctrl nvcell\n";
  deck +=
      "Vwl  wl  0 PWL(1n 0 1.05n 0.9 3n 0.9 3.05n 0"
      " 30n 0 30.05n 0.9 32n 0.9 32.05n 0)\n"
      "Vbl  bl  0 DC 0.9\n"
      "Vblb blb 0 PWL(0.5n 0.9 0.6n 0 3.4n 0 3.5n 0.9"
      " 29.5n 0.9 29.6n 0 32.4n 0 32.5n 0.9)\n"
      "Vsr  sr  0 PWL(10n 0 10.2n 0.65 17n 0.65 17.2n 0)\n"
      "Vctl ctrl 0 DC 0\n"
      ".tran 2120n 10n\n"
      ".end\n";
  return deck;
}

TEST(PowerEntryPoints, SharedTimelineAndDomainsMatchStandalone) {
  namespace fs = std::filesystem;
  std::vector<fs::path> bad;
  for (const auto& entry : fs::directory_iterator(NVSRAM_BAD_NETLIST_DIR)) {
    if (entry.path().extension() == ".cir") bad.push_back(entry.path());
  }
  ASSERT_GE(bad.size(), 30u);
  std::sort(bad.begin(), bad.end());
  std::vector<std::pair<std::string, std::unique_ptr<spice::ParsedNetlist>>>
      decks;
  for (const auto& path : bad) {
    decks.emplace_back(path.filename().string(), parse_file(path.string()));
  }
  spice::NetlistParser parser;
  decks.emplace_back(
      "8x8 power deck",
      parser.parse(testsupport::make_power_violation_array_netlist()));
  // Only the domain map knows that Vpg drives an NMOS footer, which cuts
  // the cell's ground while the line is low.
  const std::string footer = "footer deck";
  decks.emplace_back(footer, parser.parse(gated_cell_deck(true)));

  std::size_t n_protocol = 0, n_power = 0, n_data = 0;
  for (const auto& [name, net] : decks) {
    SCOPED_TRACE(name);
    const spice::ParsedNetlist& nl = *net;
    const spice::Circuit& ckt = nl.circuit();
    const temporal::Timeline tl = temporal::extract_timeline(nl);
    const temporal::TemporalOptions topt;
    const Schedule shared(tl, topt.vdd, topt.clock_period, &ckt, &nl);

    const auto protocol_alone = temporal::check_timeline(tl, topt);
    if (name == footer) {
      // Without a circuit the protocol pass reads the footer's line as a
      // header's: only a Schedule with the domain map gets it right.
      EXPECT_NE(rendered(temporal::check_timeline(tl, topt, &shared)),
                rendered(protocol_alone));
    } else {
      EXPECT_EQ(rendered(temporal::check_timeline(tl, topt, &shared)),
                rendered(protocol_alone));
    }
    const auto power_alone = check_power(ckt, tl, &nl, {});
    EXPECT_EQ(rendered(check_power(ckt, tl, &nl, {}, &shared)),
              rendered(power_alone));
    const dataflow::DataflowOptions dopt;
    const auto data_alone = dataflow::check_dataflow(tl, dopt, &ckt, &nl);
    EXPECT_EQ(
        rendered(dataflow::check_dataflow(tl, dopt, &ckt, &nl, &shared)),
        rendered(data_alone));
    n_protocol += protocol_alone.size();
    n_power += power_alone.size();
    n_data += data_alone.size();
  }
  // Every pass has findings to compare somewhere in the corpus.
  EXPECT_GT(n_protocol, 0u);
  EXPECT_GT(n_power, 0u);
  EXPECT_GT(n_data, 0u);
}

// A footer's gate line is read low-is-off: the footer twin reports the
// header twin's lost write at the same gate-off edge, and neither reports
// a store pulse inside a power-off window.
TEST(PowerEntryPoints, FooterAndHeaderTwinsLoseTheSameWrite) {
  for (const bool footer : {false, true}) {
    SCOPED_TRACE(footer ? "NMOS footer" : "PMOS header");
    spice::NetlistParser parser;
    const auto net = parser.parse(gated_cell_deck(footer));
    const LintReport report = net->lint();
    for (const char* rule :
         {rules::kProtocolStoreMissing, rules::kDataLostInOffWindow}) {
      const auto found = of_rule(report.diagnostics(), rule);
      ASSERT_EQ(found.size(), 1u) << rule << "\n" << report.format();
      EXPECT_NE(found[0].message.find("power gated off at 60.000 ns"),
                std::string::npos)
          << found[0].message;
    }
    EXPECT_TRUE(
        of_rule(report.diagnostics(), rules::kProtocolRestoreOrder).empty())
        << report.format();
  }
}

// ---- no false positives -----------------------------------------------------

TEST(PowerRegression, ShippedNetlistsHaveNoPowerFindings) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(NVSRAM_NETLIST_DIR)) {
    if (entry.path().extension() != ".cir") continue;
    ++seen;
    const auto net = parse_file(entry.path().string());
    const LintReport report = net->lint();
    EXPECT_FALSE(any_power_rule(report.diagnostics()))
        << entry.path() << " has power-* findings:\n" << report.format();
  }
  EXPECT_GE(seen, 4u);
}

TEST(PowerRegression, BenchmarkSchedulesHaveNoPowerFindings) {
  const models::PaperParams pp;
  for (const sram::BenchArch arch :
       {sram::BenchArch::kNVPG, sram::BenchArch::kNOF,
        sram::BenchArch::kOSR}) {
    const auto tb =
        sram::build_benchmark_schedule(arch, pp, sram::ScheduleParams{});
    const auto diags =
        check_power(tb->circuit(), tb->export_timeline(), nullptr, {});
    EXPECT_TRUE(diags.empty())
        << sram::to_string(arch) << " bench has power-* findings ("
        << diags.size() << "), first: "
        << (diags.empty() ? "" : diags.front().message);
  }
}

}  // namespace
}  // namespace nvsram::lint::power
