// Retention-state dataflow analyzer tests (the data-* rule family).
//
// Four layers, mirroring test_power.cpp:
//  * rule registry — the data family is in the catalog with the documented
//    severities (data-redundant-store is the one energy advisory);
//  * options — DataflowOptions::from_paper derives the CIMS switching time
//    from the paper's overdrive, with the sub-critical fallback;
//  * seeded violations — one netlist per data-* rule under
//    tests/netlists_bad/, each asserting device, line, and phase
//    attribution;
//  * no false positives — the shipped netlists/ corpus and all three
//    benchmark schedules produce zero data-* diagnostics.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/dataflow/check.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "models/mtj.h"
#include "models/paper_params.h"
#include "spice/netlist_parser.h"
#include "sram/schedules.h"
#include "sram/testbench.h"

namespace nvsram::lint::dataflow {
namespace {

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

bool any_data_rule(const std::vector<Diagnostic>& diags) {
  for (const auto& d : diags) {
    if (d.rule.rfind("data-", 0) == 0) return true;
  }
  return false;
}

// ---- rule registry ----------------------------------------------------------

TEST(DataRules, CatalogHasTheDataFamily) {
  const char* ids[] = {rules::kDataLostInOffWindow, rules::kDataStaleRestore,
                       rules::kDataReadBeforeRestore,
                       rules::kDataRedundantStore, rules::kDataStoreTruncated};
  for (const char* id : ids) {
    EXPECT_STREQ(rule_family(id), "data") << id;
    const RuleInfo* info = find_rule(id);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_STRNE(info->description, "") << id;
    EXPECT_STRNE(info->fixture, "") << id;
  }
}

TEST(DataRules, SeveritiesMatchTheContract) {
  // Losing, staling, or misreading a bit is a correctness error; a redundant
  // store is correct-but-wasteful, so it stays an advisory warning.
  EXPECT_EQ(default_severity(rules::kDataLostInOffWindow), Severity::kError);
  EXPECT_EQ(default_severity(rules::kDataStaleRestore), Severity::kError);
  EXPECT_EQ(default_severity(rules::kDataReadBeforeRestore),
            Severity::kError);
  EXPECT_EQ(default_severity(rules::kDataStoreTruncated), Severity::kError);
  EXPECT_EQ(default_severity(rules::kDataRedundantStore),
            Severity::kWarning);
}

// ---- options ----------------------------------------------------------------

TEST(DataflowOptionsTest, FromPaperDerivesTheCimsSwitchingTime) {
  const models::PaperParams pp;
  const DataflowOptions opt = DataflowOptions::from_paper(pp);
  EXPECT_DOUBLE_EQ(opt.vdd, pp.vdd);
  EXPECT_DOUBLE_EQ(opt.clock_period, pp.clock_period());
  // At 1.5x overdrive the precessional closure gives tau0 / 0.5 = 2 tau0.
  EXPECT_DOUBLE_EQ(opt.mtj_write_pulse,
                   pp.mtj.tau0 / (pp.store_current_factor - 1.0));
  EXPECT_DOUBLE_EQ(opt.store_energy_hint, 0.0);
}

TEST(DataflowOptionsTest, RequiredStorePulseFallsBackBelowCritical) {
  models::MTJParams mtj;
  mtj.tau0 = 3e-9;
  EXPECT_DOUBLE_EQ(DataflowOptions::required_store_pulse(mtj, 2.0, 10e-9),
                   3e-9);
  // At or below the critical current the switch never completes: the
  // configured store pulse is the only defensible requirement.
  EXPECT_DOUBLE_EQ(DataflowOptions::required_store_pulse(mtj, 1.0, 10e-9),
                   10e-9);
  EXPECT_DOUBLE_EQ(DataflowOptions::required_store_pulse(mtj, 0.5, 10e-9),
                   10e-9);
}

// ---- seeded violations ------------------------------------------------------

struct Seeded {
  const char* file;
  const char* rule;
  const char* device;  // driving signal named by the diagnostic
  int line;            // 1-based line of that signal in the fixture
  const char* phase;
};

// Names the case in the test's ctest name; gtest would print the struct's
// bytes, pointers included, which change from run to run.
void PrintTo(const Seeded& s, std::ostream* os) {
  *os << s.file << " -> " << s.rule << " at " << s.device << ":" << s.line
      << " in " << s.phase;
}

class DataSeeded : public ::testing::TestWithParam<Seeded> {};

TEST_P(DataSeeded, FiresWithDeviceLineAndPhase) {
  const Seeded& s = GetParam();
  const auto net = parse_bad(s.file);
  ASSERT_NE(net, nullptr);
  const auto diags = net->lint().by_rule(s.rule);
  ASSERT_EQ(diags.size(), 1u)
      << s.file << " should fire " << s.rule << " exactly once:\n"
      << net->lint().format();
  EXPECT_EQ(diags[0].device, s.device) << s.file;
  EXPECT_EQ(diags[0].line, s.line) << s.file;
  EXPECT_EQ(diags[0].phase, s.phase) << s.file;
}

INSTANTIATE_TEST_SUITE_P(
    Fixtures, DataSeeded,
    ::testing::Values(
        Seeded{"bad_data_lost.cir", rules::kDataLostInOffWindow, "Vpg", 20,
               "power-off"},
        Seeded{"bad_data_stale_restore.cir", rules::kDataStaleRestore, "Vsr",
               25, "restore"},
        Seeded{"bad_data_read_before_restore.cir",
               rules::kDataReadBeforeRestore, "Vwl", 22, "active"},
        Seeded{"bad_data_redundant_store.cir", rules::kDataRedundantStore,
               "Vsr", 23, "store"},
        Seeded{"bad_data_store_truncated.cir", rules::kDataStoreTruncated,
               "Vsr", 23, "store"}),
    [](const ::testing::TestParamInfo<Seeded>& seeded) {
      std::string name = seeded.param.rule;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST(DataSeededDetail, LostBitNamesBothGenerations) {
  // The lost-bit proof is only useful if it says *which* write dies and what
  // the MTJs still hold — lock the generation bookkeeping in the message.
  const auto net = parse_bad("bad_data_lost.cir");
  const auto diags = net->lint().by_rule(rules::kDataLostInOffWindow);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("generation 2"), std::string::npos)
      << diags[0].message;
  EXPECT_NE(diags[0].message.find("the MTJs hold 1"), std::string::npos)
      << diags[0].message;
}

TEST(DataSeededDetail, TruncatedStoreReportsNeverStored) {
  // A truncated-only schedule has no completed store at all: the NV side
  // must be reported as never written, not as generation 0.
  const auto net = parse_bad("bad_data_store_truncated.cir");
  const auto diags = net->lint().by_rule(rules::kDataStoreTruncated);
  ASSERT_EQ(diags.size(), 1u);
  EXPECT_NE(diags[0].message.find("(never stored)"), std::string::npos)
      << diags[0].message;
}

// ---- no false positives -----------------------------------------------------

TEST(DataRegression, CorpusNetlistsHaveNoDataFindings) {
  namespace fs = std::filesystem;
  std::size_t seen = 0;
  for (const auto& entry : fs::directory_iterator(NVSRAM_NETLIST_DIR)) {
    if (entry.path().extension() != ".cir") continue;
    ++seen;
    const auto net = parse_file(entry.path().string());
    const LintReport report = net->lint();
    EXPECT_FALSE(any_data_rule(report.diagnostics()))
        << entry.path() << " has data-* findings:\n" << report.format();
  }
  EXPECT_GE(seen, 4u);
}

TEST(DataRegression, BenchmarkSchedulesHaveNoDataFindings) {
  const models::PaperParams pp;
  const DataflowOptions opt = DataflowOptions::from_paper(pp);
  for (const sram::BenchArch arch :
       {sram::BenchArch::kNVPG, sram::BenchArch::kNOF,
        sram::BenchArch::kOSR}) {
    const auto tb =
        sram::build_benchmark_schedule(arch, pp, sram::ScheduleParams{});
    const auto diags =
        check_dataflow(tb->export_timeline(), opt, &tb->circuit(), nullptr);
    EXPECT_TRUE(diags.empty())
        << sram::to_string(arch) << " bench has data-* findings ("
        << diags.size() << "), first: "
        << (diags.empty() ? "" : diags.front().message);
  }
}

TEST(DataRegression, VolatileOnlyDeckIsOutOfScope) {
  // No MTJ, no nonvolatile contract: the pass must not invent one for a
  // volatile latch deck with a transient card.
  const auto net =
      parse_file(std::string(NVSRAM_NETLIST_DIR) + "/sram_latch.cir");
  ASSERT_NE(net, nullptr);
  EXPECT_FALSE(any_data_rule(net->lint().diagnostics()))
      << net->lint().format();
}

}  // namespace
}  // namespace nvsram::lint::dataflow
