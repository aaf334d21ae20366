// Temporal protocol analyzer tests.
//
// Three layers:
//  * golden timelines — the exported stimulus timelines of the fig. 7/8/9
//    benchmark schedules at (n_RW, t_SL, t_SD) corners, pinned against
//    tests/golden/timelines/*.txt.  Regenerate after an intentional schedule
//    change with NVSRAM_UPDATE_GOLDENS=1 ./test_temporal;
//  * negative tests — one per protocol-* / units-* rule, on hand-built
//    timelines, scheduled testbenches, and the seeded-violation netlists in
//    tests/netlists_bad/;
//  * plumbing — rule catalog families, the characterization gate, and the
//    process-wide characterization cache.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <ostream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "lint/linter.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "lint/temporal/protocol.h"
#include "lint/temporal/timeline.h"
#include "lint/temporal/units_check.h"
#include "models/paper_params.h"
#include "spice/netlist_parser.h"
#include "sram/characterize_cache.h"
#include "sram/schedules.h"

namespace nvsram::lint::temporal {
namespace {

using sram::BenchArch;
using sram::ScheduleParams;

// ---- helpers ----

SignalTimeline make_signal(std::string name, SignalRole role, double initial,
                           std::vector<Transition> trs) {
  SignalTimeline s;
  s.name = std::move(name);
  s.role = role;
  s.initial = initial;
  s.transitions = std::move(trs);
  return s;
}

std::vector<std::string> rules_of(const std::vector<Diagnostic>& diags) {
  std::vector<std::string> out;
  for (const auto& d : diags) out.push_back(d.rule);
  return out;
}

bool has_rule(const std::vector<Diagnostic>& diags, const char* rule) {
  for (const auto& d : diags) {
    if (d.rule == rule) return true;
  }
  return false;
}

const Diagnostic& find_rule(const std::vector<Diagnostic>& diags,
                            const char* rule) {
  for (const auto& d : diags) {
    if (d.rule == rule) return d;
  }
  throw std::runtime_error(std::string("diagnostic not found: ") + rule);
}

// The effective lint config of one bench deck (mirrors `nvlint --bench`).
TemporalOptions bench_options(BenchArch arch, const models::PaperParams& pp) {
  auto opt = TemporalOptions::from_paper(pp);
  const sram::TestbenchOptions tb_opts;
  switch (arch) {
    case BenchArch::kNVPG:
      opt.arch = TemporalOptions::Arch::kNVPG;
      break;
    case BenchArch::kNOF:
      opt.arch = TemporalOptions::Arch::kNOF;
      opt.clock_period += 2.0 * (pp.store_pulse + tb_opts.store_margin);
      break;
    case BenchArch::kOSR:
      opt.arch = TemporalOptions::Arch::kOSR;
      break;
  }
  return opt;
}

std::vector<Diagnostic> lint_bench_deck(BenchArch arch,
                                        const models::PaperParams& pp,
                                        const ScheduleParams& sp) {
  const auto tb = sram::build_benchmark_schedule(arch, pp, sp);
  const Timeline tl = tb->export_timeline();
  std::vector<Diagnostic> out = check_timeline(tl, bench_options(arch, pp));
  for (auto& d : check_timeline_units(tl)) out.push_back(std::move(d));
  for (auto& d : check_paper_params(pp)) out.push_back(std::move(d));
  return out;
}

// ---- golden timelines (Figs. 7-9 schedule corners) ----

std::string golden_path(const std::string& name) {
  return std::string(NVSRAM_GOLDEN_DIR) + "/timelines/" + name;
}

void expect_matches_golden(const std::string& name, const std::string& actual) {
  const std::string path = golden_path(name);
  if (std::getenv("NVSRAM_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.good())
      << "missing golden " << path
      << " — run NVSRAM_UPDATE_GOLDENS=1 ./test_temporal once and commit it";
  std::ostringstream ss;
  ss << in.rdbuf();
  EXPECT_EQ(ss.str(), actual)
      << "timeline drifted from " << path
      << " — if the schedule change is intentional, regenerate with "
         "NVSRAM_UPDATE_GOLDENS=1 ./test_temporal";
}

struct Corner {
  const char* tag;
  ScheduleParams sp;
};

const Corner kCorners[] = {
    {"n1_sl50n_sd500n", {1, 50e-9, 500e-9}},
    {"n2_sl100n_sd1u", {2, 100e-9, 1e-6}},
};

class GoldenTimeline : public ::testing::TestWithParam<BenchArch> {};

TEST_P(GoldenTimeline, MatchesCommittedTimeline) {
  const models::PaperParams pp;
  for (const Corner& c : kCorners) {
    const auto tb = sram::build_benchmark_schedule(GetParam(), pp, c.sp);
    const std::string name =
        std::string(sram::to_string(GetParam())) + "_" + c.tag + ".txt";
    expect_matches_golden(name, tb->export_timeline().describe());
  }
}

TEST_P(GoldenTimeline, DeckLintsClean) {
  const models::PaperParams pp;
  for (const Corner& c : kCorners) {
    const auto diags = lint_bench_deck(GetParam(), pp, c.sp);
    EXPECT_TRUE(diags.empty())
        << sram::to_string(GetParam()) << "/" << c.tag << " produced "
        << ::testing::PrintToString(rules_of(diags));
  }
}

INSTANTIATE_TEST_SUITE_P(AllArchitectures, GoldenTimeline,
                         ::testing::Values(BenchArch::kNVPG, BenchArch::kNOF,
                                           BenchArch::kOSR),
                         [](const auto& param_info) {
                           return std::string(
                               sram::to_string(param_info.param));
                         });

TEST(GoldenTimelineMeta, NvpgTimelineHasPowerCycle) {
  // Guard against the protocol pass running vacuously: the NVPG deck must
  // expose a store-enable pulse, a gate-off window, and phase spans.
  const models::PaperParams pp;
  const auto tb =
      sram::build_benchmark_schedule(BenchArch::kNVPG, pp, ScheduleParams{});
  const Timeline tl = tb->export_timeline();
  EXPECT_TRUE(tl.has_mtj);
  EXPECT_TRUE(tl.has_fet);
  ASSERT_NE(tl.find_role(SignalRole::kPowerGate), nullptr);
  EXPECT_GT(tl.find_role(SignalRole::kPowerGate)->max_level(), 0.5);
  ASSERT_NE(tl.find_role(SignalRole::kStoreEnable), nullptr);
  EXPECT_GT(tl.find_role(SignalRole::kStoreEnable)->max_level(), 0.5);
  EXPECT_FALSE(tl.phases.empty());
  EXPECT_EQ(tl.phase_at(0.5 * pp.clock_period()), "write1");
}

// ---- protocol-* negative tests (hand-built timelines) ----

// PG rises 100n..100.5n (gate off), falls 200n..200.5n.
SignalTimeline pg_cycle() {
  return make_signal("Vpg", SignalRole::kPowerGate, 0.0,
                     {{100e-9, 100.5e-9, 0.0, 1.0},
                      {200e-9, 200.5e-9, 1.0, 0.0}});
}

Timeline nv_base() {
  Timeline tl;
  tl.t_stop = 300e-9;
  tl.has_mtj = true;
  tl.has_fet = true;
  tl.origin = "test";
  return tl;
}

TEST(ProtocolNegative, StoreGateOverlap) {
  Timeline tl = nv_base();
  tl.signals.push_back(pg_cycle());
  // SR asserts at 90n but the gate cuts at 100n, mid-pulse.
  tl.signals.push_back(make_signal("Vsr", SignalRole::kStoreEnable, 0.0,
                                   {{90e-9, 90.1e-9, 0.0, 0.65},
                                    {150e-9, 150.1e-9, 0.65, 0.0}}));
  const auto diags = check_timeline(tl, TemporalOptions{});
  ASSERT_TRUE(has_rule(diags, rules::kProtocolStoreGateOverlap))
      << ::testing::PrintToString(rules_of(diags));
  EXPECT_EQ(find_rule(diags, rules::kProtocolStoreGateOverlap).device, "Vsr");
}

TEST(ProtocolNegative, DeadStoreInsidePowerOff) {
  Timeline tl = nv_base();
  tl.signals.push_back(pg_cycle());
  // SR pulses entirely inside the power-off window and de-asserts before
  // recovery: classified as a dead store -> restore-order.
  tl.signals.push_back(make_signal("Vsr", SignalRole::kStoreEnable, 0.0,
                                   {{120e-9, 120.1e-9, 0.0, 0.65},
                                    {150e-9, 150.1e-9, 0.65, 0.0}}));
  const auto diags = check_timeline(tl, TemporalOptions{});
  EXPECT_TRUE(has_rule(diags, rules::kProtocolRestoreOrder))
      << ::testing::PrintToString(rules_of(diags));
}

TEST(ProtocolNegative, WordlineBeforeRestoreCompletes) {
  Timeline tl = nv_base();
  tl.signals.push_back(pg_cycle());
  // Restore straddles the recovery at 200.5n and runs to 210n...
  tl.signals.push_back(make_signal("Vsr", SignalRole::kStoreEnable, 0.0,
                                   {{199e-9, 199.1e-9, 0.0, 0.65},
                                    {210e-9, 210.1e-9, 0.65, 0.0}}));
  // ...but the word line already fires at 205n.
  tl.signals.push_back(make_signal("Vwl", SignalRole::kWordline, 0.0,
                                   {{205e-9, 205.05e-9, 0.0, 0.9},
                                    {208e-9, 208.05e-9, 0.9, 0.0}}));
  const auto diags = check_timeline(tl, TemporalOptions{});
  ASSERT_TRUE(has_rule(diags, rules::kProtocolRestoreOrder))
      << ::testing::PrintToString(rules_of(diags));
  EXPECT_NE(find_rule(diags, rules::kProtocolRestoreOrder)
                .message.find("before the restore completes"),
            std::string::npos);
}

TEST(ProtocolNegative, ShutdownTooShortIsAdvisory) {
  Timeline tl = nv_base();
  tl.has_mtj = false;
  tl.signals.push_back(make_signal("Vpg", SignalRole::kPowerGate, 0.0,
                                   {{100e-9, 100.1e-9, 0.0, 1.0},
                                    {100.6e-9, 100.7e-9, 1.0, 0.0}}));
  const auto diags = check_timeline(tl, TemporalOptions{});
  ASSERT_TRUE(has_rule(diags, rules::kProtocolShutdownShort))
      << ::testing::PrintToString(rules_of(diags));
  EXPECT_EQ(find_rule(diags, rules::kProtocolShutdownShort).severity,
            Severity::kWarning);
}

TEST(ProtocolNegative, WordlinePrechargeOverlap) {
  Timeline tl = nv_base();
  tl.has_mtj = false;
  // Precharge gate stuck low (= active) while the word line asserts.
  tl.signals.push_back(
      make_signal("Vpch", SignalRole::kPrecharge, 0.0, {}));
  tl.signals.push_back(make_signal("Vwl", SignalRole::kWordline, 0.0,
                                   {{10e-9, 10.05e-9, 0.0, 0.9},
                                    {12e-9, 12.05e-9, 0.9, 0.0}}));
  const auto diags = check_timeline(tl, TemporalOptions{});
  EXPECT_TRUE(has_rule(diags, rules::kProtocolWlPrechargeOverlap))
      << ::testing::PrintToString(rules_of(diags));
}

TEST(ProtocolNegative, NofClockCannotEmbedStore) {
  Timeline tl = nv_base();
  tl.signals.push_back(make_signal("Vdd", SignalRole::kPower, 0.9, {}));
  TemporalOptions opt;
  opt.arch = TemporalOptions::Arch::kNOF;
  opt.clock_period = 3.3e-9;  // raw 300 MHz clock, not the stretched cycle
  opt.store_pulse = 10e-9;
  const auto diags = check_timeline(tl, opt);
  EXPECT_TRUE(has_rule(diags, rules::kProtocolClockStore))
      << ::testing::PrintToString(rules_of(diags));
}

// ---- negative tests via scheduled testbenches (phase attribution) ----

TEST(ProtocolNegative, SubRetentionSleepHasPhaseAttribution) {
  models::PaperParams pp;
  pp.vvdd_sleep = 0.3;  // below the 0.45 V retention floor
  const auto tb =
      sram::build_benchmark_schedule(BenchArch::kOSR, pp, ScheduleParams{});
  const auto diags =
      check_timeline(tb->export_timeline(), bench_options(BenchArch::kOSR, pp));
  ASSERT_TRUE(has_rule(diags, rules::kProtocolSleepRetention))
      << ::testing::PrintToString(rules_of(diags));
  EXPECT_EQ(find_rule(diags, rules::kProtocolSleepRetention).phase, "sleep");
}

TEST(ProtocolNegative, ShortStorePulseHasPhaseAttribution) {
  models::PaperParams pp;
  pp.store_pulse = 2e-9;  // store steps land at 4 ns < the 6 ns MTJ pulse
  const auto tb =
      sram::build_benchmark_schedule(BenchArch::kNVPG, pp, ScheduleParams{});
  const auto diags = check_timeline(tb->export_timeline(),
                                    bench_options(BenchArch::kNVPG, pp));
  ASSERT_TRUE(has_rule(diags, rules::kProtocolStoreIncomplete))
      << ::testing::PrintToString(rules_of(diags));
  const auto& d = find_rule(diags, rules::kProtocolStoreIncomplete);
  EXPECT_TRUE(d.phase == "store_h" || d.phase == "store_l") << d.phase;
}

// ---- units-* negative tests ----

TEST(UnitsNegative, OverVoltageDriverOnProcessBoundTimeline) {
  Timeline tl = nv_base();
  tl.signals.push_back(make_signal("V1", SignalRole::kOther, 0.0,
                                   {{1e-9, 2e-9, 0.0, 2.0}}));
  const auto diags = check_timeline_units(tl);
  EXPECT_TRUE(has_rule(diags, rules::kUnitsVoltageRange))
      << ::testing::PrintToString(rules_of(diags));

  // The same driver on a generic (no FET, no MTJ) circuit is legitimate.
  tl.has_fet = false;
  tl.has_mtj = false;
  EXPECT_FALSE(has_rule(check_timeline_units(tl), rules::kUnitsVoltageRange));
}

TEST(UnitsNegative, AbsurdHorizonFlagsTimeScale) {
  Timeline tl = nv_base();
  tl.t_stop = 0.1;  // 100 ms: "2120" entered where "2120n" was meant
  const auto diags = check_timeline_units(tl);
  EXPECT_TRUE(has_rule(diags, rules::kUnitsTimeScale))
      << ::testing::PrintToString(rules_of(diags));
}

TEST(UnitsNegative, PaperParamsJcInWrongUnits) {
  models::PaperParams pp;
  pp.mtj.jc = 5e6;  // the paper's A/cm^2 figure pasted as A/m^2
  const auto diags = check_paper_params(pp);
  ASSERT_TRUE(has_rule(diags, rules::kUnitsCurrentDensity))
      << ::testing::PrintToString(rules_of(diags));
  EXPECT_NE(find_rule(diags, rules::kUnitsCurrentDensity)
                .message.find("A/cm^2"),
            std::string::npos);
  // The derived Ic range check fires too: both ends of the algebra disagree.
  EXPECT_TRUE(has_rule(diags, rules::kUnitsDimension));
}

TEST(UnitsNegative, PaperParamsBiasAndTimeRanges) {
  models::PaperParams pp;
  pp.vsr = 650.0;  // mV entered as V
  auto diags = check_paper_params(pp);
  EXPECT_TRUE(has_rule(diags, rules::kUnitsVoltageRange))
      << ::testing::PrintToString(rules_of(diags));

  pp = models::PaperParams{};
  pp.store_pulse = 10e-2;  // "10n" lost its prefix
  diags = check_paper_params(pp);
  EXPECT_TRUE(has_rule(diags, rules::kUnitsTimeScale))
      << ::testing::PrintToString(rules_of(diags));
}

TEST(UnitsNegative, DefaultPaperParamsAreClean) {
  EXPECT_TRUE(check_paper_params(models::PaperParams{}).empty());
  EXPECT_TRUE(check_paper_params(models::PaperParams::table1()).empty());
}

// ---- seeded-violation netlists (tests/netlists_bad/) ----

struct SeededCase {
  const char* file;
  const char* rule;
};

// Names the case in the test's ctest name; gtest would print the struct's
// bytes, pointers included, which change from run to run.
void PrintTo(const SeededCase& c, std::ostream* os) {
  *os << c.file << " -> " << c.rule;
}

class SeededViolation : public ::testing::TestWithParam<SeededCase> {};

TEST_P(SeededViolation, CaughtStaticallyWithLineAttribution) {
  const std::string path =
      std::string(NVSRAM_BAD_NETLIST_DIR) + "/" + GetParam().file;
  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "cannot open " << path;
  std::ostringstream ss;
  ss << in.rdbuf();

  spice::NetlistParser parser;
  const auto net = parser.parse(ss.str());
  const lint::LintReport report = net->lint();
  ASSERT_TRUE(report.has_errors()) << path << " linted clean";
  bool found = false;
  for (const auto& d : report.diagnostics()) {
    if (d.rule != GetParam().rule) continue;
    found = true;
    EXPECT_GT(d.line, 0) << "no line attribution on " << d.rule;
  }
  EXPECT_TRUE(found) << path << " did not produce " << GetParam().rule << ":\n"
                     << report.format();
}

INSTANTIATE_TEST_SUITE_P(
    AllSeeds, SeededViolation,
    ::testing::Values(
        SeededCase{"bad_store_short.cir", rules::kProtocolStoreIncomplete},
        SeededCase{"bad_restore_order.cir", rules::kProtocolRestoreOrder},
        SeededCase{"bad_nof_store_missing.cir", rules::kProtocolStoreMissing},
        SeededCase{"bad_sleep_retention.cir", rules::kProtocolSleepRetention},
        SeededCase{"bad_jc_units.cir", rules::kUnitsCurrentDensity},
        SeededCase{"bad_pwl_nonmonotonic.cir",
                   rules::kProtocolPwlNonmonotonic}),
    [](const auto& param_info) {
      std::string name = param_info.param.file;
      return name.substr(0, name.find('.'));
    });

// ---- .role annotations override name heuristics ----

TEST(RoleAnnotation, DotRoleCardOverridesNameHeuristics) {
  const char* src =
      "role annotation test\n"
      "Vx a 0 PWL(10n 0 11n 1.0 200n 1.0 201n 0)\n"
      "R1 a 0 1k\n"
      ".role Vx power-gate\n"
      ".tran 300n 1n\n"
      ".end\n";
  spice::NetlistParser parser;
  const auto net = parser.parse(src);
  const Timeline tl = extract_timeline(*net);
  ASSERT_EQ(tl.signals.size(), 1u);
  EXPECT_EQ(tl.signals[0].role, SignalRole::kPowerGate);
}

// ---- the deck's own rail ----

// A cell gated by collapsing its own `vdd` V rail once, 100.5-500 ns: a
// write, a store before the collapse and a restore straddling the recovery.
std::string collapsing_rail_deck(const std::string& vdd) {
  return "cell gated by collapsing its own rail\n"
         ".subckt nvcell bl blb wl vvdd sr ctrl\n"
         "Mpu1 q  qb vvdd pfin\n"
         "Mpd1 q  qb 0    nfin\n"
         "Mpu2 qb q  vvdd pfin\n"
         "Mpd2 qb q  0    nfin\n"
         "Max1 bl  wl q  nfin\n"
         "Max2 blb wl qb nfin\n"
         "Mps1 q  sr y1 nfin\n"
         "Y1   ctrl y1 P\n"
         "Mps2 qb sr y2 nfin\n"
         "Y2   ctrl y2 P\n"
         ".ends\n"
         "Vdd  vvdd 0 PWL(0 " + vdd + " 100n " + vdd + " 100.5n 0 500n 0 500.5n " +
         vdd + ")\n"
         "Vwl  wl  0 PWL(1n 0 1.05n " + vdd + " 3n " + vdd + " 3.05n 0)\n"
         "Vbl  bl  0 DC " + vdd + "\n"
         "Vblb blb 0 PWL(0.5n " + vdd + " 0.6n 0 3.4n 0 3.5n " + vdd + ")\n"
         "Vsr  sr  0 PWL(10n 0 10.1n 0.65 17n 0.65 17.1n 0"
         " 499n 0 499.1n 0.65 510n 0.65 510.1n 0)\n"
         "Vctl ctrl 0 DC 0\n"
         "Xcell bl blb wl vvdd sr ctrl nvcell\n"
         ".tran 520n 10n\n"
         ".end\n";
}

// The linter reads the nominal rail from the deck: a 0.8 V rail is not
// "below 0.95 of 0.9 V" for its whole run, so neither SR pulse reads as
// lying inside a power-off window.
TEST(ProtocolRail, LowerRailThatCollapsesOnceLintsCleanLikeItsTwin) {
  for (const char* vdd : {"0.9", "0.8"}) {
    SCOPED_TRACE(std::string("rail ") + vdd + " V");
    spice::NetlistParser parser;
    const auto net = parser.parse(collapsing_rail_deck(vdd));
    const lint::LintReport report = net->lint();
    EXPECT_TRUE(report.diagnostics().empty()) << report.format();
  }
}

// ---- characterization gate + cache ----

TEST(CharacterizeGate, RejectsBadParamsBeforeAnyTransient) {
  models::PaperParams pp;
  pp.mtj.jc = 5e6;  // wrong units: the gate must throw before solving
  sram::CellCharacterizer ch(pp);
  try {
    ch.characterize(sram::CellKind::kNvSram);
    FAIL() << "characterize() accepted unit-mismatched parameters";
  } catch (const lint::LintError& e) {
    EXPECT_TRUE(e.report().has_errors());
    EXPECT_FALSE(e.report().by_rule(rules::kUnitsCurrentDensity).empty());
  }
}

TEST(CharacterizeCache, SecondCallIsAHit) {
  sram::characterize_cache_clear();
  const models::PaperParams pp;
  const auto a = sram::characterize_cached(pp, sram::CellKind::k6T);
  const auto s1 = sram::characterize_cache_stats();
  EXPECT_EQ(s1.misses, 1u);
  EXPECT_EQ(s1.hits, 0u);
  const auto b = sram::characterize_cached(pp, sram::CellKind::k6T);
  const auto s2 = sram::characterize_cache_stats();
  EXPECT_EQ(s2.misses, 1u);
  EXPECT_EQ(s2.hits, 1u);
  EXPECT_EQ(s2.entries, 1u);
  EXPECT_DOUBLE_EQ(a.e_read, b.e_read);
  EXPECT_DOUBLE_EQ(a.p_static_normal, b.p_static_normal);
  sram::characterize_cache_clear();
}

TEST(CharacterizeCache, PeekFromInsideTheComputationMisses) {
  // characterize()'s lint gate peeks at the key its own thread is
  // computing, whose entry lock that thread holds: the peek must miss
  // without touching the lock.  Once the computation is done it hits.
  sram::characterize_cache_clear();
  const models::PaperParams pp;
  sram::CellEnergetics computed;
  computed.e_store = 1.25e-15;
  std::optional<std::optional<sram::CellEnergetics>> inside;
  sram::characterize_memoized(pp, sram::CellKind::kNvSram, 0, [&] {
    inside = sram::characterize_cache_peek(pp, sram::CellKind::kNvSram);
    return computed;
  });
  ASSERT_TRUE(inside.has_value()) << "the computation ran";
  EXPECT_FALSE(inside->has_value());
  const auto after = sram::characterize_cache_peek(pp, sram::CellKind::kNvSram);
  ASSERT_TRUE(after.has_value());
  EXPECT_EQ(after->e_store, computed.e_store);
  sram::characterize_cache_clear();
}

TEST(CharacterizeCache, HitsOnlyOnTheExactKey) {
  using models::MTJParams;
  using models::PaperParams;
  using sram::CellKind;
  sram::characterize_cache_clear();
  const PaperParams base;
  sram::characterize_cached(base, CellKind::k6T);

  const PaperParams copy = base;
  EXPECT_TRUE(sram::characterize_cache_peek(copy, CellKind::k6T));
  EXPECT_FALSE(sram::characterize_cache_peek(base, CellKind::kNvSram));
  EXPECT_FALSE(sram::characterize_cache_peek(base, CellKind::k6T, 1));

  // Every field is part of the key: one ulp in a double or +1 in an int is
  // another parameter point.
  const std::pair<double PaperParams::*, const char*> doubles[] = {
      {&PaperParams::channel_length, "channel_length"},
      {&PaperParams::fin_width, "fin_width"},
      {&PaperParams::fin_height, "fin_height"},
      {&PaperParams::temperature, "temperature"},
      {&PaperParams::vdd, "vdd"},
      {&PaperParams::vsr, "vsr"},
      {&PaperParams::vctrl_store, "vctrl_store"},
      {&PaperParams::vctrl_normal, "vctrl_normal"},
      {&PaperParams::vctrl_sleep, "vctrl_sleep"},
      {&PaperParams::vvdd_sleep, "vvdd_sleep"},
      {&PaperParams::vvdd_retention_floor, "vvdd_retention_floor"},
      {&PaperParams::vpg_supercutoff, "vpg_supercutoff"},
      {&PaperParams::power_switch_vth, "power_switch_vth"},
      {&PaperParams::clock_hz, "clock_hz"},
      {&PaperParams::store_pulse, "store_pulse"},
      {&PaperParams::store_current_factor, "store_current_factor"},
  };
  const std::pair<int PaperParams::*, const char*> ints[] = {
      {&PaperParams::fins_load, "fins_load"},
      {&PaperParams::fins_driver, "fins_driver"},
      {&PaperParams::fins_access, "fins_access"},
      {&PaperParams::fins_ps, "fins_ps"},
      {&PaperParams::fins_power_switch, "fins_power_switch"},
  };
  const std::pair<double MTJParams::*, const char*> mtj_doubles[] = {
      {&MTJParams::tmr0, "mtj.tmr0"},
      {&MTJParams::ra_product, "mtj.ra_product"},
      {&MTJParams::vh, "mtj.vh"},
      {&MTJParams::jc, "mtj.jc"},
      {&MTJParams::diameter, "mtj.diameter"},
      {&MTJParams::tau0, "mtj.tau0"},
      {&MTJParams::thermal_stability, "mtj.thermal_stability"},
      {&MTJParams::attempt_time, "mtj.attempt_time"},
      {&MTJParams::error_tail_factor, "mtj.error_tail_factor"},
  };
  const double up = std::numeric_limits<double>::infinity();
  for (const auto& [field, name] : doubles) {
    PaperParams pp = base;
    pp.*field = std::nextafter(pp.*field, up);
    EXPECT_FALSE(sram::characterize_cache_peek(pp, CellKind::k6T)) << name;
  }
  for (const auto& [field, name] : ints) {
    PaperParams pp = base;
    pp.*field += 1;
    EXPECT_FALSE(sram::characterize_cache_peek(pp, CellKind::k6T)) << name;
  }
  for (const auto& [field, name] : mtj_doubles) {
    PaperParams pp = base;
    pp.mtj.*field = std::nextafter(pp.mtj.*field, up);
    EXPECT_FALSE(sram::characterize_cache_peek(pp, CellKind::k6T)) << name;
  }

  // Peeks never compute: the one characterization above is the only entry.
  const auto stats = sram::characterize_cache_stats();
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.entries, 1u);
  sram::characterize_cache_clear();
}

// ---- rule catalog families ----

TEST(RuleCatalog, EveryRuleHasAFamily) {
  for (const auto& rule : lint::rule_catalog()) {
    EXPECT_NE(std::string(rule.family), "") << rule.id;
    EXPECT_STREQ(lint::rule_family(rule.id), rule.family);
  }
  EXPECT_STREQ(lint::rule_family(rules::kProtocolStoreMissing), "protocol");
  EXPECT_STREQ(lint::rule_family(rules::kUnitsDimension), "units");
  EXPECT_STREQ(lint::rule_family("no-such-rule"), "");
}

}  // namespace
}  // namespace nvsram::lint::temporal
