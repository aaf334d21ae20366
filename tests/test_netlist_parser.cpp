// Netlist parser: number suffixes, card parsing, error reporting, and
// end-to-end execution of parsed .dc / .tran analyses.
#include <gtest/gtest.h>

#include <cmath>

#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"

namespace nvsram::spice {
namespace {

// ---- SI numbers ---------------------------------------------------------------

TEST(SiNumber, PlainAndScientific) {
  EXPECT_DOUBLE_EQ(*parse_si_number("42"), 42.0);
  EXPECT_DOUBLE_EQ(*parse_si_number("-3.5"), -3.5);
  EXPECT_DOUBLE_EQ(*parse_si_number("1e-9"), 1e-9);
  EXPECT_DOUBLE_EQ(*parse_si_number("2.5E6"), 2.5e6);
}

TEST(SiNumber, EngineeringSuffixes) {
  EXPECT_DOUBLE_EQ(*parse_si_number("2.2k"), 2200.0);
  EXPECT_DOUBLE_EQ(*parse_si_number("10n"), 1e-8);
  EXPECT_DOUBLE_EQ(*parse_si_number("4f"), 4e-15);
  EXPECT_DOUBLE_EQ(*parse_si_number("3u"), 3e-6);
  EXPECT_DOUBLE_EQ(*parse_si_number("7m"), 7e-3);
  EXPECT_DOUBLE_EQ(*parse_si_number("1meg"), 1e6);
  EXPECT_DOUBLE_EQ(*parse_si_number("2G"), 2e9);
  EXPECT_DOUBLE_EQ(*parse_si_number("5p"), 5e-12);
}

TEST(SiNumber, MalformedRejected) {
  EXPECT_FALSE(parse_si_number("").has_value());
  EXPECT_FALSE(parse_si_number("abc").has_value());
  EXPECT_FALSE(parse_si_number("1.2.3").has_value());
  EXPECT_FALSE(parse_si_number("1kk").has_value());
  // Only the documented decimal forms: no NaN, infinity or hexadecimal,
  // which std::stod would take.
  for (const char* token : {"nan", "NaN", "-nan", "inf", "-inf", "Infinity",
                            "0x10", "0X1p3", "0x1f", "1e", "1e+", "e5", ".",
                            "+", "-.e1", "1 ", " 1"}) {
    EXPECT_FALSE(parse_si_number(token).has_value()) << token;
  }
  // Finite digits whose value is not: out of double range, before or after
  // the suffix scales it.
  EXPECT_FALSE(parse_si_number("1e999").has_value());
  EXPECT_FALSE(parse_si_number("1e300t").has_value());
  EXPECT_FALSE(parse_si_number("-1e305meg").has_value());
}

TEST(SiNumber, DecimalFormsAccepted) {
  EXPECT_DOUBLE_EQ(*parse_si_number("+1"), 1.0);
  EXPECT_DOUBLE_EQ(*parse_si_number(".5"), 0.5);
  EXPECT_DOUBLE_EQ(*parse_si_number("5."), 5.0);
  EXPECT_DOUBLE_EQ(*parse_si_number("-2.5e-3k"), -2.5);
  EXPECT_DOUBLE_EQ(*parse_si_number("1E+3"), 1e3);
  EXPECT_DOUBLE_EQ(*parse_si_number("1.meg"), 1e6);
}

// ---- structural parsing ---------------------------------------------------------

TEST(Parser, TitleLineAndDevices) {
  NetlistParser p;
  auto net = p.parse(
      "My divider\n"
      "V1 in 0 DC 2.0\n"
      "R1 in out 1k\n"
      "R2 out 0 3k\n"
      ".end\n");
  EXPECT_EQ(net->title(), "My divider");
  EXPECT_EQ(net->circuit().devices().size(), 3u);
  EXPECT_TRUE(net->circuit().has_node("out"));
}

TEST(Parser, CommentsAndBlankLinesIgnored) {
  NetlistParser p;
  auto net = p.parse(
      "* a comment netlist\n"
      "\n"
      "R1 a 0 1k ; trailing comment\n"
      "* another\n");
  EXPECT_EQ(net->circuit().devices().size(), 1u);
}

TEST(Parser, ErrorsCarryLineNumbers) {
  NetlistParser p;
  try {
    p.parse("R1 a 0 1k\nQ9 what 0 0\n");
    FAIL() << "expected NetlistError";
  } catch (const NetlistError& e) {
    EXPECT_EQ(e.line(), 2);
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

TEST(Parser, RejectsEmptyNetlist) {
  NetlistParser p;
  EXPECT_THROW(p.parse("* nothing here\n"), NetlistError);
}

TEST(Parser, PulseAndPwlSources) {
  NetlistParser p;
  auto net = p.parse(
      "V1 a 0 PULSE(0 0.9 1n 10p 10p 2n)\n"
      "V2 b 0 PWL(0.1n 0 0.2n 1 1n 1)\n"
      "R1 a 0 1k\n"
      "R2 b 0 1k\n");
  auto* v1 = dynamic_cast<VSource*>(net->circuit().find_device("V1"));
  auto* v2 = dynamic_cast<VSource*>(net->circuit().find_device("V2"));
  ASSERT_TRUE(v1 && v2);
  EXPECT_DOUBLE_EQ(v1->value(2e-9), 0.9);
  EXPECT_DOUBLE_EQ(v1->value(0.0), 0.0);
  EXPECT_NEAR(v2->value(0.15e-9), 0.5, 1e-12);
}

TEST(Parser, PulseArityChecked) {
  // Note the title line: a malformed FIRST line falls back to being the
  // title (SPICE convention), so the bad card sits on line 2.
  NetlistParser p;
  EXPECT_THROW(p.parse("title\nV1 a 0 PULSE(0 1 1n)\nR1 a 0 1k\n"),
               NetlistError);
}

TEST(Parser, FetCardWithOptions) {
  NetlistParser p;
  auto net = p.parse(
      "Vd d 0 DC 0.9\n"
      "Vg g 0 DC 0.9\n"
      "M1 d g 0 nfin fins=3 vth=0.3\n");
  // The fet helper adds the channel plus Cgs/Cgd and the junction caps of
  // the non-grounded terminals (source is grounded here, so no cjs).
  EXPECT_EQ(net->circuit().devices().size(), 2u + 4u);
  auto* fet = dynamic_cast<FinFETElement*>(net->circuit().find_device("M1"));
  ASSERT_NE(fet, nullptr);
  EXPECT_EQ(fet->model().params().fin_count, 3);
  EXPECT_DOUBLE_EQ(fet->model().params().vth0, 0.3);
}

TEST(Parser, FetModelNameValidated) {
  NetlistParser p;
  EXPECT_THROW(p.parse("M1 d g 0 hemt\n"), NetlistError);
}

TEST(Parser, MtjCardStates) {
  NetlistParser p;
  auto net = p.parse(
      "Y1 a 0 P\n"
      "Y2 a 0 AP tau0=5n\n"
      "R1 a 0 1k\n");
  auto* y1 = dynamic_cast<MTJElement*>(net->circuit().find_device("Y1"));
  auto* y2 = dynamic_cast<MTJElement*>(net->circuit().find_device("Y2"));
  ASSERT_TRUE(y1 && y2);
  EXPECT_EQ(y1->state(), models::MtjState::kParallel);
  EXPECT_EQ(y2->state(), models::MtjState::kAntiparallel);
  EXPECT_DOUBLE_EQ(y2->model().params().tau0, 5e-9);
}

TEST(Parser, ProbeUnknownNodeRejected) {
  NetlistParser p;
  EXPECT_THROW(p.parse("R1 a 0 1k\n.probe v(nonexistent)\n"), NetlistError);
}

TEST(Parser, CardsAfterEndIgnored) {
  NetlistParser p;
  auto net = p.parse(
      "R1 a 0 1k\n"
      ".end\n"
      "R2 a 0 1k\n");
  EXPECT_EQ(net->circuit().devices().size(), 1u);
}

// ---- execution -------------------------------------------------------------------

TEST(ParserRun, DcSweepDivider) {
  NetlistParser p;
  auto net = p.parse(
      "divider sweep\n"
      "V1 in 0 DC 0\n"
      "R1 in out 1k\n"
      "R2 out 0 1k\n"
      ".probe v(out)\n"
      ".dc V1 0 2 5\n");
  ASSERT_TRUE(net->dc_card().has_value());
  const auto wave = net->run_dc_sweep();
  ASSERT_EQ(wave.samples(), 5u);
  EXPECT_NEAR(wave.series("v(out)").back(), 1.0, 1e-6);
  EXPECT_NEAR(wave.series("v(out)")[2], 0.5, 1e-6);
}

TEST(ParserRun, TranRcStep) {
  NetlistParser p;
  auto net = p.parse(
      "rc step\n"
      "V1 in 0 PWL(0.1n 0 0.11n 1)\n"
      "R1 in out 1k\n"
      "C1 out 0 1p\n"
      ".probe v(out) e(V1)\n"
      ".tran 8n\n");
  ASSERT_TRUE(net->tran_card().has_value());
  const auto wave = net->run_tran();
  const double v = wave.value_at("v(out)", 1.105e-9);  // one tau after step
  EXPECT_NEAR(v, 1.0 - std::exp(-1.0), 0.02);
  EXPECT_GT(wave.final_value("e(V1)"), 0.9e-12);  // ~ C V^2
}

TEST(ParserRun, OperatingPoint) {
  NetlistParser p;
  auto net = p.parse(
      "inverter op\n"
      "Vdd vdd 0 DC 0.9\n"
      "Vin in 0 DC 0\n"
      "M1 out in vdd pfin\n"
      "M2 out in 0 nfin\n");
  const auto sol = net->run_op();
  ASSERT_TRUE(sol.has_value());
  EXPECT_GT(sol->node_voltage(net->circuit().find_node("out")), 0.85);
}

TEST(ParserRun, MissingAnalysisCardsThrow) {
  NetlistParser p;
  auto net = p.parse("R1 a 0 1k\n");
  EXPECT_THROW(net->run_dc_sweep(), std::logic_error);
  EXPECT_THROW(net->run_tran(), std::logic_error);
}

TEST(ParserRun, MtjSwitchesInParsedTransient) {
  // The netlist-level version of the CIMS test: pull 1.5 Ic out of the
  // pinned terminal -> P -> AP.
  NetlistParser p;
  auto net = p.parse(
      "cims\n"
      "Y1 a 0 P\n"
      "I1 a 0 PULSE(0 23.6u 1n 0.1n 0.1n 10n)\n"
      ".probe v(a)\n"
      ".tran 14n\n");
  (void)net->run_tran();
  auto* mtj = dynamic_cast<MTJElement*>(net->circuit().find_device("Y1"));
  ASSERT_NE(mtj, nullptr);
  EXPECT_EQ(mtj->state(), models::MtjState::kAntiparallel);
}

}  // namespace
}  // namespace nvsram::spice
