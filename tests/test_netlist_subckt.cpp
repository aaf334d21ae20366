// Netlist subcircuits.
#include <gtest/gtest.h>

#include "spice/elements.h"
#include "spice/netlist_parser.h"

namespace nvsram::spice {
namespace {

TEST(Subckt, BasicInstantiation) {
  NetlistParser p;
  auto net = p.parse(
      "divider as a subckt\n"
      ".subckt div top bot mid\n"
      "R1 top mid 1k\n"
      "R2 mid bot 1k\n"
      ".ends\n"
      "V1 in 0 DC 2\n"
      "X1 in 0 out div\n"
      ".probe v(out)\n");
  // 1 source + 2 resistors inside the instance.
  EXPECT_EQ(net->circuit().devices().size(), 3u);
  EXPECT_NE(net->circuit().find_device("X1.R1"), nullptr);
  const auto sol = net->run_op();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->node_voltage(net->circuit().find_node("out")), 1.0, 1e-6);
}

TEST(Subckt, InternalNodesAreIsolated) {
  NetlistParser p;
  auto net = p.parse(
      "two instances\n"
      ".subckt rc in out\n"
      "R1 in mid 1k\n"
      "R2 mid out 1k\n"
      ".ends\n"
      "V1 a 0 DC 1\n"
      "X1 a b rc\n"
      "X2 b 0 rc\n");
  // Each instance has its own "mid".
  EXPECT_TRUE(net->circuit().has_node("X1.mid"));
  EXPECT_TRUE(net->circuit().has_node("X2.mid"));
  const auto sol = net->run_op();
  ASSERT_TRUE(sol.has_value());
  // Series chain of 4 x 1k from 1 V: b = 0.5 V.
  EXPECT_NEAR(sol->node_voltage(net->circuit().find_node("b")), 0.5, 1e-6);
}

TEST(Subckt, NestedInstantiation) {
  NetlistParser p;
  auto net = p.parse(
      "nested\n"
      ".subckt unit a b\n"
      "R1 a b 1k\n"
      ".ends\n"
      ".subckt pair a b\n"
      "X1 a m unit\n"
      "X2 m b unit\n"
      ".ends\n"
      "V1 in 0 DC 1\n"
      "Xp in 0 pair\n");
  EXPECT_NE(net->circuit().find_device("Xp.X1.R1"), nullptr);
  EXPECT_TRUE(net->circuit().has_node("Xp.m"));
  const auto sol = net->run_op();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->node_voltage(net->circuit().find_node("Xp.m")), 0.5, 1e-6);
}

TEST(Subckt, GroundStaysGlobalInside) {
  NetlistParser p;
  auto net = p.parse(
      "ground ref\n"
      ".subckt pull a\n"
      "R1 a 0 1k\n"
      ".ends\n"
      "V1 in 0 DC 1\n"
      "R0 in x 1k\n"
      "X1 x pull\n");
  const auto sol = net->run_op();
  ASSERT_TRUE(sol.has_value());
  EXPECT_NEAR(sol->node_voltage(net->circuit().find_node("x")), 0.5, 1e-6);
}

TEST(Subckt, PortArityChecked) {
  NetlistParser p;
  EXPECT_THROW(p.parse("title\n"
                       ".subckt div a b c\n"
                       "R1 a b 1k\n"
                       ".ends\n"
                       "X1 n1 n2 div\n"),
               NetlistError);
}

TEST(Subckt, UnknownSubcircuitRejected) {
  NetlistParser p;
  EXPECT_THROW(p.parse("title\nX1 a b nothere\n"), NetlistError);
}

TEST(Subckt, DuplicateDefinitionRejected) {
  NetlistParser p;
  EXPECT_THROW(p.parse("title\n"
                       ".subckt u a\nR1 a 0 1k\n.ends\n"
                       ".subckt u a\nR1 a 0 2k\n.ends\n"),
               NetlistError);
}

TEST(Subckt, EndsWithoutSubcktRejected) {
  NetlistParser p;
  EXPECT_THROW(p.parse("title\n.ends\n"), NetlistError);
}

TEST(Subckt, MixedDevicesInsideBody) {
  // An inverter as a subcircuit, instantiated twice into a buffer.
  NetlistParser p;
  auto net = p.parse(
      "buffer\n"
      ".subckt inv in out vdd\n"
      "M1 out in vdd pfin\n"
      "M2 out in 0 nfin\n"
      ".ends\n"
      "Vdd vdd 0 DC 0.9\n"
      "Vin a 0 DC 0\n"
      "X1 a b vdd inv\n"
      "X2 b c vdd inv\n");
  const auto sol = net->run_op();
  ASSERT_TRUE(sol.has_value());
  EXPECT_GT(sol->node_voltage(net->circuit().find_node("b")), 0.85);
  EXPECT_LT(sol->node_voltage(net->circuit().find_node("c")), 0.05);
}

}  // namespace
}  // namespace nvsram::spice
