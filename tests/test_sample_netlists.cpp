// Every sample netlist shipped in netlists/ must parse and run end to end.
// NVSRAM_NETLIST_DIR is injected by CMake.
#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"

namespace nvsram::spice {
namespace {

std::string read_file(const std::string& name) {
  const std::string path = std::string(NVSRAM_NETLIST_DIR) + "/" + name;
  std::ifstream in(path);
  EXPECT_TRUE(in.good()) << "missing sample netlist " << path;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

TEST(SampleNetlists, NvsramStoreSwitchesTheMtj) {
  NetlistParser p;
  auto net = p.parse(read_file("nvsram_store.cir"));
  ASSERT_TRUE(net->tran_card().has_value());
  (void)net->run_tran();
  auto* mtj = dynamic_cast<MTJElement*>(net->circuit().find_device("Y1"));
  ASSERT_NE(mtj, nullptr);
  EXPECT_EQ(mtj->state(), models::MtjState::kAntiparallel);
}

TEST(SampleNetlists, LatchFlipsOnWritePulse) {
  NetlistParser p;
  auto net = p.parse(read_file("sram_latch.cir"));
  const auto wave = net->run_tran();
  // Before the pulse the latch sits in whichever state DC picked; after the
  // pulse Q must be high (QB was yanked low).
  EXPECT_GT(wave.value_at("v(q)", 5.8e-9), 0.8);
  EXPECT_LT(wave.value_at("v(qb)", 5.8e-9), 0.1);
}

TEST(SampleNetlists, MtjSenseSweepShowsStateContrast) {
  NetlistParser p;
  auto net = p.parse(read_file("mtj_sense.cir"));
  ASSERT_TRUE(net->dc_card().has_value());
  const auto wave = net->run_dc_sweep();
  ASSERT_EQ(wave.samples(), 21u);
  // AP junction (~12 kOhm at low bias) against the 9 kOhm reference: the
  // mid node sits above half the drive.
  const double v_mid = wave.series("v(mid)").back();
  EXPECT_GT(v_mid, 0.2);   // > half of 0.4 V
  EXPECT_LT(v_mid, 0.3);
}

TEST(SampleNetlists, FullCellSubcircuitPowerGatingRoundTrip) {
  NetlistParser p;
  auto net = p.parse(read_file("nvsram_cell_full.cir"));
  const auto wave = net->run_tran();

  // After the write window, Q holds '1'.
  EXPECT_GT(wave.value_at("v(Xcell.q)", 8e-9), 0.8);
  // The store pulses drove both MTJs to the data state.
  auto* y1 = dynamic_cast<MTJElement*>(net->circuit().find_device("Xcell.Y1"));
  auto* y2 = dynamic_cast<MTJElement*>(net->circuit().find_device("Xcell.Y2"));
  ASSERT_TRUE(y1 && y2);
  EXPECT_EQ(y1->state(), models::MtjState::kAntiparallel);  // Q side (H)
  EXPECT_EQ(y2->state(), models::MtjState::kParallel);      // QB side (L)
  // The rail collapsed during the gated window...
  EXPECT_LT(wave.value_at("v(vvdd)", 2.0e-6), 0.25);
  // ...and the data returns after the restore.
  EXPECT_GT(wave.value_at("v(Xcell.q)", 2.118e-6), 0.8);
}

}  // namespace
}  // namespace nvsram::spice
