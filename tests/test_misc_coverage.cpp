// Coverage for small paths not exercised elsewhere: logging, circuit
// registry errors, describe() strings, DC sweep failure propagation.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/energy_model.h"
#include "models/paper_params.h"
#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/elements.h"
#include "util/log.h"

namespace nvsram {
namespace {

TEST(Log, LevelGateAndRestore) {
  const auto prev = util::log_level();
  util::set_log_level(util::LogLevel::kOff);
  util::log_error() << "must not crash while gated";
  EXPECT_EQ(util::log_level(), util::LogLevel::kOff);
  util::set_log_level(util::LogLevel::kDebug);
  util::log_debug() << "visible level";
  util::set_log_level(prev);
}

TEST(CircuitRegistry, DuplicateDeviceNameRejected) {
  spice::Circuit ckt;
  const auto n = ckt.node("a");
  const auto* first = ckt.add<spice::Resistor>("R1", n, spice::kGround, 1e3);
  EXPECT_THROW(ckt.add<spice::Resistor>("R1", n, spice::kGround, 2e3),
               std::invalid_argument);
  // A rejected duplicate leaves the circuit as it was, also when the
  // attempt is the one that grows the name index: one attempt per size.
  for (std::size_t k = 2; k <= 100; ++k) {
    ckt.add<spice::Resistor>(std::string("R").append(std::to_string(k)), n,
                             spice::kGround, 1e3);
    try {
      ckt.add<spice::Resistor>("R1", n, spice::kGround, 2e3);
      ADD_FAILURE() << "duplicate accepted at " << k << " devices";
    } catch (const std::invalid_argument& e) {
      EXPECT_STREQ(e.what(), "Circuit: duplicate device name R1");
    }
    ASSERT_EQ(ckt.devices().size(), k);
    ASSERT_EQ(ckt.find_device("R1"), first);
  }
  for (std::size_t k = 1; k <= 100; ++k) {
    EXPECT_EQ(ckt.device_index(std::string("R").append(std::to_string(k))),
              k - 1);
  }
}

TEST(CircuitRegistry, NodeLookup) {
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  EXPECT_EQ(ckt.find_node("a"), a);
  EXPECT_EQ(ckt.find_node("gnd"), spice::kGround);
  EXPECT_THROW(ckt.find_node("nope"), std::out_of_range);
  EXPECT_THROW(ckt.node_name(999), std::out_of_range);
  EXPECT_EQ(ckt.node_name(a), "a");
  EXPECT_EQ(ckt.find_device("nothing"), nullptr);
  // Re-requesting a node returns the same id.
  EXPECT_EQ(ckt.node("a"), a);
  // "gnd" aliases ground and creates no node.
  EXPECT_EQ(ckt.node("gnd"), spice::kGround);
  EXPECT_TRUE(ckt.has_node("gnd"));
  EXPECT_EQ(ckt.node_count(), 2u);
  // A node and a device may share a name.
  EXPECT_EQ(ckt.find_device("a"), nullptr);
  const auto* ra = ckt.add<spice::Resistor>("a", a, spice::kGround, 1e3);
  EXPECT_EQ(ckt.find_device("a"), ra);
  EXPECT_EQ(ckt.find_node("a"), a);

  // Many names, short (stored inline in std::string) and long, map back to
  // their creation-order ids through every lookup while the index grows.
  constexpr std::size_t kNames = 100000;
  auto name_of = [](const char* head, std::size_t i) {
    return head + std::to_string(i) + (i % 3 == 0 ? "_with_a_long_tail" : "");
  };
  const std::size_t first_node = ckt.node_count();
  std::vector<const spice::Device*> devices;
  for (std::size_t i = 0; i < kNames; ++i) {
    ASSERT_EQ(ckt.node(name_of("n", i)), first_node + i);
    devices.push_back(ckt.add<spice::Resistor>(name_of("R", i), a,
                                               spice::kGround, 1e3));
  }
  ASSERT_EQ(ckt.node_count(), first_node + kNames);
  for (std::size_t i = 0; i < kNames; ++i) {
    const std::string node = name_of("n", i);
    const std::string dev = name_of("R", i);
    ASSERT_EQ(ckt.node(node), first_node + i);
    ASSERT_EQ(ckt.find_node(node), first_node + i);
    ASSERT_TRUE(ckt.has_node(node));
    ASSERT_EQ(ckt.find_device(dev), devices[i]);
    ASSERT_EQ(ckt.device_index(dev), i + 1);
    ASSERT_FALSE(ckt.has_node(dev));
    ASSERT_EQ(ckt.find_device(node), nullptr);
  }
  EXPECT_EQ(ckt.node_count(), first_node + kNames);
}

TEST(CircuitRegistry, ElementValidation) {
  spice::Circuit ckt;
  const auto n = ckt.node("a");
  EXPECT_THROW(ckt.add<spice::Resistor>("Rbad", n, spice::kGround, -1.0),
               std::invalid_argument);
  EXPECT_THROW(ckt.add<spice::Capacitor>("Cbad", n, spice::kGround, 0.0),
               std::invalid_argument);
  auto* r = ckt.add<spice::Resistor>("Rok", n, spice::kGround, 1e3);
  EXPECT_THROW(r->set_resistance(0.0), std::invalid_argument);
  r->set_resistance(2e3);
  EXPECT_DOUBLE_EQ(r->resistance(), 2e3);
}

TEST(DcSweepErrors, NonConvergencePropagates) {
  // Conflicting sources: the sweep must throw, not return garbage.
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  auto* v1 =
      ckt.add<spice::VSource>("V1", a, spice::kGround, spice::SourceSpec::dc(1));
  ckt.add<spice::VSource>("V2", a, spice::kGround, spice::SourceSpec::dc(2));
  ckt.add<spice::Resistor>("R1", a, spice::kGround, 1e3);
  spice::DCSweep sweep(
      ckt, [&](double v) { v1->set_spec(spice::SourceSpec::dc(v)); },
      {0.0, 1.0}, {});
  EXPECT_THROW(sweep.run(), std::runtime_error);
}

TEST(Describe, ArchitectureNames) {
  EXPECT_STREQ(core::to_string(core::Architecture::kOSR), "OSR");
  EXPECT_STREQ(core::to_string(core::Architecture::kNVPG), "NVPG");
  EXPECT_STREQ(core::to_string(core::Architecture::kNOF), "NOF");
}

TEST(Describe, EnergyBreakdownMentionsEveryPart) {
  core::EnergyBreakdown b;
  b.access = 1e-15;
  b.store = 2e-15;
  b.duration = 1e-6;
  const auto text = b.describe();
  EXPECT_NE(text.find("access="), std::string::npos);
  EXPECT_NE(text.find("store="), std::string::npos);
  EXPECT_NE(text.find("total="), std::string::npos);
  EXPECT_NE(text.find("duration="), std::string::npos);
}

TEST(Describe, FinFetAndMtjStrings) {
  const auto pp = models::PaperParams::table1();
  EXPECT_NE(pp.nmos(1).describe().find("nfin"), std::string::npos);
  EXPECT_NE(pp.pmos(1).describe().find("pfin"), std::string::npos);
  EXPECT_NE(pp.mtj.describe().find("Ic="), std::string::npos);
  EXPECT_STREQ(models::to_string(models::MtjState::kParallel), "P");
  EXPECT_STREQ(models::to_string(models::MtjState::kAntiparallel), "AP");
}

TEST(SourceValue, CapacitorEnergyHelper) {
  spice::Circuit ckt;
  const auto a = ckt.node("a");
  ckt.add<spice::VSource>("V1", a, spice::kGround, spice::SourceSpec::dc(2.0));
  auto* c = ckt.add<spice::Capacitor>("C1", a, spice::kGround, 1e-12);
  spice::DCAnalysis dc(ckt);
  const auto sol = dc.solve();
  ASSERT_TRUE(sol.has_value());
  // E = C V^2 / 2 at the operating point.
  EXPECT_NEAR(c->stored_energy(sol->view()), 0.5 * 1e-12 * 4.0, 1e-15);
}

}  // namespace
}  // namespace nvsram
