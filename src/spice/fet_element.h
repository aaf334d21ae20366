// MNA element wrapping the FinFET compact model.
//
// The element stamps the linearized channel (gm, gds) each Newton iteration.
// Terminal capacitances (Cgs, Cgd, junction) are added as separate Capacitor
// devices by `add_finfet`, keeping charge bookkeeping in one place.
#pragma once

#include "models/finfet.h"
#include "spice/circuit.h"
#include "spice/device.h"

namespace nvsram::spice {

class FinFETElement final : public Device {
 public:
  static constexpr DeviceKind kKind = DeviceKind::kFinFET;
  DeviceKind kind() const override { return kKind; }

  FinFETElement(std::string name, NodeId drain, NodeId gate, NodeId source,
                models::FinFETParams params);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  // Drain current, positive flowing drain -> source (NMOS convention; PMOS
  // conducts with negative values).
  double current(const SolutionView& s) const override;
  TerminalList terminals() const override {
    return {{"drain", drain_}, {"gate", gate_}, {"source", source_}};
  }
  // The channel conducts drain <-> source; the gate is insulated (it couples
  // only through the Cgs/Cgd capacitors added by add_finfet), so a gate node
  // needs its own DC path from elsewhere.
  DcPathList dc_paths() const override {
    return {{drain_, source_}};
  }

  const models::FinFET& model() const { return model_; }
  NodeId drain() const { return drain_; }
  NodeId gate() const { return gate_; }
  NodeId source() const { return source_; }

 private:
  NodeId drain_, gate_, source_;
  models::FinFET model_;
};

// Convenience: adds the channel element plus its terminal capacitances
// (Cgs gate-source, Cgd gate-drain, junction caps drain/source to ground).
// Returns the channel element for probing.
FinFETElement* add_finfet(Circuit& ckt, const std::string& name, NodeId drain,
                          NodeId gate, NodeId source,
                          const models::FinFETParams& params);

}  // namespace nvsram::spice
