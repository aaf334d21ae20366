// MNA element wrapping the MTJ macromodel with its CIMS state machine.
//
// Terminals: `pinned` and `free`.  Positive device current flows
// pinned -> free through the junction (this is the polarity that drives
// AP -> P; see models/mtj.h).
#pragma once

#include "models/mtj.h"
#include "spice/device.h"

namespace nvsram::spice {

class MTJElement : public Device {
 public:
  MTJElement(std::string name, NodeId pinned, NodeId free,
             models::MTJParams params,
             models::MtjState initial = models::MtjState::kParallel);

  void stamp(StampContext& ctx) override;
  void stamp_pattern(PatternContext& ctx) const override;
  bool accept_step(const SolutionView& s, double time, double dt) override;
  double current(const SolutionView& s) const override;
  std::vector<TerminalRef> terminals() const override {
    return {{"pinned", pinned_}, {"free", free_}};
  }
  // The junction is resistive in both states: it conducts at DC.
  std::vector<std::pair<NodeId, NodeId>> dc_paths() const override {
    return {{pinned_, free_}};
  }

  NodeId pinned_node() const { return pinned_; }
  NodeId free_node() const { return free_; }

  models::MtjState state() const { return switching_.state(); }
  void force_state(models::MtjState s) { switching_.force_state(s); }
  const models::MTJ& model() const { return mtj_; }

  // Number of completed switching events since construction.
  int switch_count() const { return switch_count_; }

 private:
  NodeId pinned_, free_;
  models::MTJ mtj_;
  models::SwitchingState switching_;
  int switch_count_ = 0;
};

}  // namespace nvsram::spice
