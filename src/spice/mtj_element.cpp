#include "spice/mtj_element.h"

namespace nvsram::spice {

MTJElement::MTJElement(std::string name, NodeId pinned, NodeId free,
                       models::MTJParams params, models::MtjState initial)
    : Device(std::move(name)), pinned_(pinned), free_(free), mtj_(params),
      switching_(initial) {}

void MTJElement::stamp(StampContext& ctx) {
  const double v = ctx.node_voltage(pinned_) - ctx.node_voltage(free_);
  const auto iv = mtj_.current(switching_.state(), v);
  // Linearized companion: i(v) ~ i0 + g (v - v0).
  ctx.stamp_conductance(pinned_, free_, iv.conductance);
  ctx.stamp_current(pinned_, free_, iv.current - iv.conductance * v);
}

void MTJElement::stamp_pattern(PatternContext& ctx) const {
  // Resistive in both magnetic states.
  ctx.conductance(pinned_, free_);
}

bool MTJElement::accept_step(const SolutionView& s, double, double dt) {
  const double i = current(s);
  const bool flipped = switching_.advance(mtj_, i, dt);
  if (flipped) ++switch_count_;
  return flipped;
}

double MTJElement::current(const SolutionView& s) const {
  const double v = s.node_voltage(pinned_) - s.node_voltage(free_);
  return mtj_.current(switching_.state(), v).current;
}

}  // namespace nvsram::spice
