#include "spice/fet_element.h"

#include "spice/elements.h"

namespace nvsram::spice {

FinFETElement::FinFETElement(std::string name, NodeId drain, NodeId gate,
                             NodeId source, models::FinFETParams params)
    : Device(std::move(name)), drain_(drain), gate_(gate), source_(source),
      model_(params) {}

void FinFETElement::stamp(StampContext& ctx) {
  const double vgs = ctx.node_voltage(gate_) - ctx.node_voltage(source_);
  const double vds = ctx.node_voltage(drain_) - ctx.node_voltage(source_);
  const auto out = model_.evaluate(vgs, vds);

  // i_d(vgs, vds) ~ ids0 + gm (vgs - vgs0) + gds (vds - vds0); current flows
  // drain -> source.
  const double gm = out.gm;
  const double gds = out.gds;

  ctx.mat_nn(drain_, gate_, gm);
  ctx.mat_nn(drain_, drain_, gds);
  ctx.mat_nn(drain_, source_, -(gm + gds));
  ctx.mat_nn(source_, gate_, -gm);
  ctx.mat_nn(source_, drain_, -gds);
  ctx.mat_nn(source_, source_, gm + gds);

  const double i_eq = out.ids - gm * vgs - gds * vds;
  ctx.stamp_current(drain_, source_, i_eq);
}

void FinFETElement::stamp_pattern(PatternContext& ctx) const {
  // The gate ROW receives nothing from the channel: the gate is insulated
  // and only senses.  Its equation must be fed by other devices (the Cgs/Cgd
  // companions outside DC) or the node is structurally floating — exactly
  // what the analyzer should report.
  ctx.mat_nn(drain_, gate_);
  ctx.mat_nn(drain_, drain_);
  ctx.mat_nn(drain_, source_);
  ctx.mat_nn(source_, gate_);
  ctx.mat_nn(source_, drain_);
  ctx.mat_nn(source_, source_);
}

double FinFETElement::current(const SolutionView& s) const {
  const double vgs = s.node_voltage(gate_) - s.node_voltage(source_);
  const double vds = s.node_voltage(drain_) - s.node_voltage(source_);
  return model_.evaluate(vgs, vds).ids;
}

FinFETElement* add_finfet(Circuit& ckt, const std::string& name, NodeId drain,
                          NodeId gate, NodeId source,
                          const models::FinFETParams& params) {
  auto* fet = ckt.add<FinFETElement>(name, drain, gate, source, params);
  ckt.add<Capacitor>(name + ".cgs", gate, source, params.cgs());
  ckt.add<Capacitor>(name + ".cgd", gate, drain, params.cgd());
  // A junction cap on a grounded terminal would sit between ground and
  // ground: it stamps nothing, so skip it instead of creating a degenerate
  // self-connected device.
  if (drain != kGround) {
    ckt.add<Capacitor>(name + ".cjd", drain, kGround, params.cjunction());
  }
  if (source != kGround) {
    ckt.add<Capacitor>(name + ".cjs", source, kGround, params.cjunction());
  }
  return fet;
}

}  // namespace nvsram::spice
