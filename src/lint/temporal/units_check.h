// Dimensional / range analysis over parameters and stimulus values.
//
// These checks catch the classic unit slips of this literature before they
// silently skew a simulation: a critical current density entered in A/cm^2
// where the model wants A/m^2 (4 orders of magnitude of store current), a
// pulse width in the wrong SI prefix, a bias outside anything the 14 nm
// process survives.  Derived quantities (Ic, switching time, store energy)
// are recomputed with util::Quantity so the algebra is checked symbolically,
// not just numerically.  Findings surface as `units-*` lint rules.
#pragma once

#include <vector>

#include "lint/diagnostic.h"

namespace nvsram::spice {
class ParsedNetlist;
}  // namespace nvsram::spice
namespace nvsram::models {
struct PaperParams;
}  // namespace nvsram::models

namespace nvsram::lint::temporal {

struct Timeline;

// Stimulus-level checks on any timeline: driver levels within the process
// voltage range, schedule horizon on a plausible time scale.
std::vector<Diagnostic> check_timeline_units(const Timeline& timeline);

// Netlist pass: timeline units plus per-device parameter checks (MTJ
// critical current density and the quantities derived from it).
// `timeline` must be extract_timeline(nl); the linter shares the one it
// extracted for the protocol pass.
std::vector<Diagnostic> check_netlist_units(const spice::ParsedNetlist& nl,
                                            const Timeline& timeline);

// Parameter-bundle pass over Table I values, run before characterization.
std::vector<Diagnostic> check_paper_params(const models::PaperParams& pp);

}  // namespace nvsram::lint::temporal
