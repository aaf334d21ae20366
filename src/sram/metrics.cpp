#include "sram/metrics.h"

#include <cmath>
#include <stdexcept>

#include "sram/snm.h"
#include "util/rootfind.h"

namespace nvsram::sram {

double write_margin(const models::PaperParams& pp, CellKind kind) {
  // Sweep BLB downward with WL high while the cell holds '1' (QB low side
  // is BL... the cell holds Q=1 so flipping requires pulling BL low).
  // We hold data '1' and sweep BL; the flip shows as Q collapsing.
  CellTestbench tb(kind, pp, TestbenchOptions{.ideal_bitlines = true});
  auto bias = tb.bias_normal();
  bias.wl = pp.vdd;

  double flip_level = 0.0;
  bool found = false;
  // March BL down in 10 mV steps; DC warm-start keeps the held state until
  // the write trip point, where the solver lands on the flipped state.
  for (double vbl = pp.vdd; vbl >= -1e-9; vbl -= 0.01) {
    bias.bl = vbl;
    const auto sol = tb.solve_dc(bias, /*data=*/true);
    if (!sol) continue;
    const double q = sol->node_voltage(tb.cell().q);
    if (q < 0.5 * pp.vdd) {
      flip_level = vbl;
      found = true;
      break;
    }
  }
  if (!found) return 0.0;  // never flips: zero write margin headroom metric
  return pp.vdd - flip_level;
}

double read_current(const models::PaperParams& pp, CellKind kind) {
  CellTestbench tb(kind, pp, TestbenchOptions{.ideal_bitlines = true});
  auto bias = tb.bias_normal();
  bias.wl = pp.vdd;  // read condition: WL high, both bitlines precharged
  const auto sol = tb.solve_dc(bias, /*data=*/true);
  if (!sol) throw std::runtime_error("read_current: DC failed");
  // Q = 1: the discharge path is BLB -> access -> QB -> driver.  Measure the
  // access transistor current via the bitline source.
  auto* blb =
      spice::device_cast<spice::VSource>(tb.circuit().find_device("Vblb"));
  if (!blb) throw std::logic_error("read_current: no ideal BLB source");
  // Source branch current is + -> - internally; delivering current makes it
  // negative, so the discharge current is its magnitude.
  return std::fabs(blb->current(sol->view()));
}

double data_retention_voltage(const models::PaperParams& pp, CellKind kind,
                              double min_snm) {
  auto snm_at = [&](double vvdd) {
    return hold_snm(pp, kind, vvdd).snm - min_snm;
  };
  // Hold SNM is monotone in the rail voltage over the relevant range.
  const double lo = 0.05;
  const double hi = pp.vdd;
  if (snm_at(hi) <= 0.0) return hi;  // degenerate: no retention even at VDD
  if (snm_at(lo) > 0.0) return lo;   // retains at (almost) any voltage
  const auto root = util::brent(snm_at, lo, hi, {.x_tolerance = 1e-4});
  if (!root || !root->converged) {
    throw std::runtime_error("data_retention_voltage: bisection failed");
  }
  return root->x;
}

CellMetrics measure_cell_metrics(const models::PaperParams& pp, CellKind kind) {
  CellMetrics m;
  m.write_margin = write_margin(pp, kind);
  m.read_current = read_current(pp, kind);
  m.retention_voltage = data_retention_voltage(pp, kind);
  return m;
}

}  // namespace nvsram::sram
