// Static noise margin extraction via butterfly curves.
//
// The paper leans on the claim that separating the MTJs via PS-FinFETs
// preserves large normal-mode SNMs; these helpers quantify that on our
// substrate.  The butterfly is one inverter's voltage-transfer curve and
// the other's mirrored about y = x.  Each lobe is measured as the side of
// the largest axis-aligned square inscribed in it, found by bisection on
// the side: a probe asks whether a square of that side fits with its left
// edge anywhere on a 401-point grid.  The SNM is the smaller lobe.
//
// A probe skips each block of grid points whose bound rules a fit out: the
// upper curve's largest value right of the block's first square, less the
// lower curve's smallest value left of its last, falls short of the side by
// more than a slack of 64 ulps of the largest |knot|, which covers the
// rounding of every evaluation.  The result is, bit for bit, that of a scan
// of every grid point, for any curve (exactness invariant 4 in snm.cpp).
#pragma once

#include "models/paper_params.h"
#include "sram/testbench.h"

namespace nvsram::sram {

struct SnmResult {
  double snm = 0.0;        // min of the two lobes (V)
  double lobe_high = 0.0;  // square in the upper-left lobe (V)
  double lobe_low = 0.0;   // square in the lower-right lobe (V)
};

struct SnmOptions {
  int sweep_points = 121;
  double vvdd = 0.0;        // 0 => PaperParams::vdd
  bool access_on = false;   // read SNM: WL high, bitlines at VDD
  bool ps_branch_connected = false;  // NV cell with SR asserted (worst case)
  // Device mismatch hook (Monte-Carlo); device names are "pu", "pd", "ax",
  // "ps" within this inverter.
  FetVary fet_vary;
  // Rung of the shared relaxation ladder (NewtonOptions::relaxed) for the
  // sweep's DC solves; 0 keeps the default tolerances.
  int relax_attempt = 0;
};

// VTC of the cell inverter (with optional access transistor / PS branch
// loading).  Returns (vin, vout) samples.
std::vector<std::pair<double, double>> inverter_vtc(
    const models::PaperParams& pp, CellKind kind, const SnmOptions& opts);

// SNM from two identical cross-coupled VTCs.
SnmResult compute_snm(const std::vector<std::pair<double, double>>& vtc);

// SNM of a MISMATCHED pair: inverter A drives Q from QB, inverter B drives
// QB from Q (Monte-Carlo cells).  lobe_high uses A-over-B, lobe_low the
// mirrored orientation.
SnmResult compute_snm(const std::vector<std::pair<double, double>>& vtc_a,
                      const std::vector<std::pair<double, double>>& vtc_b);

// Convenience wrappers.
SnmResult hold_snm(const models::PaperParams& pp, CellKind kind,
                   double vvdd = 0.0);
SnmResult read_snm(const models::PaperParams& pp, CellKind kind);

}  // namespace nvsram::sram
