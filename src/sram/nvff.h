// Nonvolatile flip-flop (NV-FF) on the pseudo-spin-FinFET architecture.
//
// The paper's NVPG architecture covers "NV-SRAM and NV-FF" circuits (its
// refs [5], [6]); this module builds the flip-flop companion: a standard
// transmission-gate master-slave D flip-flop whose SLAVE latch carries the
// same two PS-FinFET + MTJ retention branches as the NV-SRAM cell.
//
//   clk = 1 : master transparent, slave holds   (retention-capable state)
//   clk = 0 : master holds, slave transparent   (Q updates: falling edge FF)
//
// Store/restore work exactly like the cell: assert SR with the slave in
// hold, run the two-step CIMS store, gate the domain off, and on wake-up
// the MTJ resistance asymmetry regenerates the slave latch.
#pragma once

#include "models/paper_params.h"
#include "spice/circuit.h"
#include "spice/mtj_element.h"
#include "sram/cell.h"
#include "sram/script.h"

namespace nvsram::sram {

struct NvffHandles {
  spice::NodeId d = spice::kGround;    // data input
  spice::NodeId clk = spice::kGround;  // clock (clkb generated internally)
  spice::NodeId q = spice::kGround;    // output
  spice::NodeId qb = spice::kGround;   // complement (slave internal node)
  spice::NodeId vvdd = spice::kGround;
  spice::NodeId sr = spice::kGround;
  spice::NodeId ctrl = spice::kGround;
  spice::MTJElement* mtj_q = nullptr;   // on the Q side of the slave latch
  spice::MTJElement* mtj_qb = nullptr;  // on the complement side
};

// Transmission gate between a and b: conducts when c = 1 (cb = 0).
void build_transmission_gate(spice::Circuit& ckt, const std::string& name,
                             const models::PaperParams& pp, spice::NodeId a,
                             spice::NodeId b, spice::NodeId c, spice::NodeId cb);

// Builds the NV-FF; `nonvolatile = false` builds the plain volatile D-FF
// baseline (for energy comparisons).
NvffHandles build_nvff(spice::Circuit& ckt, const std::string& prefix,
                       const models::PaperParams& pp, spice::NodeId d,
                       spice::NodeId clk, spice::NodeId vvdd, spice::NodeId sr,
                       spice::NodeId ctrl, bool nonvolatile = true);

// Scripted NV-FF testbench (the same Script as CellTestbench).
class NvffTestbench {
 public:
  explicit NvffTestbench(models::PaperParams pp, bool nonvolatile = true);

  spice::Circuit& circuit() { return circuit_; }
  const NvffHandles& ff() const { return handles_; }

  // ---- schedule ----
  // One full clock cycle latching `data` (captures on clk = 1, propagates
  // to Q on the falling edge at the cycle's midpoint).
  void op_clock_data(bool data);
  void op_hold(double duration);  // clk = 1: slave holds (store-safe state)
  void op_store();
  void op_shutdown(double duration);
  void op_restore();
  double now() const { return script_.now(); }
  // n-th occurrence of a phase with this name (throws if absent).
  const PhaseWindow& phase(const std::string& name, int occurrence = 0) const {
    return script_.phase(name, occurrence);
  }

  // Probes V(Q), V(QB) and V(VVDD), then each driver's energy.  Given
  // `instants`, the waveform keeps only the samples that reading it there
  // needs (Script::run); with none it keeps every sample.
  Script::Result run(std::vector<double> instants = {});

  spice::MTJElement* mtj_q() const { return handles_.mtj_q; }
  spice::MTJElement* mtj_qb() const { return handles_.mtj_qb; }

 private:
  models::PaperParams pp_;
  bool nonvolatile_;
  spice::Circuit circuit_;
  NvffHandles handles_;

  Script script_;
  Script::TrackId vdd_, pg_, d_, clk_, sr_, ctrl_;
};

// Characterized NV-FF energetics feeding a register-bank BET estimate.
struct NvffEnergetics {
  double e_clock = 0.0;          // energy of one clocked data cycle (J)
  double p_static_hold = 0.0;    // W, clk high, data held
  double p_static_shutdown = 0.0;
  double e_store = 0.0;
  double e_restore = 0.0;
  double t_store = 0.0;
  double t_restore = 0.0;
  bool store_verified = false;
  bool restore_verified = false;
};

NvffEnergetics characterize_nvff(const models::PaperParams& pp);

}  // namespace nvsram::sram
