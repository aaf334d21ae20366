// Table I of the paper, as a single configuration bundle.
//
// Every bench prints this so the reproduced figures carry their parameters,
// mirroring how the paper couples Table I to the evaluation.
#pragma once

#include <string>

#include "models/finfet.h"
#include "models/mtj.h"

namespace nvsram::models {

struct PaperParams {
  // FinFET technology.
  double channel_length = 20e-9;
  double fin_width = 15e-9;
  double fin_height = 28e-9;
  double temperature = 300.0;  // K (affects leakage, drive, thermal voltage)

  // NV-SRAM cell biases (Table I).
  double vdd = 0.9;              // supply
  double vsr = 0.65;             // SR line (PS-FinFET gate) during store/restore
  double vctrl_store = 0.5;      // CTRL line during L-store
  double vctrl_normal = 0.07;    // CTRL bias minimizing leakage, normal mode
  double vctrl_sleep = 0.04;     // CTRL bias during sleep
  double vvdd_sleep = 0.7;       // virtual-VDD in the sleep retention mode
  // Lowest (virtual) rail at which the cross-coupled core still holds its
  // state; sleep levels below this lose data without a preceding store.
  double vvdd_retention_floor = 0.45;
  double vpg_supercutoff = 1.0;  // power-switch gate overdrive in shutdown

  // Fin numbers (N_FL, N_FD, N_FP, N_FPS) = (1,1,1,1); power switch N_FSW.
  int fins_load = 1;
  int fins_driver = 1;
  int fins_access = 1;
  int fins_ps = 1;
  int fins_power_switch = 7;
  // MTCMOS practice (the paper's ref [1]): the header switch is a
  // high-threshold device so that super cutoff reaches pA-class leakage.
  double power_switch_vth = 0.40;

  // Timing.
  double clock_hz = 300e6;       // read/write speed (1 GHz for Fig. 9(b))
  double store_pulse = 10e-9;    // store duration per step
  double store_current_factor = 1.5;  // target store current = 1.5 x Ic

  // MTJ.
  MTJParams mtj = paper_mtj(false);

  // Derived presets.
  FinFETParams nmos(int fins) const;
  FinFETParams pmos(int fins) const;
  double clock_period() const { return 1.0 / clock_hz; }

  // The Fig. 9(b) "fast" variant: 1 GHz clock and Jc = 1e6 A/cm^2.
  static PaperParams table1();
  static PaperParams table1_fast();

  // Renders the Table I block as printable text.
  std::string describe() const;

  // Field by field, including the MTJ bundle; keys the process-wide
  // characterization cache (sram/characterize_cache.h).
  bool operator==(const PaperParams&) const = default;
};

}  // namespace nvsram::models
