// Ablation studies on the design choices DESIGN.md calls out:
//   1. store pulse duration vs switching success and store energy
//   2. MTJ switching-dynamics time scale tau0 sensitivity
//   3. V_CTRL leakage control on/off -> static power -> BET
//   4. power-switch threshold (HP vs MTCMOS high-Vth) -> shutdown power -> BET
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/analyzer.h"
#include "lint/report.h"
#include "sram/characterize.h"

namespace {

using namespace nvsram;

void ablate_store_pulse() {
  util::print_banner(std::cout,
                     "Ablation 1: store pulse duration (Table I uses 10 ns)");
  util::TablePrinter t({"pulse", "store ok", "restore ok", "E_store"});
  util::CsvWriter csv("bench_ablation_pulse.csv",
                      {"pulse", "store_ok", "e_store"});
  std::vector<std::string> rejections;
  for (double pulse : {2e-9, 4e-9, 6e-9, 8e-9, 10e-9, 14e-9}) {
    auto pp = models::PaperParams::table1();
    pp.store_pulse = pulse;
    sram::CellCharacterizer ch(pp);
    try {
      const auto nv = ch.characterize(sram::CellKind::kNvSram);
      t.row({util::si_format(pulse, "s", 0), nv.store_verified ? "yes" : "NO",
             nv.restore_verified ? "yes" : "NO",
             util::si_format(nv.e_store, "J")});
      csv.row({pulse, nv.store_verified ? 1.0 : 0.0, nv.e_store});
    } catch (const lint::LintError& e) {
      // The characterize lint gate refuses the testbench before any
      // transient runs; E_store = -1 marks the row as not simulated.
      for (const lint::Diagnostic& d : e.report().diagnostics()) {
        if (d.severity != lint::Severity::kError) continue;
        rejections.push_back(util::si_format(pulse, "s", 0) + ": " + d.rule +
                             ": " + d.message);
        break;
      }
      t.row({util::si_format(pulse, "s", 0), "rejected", "-", "-"});
      csv.row({pulse, 0.0, -1.0});
    }
  }
  t.print(std::cout);
  for (const std::string& r : rejections) std::cout << "rejected " << r << "\n";
  std::cout << "(pulses shorter than the MTJ switching time are refused by the\n"
               " lint gate before any transient runs: the paper's point that\n"
               " the store time cannot be shortened freely at fixed current)\n";
}

void ablate_tau0() {
  util::print_banner(std::cout,
                     "Ablation 2: MTJ dynamics tau0 (model closure, 3 ns)");
  util::TablePrinter t({"tau0", "t_sw @1.5Ic", "store ok"});
  util::CsvWriter csv("bench_ablation_tau0.csv", {"tau0", "tsw", "store_ok"});
  for (double tau0 : {1e-9, 2e-9, 3e-9, 4e-9, 6e-9}) {
    auto pp = models::PaperParams::table1();
    pp.mtj.tau0 = tau0;
    const models::MTJ mtj(pp.mtj);
    const double tsw = mtj.switching_time(
        models::MtjState::kParallel,
        -pp.store_current_factor * pp.mtj.critical_current());
    sram::CellCharacterizer ch(pp);
    const auto nv = ch.characterize(sram::CellKind::kNvSram);
    t.row({util::si_format(tau0, "s", 0), util::si_format(tsw, "s"),
           nv.store_verified ? "yes" : "NO"});
    csv.row({tau0, tsw, nv.store_verified ? 1.0 : 0.0});
  }
  t.print(std::cout);
}

void ablate_vctrl() {
  util::print_banner(
      std::cout, "Ablation 3: V_CTRL leakage control (0.07 V vs grounded)");
  util::TablePrinter t({"V_CTRL", "P_normal(NV)", "BET (n_RW=100)"});
  util::CsvWriter csv("bench_ablation_vctrl.csv",
                      {"vctrl", "p_normal", "bet"});
  for (double vctrl : {0.0, 0.04, 0.07, 0.12}) {
    auto pp = models::PaperParams::table1();
    pp.vctrl_normal = vctrl;
    core::PowerGatingAnalyzer an(pp);
    core::BenchmarkParams base;
    base.n_rw = 100;
    base.t_sl = 100e-9;
    const auto bet = an.model().break_even_time(core::Architecture::kNVPG, base);
    t.row({util::si_format(vctrl, "V", 2),
           util::si_format(an.cell_nv().p_static_normal, "W"),
           bet ? util::si_format(*bet, "s") : "never"});
    csv.row({vctrl, an.cell_nv().p_static_normal, bet ? *bet : -1.0});
  }
  t.print(std::cout);
}

void ablate_switch_vth() {
  util::print_banner(
      std::cout,
      "Ablation 4: power-switch Vth (HP device vs MTCMOS high-Vth)");
  util::TablePrinter t({"switch Vth", "P_shutdown(NV)", "BET (n_RW=100)"});
  util::CsvWriter csv("bench_ablation_swvth.csv",
                      {"vth", "p_shutdown", "bet"});
  for (double vth : {0.25, 0.30, 0.35, 0.40, 0.45}) {
    auto pp = models::PaperParams::table1();
    pp.power_switch_vth = vth;
    core::PowerGatingAnalyzer an(pp);
    core::BenchmarkParams base;
    base.n_rw = 100;
    base.t_sl = 100e-9;
    const auto bet = an.model().break_even_time(core::Architecture::kNVPG, base);
    t.row({util::si_format(vth, "V", 2),
           util::si_format(an.cell_nv().p_static_shutdown, "W"),
           bet ? util::si_format(*bet, "s") : "never"});
    csv.row({vth, an.cell_nv().p_static_shutdown, bet ? *bet : -1.0});
  }
  t.print(std::cout);
}

void ablate_temperature() {
  util::print_banner(std::cout,
                     "Ablation 5: temperature (leakage -> static power -> BET)");
  util::TablePrinter t({"T", "P_normal(NV)", "P_sleep(NV)", "BET (n_RW=100)"});
  util::CsvWriter csv("bench_ablation_temp.csv",
                      {"temp_k", "p_normal", "p_sleep", "bet"});
  for (double temp : {273.0, 300.0, 330.0, 358.0}) {
    auto pp = models::PaperParams::table1();
    pp.temperature = temp;
    core::PowerGatingAnalyzer an(pp);
    core::BenchmarkParams base;
    base.n_rw = 100;
    base.t_sl = 100e-9;
    const auto bet = an.model().break_even_time(core::Architecture::kNVPG, base);
    t.row({util::si_format(temp, "K", 0),
           util::si_format(an.cell_nv().p_static_normal, "W"),
           util::si_format(an.cell_nv().p_static_sleep, "W"),
           bet ? util::si_format(*bet, "s") : "never"});
    csv.row({temp, an.cell_nv().p_static_normal, an.cell_nv().p_static_sleep,
             bet ? *bet : -1.0});
  }
  t.print(std::cout);
  std::cout << "(hotter silicon leaks more, so power gating breaks even\n"
               " sooner: BET shrinks with temperature)\n";
}

void ablate_peripheral() {
  util::print_banner(
      std::cout,
      "Ablation 6: peripheral (WL/SR/CTRL driver) overhead the paper excludes");
  core::PowerGatingAnalyzer an(models::PaperParams::table1());
  core::EnergyModel bare = an.model();
  core::EnergyModel loaded = an.model();
  loaded.set_peripheral(core::PeripheralModel(core::PeripheralParams{},
                                              models::PaperParams::table1()));
  core::BenchmarkParams p;
  p.n_rw = 100;
  p.t_sl = 100e-9;
  util::TablePrinter t({"model", "E_cyc NVPG", "NOF/OSR @1e4", "BET (NVPG)"});
  util::CsvWriter csv("bench_ablation_periph.csv",
                      {"loaded", "e_nvpg", "nof_ratio", "bet"});
  for (auto* m : {&bare, &loaded}) {
    core::BenchmarkParams big = p;
    big.n_rw = 10000;
    const double nof_ratio = m->e_cyc(core::Architecture::kNOF, big) /
                             m->e_cyc(core::Architecture::kOSR, big);
    const auto bet = m->break_even_time(core::Architecture::kNVPG, p);
    t.row({m == &bare ? "cell only (paper)" : "with drivers",
           util::si_format(m->e_cyc(core::Architecture::kNVPG, p), "J"),
           bench::ratio_fmt(nof_ratio),
           bet ? util::si_format(*bet, "s") : "never"});
    csv.row({m == &bare ? 0.0 : 1.0,
             m->e_cyc(core::Architecture::kNVPG, p), nof_ratio,
             bet ? *bet : -1.0});
  }
  t.print(std::cout);
  std::cout << "(the drivers the paper excludes shift absolute energies but\n"
               " leave every architectural conclusion intact)\n";
}

}  // namespace

int main() {
  bench::print_header("Ablations", "design-choice sensitivities (not a paper "
                                   "figure; documents the reproduction)");
  ablate_store_pulse();
  ablate_tau0();
  ablate_vctrl();
  ablate_switch_vth();
  ablate_temperature();
  ablate_peripheral();
  bench::print_footer("bench_ablation_*.csv");
  return 0;
}
