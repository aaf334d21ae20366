// nvspice: a tiny SPICE-like command-line front end for the simulator.
//
// Usage:
//   nvspice <netlist-file>     run the analyses in the file
//   nvspice --demo             run a built-in NV-SRAM store demo netlist
//
// The netlist grammar is documented in spice/netlist_parser.h; it supports
// the FinFET (M...nfin/pfin) and MTJ (Y...P/AP) compact models alongside
// the usual R/C/V/I/D cards, plus .dc/.tran/.probe analyses.
#include <fstream>
#include <iostream>
#include <sstream>

#include "spice/mtj_element.h"
#include "spice/netlist_parser.h"
#include "util/table.h"
#include "util/units.h"

namespace {

constexpr const char* kDemoNetlist = R"(NV store demo: drive 1.5 x Ic through an MTJ for 10 ns
* The PS-FinFET branch of the paper's cell, in isolation:
*   storage node (driven) -- nFET (gate = SR) -- Y -- MTJ -- CTRL (gnd)
Vq   q    0 DC 0.9
Vsr  sr   0 PULSE(0 0.65 2n 0.1n 0.1n 12n)
M1   q sr y nfin
Y1   0 y  P
.probe v(y) i(Y1) e(Vq)
.tran 18n
.end
)";

void print_waveform_summary(const nvsram::spice::Waveform& wave) {
  using nvsram::util::si_format;
  nvsram::util::TablePrinter t({"series", "min", "max", "final"});
  for (const auto& label : wave.labels()) {
    t.row({label, si_format(wave.minimum(label), ""),
           si_format(wave.maximum(label), ""),
           si_format(wave.final_value(label), "")});
  }
  t.print(std::cout);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nvsram;

  std::string text;
  if (argc == 2 && std::string(argv[1]) == "--demo") {
    text = kDemoNetlist;
    std::cout << "[running built-in demo netlist]\n" << kDemoNetlist << "\n";
  } else if (argc == 2) {
    std::ifstream in(argv[1]);
    if (!in) {
      std::cerr << "nvspice: cannot open " << argv[1] << "\n";
      return 1;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    text = ss.str();
  } else {
    std::cout << "usage: nvspice <netlist> | nvspice --demo\n";
    // Run the demo anyway so `for b in examples/*` exercises this binary.
    text = kDemoNetlist;
  }

  try {
    spice::NetlistParser parser;
    auto net = parser.parse(text);
    std::cout << "parsed '" << net->title() << "': "
              << net->circuit().devices().size() << " devices, "
              << net->circuit().node_count() - 1 << " nodes\n";

    if (net->dc_card()) {
      std::cout << "\n-- .dc sweep of " << net->dc_card()->source << " --\n";
      const auto wave = net->run_dc_sweep();
      print_waveform_summary(wave);
      wave.write_csv("nvspice_dc.csv");
      std::cout << "[wrote nvspice_dc.csv]\n";
    }
    if (net->tran_card()) {
      std::cout << "\n-- .tran to "
                << util::si_format(net->tran_card()->t_stop, "s") << " --\n";
      const auto wave = net->run_tran();
      print_waveform_summary(wave);
      wave.write_csv("nvspice_tran.csv");
      std::cout << "[wrote nvspice_tran.csv]\n";
    }
    if (net->ac_card()) {
      std::cout << "\n-- .ac " << net->ac_card()->source << " "
                << util::si_format(net->ac_card()->f_start, "Hz") << " .. "
                << util::si_format(net->ac_card()->f_stop, "Hz") << " --\n";
      const auto wave = net->run_ac();
      print_waveform_summary(wave);
      wave.write_csv("nvspice_ac.csv");
      std::cout << "[wrote nvspice_ac.csv]\n";
    }
    if (!net->dc_card() && !net->tran_card() && !net->ac_card()) {
      std::cout << "\n-- operating point --\n";
      const auto sol = net->run_op();
      if (!sol) {
        std::cerr << "operating point did not converge\n";
        return 1;
      }
      util::TablePrinter t({"node", "voltage"});
      for (spice::NodeId n = 1; n < net->circuit().node_count(); ++n) {
        t.row({net->circuit().node_name(n),
               util::si_format(sol->node_voltage(n), "V")});
      }
      t.print(std::cout);
    }

    // Report MTJ end states if any are present.
    for (const auto& dev : net->circuit().devices()) {
      if (auto* mtj = spice::device_cast<spice::MTJElement>(dev.get())) {
        std::cout << "MTJ " << mtj->name() << ": state "
                  << models::to_string(mtj->state()) << " after "
                  << mtj->switch_count() << " switch(es)\n";
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "nvspice: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
