#include "models/paper_params.h"

#include <sstream>

#include "util/units.h"

namespace nvsram::models {

FinFETParams PaperParams::nmos(int fins) const {
  FinFETParams p = ptm20_nmos(fins);
  p.channel_length = channel_length;
  p.fin_width = fin_width;
  p.fin_height = fin_height;
  p.temperature = temperature;
  return p;
}

FinFETParams PaperParams::pmos(int fins) const {
  FinFETParams p = ptm20_pmos(fins);
  p.channel_length = channel_length;
  p.fin_width = fin_width;
  p.fin_height = fin_height;
  p.temperature = temperature;
  return p;
}

PaperParams PaperParams::table1() { return PaperParams{}; }

PaperParams PaperParams::table1_fast() {
  PaperParams p;
  p.clock_hz = 1e9;
  p.mtj = paper_mtj(true);
  // The 5x lower Jc allows proportionally weaker store biases while keeping
  // the same 1.5 x Ic margin (store energy drops accordingly).
  p.vsr = 0.40;
  p.vctrl_store = 0.30;
  return p;
}

std::string PaperParams::describe() const {
  std::ostringstream os;
  os << "Table I parameters\n"
     << "  FinFET: L=" << util::si_format(channel_length, "m")
     << "  fin W=" << util::si_format(fin_width, "m")
     << "  fin H=" << util::si_format(fin_height, "m") << "\n"
     << "  VDD=" << vdd << " V  VSR=" << vsr << " V  VCTRL(store)="
     << vctrl_store << " V  VCTRL(normal)=" << vctrl_normal
     << " V  VCTRL(sleep)=" << vctrl_sleep << " V\n"
     << "  Fins (load,driver,access,PS)=(" << fins_load << "," << fins_driver
     << "," << fins_access << "," << fins_ps << ")  N_FSW="
     << fins_power_switch << "\n"
     << "  Clock=" << util::si_format(clock_hz, "Hz")
     << "  store pulse=" << util::si_format(store_pulse, "s")
     << "  store current=" << store_current_factor << " x Ic\n"
     << "  " << mtj.describe() << "\n";
  return os.str();
}

}  // namespace nvsram::models
