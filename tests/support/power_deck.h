// A generated NV-SRAM array whose power-intent violations span several rows,
// shared by the lint golden (tests/test_lint.cpp) and the power entry-point
// agreement test (tests/test_power.cpp).
//
// Starting from make_nvsram_array_netlist(8, 8):
//   * word lines Vwl2 and Vwl5 fire a second access pulse at 1000 ns, inside
//     the power-off window (the PWL of
//     tests/netlists_bad/bad_wl_in_off_window.cir);
//   * a 100 kOhm resistor bypasses the header switch (vdd -> vvdd).
// The deck fires power-wl-in-off-window on both rows; power-sneak-path from
// the supply through the bypass, and from every bit line through row 2's
// open access devices; and one data-read-before-restore.
#pragma once

#include <cstddef>
#include <string>

#include "support/array_gen.h"

namespace nvsram::testsupport {

inline std::string make_power_violation_array_netlist() {
  std::string deck = make_nvsram_array_netlist(8, 8);
  for (const int row : {2, 5}) {
    const std::string card =
        "Vwl" + std::to_string(row) + " wl" + std::to_string(row) + " 0 ";
    const std::size_t at = deck.find(card + "PULSE(");
    const std::size_t eol = deck.find('\n', at);
    deck.replace(at, eol + 1 - at,
                 card +
                     "PWL(1n 0 1.05n 0.9 3n 0.9 3.05n 0 1000n 0 1000.05n 0.9 "
                     "1002n 0.9 1002.05n 0)\n");
  }
  deck.insert(deck.find(".probe"), "Rbyp vdd vvdd 100k\n");
  return deck;
}

}  // namespace nvsram::testsupport
