#include "sram/array.h"

#include <stdexcept>
#include <utility>

namespace nvsram::sram {

using spice::NodeId;

ArrayHandles build_array(spice::Circuit& ckt, const std::string& prefix,
                         const models::PaperParams& pp,
                         const ArrayOptions& opts) {
  if (opts.rows < 1 || opts.cols < 1) {
    throw std::invalid_argument("build_array: rows/cols must be >= 1");
  }
  ArrayHandles h;
  h.rows = opts.rows;
  h.cols = opts.cols;
  h.vdd = ckt.node(prefix + ".vdd");

  for (int c = 0; c < opts.cols; ++c) {
    h.bl.push_back(ckt.node(prefix + ".bl" + std::to_string(c)));
    h.blb.push_back(ckt.node(prefix + ".blb" + std::to_string(c)));
  }

  h.cells.resize(opts.rows);
  for (int r = 0; r < opts.rows; ++r) {
    const std::string rp = prefix + ".r" + std::to_string(r);
    const NodeId wl = ckt.node(rp + ".wl");
    const NodeId vv = ckt.node(rp + ".vvdd");
    const NodeId pg = ckt.node(rp + ".pg");
    h.wordlines.push_back(wl);
    h.vvdd.push_back(vv);
    h.pg.push_back(pg);
    build_power_switch(ckt, rp, pp, h.vdd, vv, pg,
                       pp.fins_power_switch * opts.cols);

    NodeId sr = spice::kGround;
    NodeId ctrl = spice::kGround;
    if (opts.nonvolatile) {
      sr = ckt.node(rp + ".sr");
      ctrl = ckt.node(rp + ".ctrl");
      h.sr.push_back(sr);
      h.ctrl.push_back(ctrl);
    }

    h.cells[r].reserve(opts.cols);
    for (int c = 0; c < opts.cols; ++c) {
      const std::string cp = rp + ".c" + std::to_string(c);
      if (opts.nonvolatile) {
        h.cells[r].push_back(build_nvsram_cell(ckt, cp, pp, vv, wl, h.bl[c],
                                               h.blb[c], sr, ctrl));
      } else {
        h.cells[r].push_back(
            build_6t_cell(ckt, cp, pp, vv, wl, h.bl[c], h.blb[c]));
      }
    }
  }
  return h;
}

// ---- ArrayTestbench ----------------------------------------------------------

std::string ArrayTestbench::q_label(int r, int c) {
  return "Q[" + std::to_string(r) + "][" + std::to_string(c) + "]";
}

ArrayTestbench::ArrayTestbench(models::PaperParams pp, ArrayOptions opts)
    : pp_(pp), opts_(opts) {
  handles_ = build_array(circuit_, "a", pp_, opts_);

  vdd_ = script_.add_driver(circuit_, "Vdd", handles_.vdd, pp_.vdd);
  for (int r = 0; r < opts_.rows; ++r) {
    const std::string rn = std::to_string(r);
    wl_.push_back(
        script_.add_driver(circuit_, "Vwl" + rn, handles_.wordlines[r], 0.0));
    pg_.push_back(
        script_.add_driver(circuit_, "Vpg" + rn, handles_.pg[r], 0.0));
    if (opts_.nonvolatile) {
      sr_.push_back(
          script_.add_driver(circuit_, "Vsr" + rn, handles_.sr[r], 0.0));
      ctrl_.push_back(script_.add_driver(circuit_, "Vctrl" + rn,
                                         handles_.ctrl[r], pp_.vctrl_normal));
    }
  }
  for (int c = 0; c < opts_.cols; ++c) {
    const std::string cn = std::to_string(c);
    bl_.push_back(
        script_.add_driver(circuit_, "Vbl" + cn, handles_.bl[c], pp_.vdd));
    blb_.push_back(
        script_.add_driver(circuit_, "Vblb" + cn, handles_.blb[c], pp_.vdd));
  }
}

void ArrayTestbench::op_write_row(int row, const std::vector<bool>& pattern) {
  if (row < 0 || row >= opts_.rows) {
    throw std::out_of_range("op_write_row: bad row");
  }
  if (static_cast<int>(pattern.size()) != opts_.cols) {
    throw std::invalid_argument("op_write_row: pattern width != cols");
  }
  const double T = pp_.clock_period();
  const double t0 = script_.now();
  for (int c = 0; c < opts_.cols; ++c) {
    const TrackId low = pattern[c] ? blb_[c] : bl_[c];
    script_.set_level(low, t0 + 0.05 * T, 0.0);
  }
  script_.set_level(wl_[row], t0 + 0.15 * T, pp_.vdd);
  script_.set_level(wl_[row], t0 + 0.78 * T, 0.0);
  for (int c = 0; c < opts_.cols; ++c) {
    const TrackId low = pattern[c] ? blb_[c] : bl_[c];
    script_.set_level(low, t0 + 0.85 * T, pp_.vdd);
  }
  script_.add_phase("write_row" + std::to_string(row), t0, t0 + T);
  script_.advance_to(t0 + T);
}

void ArrayTestbench::op_read_row(int row) {
  if (row < 0 || row >= opts_.rows) {
    throw std::out_of_range("op_read_row: bad row");
  }
  const double T = pp_.clock_period();
  const double t0 = script_.now();
  script_.set_level(wl_[row], t0 + 0.15 * T, pp_.vdd);
  script_.set_level(wl_[row], t0 + 0.70 * T, 0.0);
  script_.add_phase("read_row" + std::to_string(row), t0, t0 + T);
  script_.advance_to(t0 + T);
}

void ArrayTestbench::op_idle(double duration) {
  const double t0 = script_.now();
  script_.add_phase("idle", t0, t0 + duration);
  script_.advance_to(t0 + duration);
}

void ArrayTestbench::store_row(int row) {
  const double step = pp_.store_pulse + kStoreMargin;
  const double t0 = script_.now();
  script_.set_level(ctrl_[row], t0, 0.0);
  script_.set_level(sr_[row], t0, pp_.vsr);
  script_.add_phase("store_h_row" + std::to_string(row), t0, t0 + step);
  script_.set_level(ctrl_[row], t0 + step, pp_.vctrl_store);
  script_.add_phase("store_l_row" + std::to_string(row), t0 + step,
                    t0 + 2 * step);
  script_.set_level(sr_[row], t0 + 2 * step, 0.0);
  script_.set_level(ctrl_[row], t0 + 2 * step, 0.0);
  // Row powers off right after its store (the NVPG sequencing assumption).
  script_.set_level(pg_[row], t0 + 2 * step + 3 * kSlew, pp_.vpg_supercutoff);
  script_.advance_to(t0 + 2 * step + 6 * kSlew);
}

void ArrayTestbench::op_store_all_rows() {
  if (!opts_.nonvolatile) {
    throw std::logic_error("op_store_all_rows: volatile array");
  }
  const double t0 = script_.now();
  for (int r = 0; r < opts_.rows; ++r) store_row(r);
  script_.add_phase("store_all", t0, script_.now());
}

void ArrayTestbench::op_shutdown_all(double duration) {
  const double t0 = script_.now();
  for (int r = 0; r < opts_.rows; ++r) {
    script_.set_level(pg_[r], t0, pp_.vpg_supercutoff);
    if (opts_.nonvolatile) script_.set_level(ctrl_[r], t0, 0.0);
  }
  for (int c = 0; c < opts_.cols; ++c) {
    script_.set_level(bl_[c], t0, 0.0);
    script_.set_level(blb_[c], t0, 0.0);
  }
  script_.add_phase("shutdown", t0, t0 + duration);
  script_.advance_to(t0 + duration);
}

void ArrayTestbench::restore_row(int row) {
  const double t0 = script_.now();
  // A volatile array has no SR or CTRL lines: the row only powers back up.
  if (opts_.nonvolatile) script_.set_level(sr_[row], t0, pp_.vsr);
  script_.set_level(pg_[row], t0 + kSlew, 0.0, kRestoreRamp);
  const double t1 = t0 + kRestoreRamp + kRestoreSettle;
  if (opts_.nonvolatile) {
    script_.set_level(sr_[row], t1, 0.0);
    script_.set_level(ctrl_[row], t1, pp_.vctrl_normal);
  }
  script_.add_phase("restore_row" + std::to_string(row), t0, t1 + 3 * kSlew);
  script_.advance_to(t1 + 3 * kSlew);
}

void ArrayTestbench::op_restore_all_rows() {
  const double t0 = script_.now();
  for (int c = 0; c < opts_.cols; ++c) {
    script_.set_level(bl_[c], t0, pp_.vdd);
    script_.set_level(blb_[c], t0, pp_.vdd);
  }
  for (int r = 0; r < opts_.rows; ++r) restore_row(r);
  script_.add_phase("restore_all", t0, script_.now());
}

Script::Result ArrayTestbench::run() {
  std::vector<spice::Probe> probes;
  for (int r = 0; r < opts_.rows; ++r) {
    for (int c = 0; c < opts_.cols; ++c) {
      probes.push_back(
          spice::Probe::node_voltage(handles_.cells[r][c].q, q_label(r, c)));
    }
    probes.push_back(spice::Probe::node_voltage(
        handles_.vvdd[r], "VVDD[" + std::to_string(r) + "]"));
  }
  return script_.run(circuit_, std::move(probes));
}

}  // namespace nvsram::sram
