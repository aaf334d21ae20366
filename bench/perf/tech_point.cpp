// tech_point: what a user waits for when asking the paper's question of a
// new technology point.  One item builds core::PowerGatingAnalyzer, which
// characterizes the 6T and NV-SRAM cells cold (adaptive transients on
// ~30 unknowns with dense LU, MTJ switching events, the characterize lint
// gate, DC corners), then evaluates the Fig. 7/8/9 series for OSR, NVPG and
// NOF.  Every item's parameters are distinct, so the process-wide
// characterize cache never hits.
//
// The traced run replays CellCharacterizer::characterize's script through
// the public CellTestbench API with a span around each layer call, and
// requires the replayed energetics to equal the analyzer's bit for bit.
#include <cmath>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/analyzer.h"
#include "core/energy_model.h"
#include "lint/dataflow/check.h"
#include "lint/power/check.h"
#include "lint/report.h"
#include "lint/temporal/protocol.h"
#include "lint/temporal/units_check.h"
#include "models/paper_params.h"
#include "sram/characterize.h"
#include "sram/characterize_cache.h"
#include "sram/testbench.h"
#include "util/stats.h"
#include "workloads.h"

namespace perf {
namespace {

using nvsram::core::Architecture;
using nvsram::core::BenchmarkParams;
using nvsram::core::EnergyModel;
using nvsram::core::PowerGatingAnalyzer;
using nvsram::models::PaperParams;
using nvsram::sram::CellEnergetics;
using nvsram::sram::CellKind;
using nvsram::sram::CellTestbench;
using nvsram::sram::TestbenchOptions;

constexpr std::uint64_t kStream = 0x7ec4;
// Every fourth item starts from the Fig. 9(b) fast technology instead of
// Table I; the rest of the draw is the same jitter.
constexpr long kFastEvery = 4;

constexpr Architecture kArchs[] = {Architecture::kOSR, Architecture::kNVPG,
                                   Architecture::kNOF};
const std::vector<int> kNrwGrid{1, 3, 10, 30, 100, 300, 1000, 3000, 10000};
const std::vector<double> kTsdGrid = nvsram::util::logspace(1e-6, 1e-1, 21);
const std::vector<int> kRowGrid{32, 64, 128, 256, 512, 1024, 2048};

// The base point of the paper-golden test (tests/test_paper_golden.cpp).
BenchmarkParams base_params() {
  BenchmarkParams p;
  p.n_rw = 100;
  p.t_sl = 100e-9;
  p.t_sd = 0.0;
  p.rows = 32;
  p.cols = 32;
  return p;
}

using Curve = std::vector<std::pair<double, double>>;

struct Input {
  PaperParams pp;
  bool table1 = false;  // exact Table I: compared against the goldens
};

struct Output {
  CellEnergetics c6;
  CellEnergetics cnv;
  std::vector<Curve> fig7;  // E_cyc(n_RW), one curve per architecture
  std::vector<Curve> fig8;  // E_cyc(t_SD)
  std::vector<std::vector<PowerGatingAnalyzer::BetPoint>> fig9;  // BET(N)
};

// The golden keys of tests/test_paper_golden.cpp, computed the same way.
std::map<std::string, double> goldens(const Output& out) {
  const EnergyModel model(out.c6, out.cnv);
  const auto& c6 = out.c6;
  const auto& cn = out.cnv;
  std::map<std::string, double> g;
  g["6t.t_clk"] = c6.t_clk;
  g["6t.e_read"] = c6.e_read;
  g["6t.e_write"] = c6.e_write;
  g["6t.p_static_normal"] = c6.p_static_normal;
  g["6t.p_static_sleep"] = c6.p_static_sleep;
  g["6t.p_static_shutdown"] = c6.p_static_shutdown;
  g["nv.e_read"] = cn.e_read;
  g["nv.e_write"] = cn.e_write;
  g["nv.e_store"] = cn.e_store;
  g["nv.t_store"] = cn.t_store;
  g["nv.e_restore"] = cn.e_restore;
  g["nv.t_restore"] = cn.t_restore;
  g["nv.e_sleep_transition"] = cn.e_sleep_transition;
  g["nv.p_static_normal"] = cn.p_static_normal;
  g["nv.p_static_sleep"] = cn.p_static_sleep;
  g["nv.p_static_shutdown"] = cn.p_static_shutdown;

  BenchmarkParams p = base_params();
  p.t_sd = 100e-6;
  g["fig8.ecyc_osr_tsd100us"] = model.e_cyc(Architecture::kOSR, p);
  g["fig8.ecyc_nvpg_tsd100us"] = model.e_cyc(Architecture::kNVPG, p);
  g["fig8.ecyc_nof_tsd100us"] = model.e_cyc(Architecture::kNOF, p);
  p = base_params();
  g["fig8.bet_nvpg_nrw100"] =
      model.break_even_time(Architecture::kNVPG, p).value_or(-1.0);
  g["fig8.bet_nof_nrw100"] =
      model.break_even_time(Architecture::kNOF, p).value_or(-1.0);
  p.store_free_shutdown = true;
  g["fig9.bet_nvpg_storefree_nrw100"] =
      model.break_even_time(Architecture::kNVPG, p).value_or(-1.0);
  p = base_params();
  p.rows = 1024;
  g["fig9.bet_nvpg_rows1024"] =
      model.break_even_time(Architecture::kNVPG, p).value_or(-1.0);
  return g;
}

std::map<std::string, double> load_goldens() {
  std::ifstream in(NVSRAM_GOLDEN_CSV);
  if (!in) throw std::runtime_error("cannot read " NVSRAM_GOLDEN_CSV);
  std::map<std::string, double> g;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line == "key,value") continue;
    const auto comma = line.find(',');
    if (comma == std::string::npos) continue;
    g[line.substr(0, comma)] = std::stod(line.substr(comma + 1));
  }
  if (g.empty()) throw std::runtime_error("no goldens in " NVSRAM_GOLDEN_CSV);
  return g;
}

// The static protocol gate characterize() runs before each transient
// (sram/characterize.cpp), rebuilt from the public lint passes.
void gate_schedule(const CellTestbench& tb, const PaperParams& pp,
                   CellKind kind) {
  namespace lint = nvsram::lint;
  const auto opt = lint::temporal::TemporalOptions::from_paper(pp);
  const auto tl = tb.export_timeline();
  lint::LintReport report;
  for (auto& d : lint::temporal::check_timeline(tl, opt)) report.add(std::move(d));
  for (auto& d : lint::temporal::check_timeline_units(tl)) report.add(std::move(d));
  for (auto& d : lint::temporal::check_paper_params(pp)) report.add(std::move(d));
  for (auto& d : lint::power::check_power(tb.circuit(), tl, nullptr, {})) {
    report.add(std::move(d));
  }
  auto dopt = lint::dataflow::DataflowOptions::from_paper(pp);
  if (auto cached = nvsram::sram::characterize_cache_peek(pp, kind)) {
    dopt.store_energy_hint = cached->e_store;
  }
  for (auto& d : lint::dataflow::check_dataflow(tl, dopt, &tb.circuit(), nullptr)) {
    report.add(std::move(d));
  }
  if (report.has_errors()) throw lint::LintError(std::move(report));
}

struct TranTotals {
  double steps = 0, rejected = 0, newton = 0, events = 0, recoveries = 0;
  void add(const nvsram::spice::TranStats& s) {
    steps += static_cast<double>(s.accepted_steps);
    rejected += static_cast<double>(s.rejected_steps);
    newton += static_cast<double>(s.total_newton_iterations);
    events += static_cast<double>(s.device_events);
    recoveries += static_cast<double>(s.recoveries());
  }
};

TestbenchOptions ideal_bitlines() {
  TestbenchOptions o;
  o.ideal_bitlines = true;
  return o;
}

// CellCharacterizer::characterize(kind), step for step, with a span around
// each call into sram (testbench build + schedule), lint (gate), spice
// (transient, DC corners).
CellEnergetics replay(const PaperParams& pp, CellKind kind, long item,
                      Tracer* tr, TranTotals& totals) {
  using SM = CellTestbench::StaticMode;
  CellEnergetics out;
  out.t_clk = pp.clock_period();

  auto tb = timed(tr, "sram.testbench", item, [&] {
    auto t = std::make_unique<CellTestbench>(kind, pp, TestbenchOptions{});
    t->op_write(true);
    t->op_write(false);
    t->op_write(true);
    t->op_read();
    t->op_read();
    t->op_idle(2e-9);
    if (kind == CellKind::kNvSram) {
      t->op_store();
      t->op_shutdown(3e-6);
      t->op_restore();
      t->op_idle(2e-9);
    }
    return t;
  });
  timed(tr, "lint.gate", item, [&] { gate_schedule(*tb, pp, kind); });
  const auto res = timed(tr, "spice.tran", item, [&] { return tb->run(); });
  totals.add(res.stats);
  out.gmin_recoveries += res.stats.gmin_recoveries;
  out.source_recoveries += res.stats.source_recoveries;
  out.e_write = res.energy(res.phase("write1", 1));
  out.e_read = res.energy(res.phase("read", 1));
  if (kind == CellKind::kNvSram) {
    const auto& sh = res.phase("store_h");
    const auto& sl = res.phase("store_l");
    out.e_store = res.energy(sh.t0, sl.t1);
    out.t_store = sl.t1 - sh.t0;
    const auto& rs = res.phase("restore");
    out.e_restore = res.energy(rs);
    out.t_restore = rs.duration();
    out.store_verified =
        tb->mtj_q()->state() == nvsram::models::MtjState::kAntiparallel &&
        tb->mtj_qb()->state() == nvsram::models::MtjState::kParallel;
    const auto& sd = res.phase("shutdown");
    const double vv_end = res.wave.value_at("V(VVDD)", sd.t1 - 1e-9);
    const double q_final = res.wave.value_at("V(Q)", tb->now() - 0.5e-9);
    const double qb_final = res.wave.value_at("V(QB)", tb->now() - 0.5e-9);
    out.restore_verified = vv_end < 0.25 * pp.vdd && q_final > 0.8 * pp.vdd &&
                           qb_final < 0.2 * pp.vdd;
  }

  {
    auto tbs = timed(tr, "sram.testbench", item, [&] {
      auto t = std::make_unique<CellTestbench>(kind, pp, TestbenchOptions{});
      t->op_write(true);
      t->op_idle(2e-9);
      t->op_sleep(60e-9);
      t->op_idle(2e-9);
      return t;
    });
    timed(tr, "lint.gate", item, [&] { gate_schedule(*tbs, pp, kind); });
    const auto rs = timed(tr, "spice.tran", item, [&] { return tbs->run(); });
    totals.add(rs.stats);
    out.gmin_recoveries += rs.stats.gmin_recoveries;
    out.source_recoveries += rs.stats.source_recoveries;
    const auto& slp = rs.phase("sleep");
    const double e_total = rs.energy(slp);
    auto tbd = timed(tr, "sram.testbench", item, [&] {
      return std::make_unique<CellTestbench>(
          kind, pp, ideal_bitlines());
    });
    const double p_slp = timed(tr, "spice.dc", item, [&] {
      return tbd->static_power(SM::kSleep);
    });
    out.e_sleep_transition = std::max(0.0, e_total - p_slp * slp.duration());
  }

  const std::pair<SM, bool> corners[] = {{SM::kNormal, true},
                                         {SM::kNormal, false},
                                         {SM::kSleep, true},
                                         {SM::kSleep, false},
                                         {SM::kShutdown, true}};
  auto tbd = timed(tr, "sram.testbench", item, [&] {
    return std::make_unique<CellTestbench>(
        kind, pp, ideal_bitlines());
  });
  double p[5] = {};
  timed(tr, "spice.dc", item, [&] {
    for (int i = 0; i < 5; ++i) {
      p[i] = tbd->static_power(corners[i].first, corners[i].second);
    }
  });
  out.p_static_normal = 0.5 * (p[0] + p[1]);
  out.p_static_sleep = 0.5 * (p[2] + p[3]);
  out.p_static_shutdown = p[4];
  return out;
}

// Bitwise equality, so -0.0 != 0.0 and a NaN equals only itself.
bool same_bits(double a, double b) { return std::memcmp(&a, &b, sizeof a) == 0; }

void expect_same_cell(const char* cell, const CellEnergetics& a,
                      const CellEnergetics& b) {
  const std::pair<const char*, double CellEnergetics::*> fields[] = {
      {"t_clk", &CellEnergetics::t_clk},
      {"e_read", &CellEnergetics::e_read},
      {"e_write", &CellEnergetics::e_write},
      {"p_static_normal", &CellEnergetics::p_static_normal},
      {"p_static_sleep", &CellEnergetics::p_static_sleep},
      {"p_static_shutdown", &CellEnergetics::p_static_shutdown},
      {"e_store", &CellEnergetics::e_store},
      {"t_store", &CellEnergetics::t_store},
      {"e_restore", &CellEnergetics::e_restore},
      {"t_restore", &CellEnergetics::t_restore},
      {"e_sleep_transition", &CellEnergetics::e_sleep_transition}};
  for (const auto& [name, field] : fields) {
    expect(same_bits(a.*field, b.*field),
           std::string("replay differs from characterize in ") + cell + "." +
               name);
  }
  expect(a.store_verified == b.store_verified,
         std::string("replay differs in ") + cell + ".store_verified");
  expect(a.restore_verified == b.restore_verified,
         std::string("replay differs in ") + cell + ".restore_verified");
  expect(a.gmin_recoveries == b.gmin_recoveries &&
             a.source_recoveries == b.source_recoveries,
         std::string("replay differs in ") + cell + " recoveries");
}

class TechPoint {
 public:
  explicit TechPoint(const Options& opt) : opt_(opt) {}

  void prepare(int /*round*/) {
    if (golden_.empty()) golden_ = load_goldens();
  }

  Input input(long item) const {
    Input in;
    in.table1 = item == 0;
    in.pp = item % kFastEvery == kFastEvery - 1 ? PaperParams::table1_fast()
                                                : PaperParams::table1();
    if (!in.table1) {
      auto rng = item_rng(opt_.seed, kStream, item);
      in.pp.vdd *= std::uniform_real_distribution<double>(0.97, 1.03)(rng);
      in.pp.mtj.jc *= std::uniform_real_distribution<double>(0.9, 1.1)(rng);
    }
    return in;
  }

  Output run(const Input& in, long item, Tracer* tr) {
    Output out;
    if (tr == nullptr) {
      const PowerGatingAnalyzer an(in.pp);
      out.c6 = an.cell_6t();
      out.cnv = an.cell_nv();
      for (const Architecture a : kArchs) {
        out.fig7.push_back(an.ecyc_vs_nrw(a, kNrwGrid, base_params()));
        out.fig8.push_back(an.ecyc_vs_tsd(a, kTsdGrid, base_params()));
        out.fig9.push_back(an.bet_vs_rows(a, kRowGrid, base_params()));
      }
      return out;
    }
    out.c6 = replay(in.pp, CellKind::k6T, item, tr, totals_);
    out.cnv = replay(in.pp, CellKind::kNvSram, item, tr, totals_);
    ++replays_;
    timed(tr, "core.model", item, [&] {
      // PowerGatingAnalyzer's series functions over the replayed cells.
      const EnergyModel model(out.c6, out.cnv);
      for (const Architecture a : kArchs) {
        BenchmarkParams p = base_params();
        Curve c7, c8;
        for (int n : kNrwGrid) {
          p.n_rw = n;
          c7.emplace_back(static_cast<double>(n), model.e_cyc(a, p));
        }
        p = base_params();
        for (double t : kTsdGrid) {
          p.t_sd = t;
          c8.emplace_back(t, model.e_cyc(a, p));
        }
        p = base_params();
        std::vector<PowerGatingAnalyzer::BetPoint> c9;
        for (int rows : kRowGrid) {
          p.rows = rows;
          if (auto bet = model.break_even_time(a, p)) c9.push_back({rows, *bet});
        }
        out.fig7.push_back(std::move(c7));
        out.fig8.push_back(std::move(c8));
        out.fig9.push_back(std::move(c9));
      }
    });
    return out;
  }

  void check(const Input& in, const Output& out) {
    expect(out.cnv.store_verified, "NV-SRAM store not verified");
    expect(out.cnv.restore_verified, "NV-SRAM restore not verified");
    const EnergyModel model(out.c6, out.cnv);
    const auto nvpg = model.break_even_time(Architecture::kNVPG, base_params());
    const auto nof = model.break_even_time(Architecture::kNOF, base_params());
    expect(nvpg && std::isfinite(*nvpg) && *nvpg >= 1e-6 && *nvpg <= 1e-3,
           "NVPG BET outside [1 us, 1 ms]: " +
               (nvpg ? std::to_string(*nvpg) : std::string("none")));
    expect(nof && *nof > *nvpg, "NOF BET not above the NVPG BET");
    if (in.table1) {
      double worst = 0.0;
      for (const auto& [key, value] : goldens(out)) {
        const auto it = golden_.find(key);
        expect(it != golden_.end(), "no golden value for " + key);
        worst = std::max(worst,
                         nvsram::util::relative_error(value, it->second));
      }
      golden_err_ = std::max(golden_err_, worst);
      expect(worst <= 1e-3, "golden relative error " + std::to_string(worst) +
                                " above 1e-3");
    }
  }

  void same(const Output& traced, const Output& out) const {
    expect_same_cell("6t", traced.c6, out.c6);
    expect_same_cell("nv", traced.cnv, out.cnv);
    for (std::size_t a = 0; a < out.fig7.size(); ++a) {
      expect(traced.fig7[a] == out.fig7[a], "replayed Fig. 7 series differs");
      expect(traced.fig8[a] == out.fig8[a], "replayed Fig. 8 series differs");
      expect(traced.fig9[a].size() == out.fig9[a].size(),
             "replayed Fig. 9 series differs");
      for (std::size_t k = 0; k < out.fig9[a].size(); ++k) {
        expect(traced.fig9[a][k].rows == out.fig9[a][k].rows &&
                   same_bits(traced.fig9[a][k].bet, out.fig9[a][k].bet),
               "replayed Fig. 9 series differs");
      }
    }
  }

  void digest(const Output& out, Digest& d) const {
    for (const auto* c : {&out.c6, &out.cnv}) {
      for (double v : {c->e_read, c->e_write, c->p_static_normal,
                       c->p_static_sleep, c->p_static_shutdown, c->e_store,
                       c->e_restore, c->e_sleep_transition}) {
        d.add(v);
      }
    }
    for (const auto& curves : {out.fig7, out.fig8}) {
      for (const auto& curve : curves) {
        for (const auto& [x, y] : curve) d.add(y);
      }
    }
    for (const auto& curve : out.fig9) {
      for (const auto& pt : curve) d.add(pt.bet);
    }
  }

  void probe(const Input&, const Output&, long, Tracer&) {}

  void finish(Measured& m) const {
    if (golden_err_ >= 0.0) m.extra["golden_max_rel_err"] = golden_err_;
    if (replays_ > 0) {
      const double n = static_cast<double>(replays_);
      m.layer["spice.tran_steps"] = totals_.steps / n;
      m.layer["spice.tran_rejected"] = totals_.rejected / n;
      m.layer["spice.newton_iters"] = totals_.newton / n;
      m.layer["spice.device_events"] = totals_.events / n;
      m.layer["spice.recoveries"] = totals_.recoveries / n;
      m.layer["spice.step_accept_ratio"] =
          totals_.steps / (totals_.steps + totals_.rejected);
    }
    const auto cache = nvsram::sram::characterize_cache_stats();
    const double lookups = static_cast<double>(cache.hits + cache.misses);
    m.layer["sram.cache_hit_ratio"] =
        lookups > 0.0 ? static_cast<double>(cache.hits) / lookups : 0.0;
  }

 private:
  const Options& opt_;
  std::map<std::string, double> golden_;
  double golden_err_ = -1.0;
  TranTotals totals_;
  long replays_ = 0;
};

}  // namespace

Measured run_tech_point(const Options& opt, Tracer& tr) {
  TechPoint w(opt);
  Measured m = run_closed_loop(opt, w, tr);
  w.finish(m);
  return m;
}

}  // namespace perf
