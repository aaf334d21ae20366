// array_tran: the only transient on the sparse LU path.  One item is a
// 2x16 NV-SRAM ArrayTestbench round trip: seeded random data written row by
// row, row-sequential store, a 3 us shutdown, restore, then run().  The
// array has 212 unknowns, above linalg::kDenseCutoff, so Newton factors
// with SparseLu; tech_point covers the dense side.
//
// The traced run adds, after each item, the structural analysis of the
// array's transient pattern and the two linalg passes over it — work the
// transient itself does not call, so those numbers should not move when the
// transient gets faster.
#include <memory>
#include <string>
#include <vector>

#include "linalg/structure.h"
#include "models/paper_params.h"
#include "spice/structural_analysis.h"
#include "sram/array.h"
#include "workloads.h"

namespace perf {
namespace {

using nvsram::models::MtjState;
using nvsram::sram::ArrayTestbench;

constexpr std::uint64_t kStream = 0xa77;
constexpr int kRows = 2;
constexpr int kCols = 16;

struct Input {
  std::vector<std::vector<bool>> data;  // [row][col]
};

struct Output {
  std::vector<double> q_end;        // per cell, after restore
  std::vector<MtjState> mtj_q;      // per cell
  std::vector<MtjState> mtj_qb;     // per cell
  std::vector<double> vvdd_off;     // per row, at the end of shutdown
  std::size_t samples = 0;          // recorded waveform samples
};

class ArrayTran {
 public:
  explicit ArrayTran(const Options& opt) : opt_(opt) {}

  void prepare(int /*round*/) {}

  Input input(long item) const {
    auto rng = item_rng(opt_.seed, kStream, item);
    Input in;
    in.data.assign(kRows, std::vector<bool>(kCols));
    for (auto& row : in.data) {
      for (std::size_t c = 0; c < row.size(); ++c) row[c] = (rng() & 1u) != 0;
    }
    return in;
  }

  std::unique_ptr<ArrayTestbench> build(const Input& in) const {
    nvsram::sram::ArrayOptions opts;
    opts.rows = kRows;
    opts.cols = kCols;
    auto tb = std::make_unique<ArrayTestbench>(pp_, opts);
    for (int r = 0; r < kRows; ++r) tb->op_write_row(r, in.data[r]);
    tb->op_idle(1e-9);
    tb->op_store_all_rows();
    tb->op_shutdown_all(3e-6);
    tb->op_restore_all_rows();
    tb->op_idle(2e-9);
    return tb;
  }

  Output run(const Input& in, long item, Tracer* tr) {
    auto tb = timed(tr, "sram.array_build", item, [&] { return build(in); });
    const auto res = timed(tr, "spice.tran", item, [&] { return tb->run(); });
    Output out;
    const double t_end = tb->now() - 0.5e-9;
    for (int r = 0; r < kRows; ++r) {
      for (int c = 0; c < kCols; ++c) {
        out.q_end.push_back(
            res.wave.value_at(ArrayTestbench::q_label(r, c), t_end));
        out.mtj_q.push_back(tb->mtj_q(r, c)->state());
        out.mtj_qb.push_back(tb->mtj_qb(r, c)->state());
      }
    }
    const auto& sd = res.phase("shutdown");
    for (int r = 0; r < kRows; ++r) {
      out.vvdd_off.push_back(res.wave.value_at(
          "VVDD[" + std::to_string(r) + "]", sd.t1 - 1e-9));
    }
    out.samples = res.wave.samples();
    if (tr != nullptr) {
      samples_ += static_cast<double>(out.samples);
      ++traced_items_;
    }
    return out;
  }

  void check(const Input& in, const Output& out) const {
    const double vdd = pp_.vdd;
    for (int r = 0; r < kRows; ++r) {
      expect(out.vvdd_off[r] < 0.25 * vdd,
             "VVDD[" + std::to_string(r) + "] did not collapse in shutdown");
      for (int c = 0; c < kCols; ++c) {
        const std::size_t k = static_cast<std::size_t>(r * kCols + c);
        const bool bit = in.data[r][c];
        const std::string cell =
            "cell " + std::to_string(r) + "," + std::to_string(c);
        expect(bit ? out.q_end[k] > 0.8 * vdd : out.q_end[k] < 0.2 * vdd,
               cell + " restored the wrong value");
        expect(out.mtj_q[k] ==
                       (bit ? MtjState::kAntiparallel : MtjState::kParallel) &&
                   out.mtj_qb[k] ==
                       (bit ? MtjState::kParallel : MtjState::kAntiparallel),
               cell + " MTJ states do not match the stored bit");
      }
    }
  }

  void same(const Output& traced, const Output& out) const {
    expect(traced.q_end == out.q_end && traced.mtj_q == out.mtj_q &&
               traced.mtj_qb == out.mtj_qb && traced.vvdd_off == out.vvdd_off,
           "traced array transient differs");
  }

  void digest(const Output& out, Digest& d) const {
    for (double v : out.q_end) d.add(v);
    for (double v : out.vvdd_off) d.add(v);
    d.add(static_cast<double>(out.samples));
  }

  void probe(const Input& in, const Output&, long item, Tracer& tr) {
    const auto tb = build(in);
    const auto rep = timed(&tr, "spice.structure", item, [&] {
      return nvsram::spice::analyze_structure(tb->circuit(), /*dc=*/false);
    }, Tracer::Kind::kProbe);
    probe_linalg(rep.pattern, item, tr);
  }

  void finish(Measured& m) const {
    if (traced_items_ > 0) {
      m.layer["spice.tran_samples"] = samples_ / traced_items_;
    }
  }

 private:
  const Options& opt_;
  const nvsram::models::PaperParams pp_ = nvsram::models::PaperParams::table1();
  double samples_ = 0.0;
  long traced_items_ = 0;
};

}  // namespace

// Times the two linalg passes over a structural report's pattern;
// min_degree_order needs a perfect matching, so it is skipped otherwise.
void probe_linalg(const nvsram::linalg::SparsityPattern& pattern, long item,
                  Tracer& tr) {
  const auto matching = timed(&tr, "linalg.matching", item, [&] {
    return nvsram::linalg::maximum_matching(pattern);
  }, Tracer::Kind::kProbe);
  if (matching.perfect(pattern.dimension())) {
    timed(&tr, "linalg.min_degree", item, [&] {
      return nvsram::linalg::min_degree_order(pattern, matching);
    }, Tracer::Kind::kProbe);
  }
}

Measured run_array_tran(const Options& opt, Tracer& tr) {
  ArrayTran w(opt);
  Measured m = run_closed_loop(opt, w, tr);
  w.finish(m);
  return m;
}

}  // namespace perf
