// lint_decks: what `nvlint deck.cir` does by default — parse, lint, format —
// on generated 768-cell NV-SRAM array decks.  No Newton solve runs; the
// item exercises the parser, the flat graph rules, analyze_structure, and
// the temporal, power and dataflow passes.  Decks with a floating node take
// the findings path, so a change that speeds up clean decks but slows down
// findings still shows.
//
// Shapes and defects are stratified rather than drawn independently: the
// seed shuffles the 12 (shape, defect) pairs and the items cycle through
// them, so every run lints the same mix and the run-to-run spread reflects
// the program, not the draw.  A per-item comment line keeps every deck's
// text (and content hash) distinct.
//
// The traced run splits the lint into its structural and non-structural
// pass groups, requires the same report, and after each item times the
// hierarchical engine (whose verdict must equal flat lint), the structural
// analysis, and the linalg passes over its pattern.
#include <algorithm>
#include <map>
#include <memory>
#include <numeric>
#include <string>
#include <utility>
#include <vector>

#include "lint/linter.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "spice/netlist_parser.h"
#include "spice/structural_analysis.h"
#include "support/array_gen.h"
#include "workloads.h"

namespace perf {
namespace {

using nvsram::lint::LintReport;
using nvsram::testsupport::ArrayDefect;

constexpr std::uint64_t kStream = 0x11d7;

struct Shape {
  int rows;
  int cols;
};
constexpr Shape kShapes[] = {{24, 32}, {32, 24}, {16, 48}};
constexpr ArrayDefect kDefects[] = {ArrayDefect::kNone, ArrayDefect::kFloatNode,
                                    ArrayDefect::kUnusedPort,
                                    ArrayDefect::kBadValue};
constexpr int kDefectCount = 4;
constexpr int kCombos = 3 * kDefectCount;

struct Input {
  std::string text;
  ArrayDefect defect = ArrayDefect::kNone;
  int cells = 0;
};

// (rule, severity) -> count: the verdict-identity contract of the
// hierarchical engine (tests/test_hier_lint.cpp).
using Verdict = std::map<std::pair<std::string, int>, int>;

Verdict verdict(const LintReport& report) {
  Verdict v;
  for (const auto& d : report.diagnostics()) {
    ++v[{d.rule, static_cast<int>(d.severity)}];
  }
  return v;
}

struct Output {
  std::string formatted;  // LintReport::format(), what nvlint prints
  Verdict verdict;
  std::size_t findings = 0;
};

Output make_output(const LintReport& report, std::string formatted) {
  return {std::move(formatted), verdict(report), report.size()};
}

std::string describe(const Verdict& v) {
  std::string s;
  for (const auto& [key, count] : v) {
    s += (s.empty() ? "" : ", ") + key.first + " x" + std::to_string(count);
  }
  return s.empty() ? "no findings" : s;
}

class LintDecks {
 public:
  explicit LintDecks(const Options& opt) : opt_(opt) {}

  void prepare(int /*round*/) {
    decks_.clear();
    for (const Shape& s : kShapes) {
      for (const ArrayDefect d : kDefects) {
        decks_.push_back(
            nvsram::testsupport::make_nvsram_array_netlist(s.rows, s.cols, d));
      }
    }
    order_.resize(kCombos);
    std::iota(order_.begin(), order_.end(), 0);
    auto rng = item_rng(opt_.seed, kStream, 0);
    std::shuffle(order_.begin(), order_.end(), rng);
  }

  // Set-up lints the first clean deck whatever the seed, so setup_s times
  // the same work in every run.
  Input input(long item) const {
    const int combo =
        item == kSetupItem
            ? 0
            : order_[static_cast<std::size_t>(item % kCombos)];
    const std::string& deck = decks_[static_cast<std::size_t>(combo)];
    const std::size_t eol = deck.find('\n') + 1;
    Input in;
    in.text = deck.substr(0, eol) + "* perfbench seed " +
              std::to_string(opt_.seed) + " item " + std::to_string(item) +
              "\n" + deck.substr(eol);
    in.defect = kDefects[combo % kDefectCount];
    const Shape& s = kShapes[combo / kDefectCount];
    in.cells = s.rows * s.cols;
    return in;
  }

  Output run(const Input& in, long item, Tracer* tr) {
    if (tr == nullptr) {
      const auto nl = nvsram::spice::NetlistParser().parse(in.text);
      const LintReport report = nl->lint();
      return make_output(report, report.format());
    }
    const auto nl = timed(tr, "spice.parse", item, [&] {
      return nvsram::spice::NetlistParser().parse(in.text);
    });
    // ParsedNetlist::lint() is lint_netlist() with the netlist's options:
    // the structural group, then the rest seeded with the nodes the
    // structural group reported floating (what the flat linter carries
    // between the two internally).
    nvsram::lint::LintPasses structural;
    structural.cards = structural.probes = structural.temporal =
        structural.parse = false;
    LintReport report = timed(tr, "lint.structural", item, [&] {
      return nvsram::lint::lint_netlist_passes(*nl, nl->lint_options(),
                                               structural);
    });
    nvsram::lint::LintPasses rest;
    rest.structural = false;
    for (const auto& d : report.diagnostics()) {
      if (d.rule == nvsram::lint::rules::kFloatNode ||
          d.rule == nvsram::lint::rules::kNoDcPath) {
        rest.preset_floating.insert(d.node);
      }
    }
    const LintReport tail = timed(tr, "lint.nonstructural", item, [&] {
      return nvsram::lint::lint_netlist_passes(*nl, nl->lint_options(), rest);
    });
    for (const auto& d : tail.diagnostics()) report.add(d);
    std::string formatted =
        timed(tr, "lint.format", item, [&] { return report.format(); });
    findings_ += static_cast<double>(report.size());
    ++traced_items_;
    return make_output(report, std::move(formatted));
  }

  void check(const Input& in, const Output& out) const {
    // Expected findings per defect kind (tests/support/array_gen.h).
    std::map<std::string, int> want;
    switch (in.defect) {
      case ArrayDefect::kNone:
        break;
      case ArrayDefect::kFloatNode:
        want[nvsram::lint::rules::kFloatNode] = in.cells;
        want[nvsram::lint::rules::kNoDcPath] = in.cells;
        // The structural pass reports at most 8 undetermined unknowns and 8
        // unsolvable equations.
        want[nvsram::lint::rules::kStructuralSingular] = 16;
        break;
      case ArrayDefect::kUnusedPort:
        want[nvsram::lint::rules::kSubcktUnusedPort] = 1;
        break;
      case ArrayDefect::kBadValue:
        want[nvsram::lint::rules::kNonphysicalValue] = in.cells;
        break;
    }
    std::map<std::string, int> got;
    for (const auto& [key, count] : out.verdict) got[key.first] += count;
    expect(got == want, "unexpected findings: " + describe(out.verdict));
  }

  void same(const Output& traced, const Output& out) const {
    expect(traced.formatted == out.formatted,
           "split structural/non-structural lint differs from lint()");
  }

  void digest(const Output& out, Digest& d) const { d.add(out.formatted); }

  void probe(const Input& in, const Output& out, long item, Tracer& tr) {
    const auto nl = nvsram::spice::NetlistParser().parse(in.text);
    const LintReport hier = timed(&tr, "lint.hier", item, [&] {
      return nvsram::lint::lint_netlist_hier(*nl, nl->lint_options());
    }, Tracer::Kind::kProbe);
    expect(verdict(hier) == out.verdict,
           "hierarchical lint verdict differs from flat lint");
    const auto rep = timed(&tr, "spice.structure", item, [&] {
      return nvsram::spice::analyze_structure(std::as_const(*nl).circuit(),
                                              /*dc=*/true);
    }, Tracer::Kind::kProbe);
    probe_linalg(rep.pattern, item, tr);
  }

  void finish(Measured& m) const {
    if (traced_items_ > 0) m.layer["lint.findings"] = findings_ / traced_items_;
  }

 private:
  const Options& opt_;
  std::vector<std::string> decks_;  // one per (shape, defect) pair
  std::vector<int> order_;          // seeded order of the pairs
  double findings_ = 0.0;
  long traced_items_ = 0;
};

}  // namespace

Measured run_lint_decks(const Options& opt, Tracer& tr) {
  LintDecks w(opt);
  Measured m = run_closed_loop(opt, w, tr);
  w.finish(m);
  return m;
}

}  // namespace perf
