// Allocation guards.  This binary replaces the global operator new and
// delete with malloc/free forwarders that count calls between two markers,
// which is why it is its own executable.
//
// - nvlint's path on array decks: parsing and linting a 16x16 NV-SRAM array
//   must stay within a fixed number of operator new calls per device, so no
//   per-device hash node (a name map entry, a pointer set) and no per-node
//   or per-row vector comes back unnoticed.
// - The Newton iteration: a warm solve_newton allocates nothing, on the
//   planned cell LU and on the sparse LU, and a thinned transient's count
//   does not grow with its step count.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "lint/report.h"
#include "linalg/sparse_lu.h"
#include "models/paper_params.h"
#include "spice/netlist_parser.h"
#include "spice/newton.h"
#include "sram/array.h"
#include "sram/testbench.h"
#include "support/array_gen.h"

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::size_t> g_news{0};

void* counted_new(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_news.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}

}  // namespace

void* operator new(std::size_t size) { return counted_new(size); }
void* operator new[](std::size_t size) { return counted_new(size); }
// The nothrow forms too (std::stable_sort's buffer comes from one): a
// sanitizer's own would otherwise pair with the free() below.
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return counted_new(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace nvsram {
namespace {

// operator new calls made while `f` runs.
template <typename F>
std::size_t count_news(F&& f) {
  g_news.store(0);
  g_counting.store(true);
  f();
  g_counting.store(false);
  return g_news.load();
}

TEST(ParseAllocations, ArrayDeckParseAndLintPerDevice) {
  const std::string text = testsupport::make_nvsram_array_netlist(16, 16);
  std::unique_ptr<spice::ParsedNetlist> net;
  const std::size_t parse_news =
      count_news([&] { net = spice::NetlistParser().parse(text); });
  lint::LintReport report;
  const std::size_t lint_news = count_news([&] { report = net->lint(); });
  EXPECT_EQ(report.size(), 0u) << report.format();

  const auto devices = static_cast<double>(net->circuit().devices().size());
  ASSERT_GT(devices, 0.0);
  EXPECT_LE(parse_news / devices, 2.0)
      << parse_news << " operator new calls to parse " << devices
      << " devices";
  EXPECT_LE(lint_news / devices, 0.48)
      << lint_news << " operator new calls to lint " << devices
      << " devices";
}

TEST(NewtonAllocations, WarmSolveAllocatesNothing) {
  // The NV cell (23 unknowns, PlannedLu) and the 2x16 array (212 unknowns,
  // SparseLu).  After a cold operating point, the same warm DC solve from a
  // perturbed guess runs twice so every buffer has its size and the pivots
  // their plan; a third run of it is counted.
  const auto pp = models::PaperParams::table1();
  sram::CellTestbench cell(sram::CellKind::kNvSram, pp);
  sram::ArrayOptions opts;
  opts.rows = 2;
  opts.cols = 16;
  sram::ArrayTestbench array(pp, opts);
  struct Case {
    const char* name;
    spice::Circuit& circuit;
    bool sparse;
  };
  for (const Case& c : {Case{"NV cell", cell.circuit(), false},
                        Case{"2x16 array", array.circuit(), true}}) {
    SCOPED_TRACE(c.name);
    const spice::MnaLayout layout = c.circuit.build_layout();
    ASSERT_EQ(layout.unknown_count() > linalg::kDenseCutoff, c.sparse);
    const spice::NewtonOptions nopts;
    spice::NewtonWorkspace ws;
    linalg::Vector op(layout.unknown_count(), 0.0);
    ASSERT_TRUE(spice::solve_newton_with_recovery(
                    c.circuit, layout, op, 0.0, 0.0, /*dc=*/true,
                    spice::IntegrationMethod::kBackwardEuler, nopts, ws)
                    .converged);
    linalg::Vector guess = op;
    for (double& v : guess) v *= 0.97;
    linalg::Vector x(guess.size());
    int iterations = 0;
    const auto warm_solve = [&] {
      x = guess;
      const auto r =
          spice::solve_newton(c.circuit, layout, x, 0.0, 0.0, /*dc=*/true,
                              spice::IntegrationMethod::kBackwardEuler, nopts,
                              ws);
      iterations = r.converged ? r.iterations : -1;
    };
    warm_solve();
    warm_solve();
    ASSERT_GT(iterations, 1);
    const std::size_t news = count_news(warm_solve);
    EXPECT_GT(iterations, 1) << "the counted solve must iterate";
    EXPECT_EQ(news, 0u) << news << " operator new calls in a warm solve of "
                        << iterations << " iterations";
  }
}

TEST(NewtonAllocations, ThinnedTransientDoesNotAllocatePerStep) {
  // One NV-cell schedule idling 2 ns or 40 ns after its write, read at one
  // instant: the longer run takes many more steps, and exactly as many
  // operator new calls.
  const auto pp = models::PaperParams::table1();
  std::size_t news[2] = {};
  std::size_t steps[2] = {};
  const double idle[2] = {2e-9, 40e-9};
  for (int k = 0; k < 2; ++k) {
    sram::CellTestbench tb(sram::CellKind::kNvSram, pp);
    tb.op_write(true);
    tb.op_idle(idle[k]);
    const std::vector<double> instants{tb.now() - 1e-9};
    news[k] = count_news([&] {
      const auto res = tb.run(instants);
      steps[k] = res.stats.accepted_steps;
    });
  }
  ASSERT_GT(steps[1], 2 * steps[0]);
  EXPECT_EQ(news[1], news[0]) << steps[0] << " and " << steps[1]
                              << " accepted steps";
}

}  // namespace
}  // namespace nvsram
