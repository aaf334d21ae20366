// Allocation guard for nvlint's path on array decks: parsing and linting a
// 16x16 NV-SRAM array must stay within a fixed number of operator new calls
// per device, so no per-device hash node (a name map entry, a pointer set)
// and no per-node or per-row vector comes back unnoticed.  This binary
// replaces the global operator new and delete with malloc/free forwarders
// that count calls between two markers, which is why it is its own
// executable.
#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>

#include "lint/report.h"
#include "spice/netlist_parser.h"
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

}  // namespace
}  // namespace nvsram
