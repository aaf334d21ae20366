#include "harness.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>
#include <memory>
#include <thread>

#include "util/crc32.h"

namespace perf {

std::mt19937_64 item_rng(std::uint64_t seed, std::uint64_t stream, long item) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream),
                    static_cast<std::uint32_t>(static_cast<std::uint64_t>(item)),
                    static_cast<std::uint32_t>(static_cast<std::uint64_t>(item) >> 32)};
  return std::mt19937_64(seq);
}

void Digest::add(double v) {
  char raw[sizeof v];
  std::memcpy(raw, &v, sizeof v);
  bytes_.append(raw, sizeof v);
}

void Digest::add(const std::string& s) {
  bytes_ += s;
  bytes_.push_back('\0');
}

std::uint32_t Digest::value() const { return nvsram::util::crc32(bytes_); }

namespace {

int thread_slot() {
  static std::atomic<int> next{0};
  thread_local const int slot = next++;
  return slot;
}

}  // namespace

void Tracer::record(const char* name, long item, Kind kind,
                    Clock::time_point t0, Clock::time_point t1) {
  const Span s{name, item, kind, ms_between(origin_, t0) * 1e3,
               ms_between(origin_, t1) * 1e3, thread_slot()};
  std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back(s);
}

double Tracer::median_ms(const std::string& name) const {
  std::map<long, double> per_item;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& s : spans_) {
      if (name == s.name) per_item[s.item] += (s.t1_us - s.t0_us) / 1e3;
    }
  }
  std::vector<double> v;
  v.reserve(per_item.size());
  for (const auto& [item, ms] : per_item) v.push_back(ms);
  return quantile(std::move(v), 0.5);
}

double Tracer::coverage() const {
  double layers = 0.0;
  double items = 0.0;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& s : spans_) {
    if (s.kind == Kind::kLayer) layers += s.t1_us - s.t0_us;
    if (s.kind == Kind::kItem) items += s.t1_us - s.t0_us;
  }
  return items > 0.0 ? layers / items : 0.0;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& workload) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  static const char* const kCat[] = {"item", "layer", "probe"};
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  std::lock_guard<std::mutex> lock(mu_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%d,"
                  "\"args\":{\"workload\":\"%s\",\"item\":%ld}}%s\n",
                  s.name, kCat[static_cast<int>(s.kind)], s.t0_us,
                  s.t1_us - s.t0_us, s.tid, workload.c_str(), s.item,
                  i + 1 < spans_.size() ? "," : "");
    out << buf;
  }
  out << "]}\n";
  if (!out.flush()) throw std::runtime_error("error writing " + path);
}

namespace {

// The reference mix.  Each kernel does fixed work of a kind the program
// does — floating-point elimination (the solvers), string-keyed map
// lookups (the parser and lint), sorting, small allocations — on data of
// at most ~100 KiB, and returns a value that depends on all of it.  One
// kernel alone tracked some workloads and not others: in ten runs at each
// of ten seeds on a loaded machine, scaling by elimination alone left
// tech_point's spread at 0.02 but array_tran's at 0.12, by the map alone
// the reverse; the sum of the four kept every workload at or below 0.1.

std::uint64_t next(std::uint64_t& x) {
  x = x * 6364136223846793005ULL + 1442695040888963407ULL;
  return x >> 17;
}

double eliminate() {
  constexpr int n = 48;
  std::vector<double> a(n * n);
  double acc = 0.0;
  for (int rep = 0; rep < 70; ++rep) {
    for (int i = 0; i < n; ++i) {
      for (int j = 0; j < n; ++j) {
        a[i * n + j] = (i == j ? n : 0.0) + 1.0 / (1 + i + j + rep);
      }
    }
    for (int k = 0; k < n; ++k) {
      for (int i = k + 1; i < n; ++i) {
        const double f = a[i * n + k] / a[k * n + k];
        for (int j = k; j < n; ++j) a[i * n + j] -= f * a[k * n + j];
      }
    }
    acc += a[n * n - 1];
  }
  return acc;
}

double map_lookups() {
  std::map<std::string, int> m;
  std::uint64_t x = 1;
  double acc = 0.0;
  for (int i = 0; i < 1500; ++i) m[std::to_string(next(x) % 4000)] += i;
  for (int i = 0; i < 1500; ++i) {
    acc += static_cast<double>(m.count(std::to_string(next(x) % 4000)));
  }
  return acc;
}

double sort_values() {
  std::vector<double> v(12000);
  std::uint64_t x = 7;
  for (double& d : v) d = static_cast<double>(next(x) % 100000);
  std::sort(v.begin(), v.end());
  return v[v.size() / 2];
}

double allocate() {
  std::uint64_t x = 3;
  double acc = 0.0;
  std::vector<std::unique_ptr<std::vector<int>>> live(64);
  for (int i = 0; i < 12000; ++i) {
    auto& slot = live[next(x) % live.size()];
    slot = std::make_unique<std::vector<int>>(1 + next(x) % 200, i);
    acc += slot->back();
  }
  return acc;
}

// Takes the mix's result, so the compiler cannot drop its work.
volatile double reference_sink = 0.0;

}  // namespace

double reference_ms() {
  const auto t0 = Clock::now();
  reference_sink = eliminate() + map_lookups() + sort_values() + allocate();
  return ms_between(t0, Clock::now());
}

double reference_ms_parallel(int threads) {
  std::vector<double> ms(static_cast<std::size_t>(threads));
  {
    std::vector<std::jthread> pool;
    for (std::size_t t = 0; t < ms.size(); ++t) {
      pool.emplace_back([&ms, t] { ms[t] = reference_ms(); });
    }
  }
  return quantile(std::move(ms), 0.5);
}

void Measured::fail(long item, const std::string& what) {
  ++failed;
  if (errors.size() < 5) {
    errors.push_back("item " + std::to_string(item) + ": " + what);
  }
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

}  // namespace perf
