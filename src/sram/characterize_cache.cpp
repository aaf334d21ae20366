#include "sram/characterize_cache.h"

#include <functional>
#include <memory>
#include <mutex>
#include <vector>

namespace nvsram::sram {

namespace {

// Everything characterize() computes from.  The lint gate's TemporalOptions
// are not part of it: they come from TemporalOptions::from_paper(pp), a pure
// function of pp, so equal params always mean equal temporal options.
struct Key {
  models::PaperParams pp;
  CellKind kind;
  int relax_attempt;
  bool operator==(const Key&) const = default;
};

struct Entry {
  explicit Entry(const Key& k) : key(k) {}
  const Key key;
  std::mutex compute;
  bool ready = false;
  CellEnergetics value;
};

struct Cache {
  std::mutex m;
  // unique_ptr keeps each Entry's address stable as the vector grows, so the
  // per-entry mutex can be held without the cache lock.  Lookups scan: every
  // entry was added by a characterization (about 0.1 s), so a scan at
  // nanoseconds per entry stays a negligible share of the work that filled
  // the cache.
  std::vector<std::unique_ptr<Entry>> entries;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

Cache& cache() {
  static Cache c;
  return c;
}

// The entry for `key`, or nullptr; the caller holds c.m.
Entry* find(const Cache& c, const Key& key) {
  for (const auto& e : c.entries) {
    if (e->key == key) return e.get();
  }
  return nullptr;
}

// The entry this thread is computing, if any.  characterize() peeks from
// inside the computation (its lint gate), on the thread that holds the
// entry's compute mutex, where even a try_lock would be undefined.
thread_local const Entry* t_computing = nullptr;

}  // namespace

CellEnergetics characterize_cached(const models::PaperParams& pp,
                                   CellKind kind, double max_wall_seconds,
                                   int relax_attempt) {
  return characterize_memoized(pp, kind, relax_attempt, [&] {
    return CellCharacterizer(pp, max_wall_seconds, relax_attempt)
        .characterize(kind);
  });
}

CellEnergetics characterize_memoized(
    const models::PaperParams& pp, CellKind kind, int relax_attempt,
    const std::function<CellEnergetics()>& compute) {
  const Key key{pp, kind, relax_attempt};
  Cache& c = cache();

  Entry* entry = nullptr;
  {
    std::lock_guard<std::mutex> lock(c.m);
    entry = find(c, key);
    if (entry == nullptr) {
      c.entries.push_back(std::make_unique<Entry>(key));
      entry = c.entries.back().get();
    }
  }

  std::lock_guard<std::mutex> lock(entry->compute);
  if (entry->ready) {
    std::lock_guard<std::mutex> stats(c.m);
    ++c.hits;
    return entry->value;
  }
  // Compute under the entry lock: a second thread asking for the same point
  // blocks here and finds the result ready.  If this throws (lint gate,
  // watchdog, solver), `ready` stays false and the next caller recomputes.
  struct Computing {
    const Entry* outer = t_computing;
    explicit Computing(const Entry* e) { t_computing = e; }
    ~Computing() { t_computing = outer; }
  } computing(entry);
  entry->value = compute();
  entry->ready = true;
  {
    std::lock_guard<std::mutex> stats(c.m);
    ++c.misses;
  }
  return entry->value;
}

std::optional<CellEnergetics> characterize_cache_peek(
    const models::PaperParams& pp, CellKind kind, int relax_attempt) {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  Entry* entry = find(c, Key{pp, kind, relax_attempt});
  // An entry this thread is computing is a miss, told before its mutex is
  // touched.  try_to_lock: one mid-compute on another thread is a miss too,
  // instead of blocking.
  if (entry == nullptr || entry == t_computing) return std::nullopt;
  std::unique_lock<std::mutex> el(entry->compute, std::try_to_lock);
  if (!el.owns_lock() || !entry->ready) return std::nullopt;
  return entry->value;
}

CharacterizeCacheStats characterize_cache_stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  return {c.hits, c.misses, c.entries.size()};
}

void characterize_cache_clear() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  c.entries.clear();
  c.hits = 0;
  c.misses = 0;
}

}  // namespace nvsram::sram
