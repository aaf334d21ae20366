#include "lint/lint_cache.h"

#include <mutex>
#include <unordered_map>

namespace nvsram::lint {

namespace {

struct Key {
  std::uint64_t content = 0;
  std::uint64_t options = 0;
  bool operator==(const Key& o) const {
    return content == o.content && options == o.options;
  }
};

struct KeyHash {
  std::size_t operator()(const Key& k) const {
    // One extra FNV-1a round folds the options word into the content hash.
    std::uint64_t h = k.content;
    for (int i = 0; i < 8; ++i) {
      h ^= (k.options >> (8 * i)) & 0xffu;
      h *= 1099511628211ull;
    }
    return static_cast<std::size_t>(h);
  }
};

struct Cache {
  std::mutex m;
  std::unordered_map<Key, LintReport, KeyHash> map;
  std::size_t hits = 0;
  std::size_t misses = 0;
};

Cache& cache() {
  static Cache c;
  return c;
}

}  // namespace

std::optional<LintReport> lint_cache_lookup(std::uint64_t content_hash,
                                            std::uint64_t options_fp) {
  if (content_hash == 0) return std::nullopt;
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  auto it = c.map.find(Key{content_hash, options_fp});
  if (it == c.map.end()) {
    ++c.misses;
    return std::nullopt;
  }
  ++c.hits;
  return it->second;
}

void lint_cache_store(std::uint64_t content_hash, std::uint64_t options_fp,
                      const LintReport& report) {
  if (content_hash == 0) return;
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  c.map.insert_or_assign(Key{content_hash, options_fp}, report);
}

LintCacheStats lint_cache_stats() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  LintCacheStats stats;
  stats.hits = c.hits;
  stats.misses = c.misses;
  stats.entries = c.map.size();
  return stats;
}

void lint_cache_clear() {
  Cache& c = cache();
  std::lock_guard<std::mutex> lock(c.m);
  c.map.clear();
  c.hits = 0;
  c.misses = 0;
}

}  // namespace nvsram::lint
