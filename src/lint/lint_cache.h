// Process-wide lint-result cache.
//
// ParsedNetlist::ensure_lint_ok() runs before every run_* analysis, and a
// sweep re-lints the same unmodified netlist once per operating point even
// though the verdict only depends on the netlist text and the lint options.
// This cache keys a finished LintReport on (netlist content hash, options
// fingerprint):
//
//   - the content hash is FNV-1a over the raw netlist text, computed once at
//     parse time (ParsedNetlist::content_hash()); any mutation through the
//     builder API or the non-const circuit() accessor resets it to 0, and
//     hash 0 is never cached — a post-edited netlist always re-lints;
//   - the options fingerprint is LintOptions::fingerprint(), so disabling a
//     rule or raising the severity floor is a different cache line.
//
// Thread-safe; lookups return the report by value (it is a small diagnostic
// vector) so no pointer into the cache outlives a clear().
#pragma once

#include <cstdint>
#include <optional>

#include "lint/report.h"

namespace nvsram::lint {

// Cached report for (content_hash, options_fp); nullopt on miss or when
// content_hash is 0 (un-cacheable).
std::optional<LintReport> lint_cache_lookup(std::uint64_t content_hash,
                                            std::uint64_t options_fp);

// Stores a finished report; ignored when content_hash is 0.
void lint_cache_store(std::uint64_t content_hash, std::uint64_t options_fp,
                      const LintReport& report);

struct LintCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};

LintCacheStats lint_cache_stats();

// Clears the cache and resets the counters.
void lint_cache_clear();

}  // namespace nvsram::lint
