// Process-wide memoized cell characterization.
//
// Sweeps and benches characterize the same (PaperParams, CellKind) point
// over and over: Fig. 7/8/9 all start from the identical nominal cells, and
// a cold Table I characterization of both cells takes about 0.1 s of
// transient solving in a Release build.  This cache memoizes
// CellCharacterizer::characterize() on its exact inputs: the PaperParams
// (every field, the MTJ bundle included), the CellKind and the
// relax_attempt.  A call hits only when all three compare equal field by
// field, so two parameter points can never share an entry.
//
// The wall-clock budget is deliberately NOT part of the key: it bounds how
// long a characterization may take, not what it computes.  A run that blows
// its budget throws before the entry is marked ready, so a later call with a
// larger budget recomputes.
//
// Thread safety: one mutex guards the map, one mutex per entry serializes
// the compute, so concurrent sweep workers characterizing *different* points
// proceed in parallel while workers asking for the *same* point wait for the
// first result instead of duplicating the solve.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>

#include "sram/characterize.h"

namespace nvsram::sram {

CellEnergetics characterize_cached(const models::PaperParams& pp,
                                   CellKind kind,
                                   double max_wall_seconds = 0.0,
                                   int relax_attempt = 0);

// The memo behind characterize_cached, with the computation given: the
// entry for (pp, kind, relax_attempt), filled on a miss by calling
// `compute` on this thread.  characterize_cached passes
// CellCharacterizer::characterize; a test passes its own to look inside.
CellEnergetics characterize_memoized(
    const models::PaperParams& pp, CellKind kind, int relax_attempt,
    const std::function<CellEnergetics()>& compute);

// Non-computing lookup: the cached energetics for this key if a previous
// characterize_cached() call finished them, nullopt otherwise (including
// while any thread is mid-compute).  Never solves or blocks, so it is safe
// to call from inside the lint gate that characterize() itself runs: the
// data-redundant-store advisory peeks here for its energy figure, and a
// peek at the key its own thread is computing misses without touching the
// entry's lock.
std::optional<CellEnergetics> characterize_cache_peek(
    const models::PaperParams& pp, CellKind kind, int relax_attempt = 0);

struct CharacterizeCacheStats {
  std::size_t hits = 0;
  std::size_t misses = 0;
  std::size_t entries = 0;
};
CharacterizeCacheStats characterize_cache_stats();

// Drops every entry and resets the counters (tests).
void characterize_cache_clear();

}  // namespace nvsram::sram
