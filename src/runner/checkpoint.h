// Sweep checkpoint file: the completed points of a sweep with their CSV row
// values, rewritten atomically (tmp + rename) after every completed point.
//
// Format v2 (text, line-based):
//   nvsram-sweep-checkpoint v2
//   name=<runner name>
//   columns=<c1,c2,...>
//   point=<index> rows=<k>
//   <v1> <v2> ... *<crc32 hex>   (k lines, values in %.17g round-trip
//                                 precision; CRC-32 of the value text)
//   ...
//   end
//
// The per-row CRC makes corruption detectable, not just truncation: on
// load, a garbled or torn tail (bad CRC, short record, malformed header
// line) rewinds the resume set to the last record that verified cleanly
// and logs a warning — the damaged points are simply recomputed.
//
// A checkpoint whose magic line, name or column list does not match the
// running sweep is stale and ignored; a v1 file (no row CRCs) is stale too.
// Values round-trip exactly through %.17g, so a resumed sweep reproduces
// byte-identical CSV output.
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace nvsram::runner {

using Rows = std::vector<std::vector<double>>;

namespace checkpoint {

// Loads the completed points of `path`.  Returns an empty map when the file
// is absent or stale (magic/name/columns mismatch); returns the longest
// valid prefix (with a logged warning) when the tail is truncated, garbled,
// or fails its CRC; drops indices >= n_points.
std::map<std::size_t, Rows> load(const std::string& path,
                                 const std::string& name,
                                 const std::vector<std::string>& columns,
                                 std::size_t n_points);

// Atomically replaces `path` with the given completed set.
// Throws std::runtime_error when the file cannot be written.
void store(const std::string& path, const std::string& name,
           const std::vector<std::string>& columns,
           const std::map<std::size_t, Rows>& done);

// Deletes the checkpoint file if present.
void remove(const std::string& path);

}  // namespace checkpoint
}  // namespace nvsram::runner
