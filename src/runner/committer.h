// The sweep's single committer: the one place where computed points become
// CSV rows, checkpoint records, and manifest lines, strictly in point
// order.  The serial loop and the worker pool (sweep_runner.cpp) both feed
// this same object, which is what makes their outputs byte-identical by
// construction at any pool size.
#pragma once

#include <cstddef>
#include <map>
#include <string>

#include "runner/sweep_runner.h"
#include "util/csv.h"

namespace nvsram::runner {

class Committer {
 public:
  // `summary` outlives the committer and accumulates outcomes/rows/counts;
  // `done` is the resume set loaded from the checkpoint.
  Committer(std::string name, const RunnerOptions& options,
            RunSummary& summary, std::map<std::size_t, Rows> done);

  // True when `index` was already completed by a previous (checkpointed)
  // run and must be replayed via commit_resumed instead of recomputed.
  bool is_resumed(std::size_t index) const {
    return done_.find(index) != done_.end();
  }

  // Commits one freshly computed point.  Must be called strictly in point
  // order from a single thread.  Returns false to stop the sweep (harness
  // error — see harness_error() — or the stop drill); the kill drill
  // _Exit(3)s from inside.
  bool commit(std::size_t index, PointResult res);

  // Replays a checkpointed point (no recomputation, no drills — matching
  // the serial-era semantics where resumed points skip the drill checks).
  void commit_resumed(std::size_t index);

  // Writes the failure manifest, flushes the CSV, and removes the
  // checkpoint of a fully successful sweep.  Call once, after the last
  // commit, unless the sweep was interrupted.
  void finalize();

  const std::string& harness_error() const { return harness_error_; }

 private:
  std::string name_;
  const RunnerOptions& options_;
  RunSummary& summary_;
  std::map<std::size_t, Rows> done_;
  util::CsvWriter csv_;
  std::string harness_error_;
};

}  // namespace nvsram::runner
