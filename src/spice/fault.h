// Deterministic solver fault injection.
//
// A FaultPlan attached to a Circuit (Circuit::set_fault_plan) forces a
// chosen failure mode on chosen Newton solves, so every recovery path —
// non-finite abort, singular skip, convergence-stall escalation — is
// exercisable from tests and CI without hand-crafting a pathological
// circuit.  Solves are counted globally across the circuit (DC attempts,
// ladder rungs and transient timesteps all increment the counter), which
// makes trigger points reproducible run to run.
//
// Text syntax (FaultPlan::parse), ';'-separated specs:
//   nan-stamp@K[xN][:dev=NAME]   poison NAME's stamp with NaN on solves
//                                [K, K+N) (default N=1; N=-1 => forever;
//                                empty NAME => first device)
//   singular@K[xN]               report a singular matrix on those solves
//   stall@K[xN]                  suppress convergence on those solves
// Example: "stall@1x6;nan-stamp@40:dev=Mpu_q"
#pragma once

#include <string>
#include <vector>

namespace nvsram::spice {

enum class FaultKind { kNanStamp, kSingular, kStall };
const char* to_string(FaultKind kind);

struct FaultSpec {
  FaultKind kind = FaultKind::kStall;
  int at_solve = 0;    // first Newton solve (0-based) the fault fires on
  int count = 1;       // consecutive solves affected; -1 = every one after
  std::string device;  // kNanStamp only: scoped device ("" = first device)

  bool covers(int solve_index) const {
    if (solve_index < at_solve) return false;
    return count < 0 || solve_index < at_solve + count;
  }
};

class FaultPlan {
 public:
  FaultPlan() = default;

  void add(FaultSpec spec) { specs_.push_back(std::move(spec)); }
  bool empty() const { return specs_.empty(); }
  const std::vector<FaultSpec>& specs() const { return specs_; }

  // Parses the text syntax above; throws std::invalid_argument on errors.
  static FaultPlan parse(const std::string& text);

  // Called by solve_newton on entry; returns the index of this solve.
  int begin_solve() { return solve_count_++; }
  void reset() { solve_count_ = 0; }

  // Does any spec of `kind` fire on this solve?  (kNanStamp is queried via
  // stamp_fault instead, because it is device-scoped.)
  bool fires(FaultKind kind, int solve_index) const;

  // The nan-stamp spec covering (solve_index, device), if any.  `first`
  // marks the first device stamped this iteration (matches empty dev=).
  const FaultSpec* stamp_fault(int solve_index, const std::string& device,
                               bool first) const;

 private:
  std::vector<FaultSpec> specs_;
  int solve_count_ = 0;
};

}  // namespace nvsram::spice
