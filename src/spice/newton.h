// Newton-Raphson solve of the nonlinear MNA system at one time point.
//
// Devices stamp linearized companions (SPICE convention), so each iteration
// solves A(x_k) x_{k+1} = b(x_k) directly.  Convergence requires the update
// to fall below abstol + reltol * |x| on every unknown, evaluated BEFORE
// step limiting so a limited iterate never reads as converged.
//
// Every solve carries non-finite guards: NaN/Inf in a device stamp, the
// assembled RHS, the LU factors, or the solution vector aborts the
// iteration cleanly and attributes the culprit in the returned
// SolveDiagnostics instead of propagating garbage iterates.
#pragma once

#include <cstdint>

#include "linalg/lu.h"
#include "linalg/sparse.h"
#include "linalg/sparse_lu.h"
#include "spice/circuit.h"
#include "spice/device.h"
#include "spice/diagnostics.h"
#include "util/watchdog.h"

namespace nvsram::spice {

struct NewtonOptions {
  int max_iterations = 120;
  double abstol_v = 1e-6;      // volts
  double abstol_i = 1e-9;      // amperes (branch unknowns)
  double reltol = 1e-3;
  double gmin = 1e-12;         // conductance added node -> ground
  double source_scale = 1.0;   // for source stepping

  // Shared relaxation ladder for retry loops (sweep runners, benches):
  // attempt 0 returns *this unchanged; each later attempt trades accuracy
  // for robustness the same way everywhere instead of per-bench schedules.
  NewtonOptions relaxed(int attempt) const;
};

// Everything a Newton solve writes besides its result: the RHS and CSR
// matrix each iteration refills, the assembly plan behind the matrix, the
// LU factorizations (linalg::PlannedLu at or below linalg::kDenseCutoff
// unknowns, SparseLu above it), the LU's solution and the damped iterate.
// One analysis keeps one workspace across all its solves; once warm, an
// iteration allocates nothing.
//
// Assembly.  Devices stamp the same (row, col) sequence on every iteration
// of a fixed topology and analysis kind (Device::stamp).  So the workspace
// records the stamps as triplets only when the circuit's topology_id() or
// the dc flag differs from the pair its plan was last checked against: the
// assembler then compares the positions with its plan once, keeping the
// plan when they match (same-topology circuits share it) and sorting the
// stamps into a new one when they do not.  Every other iteration streams
// stamp k straight into the plan's k-th value slot (linalg::CsrStream),
// which sums each slot from +0.0 in stamp order, bit for bit as the
// sorting CsrMatrix constructor does.  A streamed pass whose stamp count
// misses the plan, or whose matrix or RHS holds a non-finite value, is
// stamped again in recording mode, which replans or names the culprit
// device exactly as a recorded pass does.
//
// Factorization.  At cell size PlannedLu runs the partially pivoted dense
// LU once and records its pivot sequence; later factorizations replay that
// elimination on the nonzeros, bit for bit, and only a pivot sequence that
// no longer verifies runs the dense LU again.  Above the cutoff SparseLu
// analyzes the pattern once and later solves only refactor (KLU-style).
// Both tell a known pattern by the matrix's plan id.  So results never
// depend on what the workspace held before; the counters make the reuse
// observable in tests and benches.
struct NewtonWorkspace {
  linalg::SparseBuilder builder;  // the recorded stamps, on recording passes
  linalg::Vector rhs;
  linalg::CsrAssembler assembler;
  linalg::CsrMatrix matrix;
  linalg::PlannedLu planned_lu;
  linalg::SparseLu sparse_lu;
  linalg::Vector solution;  // the LU's solution of the last iteration
  linalg::Vector iterate;   // the damped iterate, from the second iteration
  // The topology and analysis kind the plan was last checked against (0:
  // none yet); while a solve's circuit and dc flag match them, stamps stream.
  std::uint64_t plan_topology = 0;
  bool plan_dc = false;
  std::size_t plan_count = 0;        // CSR assembly (re)plans: stamp sorts
  std::size_t pivot_plan_count = 0;  // dense LU runs that (re)planned pivots
  std::size_t analyze_count = 0;     // symbolic analyses performed
  std::size_t refactor_count = 0;    // numeric-only refactorizations
  std::size_t fallback_count = 0;    // refactor pivot failures -> full factorize
};

struct NewtonResult {
  bool converged = false;
  int iterations = 0;
  bool singular = false;
  SolveDiagnostics diagnostics;
};

// Name of an unknown for diagnostics: the node name for voltage unknowns,
// "branch[k]" for device branch currents.
std::string unknown_name(const Circuit& circuit, const MnaLayout& layout,
                         std::size_t index);

// Solves the system at (time, dt); `x` carries the initial guess in and the
// solution out, and keeps the initial guess when the solve fails.  `dc`
// selects the operating-point companion (capacitors open).  Branch unknown
// indices start at layout.node_count()-1.
// Pass the same `ws` to every solve on one circuit: only the first then
// plans the assembly and analyzes the pattern.  A fresh workspace and one
// already planned (for this circuit or another) give bit-identical results.
NewtonResult solve_newton(Circuit& circuit, const MnaLayout& layout,
                          linalg::Vector& x, double time, double dt, bool dc,
                          IntegrationMethod method, const NewtonOptions& opts,
                          NewtonWorkspace& ws);

// solve_newton plus the recovery ladder, shared by the DC operating-point
// search and the transient mid-step salvage (where it runs after
// dt-halving bottoms out at dt_min).  On failure it escalates at the same
// timepoint: a gmin ramp (heavy loading from every node to ground, relaxed
// tenfold per rung), then a source ramp in equal steps up to the requested
// source scale; the rungs are constants in newton.cpp.  A DC solve ramps
// the sources from a zero vector, a transient one from `x` as passed in,
// the last accepted timepoint.  On success the returned diagnostics record
// the stage that produced the solution; on failure `x` keeps its value,
// the stage is kExhausted and the diagnostics describe the original
// (unrecovered) failure.  Iteration counts accumulate across all attempted
// rungs.
//
// `deadline` (optional) bounds the ladder's wall-clock time: it is checked
// between rungs/ramp steps and throws util::WatchdogError on expiry, so a
// pathological operating point cannot stall a characterization or sweep
// point indefinitely (DCOptions::max_wall_seconds and
// TranOptions::max_wall_seconds feed it).
NewtonResult solve_newton_with_recovery(Circuit& circuit,
                                        const MnaLayout& layout,
                                        linalg::Vector& x, double time,
                                        double dt, bool dc,
                                        IntegrationMethod method,
                                        const NewtonOptions& opts,
                                        NewtonWorkspace& ws,
                                        const util::Deadline* deadline = nullptr);

}  // namespace nvsram::spice
