#include "spice/newton.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "linalg/lu.h"
#include "linalg/sparse_lu.h"
#include "linalg/structure.h"
#include "util/log.h"

namespace nvsram::spice {

NewtonOptions NewtonOptions::relaxed(int attempt) const {
  NewtonOptions r = *this;
  if (attempt <= 0) return r;
  // One shared ladder for every retry loop: each attempt loosens the
  // convergence budget 10x (floored at loose-but-sane values), doubles the
  // iteration budget, and raises gmin to tame near-singular bias points.
  const double scale = std::pow(10.0, attempt);
  r.reltol = std::min(reltol * scale, 1e-2);
  r.abstol_v = std::min(abstol_v * scale, 1e-4);
  r.abstol_i = std::min(abstol_i * scale, 1e-7);
  r.gmin = std::min(gmin * scale, 1e-9);
  r.max_iterations = max_iterations * (attempt + 1);
  return r;
}

std::string unknown_name(const Circuit& circuit, const MnaLayout& layout,
                         std::size_t index) {
  if (index < layout.node_count() - 1) return circuit.node_name(index + 1);
  return "branch[" + std::to_string(index - (layout.node_count() - 1)) + "]";
}

namespace {

// Largest node-voltage move one Newton iteration may take (V): keeps the
// exponential models inside their linear-ish region.
constexpr double kVoltageLimit = 0.4;

// The recovery ladder's rungs (see solve_newton_with_recovery).
constexpr double kGminStart = 1e-2;
constexpr double kGminStop = 1e-12;
constexpr int kSourceSteps = 25;

// Scans `v` for the first non-finite entry; returns its index or npos.
std::size_t first_non_finite(const linalg::Vector& v) {
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (!std::isfinite(v[i])) return i;
  }
  return std::numeric_limits<std::size_t>::max();
}

}  // namespace

NewtonResult solve_newton(Circuit& circuit, const MnaLayout& layout,
                          linalg::Vector& x, double time, double dt, bool dc,
                          IntegrationMethod method, const NewtonOptions& opts,
                          NewtonWorkspace& ws) {
  const std::size_t n = layout.unknown_count();
  const std::size_t node_unknowns = layout.node_count() - 1;
  constexpr std::size_t kNpos = std::numeric_limits<std::size_t>::max();
  x.resize(n, 0.0);

  linalg::SparseBuilder& builder = ws.builder;
  linalg::Vector& rhs = ws.rhs;
  linalg::Vector& solved = ws.solution;
  builder.resize(n);
  ws.iterate.resize(n);
  NewtonResult result;
  SolveDiagnostics& diag = result.diagnostics;
  diag.time = time;
  diag.last_dt = dt;
  // The unknown diag.worst_node names; resolved to a string only on return.
  std::size_t worst = kNpos;
  const auto name_worst = [&] {
    if (worst != kNpos) diag.worst_node = unknown_name(circuit, layout, worst);
  };

  FaultPlan* faults = circuit.fault_plan();
  const int solve_index = faults ? faults->begin_solve() : 0;

  // Injected hard singularity: report it exactly like a real one.
  if (faults && faults->fires(FaultKind::kSingular, solve_index)) {
    result.singular = true;
    diag.singular = true;
    diag.injected = true;
    util::log_warn() << "newton: injected singular fault at solve "
                     << solve_index << " (t=" << time << ")";
    return result;
  }
  const bool stalled =
      faults && faults->fires(FaultKind::kStall, solve_index);

  const std::uint64_t topology = circuit.topology_id();
  // The iterate the devices stamp at: the initial guess, then ws.iterate,
  // so `x` keeps the guess unless the solve converges.
  const linalg::Vector* xk = &x;
  for (int iter = 1; iter <= opts.max_iterations; ++iter) {
    result.iterations = iter;
    diag.iterations = iter;
    rhs.assign(n, 0.0);

    // Streamed pass, once the plan is checked for this topology and kind.
    bool assembled = false;
    if (ws.plan_topology == topology && ws.plan_dc == dc) {
      linalg::CsrStream stream = ws.assembler.stream(ws.matrix);
      StampContext ctx(layout, *xk, stream, rhs, time, dt, dc, method,
                       opts.source_scale);
      bool poisoned = false;
      bool first_device = true;
      for (const auto& dev : circuit.devices()) {
        dev->stamp(ctx);
        if (faults &&
            faults->stamp_fault(solve_index, dev->name(), first_device)) {
          poisoned = true;
        }
        first_device = false;
      }
      for (std::size_t i = 0; i < node_unknowns; ++i) stream.add(opts.gmin);
      assembled = !poisoned && ws.assembler.complete(stream) &&
                  first_non_finite(ws.matrix.values()) == kNpos &&
                  first_non_finite(rhs) == kNpos;
      if (!assembled) rhs.assign(n, 0.0);
    }

    // Recorded pass: plans or checks the plan, and names what is not finite.
    if (!assembled) {
      builder.clear();
      StampContext ctx(layout, *xk, builder, rhs, time, dt, dc, method,
                       opts.source_scale);
      bool first_device = true;
      for (const auto& dev : circuit.devices()) {
        const std::size_t mark = builder.triplets().size();
        dev->stamp(ctx);
        if (faults &&
            faults->stamp_fault(solve_index, dev->name(), first_device)) {
          builder.add(0, 0, std::numeric_limits<double>::quiet_NaN());
          diag.injected = true;
        }
        // Non-finite stamp guard: check only this device's new entries so
        // the culprit is attributed by name.
        const auto& trips = builder.triplets();
        for (std::size_t i = mark; i < trips.size(); ++i) {
          if (!std::isfinite(trips[i].value)) {
            diag.non_finite = NonFiniteSite::kStamp;
            diag.non_finite_device = dev->name();
            util::log_warn() << "newton: non-finite stamp from device '"
                             << dev->name() << "' at t=" << time;
            name_worst();
            return result;
          }
        }
        first_device = false;
      }
      if (const std::size_t bad = first_non_finite(rhs); bad != kNpos) {
        diag.non_finite = NonFiniteSite::kRhs;
        worst = bad;
        name_worst();
        util::log_warn() << "newton: non-finite RHS at '" << diag.worst_node
                         << "', t=" << time;
        return result;
      }
      // gmin from every node to ground: keeps floating nodes and cut-off
      // FET stacks numerically nonsingular.
      for (std::size_t i = 0; i < node_unknowns; ++i) {
        builder.add(i, i, opts.gmin);
      }
      if (ws.assembler.assemble(builder, ws.matrix)) ws.plan_count++;
      ws.plan_topology = topology;
      ws.plan_dc = dc;
    }

    const linalg::CsrMatrix& a = ws.matrix;
    bool ok = false;
    if (n <= linalg::kDenseCutoff) {
      // Cell path: the dense LU's pivots and rounding, replayed on the
      // nonzeros; the dense LU itself runs only to (re)plan the pivots.
      linalg::PlannedLu& lu = ws.planned_lu;
      ok = lu.factorize(a);
      if (lu.replanned()) ws.pivot_plan_count++;
      if (ok) {
        lu.solve_into(rhs, solved);
        diag.structure = StructuralVerdict::kSound;
      } else {
        diag.singular_pivot = lu.failed_pivot();
        if (lu.non_finite()) {
          diag.non_finite = NonFiniteSite::kFactor;
        } else {
          // A full-pivot-search failure: ask whether the pattern itself can
          // ever be nonsingular, so the diagnosis points at topology or at
          // values, not just "singular".
          const auto pattern = linalg::SparsityPattern::from_csr(a);
          diag.structure = linalg::maximum_matching(pattern).perfect(n)
                               ? StructuralVerdict::kSound
                               : StructuralVerdict::kSingular;
        }
      }
    } else {
      // Sparse path: KLU-style analyze (symbolic, pattern-only) once per
      // pattern, then refactor (numeric) on every iteration.
      linalg::SparseLu& lu = ws.sparse_lu;
      bool analyzed = lu.analyzed() && lu.pattern_matches(a);
      if (!analyzed) {
        analyzed = lu.analyze(a);
        if (analyzed) ws.analyze_count++;
      }
      if (analyzed) {
        diag.structure = StructuralVerdict::kSound;
        ok = lu.refactor(a);
        ws.refactor_count++;
        if (!ok && !lu.non_finite()) {
          // Numeric failure of the fixed matching-based pivot order; the
          // threshold-pivoting one-shot factorization may still succeed.
          ok = lu.factorize(a);
          ws.fallback_count++;
        }
      } else {
        diag.structure = StructuralVerdict::kSingular;
      }
      if (ok) {
        lu.solve_into(rhs, solved);
      } else {
        diag.singular_pivot = lu.failed_pivot();
        if (lu.non_finite()) diag.non_finite = NonFiniteSite::kFactor;
      }
    }
    if (!ok) {
      result.singular = diag.non_finite == NonFiniteSite::kNone;
      diag.singular = result.singular;
      if (diag.singular_pivot != SolveDiagnostics::kNoPivot) {
        worst = diag.singular_pivot;
      }
      name_worst();
      util::log_warn() << "newton: "
                       << (diag.singular ? "singular system"
                                         : "non-finite LU factor")
                       << " at t=" << time
                       << " (structure=" << to_string(diag.structure) << ")";
      return result;
    }
    if (const std::size_t bad = first_non_finite(solved); bad != kNpos) {
      diag.non_finite = NonFiniteSite::kSolution;
      worst = bad;
      name_worst();
      util::log_warn() << "newton: non-finite solution at '" << diag.worst_node
                       << "', t=" << time;
      return result;
    }

    // Convergence check on the raw update; tracks the worst offender (by
    // how far it exceeds its tolerance budget) for diagnostics.
    const linalg::Vector& xi = *xk;
    bool converged = true;
    double worst_ratio = 0.0;
    std::size_t worst_index = kNpos;
    double worst_delta = 0.0, worst_tol = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double delta = std::fabs(solved[i] - xi[i]);
      const double abstol = (i < node_unknowns) ? opts.abstol_v : opts.abstol_i;
      const double tol = abstol + opts.reltol * std::max(std::fabs(solved[i]),
                                                         std::fabs(xi[i]));
      if (delta > tol) converged = false;
      const double ratio = tol > 0.0 ? delta / tol : 0.0;
      if (ratio > worst_ratio) {
        worst_ratio = ratio;
        worst_index = i;
        worst_delta = delta;
        worst_tol = tol;
      }
    }
    if (worst_index != kNpos) {
      worst = worst_index;
      diag.worst_delta = worst_delta;
      diag.worst_tol = worst_tol;
    }
    if (converged && !stalled) {
      x.swap(solved);
      result.converged = true;
      diag.converged = true;
      name_worst();
      return result;
    }

    // Damped update: limit node-voltage moves to kVoltageLimit.
    linalg::Vector& next = ws.iterate;
    for (std::size_t i = 0; i < n; ++i) {
      double v = solved[i];
      if (i < node_unknowns) {
        const double delta = v - xi[i];
        if (delta > kVoltageLimit) v = xi[i] + kVoltageLimit;
        if (delta < -kVoltageLimit) v = xi[i] - kVoltageLimit;
      }
      next[i] = v;
    }
    xk = &next;
  }
  if (stalled) diag.injected = true;
  name_worst();
  return result;
}

NewtonResult solve_newton_with_recovery(Circuit& circuit,
                                        const MnaLayout& layout,
                                        linalg::Vector& x, double time,
                                        double dt, bool dc,
                                        IntegrationMethod method,
                                        const NewtonOptions& opts,
                                        NewtonWorkspace& ws,
                                        const util::Deadline* deadline) {
  NewtonResult plain =
      solve_newton(circuit, layout, x, time, dt, dc, method, opts, ws);
  if (plain.converged) return plain;
  if (deadline) deadline->check("recovery ladder");
  // The failed solve left `x` at the start point, and each rung below works
  // on its own copy, so `x` changes only when a rung succeeds.

  // ---- stage 1: gmin ramp ----
  // Solve a heavily loaded (kGminStart to ground everywhere) system, then
  // relax the loading rung by rung, warm-starting each rung from the last.
  {
    linalg::Vector attempt = x;
    NewtonOptions rung_opts = opts;
    bool ladder_ok = true;
    NewtonResult rung;
    for (double g = kGminStart; g >= kGminStop * 0.99; g /= 10.0) {
      if (deadline) deadline->check("recovery ladder (gmin ramp)");
      rung_opts.gmin = std::max(g, opts.gmin);
      rung = solve_newton(circuit, layout, attempt, time, dt, dc, method,
                          rung_opts, ws);
      plain.iterations += rung.iterations;
      if (!rung.converged) {
        ladder_ok = false;
        break;
      }
    }
    if (ladder_ok) {
      rung_opts.gmin = opts.gmin;
      rung = solve_newton(circuit, layout, attempt, time, dt, dc, method,
                          rung_opts, ws);
      plain.iterations += rung.iterations;
      if (rung.converged) {
        x = std::move(attempt);
        rung.iterations = plain.iterations;
        rung.diagnostics.stage = RecoveryStage::kGminRamp;
        return rung;
      }
    }
  }

  // ---- stage 2: source ramp ----
  // Ramp every independent source up to the requested scale, from a zero
  // vector (DC) or from the last accepted timepoint (transient salvage).
  {
    linalg::Vector attempt = dc ? linalg::Vector(x.size(), 0.0) : x;
    NewtonOptions ramp_opts = opts;
    bool ramp_ok = true;
    NewtonResult rung;
    for (int s = 1; s <= kSourceSteps; ++s) {
      if (deadline) deadline->check("recovery ladder (source ramp)");
      ramp_opts.source_scale = opts.source_scale * static_cast<double>(s) /
                               static_cast<double>(kSourceSteps);
      rung = solve_newton(circuit, layout, attempt, time, dt, dc, method,
                          ramp_opts, ws);
      plain.iterations += rung.iterations;
      if (!rung.converged) {
        util::log_warn() << "newton: source ramp failed at scale "
                         << ramp_opts.source_scale << " (t=" << time << ")";
        ramp_ok = false;
        break;
      }
    }
    if (ramp_ok) {
      x = std::move(attempt);
      rung.iterations = plain.iterations;
      rung.diagnostics.stage = RecoveryStage::kSourceRamp;
      return rung;
    }
  }

  plain.diagnostics.stage = RecoveryStage::kExhausted;
  return plain;
}

}  // namespace nvsram::spice
