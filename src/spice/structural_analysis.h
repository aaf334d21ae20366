// Structural (symbolic) MNA analysis: prove a circuit's system of equations
// solvable from topology alone, before any Newton iteration.
//
// The analyzer asks every device WHERE it stamps (Device::stamp_pattern —
// positions, no numerics), assembles the sparsity pattern of the MNA matrix,
// and runs the linalg structure pass over it:
//
//   * maximum matching — a perfect equation/unknown matching proves the
//     system structurally nonsingular; a deficiency proves it singular for
//     EVERY assignment of device values, and the matching's unmatched rows
//     and columns name the unsolvable equations and undetermined unknowns.
//   * dangling branch equations — a branch unknown whose row or column is
//     empty (e.g. a voltage source strapped between grounds) is attributed
//     to its owning device.
//   * floating blocks — connected components of the bipartite
//     equation/unknown graph that contain no ground-referencing device.
//     Such a block is structurally matchable yet numerically singular
//     (its KCL rows sum to zero), so it is reported separately.
//
// The DC pattern deliberately excludes the solver's gmin loading: gmin puts
// every node diagonal in the pattern and would mask exactly the node-level
// defects this analysis exists to find.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "linalg/structure.h"
#include "spice/circuit.h"

namespace nvsram::spice {

// One structurally deficient equation (row) or unknown (column), with the
// devices whose stamps touch it (the repair candidates).
struct StructuralDefect {
  std::string unknown;                // "V(node)" or "I(device)"
  std::string node;                   // node name when the unknown is a node voltage
  std::vector<std::string> devices;   // devices stamping this row/column
};

// A branch equation with an empty row or column, attributed to its owner.
struct DanglingBranch {
  std::string device;
  std::string unknown;  // "I(device)"
  bool empty_row = false;
  bool empty_col = false;
};

// A connected block of the equation/unknown graph with no ground reference.
struct FloatingBlock {
  std::vector<std::string> unknowns;  // member unknowns, layout order
  std::vector<std::string> devices;   // devices stamping inside the block
};

struct StructuralReport {
  std::size_t unknown_count = 0;
  bool dc = true;

  // Perfect matching missing: the matrix is singular for every value set.
  bool structurally_singular = false;
  std::vector<StructuralDefect> undetermined_unknowns;  // deficient columns
  std::vector<StructuralDefect> unsolvable_equations;   // deficient rows

  std::vector<DanglingBranch> dangling_branches;

  std::size_t block_count = 0;             // components of the bipartite graph
  std::vector<FloatingBlock> floating_blocks;

  // The analyzed MNA pattern (DC or transient, as requested).
  linalg::SparsityPattern pattern;

  bool clean() const {
    return !structurally_singular && dangling_branches.empty() &&
           floating_blocks.empty();
  }
};

// Analyze the circuit's MNA pattern.  `dc` selects the DC pattern (capacitors
// open, no gmin); otherwise the transient pattern.  Builds
// its own layout (and so is independent of any solver state).
StructuralReport analyze_structure(const Circuit& circuit, bool dc = true);

}  // namespace nvsram::spice
