#include "spice/structural_analysis.h"

#include <algorithm>
#include <span>
#include <unordered_map>

namespace nvsram::spice {

namespace {

using linalg::kUnmatched;

// Unknown index -> human name.  Node voltage unknowns come first in the
// layout, then device branch currents.
std::string unknown_name(const Circuit& ckt, std::size_t u,
                         std::size_t node_unknowns,
                         const std::vector<const Device*>& branch_owner) {
  if (u < node_unknowns) return "V(" + ckt.node_name(u + 1) + ")";
  return "I(" + branch_owner[u - node_unknowns]->name() + ")";
}

// Key -> device indices in one offsets array and one entries array.
struct Table {
  std::vector<std::size_t> offsets;  // keys + 1
  std::vector<std::size_t> entries;
  std::span<const std::size_t> operator[](std::size_t key) const {
    return {entries.data() + offsets[key], offsets[key + 1] - offsets[key]};
  }
};

// Builds a Table over `keys` keys from `for_each_key(i, add)`, which calls
// add(key) for each key device i touches.  A device is listed once per key
// however often it touches it.  Two passes, count then fill, so the table
// costs a fixed number of allocations however many keys it has.
template <typename ForEachKey>
Table device_table(std::size_t keys, std::size_t device_count,
                   ForEachKey&& for_each_key) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  Table table;
  table.offsets.assign(keys + 1, 0);
  std::vector<std::size_t> last(keys, kNone);  // last device listed per key
  for (std::size_t i = 0; i < device_count; ++i) {
    for_each_key(i, [&](std::size_t key) {
      if (last[key] == i) return;
      last[key] = i;
      ++table.offsets[key + 1];
    });
  }
  for (std::size_t k = 0; k < keys; ++k) {
    table.offsets[k + 1] += table.offsets[k];
  }
  table.entries.resize(table.offsets[keys]);
  std::vector<std::size_t> next(table.offsets.begin(), table.offsets.end() - 1);
  last.assign(keys, kNone);
  for (std::size_t i = 0; i < device_count; ++i) {
    for_each_key(i, [&](std::size_t key) {
      if (last[key] == i) return;
      last[key] = i;
      table.entries[next[key]++] = i;
    });
  }
  return table;
}

}  // namespace

StructuralReport analyze_structure(const Circuit& circuit, bool dc) {
  StructuralReport report;
  report.dc = dc;

  // ---- layout with branch ownership ----
  MnaLayout layout(circuit.node_count());
  const auto& devices = circuit.devices();
  std::vector<const Device*> branch_owner;
  for (const auto& dev : devices) {
    const std::size_t before = layout.unknown_count();
    dev->reserve(layout);
    for (std::size_t u = before; u < layout.unknown_count(); ++u) {
      branch_owner.push_back(dev.get());
    }
  }
  const std::size_t n = layout.unknown_count();
  const std::size_t node_unknowns = circuit.node_count() - 1;
  report.unknown_count = n;
  if (n == 0) return report;

  // ---- assemble the pattern, remembering which device stamped what ----
  linalg::SparseBuilder builder(n);
  std::vector<std::pair<std::size_t, std::size_t>> stamped(devices.size());
  for (std::size_t i = 0; i < devices.size(); ++i) {
    PatternContext ctx(layout, builder, dc);
    stamped[i].first = builder.triplets().size();
    devices[i]->stamp_pattern(ctx);
    stamped[i].second = builder.triplets().size();
  }
  report.pattern = linalg::SparsityPattern::from_triplets(n, builder.triplets());

  // Row / column -> stamping devices, and node -> attached devices (used
  // when a defective row/column has no stamping device at all, e.g. an
  // insulated FET gate at DC): device indices in device order, each device
  // once per row, column or node.
  const Table row_devs = device_table(n, devices.size(), [&](std::size_t i,
                                                             auto&& add) {
    for (std::size_t t = stamped[i].first; t < stamped[i].second; ++t) {
      add(builder.triplets()[t].row);
    }
  });
  const Table col_devs = device_table(n, devices.size(), [&](std::size_t i,
                                                             auto&& add) {
    for (std::size_t t = stamped[i].first; t < stamped[i].second; ++t) {
      add(builder.triplets()[t].col);
    }
  });
  const Table node_devs = device_table(
      circuit.node_count(), devices.size(), [&](std::size_t i, auto&& add) {
        for (const TerminalRef& t : devices[i]->terminals()) add(t.node);
      });
  auto culprit_names = [&](std::size_t index, bool row) {
    std::span<const std::size_t> devs = (row ? row_devs : col_devs)[index];
    if (devs.empty() && index < node_unknowns) devs = node_devs[index + 1];
    std::vector<std::size_t> ids(devs.begin(), devs.end());
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<std::string> names;
    names.reserve(ids.size());
    for (std::size_t id : ids) names.push_back(devices[id]->name());
    return names;
  };
  auto make_defect = [&](std::size_t index, bool row) {
    StructuralDefect d;
    d.unknown = unknown_name(circuit, index, node_unknowns, branch_owner);
    if (index < node_unknowns) d.node = circuit.node_name(index + 1);
    d.devices = culprit_names(index, row);
    return d;
  };

  // ---- dangling branch equations ----
  const linalg::SparsityPattern cols = report.pattern.transpose();
  std::unordered_map<const Device*, std::size_t> dangling_of;
  for (std::size_t u = node_unknowns; u < n; ++u) {
    const bool empty_row = report.pattern.row_degree(u) == 0;
    const bool empty_col = cols.row_degree(u) == 0;
    if (!empty_row && !empty_col) continue;
    const Device* owner = branch_owner[u - node_unknowns];
    auto [it, fresh] = dangling_of.emplace(owner, report.dangling_branches.size());
    if (fresh) {
      DanglingBranch db;
      db.device = owner->name();
      db.unknown = unknown_name(circuit, u, node_unknowns, branch_owner);
      report.dangling_branches.push_back(std::move(db));
    }
    report.dangling_branches[it->second].empty_row |= empty_row;
    report.dangling_branches[it->second].empty_col |= empty_col;
  }

  // ---- structural solvability ----
  const linalg::Matching matching = linalg::maximum_matching(report.pattern);
  if (!matching.perfect(n)) {
    report.structurally_singular = true;
    for (std::size_t c : matching.unmatched_cols()) {
      report.undetermined_unknowns.push_back(make_defect(c, /*row=*/false));
    }
    for (std::size_t r : matching.unmatched_rows()) {
      report.unsolvable_equations.push_back(make_defect(r, /*row=*/true));
    }
  }

  // ---- equation blocks and ground reference ----
  const linalg::BipartiteComponents comps = linalg::connected_components(report.pattern);
  report.block_count = comps.count;
  if (comps.count > 0) {
    // A component is grounded when some device stamping inside it has a
    // terminal at ground (its ground-side stamps were dropped, which is the
    // only way a block couples to the reference).
    std::vector<bool> grounded(comps.count, false);
    std::vector<std::vector<std::size_t>> comp_devs(comps.count);
    for (std::size_t i = 0; i < devices.size(); ++i) {
      if (stamped[i].first == stamped[i].second) continue;  // pattern-empty
      const auto& trip = builder.triplets()[stamped[i].first];
      const std::size_t comp = comps.row_component[trip.row];
      if (comp == kUnmatched) continue;
      comp_devs[comp].push_back(i);
      for (const TerminalRef& t : devices[i]->terminals()) {
        if (t.node == kGround) {
          grounded[comp] = true;
          break;
        }
      }
    }
    for (std::size_t comp = 0; comp < comps.count; ++comp) {
      if (grounded[comp]) continue;
      FloatingBlock block;
      for (std::size_t u = 0; u < n; ++u) {
        if (comps.row_component[u] == comp || comps.col_component[u] == comp) {
          block.unknowns.push_back(
              unknown_name(circuit, u, node_unknowns, branch_owner));
        }
      }
      for (std::size_t id : comp_devs[comp]) {
        block.devices.push_back(devices[id]->name());
      }
      report.floating_blocks.push_back(std::move(block));
    }
  }
  return report;
}

}  // namespace nvsram::spice
