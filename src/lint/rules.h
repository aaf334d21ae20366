// Rule catalog and lint options.
//
// Every check the linter performs has a stable string id listed here, with
// its default severity and a one-line summary (`nvlint --rules` and
// docs/LINT.md render this table).  Each entry also carries the one-paragraph
// explanation and minimal triggering example behind `nvlint --explain=<id>`,
// plus the name of its seeded negative fixture under tests/netlists_bad/
// (the meta-lint test holds the catalog, the fixtures, and docs/LINT.md in
// sync).  Tests that intentionally build degenerate circuits opt out per
// rule through LintOptions::disable().
#pragma once

#include <string>
#include <unordered_set>
#include <vector>

#include "lint/diagnostic.h"

namespace nvsram::lint {

namespace rules {
// Circuit topology.
inline constexpr const char* kFloatNode = "float-node";
inline constexpr const char* kNoDcPath = "no-dc-path";
inline constexpr const char* kVsourceLoop = "vsource-loop";
inline constexpr const char* kVsourceShorted = "vsource-shorted";
inline constexpr const char* kSelfConnected = "self-connected";
// Device parameters.
inline constexpr const char* kNonphysicalValue = "nonphysical-value";
// Netlist cards.
inline constexpr const char* kProbeUnresolved = "probe-unresolved";
inline constexpr const char* kCardUnresolved = "card-unresolved";
inline constexpr const char* kSubcktUnusedPort = "subckt-unused-port";
// Paper-specific topology.
inline constexpr const char* kSramCrossCoupling = "sram-cross-coupling";
inline constexpr const char* kMtjOrientation = "mtj-orientation";
// Structural MNA analysis (spice/structural_analysis.h): symbolic proofs on
// the stamp-position pattern, gmin excluded.
inline constexpr const char* kStructuralSingular = "structural-singular";
inline constexpr const char* kDisconnectedBlock = "disconnected-block";
inline constexpr const char* kDanglingBranchEquation = "dangling-branch-equation";
// Temporal protocol analysis (lint/temporal/): static checks on the stimulus
// schedule against the power-gating protocol of each architecture.
inline constexpr const char* kProtocolStoreIncomplete = "protocol-store-incomplete";
inline constexpr const char* kProtocolStoreMissing = "protocol-store-missing";
inline constexpr const char* kProtocolStoreGateOverlap = "protocol-store-gate-overlap";
inline constexpr const char* kProtocolRestoreOrder = "protocol-restore-order";
inline constexpr const char* kProtocolShutdownShort = "protocol-shutdown-short";
inline constexpr const char* kProtocolClockStore = "protocol-clock-store";
inline constexpr const char* kProtocolSleepRetention = "protocol-sleep-retention";
inline constexpr const char* kProtocolPwlNonmonotonic = "protocol-pwl-nonmonotonic";
inline constexpr const char* kProtocolWlPrechargeOverlap =
    "protocol-wl-precharge-overlap";
// Power-intent analysis (lint/power/): domain extraction plus off-window
// abstract interpretation over the stimulus schedule.
inline constexpr const char* kPowerWlInOffWindow = "power-wl-in-off-window";
inline constexpr const char* kPowerSneakPath = "power-sneak-path";
inline constexpr const char* kPowerMissingIsolation = "power-missing-isolation";
inline constexpr const char* kPowerDomainFloating = "power-domain-floating";
inline constexpr const char* kPowerSharedRailConflict =
    "power-shared-rail-conflict";
// Retention-data dataflow analysis (lint/dataflow/): abstract interpretation
// of the per-cell data state (latch vs MTJ contents) across the schedule's
// write / store / gate-off / restore / read events.
inline constexpr const char* kDataLostInOffWindow = "data-lost-in-off-window";
inline constexpr const char* kDataStaleRestore = "data-stale-restore";
inline constexpr const char* kDataReadBeforeRestore = "data-read-before-restore";
inline constexpr const char* kDataRedundantStore = "data-redundant-store";
inline constexpr const char* kDataStoreTruncated = "data-store-truncated";
// Dimensional / range analysis over parameters and parsed netlist values.
inline constexpr const char* kUnitsCurrentDensity = "units-current-density";
inline constexpr const char* kUnitsTimeScale = "units-time-scale";
inline constexpr const char* kUnitsVoltageRange = "units-voltage-range";
inline constexpr const char* kUnitsDimension = "units-dimension";
}  // namespace rules

struct RuleInfo {
  const char* id;
  const char* family;  // "topology", "params", ..., "protocol", "data"
  Severity severity;
  const char* summary;
  // One-paragraph explanation (`nvlint --explain=<id>`): what the rule
  // proves and why a violation matters.
  const char* description;
  // Minimal triggering example (netlist snippet, or an API note for rules
  // that only programmatic post-editing can reach).
  const char* example;
  // Seeded negative fixture under tests/netlists_bad/ that fires this rule;
  // "" for rules unreachable from netlist text (the meta-lint test pins the
  // exact allowlist of those).
  const char* fixture;
};

// All known rules, in documentation order.
const std::vector<RuleInfo>& rule_catalog();

// Catalog entry for a rule id; nullptr for unknown ids.
const RuleInfo* find_rule(const std::string& rule_id);

// Default severity for a rule id; kError for unknown ids (conservative).
Severity default_severity(const std::string& rule_id);

// Family name for a rule id; "" for unknown ids.
const char* rule_family(const std::string& rule_id);

struct LintOptions {
  // Rule ids to skip entirely.
  std::unordered_set<std::string> disabled;

  // Diagnostics below this severity are dropped from the report.
  Severity min_severity = Severity::kInfo;

  LintOptions& disable(const std::string& rule_id) {
    disabled.insert(rule_id);
    return *this;
  }
  bool enabled(const std::string& rule_id) const {
    return disabled.find(rule_id) == disabled.end();
  }
};

}  // namespace nvsram::lint
