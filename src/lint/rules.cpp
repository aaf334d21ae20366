#include "lint/rules.h"

namespace nvsram::lint {

const std::vector<RuleInfo>& rule_catalog() {
  static const std::vector<RuleInfo> kCatalog = {
      {rules::kFloatNode, "topology", Severity::kWarning,
       "node is attached to exactly one device pin",
       "A node referenced by exactly one device pin (or by none) cannot "
       "carry current: whatever the single pin drives into it has nowhere "
       "to go, so the connection is almost certainly a typo'd node name. "
       "The solver would still run (gmin ties the node down) but the device "
       "is electrically dead.",
       "V1 a 0 DC 1\nR1 a b 1k\nR2 a 0 1k\n* 'b' touches only R1: floating",
       "bad_float_node.cir"},
      {rules::kNoDcPath, "topology", Severity::kError,
       "node has no DC conduction path to ground (MNA matrix is singular "
       "without gmin)",
       "Capacitors and current sources are open circuits at DC, so a node "
       "reachable from ground only through them has an undefined operating "
       "point: the MNA matrix is singular and the DC solution depends on "
       "gmin leakage instead of the circuit. Give every node a resistive / "
       "channel path to a rail.",
       "V1 a 0 DC 1\nR1 a 0 1k\nC1 a x 1p\nR2 x y 1k\nC2 y 0 1p\n"
       "* x,y only reach ground through capacitors",
       "bad_no_dc_path.cir"},
      {rules::kVsourceLoop, "topology", Severity::kError,
       "loop of voltage sources (in parallel or in a cycle)",
       "Two voltage sources in parallel (or any cycle of voltage sources) "
       "over-determine the loop voltage: unless the values agree exactly, "
       "KVL has no solution, and even when they agree the branch current "
       "split is undefined. The MNA matrix is singular either way.",
       "V1 a 0 DC 1\nV2 a 0 DC 1\nR1 a 0 1k\n* V1 || V2 closes a loop",
       "bad_vsource_loop.cir"},
      {rules::kVsourceShorted, "topology", Severity::kError,
       "voltage-defined branch with both terminals on the same node",
       "A voltage source with both terminals on one node demands a nonzero "
       "potential difference between a node and itself; its branch equation "
       "is unsatisfiable (or degenerate at V=0) and the branch current is "
       "undefined. Usually a copy-paste error in the node names.",
       "V1 a a DC 1\nR1 a 0 1k\nV2 a 0 DC 1\n* V1's terminals coincide",
       "bad_vsource_shorted.cir"},
      {rules::kSelfConnected, "topology", Severity::kWarning,
       "device with all conducting terminals tied to one node (stamps cancel)",
       "A two-terminal device with both pins on one node, or a FET with "
       "drain and source shorted together, stamps equal and opposite "
       "entries that cancel: the device carries no signal and contributes "
       "nothing to the solution. It is dead weight, and almost always a "
       "mis-typed node.",
       "V1 a 0 DC 1\nR2 a 0 1k\nR1 a a 1k\n* R1's stamps cancel",
       "bad_self_connected.cir"},
      {rules::kNonphysicalValue, "params", Severity::kError,
       "non-physical device parameter (R/C/L <= 0, fins <= 0, MTJ tau0 <= 0)",
       "A zero or negative resistance, capacitance, inductance, fin count, "
       "channel length, MTJ tau0/diameter, or diode saturation current has "
       "no physical meaning in this technology and usually signals a "
       "dropped SI suffix or sign error. Negative resistance also destroys "
       "the solver's convergence guarantees.",
       "V1 a 0 DC 1\nR1 a 0 -5\n* negative resistance",
       "bad_nonphysical_value.cir"},
      {rules::kProbeUnresolved, "cards", Severity::kError,
       ".probe target does not resolve to a node/device of this circuit",
       "A probe that references a node or device outside the circuit can "
       "never be evaluated. The parser rejects unknown .probe targets at "
       "parse time, so this rule only fires on probes attached through "
       "programmatic post-editing (ParsedNetlist::add_probe with a foreign "
       "device).",
       "// API only: net->add_probe(Probe::device_current(foreign, ...));\n"
       "// the parser rejects '.probe i(Rmissing)' before lint runs",
       ""},
      {rules::kCardUnresolved, "cards", Severity::kError,
       ".dc card names a source that does not exist",
       "A .dc analysis card that names a source absent from the circuit (or "
       "names a device that is not an independent V/I source) would fail at "
       "run time after parsing succeeded. The lint pass rejects the deck "
       "before any solve is attempted.",
       "V1 a 0 DC 1\nR1 a 0 1k\n.dc Vmissing 0 1 5",
       "bad_card_unresolved.cir"},
      {rules::kSubcktUnusedPort, "cards", Severity::kWarning,
       ".subckt port is never referenced inside the definition body",
       "A subcircuit port that no card in the definition body references is "
       "dead: every instantiation wires a caller node to nothing. Either "
       "the port list is stale or a body line mis-types the port name.",
       ".subckt buf in out vdd\nR1 in out 1k\n.ends\n* 'vdd' never used\n"
       "V1 a 0 DC 1\nVd d 0 DC 1\nX1 a b d buf",
       "bad_subckt_unused_port.cir"},
      {rules::kSramCrossCoupling, "paper", Severity::kWarning,
       "MTJ-retention circuit lacks a cross-coupled inverter pair (6T core "
       "mis-wired?)",
       "A cell carrying two or more MTJ retention devices and at least six "
       "FETs is expected to be an NV-SRAM cell, whose bistable core is a "
       "cross-coupled inverter pair (two FETs where each gate is the "
       "other's drain). When no such pair exists the storage loop is "
       "mis-wired and the cell cannot latch.",
       "* 6 FETs in a chain + 2 MTJs, no FET pair with gate_i = drain_j\n"
       "* and gate_j = drain_i",
       "bad_cross_coupling.cir"},
      {rules::kMtjOrientation, "paper", Severity::kWarning,
       "MTJ pinned layer faces the FET store branch (store polarity inverted "
       "vs the paper's Fig. 2 topology)",
       "In the paper's Fig. 2 store branch the MTJ free layer faces the "
       "storage-node (FET channel) side. An MTJ with its pinned layer on a "
       "channel node and its free layer elsewhere conducts store current "
       "with inverted polarity relative to the data, so every store writes "
       "the complement.",
       "M1 d g 0 nfin\nY1 d x AP\n* pinned terminal 'd' is on the FET "
       "channel;\n* the paper puts the free layer there",
       "bad_mtj_orientation.cir"},
      {rules::kStructuralSingular, "structural", Severity::kError,
       "MNA matrix is structurally singular: some equation/unknown can never "
       "be pivoted, for every assignment of device values",
       "Symbolic analysis of the MNA stamp pattern (gmin excluded) proves "
       "that some equation or unknown can never be pivoted no matter what "
       "numeric values the devices take. The operating point then exists "
       "only by numerical accident (gmin leakage), not by circuit design.",
       "V1 a 0 DC 1\nR1 a 0 1k\nI1 0 x DC 1u\nC1 x 0 1p\n"
       "* V(x) has no DC equation: current source into a capacitor",
       "bad_structural_singular.cir"},
      {rules::kDanglingBranchEquation, "structural", Severity::kError,
       "branch-current equation with an empty row or column (e.g. a voltage "
       "source strapped between grounds)",
       "A voltage-defined device whose branch row or column is empty (both "
       "terminals grounded, for instance) has a structurally undetermined "
       "branch current: no KCL equation constrains it. The device is "
       "either redundant or mis-wired.",
       "V1 0 0 DC 0\nR1 a 0 1k\nV2 a 0 DC 1\n* V1 straps ground to ground",
       "bad_dangling_branch.cir"},
      {rules::kDisconnectedBlock, "structural", Severity::kWarning,
       "connected equation block with no ground reference (KCL rows sum to "
       "zero: numerically singular without gmin)",
       "A connected group of nodes with no DC reference to ground forms an "
       "equation block whose KCL rows sum to zero: the block's absolute "
       "potential is undefined and the solve only succeeds because gmin "
       "leaks it to ground. Reference the island to a rail explicitly.",
       "V1 a 0 DC 1\nR1 a 0 1k\nR2 x y 1k\nC1 x 0 1p\nC2 y 0 1p\n"
       "* {x,y} island has no DC ground reference",
       "bad_disconnected_block.cir"},
      {rules::kProtocolStoreIncomplete, "protocol", Severity::kError,
       "store step shorter than the MTJ write-pulse width at the configured "
       "overdrive (CIMS switch cannot complete)",
       "Each store step (a contiguous CTRL level inside an SR assert) must "
       "last at least tau0/(I/Ic - 1), the precessional CIMS switching time "
       "at the configured store overdrive. A shorter step ends before the "
       "magnetization switches: the store silently fails and the transient "
       "would still look plausible.",
       "* SR asserted for 2 ns against a 6 ns write pulse:\n"
       "Vsr sr 0 PWL(10n 0 10.2n 0.65 12n 0.65 12.2n 0)",
       "bad_store_short.cir"},
      {rules::kProtocolStoreMissing, "protocol", Severity::kError,
       "power gated off with no completed MTJ store since the previous "
       "power-up (cell contents lost)",
       "A write leaves the volatile latch ahead of the MTJ contents. If the "
       "power gate then cuts the rail with no completed store in between, "
       "the written data is unrecoverable. Read-only power cycles are "
       "exempt: the MTJs already hold the data.",
       "* write at 1 ns, gate-off at 60 ns, no SR pulse in between",
       "bad_nof_store_missing.cir"},
      {rules::kProtocolStoreGateOverlap, "protocol", Severity::kError,
       "store pulse overlaps the gate-off edge (write current cut mid-store)",
       "A store begun with power on but still asserted when the gate cuts "
       "the rail loses its write current mid-pulse: the virtual rail "
       "collapses, the CIMS current drops below critical, and the final MTJ "
       "state is indeterminate. The store must complete strictly before "
       "the gate-off edge.",
       "* SR rises at 55 ns, gate-off at 60 ns, SR falls at 70 ns:\n"
       "* the pulse straddles the collapse",
       "bad_store_gate_overlap.cir"},
      {rules::kProtocolRestoreOrder, "protocol", Severity::kError,
       "restore pulse absent at rail recovery, or a word line asserts before "
       "the restore completes",
       "On power-up the cell re-latches from its MTJs only if an SR restore "
       "pulse straddles the rail recovery; without one the core settles to "
       "random data. A word-line access before the restore completes "
       "disturbs the cell while it is still re-developing. Both orderings "
       "break the NVPG wake-up discipline.",
       "* SR pulse ends inside the off window instead of straddling the\n"
       "* recovery edge, or WL rises before the restore de-asserts",
       "bad_restore_order.cir"},
      {rules::kProtocolShutdownShort, "protocol", Severity::kWarning,
       "power-off window too short to complete the collapse/recovery ramps",
       "A power-off window shorter than the rail collapse plus recovery "
       "ramps never actually powers the domain down: the virtual rail sags "
       "and recovers without reaching the cutoff state, so the shutdown "
       "burns transition energy without saving any leakage (advisory).",
       "* gate-off at 60 ns, back on at 61 ns: 1 ns < 2 ns ramp budget",
       "bad_shutdown_short.cir"},
      {rules::kProtocolClockStore, "protocol", Severity::kError,
       "NOF clock period shorter than the per-cycle store pulse",
       "The NOF architecture embeds a store in every access cycle, so the "
       "(stretched) clock period must fit the store pulse. A period "
       "shorter than the pulse cannot schedule the store it promises; the "
       "architecture degenerates to an unprotected cell. The .arch card "
       "pins a netlist to the NOF protocol for this check.",
       "Vvdd vdd 0 DC 0.9\nR1 vdd 0 10k\n.tran 100n\n.arch nof\n"
       "* default 3.3 ns clock cannot fit the 10 ns store pulse",
       "bad_clock_store.cir"},
      {rules::kProtocolSleepRetention, "protocol", Severity::kError,
       "sleep rail level below the bistable retention floor (data lost "
       "without a store)",
       "OSR-style sleep keeps the volatile core alive by holding the rail "
       "above the bistable retention floor. A sleep level below that floor "
       "collapses the static noise margin to zero: the cell loses its data "
       "exactly as if it had been gated off, but with no store protecting "
       "it.",
       "* rail sags to 0.3 V against a 0.45 V retention floor:\n"
       "Vdd vdd 0 PWL(10n 0.9 11n 0.3 50n 0.3 51n 0.9)",
       "bad_sleep_retention.cir"},
      {rules::kProtocolPwlNonmonotonic, "protocol", Severity::kError,
       "PWL time points not strictly increasing (later points shadow earlier "
       "ones)",
       "A PWL waveform whose time points do not strictly increase is "
       "ambiguous: the simulator silently shadows the earlier point, so "
       "the stimulus that runs is not the stimulus that was written. "
       "Almost always a dropped SI prefix in one time value.",
       "Vwl wl 0 PWL(0 0 5n 0.9 3n 0.9 8n 0)\n* 3n after 5n",
       "bad_pwl_nonmonotonic.cir"},
      {rules::kProtocolWlPrechargeOverlap, "protocol", Severity::kWarning,
       "word line asserted while the bitline precharge is still active",
       "The precharge pFETs hold both bitlines at VDD while their gate is "
       "low. A word line that rises before the precharge releases shorts "
       "the cell's pull-downs into the precharge pull-ups for the overlap: "
       "the access fights the precharge, wasting energy and slowing (or "
       "corrupting) the read.",
       "Vpch pch 0 PWL(0 0 12n 0 12.5n 0.9)\n"
       "Vwl wl 0 PULSE(0 0.9 10n 50p 50p 4n)\n* WL up at 10 ns, precharge "
       "active until 12 ns",
       "bad_wl_precharge_overlap.cir"},
      {rules::kPowerWlInOffWindow, "power", Severity::kError,
       "word line asserts while the power domain holding the accessed cell "
       "is gated off (access into a collapsed rail)",
       "An access into a domain whose rail is collapsed reads garbage and "
       "can back-power the domain through the access FETs. The off windows "
       "come from abstract interpretation of the PS gate signals, so the "
       "check needs no transient solve.",
       "* WL pulse at 1000 ns inside the PG off window [60, 2105] ns",
       "bad_wl_in_off_window.cir"},
      {rules::kPowerSneakPath, "power", Severity::kError,
       "DC conduction path through a gated-off domain between held nets (the "
       "leakage the power switch was supposed to cut)",
       "If a resistive path conducts through a gated-off domain between two "
       "externally held nets at different potentials, the domain leaks "
       "exactly the current the power switch was inserted to cut. The "
       "shutdown saves nothing; the Fig. 7-9 energy accounting is invalid "
       "for that deck.",
       "* a resistor bridging VDD to the virtual rail around the PS FET",
       "bad_sneak_path.cir"},
      {rules::kPowerMissingIsolation, "power", Severity::kWarning,
       "node of a gated domain drives a gate in a still-powered domain with "
       "no isolation clamp (floats to mid-rail during power-off)",
       "When its domain powers down, a node driving a gate in a "
       "still-powered domain floats toward mid-rail, biasing the receiver "
       "half-on: crowbar current in the live domain for the whole off "
       "window. UPF-style isolation cells (or a clamp to a held rail) must "
       "break such crossings.",
       "* gated-domain node wired straight to the gate of a FET in the\n"
       "* always-on domain, no clamp",
       "bad_missing_isolation.cir"},
      {rules::kPowerDomainFloating, "power", Severity::kError,
       ".domain-declared gated rail has no power switch on its supply path "
       "(or no supply path at all)",
       "A .domain card declares a rail gated, but domain extraction finds "
       "no power-switch FET on its supply path (or no supply path at all): "
       "the designer's power intent and the topology disagree. Either the "
       "PS device is missing/mis-wired or the annotation is stale.",
       ".domain vvdd core gated\n* but no PG-driven FET feeds vvdd",
       "bad_domain_floating.cir"},
      {rules::kPowerSharedRailConflict, "power", Severity::kWarning,
       "one virtual rail fed by power switches with different gating "
       "schedules (rail stays up whenever either conducts)",
       "A virtual rail fed by two power switches with different gate "
       "schedules is up whenever either switch conducts, so the "
       "intersection of their off windows — not either schedule alone — is "
       "what gates the domain. Usually one switch's gate signal is stale "
       "or mis-wired.",
       "* two header pFETs on vvdd driven by pg1 and pg2 with different\n"
       "* PWL schedules",
       "bad_shared_rail.cir"},
      {rules::kDataLostInOffWindow, "data", Severity::kError,
       "volatile data newer than the MTJ contents is destroyed by a gate-off "
       "(no completed store covers the last write)",
       "The dataflow pass tracks a generation counter for the volatile "
       "latch and the MTJ pair. At each gate-off edge, if the latch "
       "generation is ahead of the nonvolatile generation, the bit that "
       "only the latch held is destroyed by the rail collapse — the "
       "schedule provably loses data regardless of device sizing. A "
       "completed store pulse between the last write and the gate-off "
       "discharges the obligation.",
       "* write at 30 ns after the store at 10 ns, then gate-off at 40 ns:\n"
       "* the second write's bit exists nowhere once the rail collapses",
       "bad_data_lost.cir"},
      {rules::kDataStaleRestore, "data", Severity::kError,
       "restore re-latches MTJ contents older than the data the cell held at "
       "gate-off",
       "A restore copies the MTJ generation into the latch. If the MTJs "
       "hold an older generation than the latch held when the rail "
       "collapsed (a write intervened after the last completed store), the "
       "cell wakes up with stale data and every subsequent read returns "
       "it. This is the delayed symptom of the lost bit; the rule "
       "attributes it to the restore pulse that re-latched the stale "
       "generation.",
       "* write(gen 2) after store(gen 1); gate-off; restore re-latches\n"
       "* gen 1: stale",
       "bad_data_stale_restore.cir"},
      {rules::kDataReadBeforeRestore, "data", Severity::kError,
       "read of a cell whose latch state is LOST (powered up again, but no "
       "restore has re-latched the MTJ contents)",
       "After a gate-off the latch state is LOST until a restore pulse "
       "re-latches the MTJ contents. A word-line read in the LOST state "
       "returns whatever the core happened to settle into at power-up — "
       "random data that looks like a valid read. The restore must "
       "complete before the first access.",
       "* gate-off [40, 80] ns with no SR pulse at the recovery edge,\n"
       "* then WL read at 90 ns",
       "bad_data_read_before_restore.cir"},
      {rules::kDataRedundantStore, "data", Severity::kWarning,
       "store pulse writes a generation the MTJs already hold (pure energy "
       "waste, advisory)",
       "A store whose data generation equals what the MTJs already hold "
       "switches nothing: every joule of its CIMS write current is wasted. "
       "The advisory quantifies the waste with the per-store energy from "
       "the characterization cache when one is available for the current "
       "parameter point. Common after restructuring a schedule that once "
       "had a write between the stores.",
       "* two SR store pulses with no write between them: the second is\n"
       "* redundant",
       "bad_data_redundant_store.cir"},
      {rules::kDataStoreTruncated, "data", Severity::kError,
       "store pulse shorter than the MTJ switching time (the dataflow state "
       "keeps the old nonvolatile generation)",
       "A store pulse shorter than tau0/(I/Ic - 1) ends before the CIMS "
       "switch completes, so the dataflow pass refuses to advance the "
       "nonvolatile generation: downstream gate-offs then report the data "
       "loss this truncation causes. Where protocol-store-incomplete "
       "flags the malformed pulse itself, this rule carries the "
       "consequence into the data-state analysis.",
       "* SR pulse of 4 ns against the 6 ns switching time at the\n"
       "* configured overdrive",
       "bad_data_store_truncated.cir"},
      {rules::kUnitsCurrentDensity, "units", Severity::kError,
       "MTJ critical current density outside the A/m^2 range (likely entered "
       "in A/cm^2)",
       "The MTJ critical current density must land in the A/m^2 range "
       "plausible for a 20 nm junction (1e9..1e12). The paper quotes jc in "
       "A/cm^2 (5e6), which is 5e10 A/m^2; entering the paper's number "
       "unconverted produces a cell whose store current is off by 1e4.",
       "Y1 a b P jc=5e6\n* 5e6 A/m^2 is the paper's A/cm^2 value, "
       "unconverted",
       "bad_jc_units.cir"},
      {rules::kUnitsTimeScale, "units", Severity::kWarning,
       "schedule time constant outside the ps..ms range plausible for this "
       "technology (likely entered in the wrong SI prefix)",
       "Schedule horizons and MTJ switching time scales outside the ps..ms "
       "band cannot be real for this technology: a .tran of 20 ms (or an "
       "MTJ tau0 of microseconds) almost always means a time value was "
       "entered without its SI prefix.",
       "V1 a 0 DC 1\nR1 a 0 1k\n.tran 20m\n* 20 ms horizon: forgot the 'n'?",
       "bad_time_scale.cir"},
      {rules::kUnitsVoltageRange, "units", Severity::kError,
       "bias voltage outside the physical range of the 14 nm FinFET process",
       "Any driver that reaches beyond 1.5 V exceeds the survivable gate "
       "bias of the 14 nm process: the oxide would break down long before "
       "the waveform completes. Values in mV entered as V (or vice versa) "
       "are the usual cause. The check applies only to decks that carry "
       "FETs or MTJs; generic RLC circuits may run at any voltage.",
       "Vg g 0 DC 5\nM1 d g 0 nfin\nVd vd 0 DC 0.9\nR1 vd d 10k\n"
       "* 5 V on a 14 nm gate",
       "bad_voltage_range.cir"},
      {rules::kUnitsDimension, "units", Severity::kError,
       "derived quantity (Ic, store energy) dimensionally inconsistent or "
       "implausible: unit algebra over the parameters does not close",
       "Derived quantities are recomputed with explicit dimensions: "
       "Ic = jc * area must close to amperes and land in the range a "
       "20 nm-class junction can carry; the store energy factor*Ic*VDD*t "
       "must close to joules. A value outside range with consistent "
       "dimensions means some upstream parameter was entered in the wrong "
       "units even though each one looks individually plausible.",
       "Y1 a b P diameter=1n jc=2e9\n* jc in range, but Ic = jc*area is "
       "sub-100 nA",
       "bad_units_dimension.cir"},
  };
  return kCatalog;
}

const RuleInfo* find_rule(const std::string& rule_id) {
  for (const auto& r : rule_catalog()) {
    if (rule_id == r.id) return &r;
  }
  return nullptr;
}

Severity default_severity(const std::string& rule_id) {
  const RuleInfo* r = find_rule(rule_id);
  return r == nullptr ? Severity::kError : r->severity;
}

const char* rule_family(const std::string& rule_id) {
  const RuleInfo* r = find_rule(rule_id);
  return r == nullptr ? "" : r->family;
}

}  // namespace nvsram::lint
