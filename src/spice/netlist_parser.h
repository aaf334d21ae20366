// SPICE-style netlist text front end.
//
// Grammar (case-insensitive card letters, '*' comments, SI-suffixed numbers):
//
//   R<name> n+ n- <value>
//   C<name> n+ n- <value>
//   V<name> n+ n- DC <v> | PULSE(v1 v2 td tr tf pw [per]) | PWL(t1 v1 ...)
//   I<name> n+ n- DC <v> | PULSE(...) | PWL(...)
//   D<name> anode cathode [is=<A>] [n=<emission>]
//   M<name> d g s <nfin|pfin> [fins=<k>] [vth=<V>] [l=<m>]
//   Y<name> pinned free <P|AP> [fast] [tau0=<s>]
//   .subckt <name> <port>... / .ends         (definition)
//   X<name> <node>... <subckt-name>          (instantiation)
//   .dc <source-name> <start> <stop> <points>
//   .tran <t_stop> [dt_max]
//   .probe v(<node>) | i(<device>) | p(<vsource>) | e(<vsource>)
//   .role <source> <role>                     (protocol role annotation)
//   .domain <node> <name> [gated|always-on]   (power-intent annotation)
//   .arch nvpg|nof|osr                        (power-gating architecture)
//   .end
//
// Numbers accept engineering suffixes: f p n u m k meg g t (e.g. "4f",
// "2.2k", "10n", "1meg") on top of ordinary decimal and scientific
// notation.  NaN, infinity, hexadecimal and values beyond double range are
// rejected.  The integer fields (fins=, .dc points) take whole numbers that
// fit an int.
//
// The parser produces a ParsedNetlist that owns the Circuit and can execute
// the requested analyses (`run_*`), returning Waveforms.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "lint/power/domain.h"
#include "lint/report.h"
#include "lint/rules.h"
#include "spice/circuit.h"
#include "spice/dc.h"
#include "spice/tran.h"
#include "spice/waveform.h"

namespace nvsram::spice {

// Thrown with a line number and message on any syntax/semantic error.
class NetlistError : public std::runtime_error {
 public:
  NetlistError(int line, const std::string& message);
  int line() const { return line_; }

 private:
  int line_;
};

struct DcSweepCard {
  std::string source;
  double start = 0.0;
  double stop = 0.0;
  int points = 0;
};

struct TranCard {
  double t_stop = 0.0;
  double dt_max = 0.0;  // 0 => auto
};

class ParsedNetlist {
 public:
  Circuit& circuit() { return circuit_; }
  const Circuit& circuit() const { return circuit_; }

  const std::string& title() const { return title_; }
  const std::vector<Probe>& probes() const { return probes_; }
  const std::optional<DcSweepCard>& dc_card() const { return dc_; }
  const std::optional<TranCard>& tran_card() const { return tran_; }

  // Execute the .dc card (throws std::logic_error if absent).
  Waveform run_dc_sweep();
  // Execute the .tran card (throws std::logic_error if absent).
  Waveform run_tran();
  // Operating point with the default probes evaluated.
  std::optional<DCSolution> run_op();

  // ---- static analysis ----
  // Runs the full lint rule set (see lint/linter.h) on the parsed circuit,
  // cards, and probes.  The overload without arguments uses lint_options().
  lint::LintReport lint() const;
  lint::LintReport lint(const lint::LintOptions& options) const;

  // run_* lint the netlist as it stands on every call and throw
  // lint::LintError on error-severity diagnostics — before any Newton
  // iteration runs.  Tests that build intentionally degenerate circuits can
  // opt out here, or disable individual rules through lint_options().
  void set_lint_on_run(bool enabled) { lint_on_run_ = enabled; }
  bool lint_on_run() const { return lint_on_run_; }
  lint::LintOptions& lint_options() { return lint_options_; }

  // ---- source-location bookkeeping (filled by the parser) ----
  // Records the line of the device at `index` in circuit().devices(), or of
  // node `node`; the first record of each wins.
  void record_device_line(std::size_t index, int line);
  void record_node_line(NodeId node, int line);
  // 1-based netlist line a device/node was introduced on; -1 if unknown.
  int device_line(const std::string& name) const;
  int node_line(const std::string& name) const;

  // ---- hierarchy bookkeeping (filled by the parser) ----
  // The parser flattens .subckt instances into the Circuit and records each
  // instance's flattened device prefix (e.g. "X3" or "X3.X17"), so findings
  // inside an instance can name it.
  void record_instance(const std::string& prefix) {
    instance_prefixes_.insert(prefix + ".");
  }
  // Hierarchical instance path of a flattened device/node name: the longest
  // instance-prefix chain with '.' rendered as '/', e.g. "X3.X17.M2" ->
  // "X3/X17".  "" for top-level names (including helper companions such as
  // "M1.cgs", whose dots are not instance prefixes).
  std::string instance_path_of(const std::string& name) const;

  // ---- signal role annotations (.role cards) ----
  // `.role <source> <role>` pins a signal's protocol role ("power",
  // "power-gate", "wordline", "store-enable", ...) for the temporal lint
  // pass, overriding the name heuristics.  Names compare case-insensitively.
  void set_role_annotation(const std::string& device, std::string role);
  // Annotated role id for `device`; nullptr when none.
  const std::string* role_annotation(const std::string& device) const;

  // ---- power-domain annotations (.domain cards) ----
  // `.domain <node> <name> [gated|always-on]` declares the designer's power
  // intent for a rail node; the power-* lint family checks the extracted
  // domain map against these declarations.
  void add_domain_annotation(lint::power::DomainAnnotation ann) {
    domain_annotations_.push_back(std::move(ann));
  }
  const std::vector<lint::power::DomainAnnotation>& domain_annotations() const {
    return domain_annotations_;
  }

  // ---- architecture annotation (.arch card) ----
  // `.arch nvpg|nof|osr` pins the power-gating architecture the schedule
  // implements; the temporal lint pass then checks the matching protocol
  // instead of inferring it from signal roles.  Stored lowercase.
  void set_arch_annotation(std::string arch) {
    arch_annotation_ = std::move(arch);
  }
  const std::optional<std::string>& arch_annotation() const {
    return arch_annotation_;
  }

  // Diagnostics the parser itself produced (e.g. unused .subckt ports);
  // merged into every lint() report.
  void add_parse_diagnostic(lint::Diagnostic d);
  const std::vector<lint::Diagnostic>& parse_diagnostics() const {
    return parse_diags_;
  }

  // Builder methods (used by the parser; also handy for programmatic
  // post-editing of a parsed netlist).
  void set_title(std::string t) { title_ = std::move(t); }
  void set_dc_card(DcSweepCard c) { dc_ = c; }
  void set_tran_card(TranCard c) { tran_ = c; }
  void add_probe(Probe p) { probes_.push_back(std::move(p)); }

 private:
  // The lint gate every run_* passes through: throws lint::LintError when
  // lint_on_run() is set and linting the netlist reports errors.
  void ensure_lint_ok();

  Circuit circuit_;
  std::string title_;
  std::vector<Probe> probes_;
  std::optional<DcSweepCard> dc_;
  std::optional<TranCard> tran_;
  std::vector<int> device_lines_;  // by device position; -1 unrecorded
  std::vector<int> node_lines_;    // by NodeId; -1 unrecorded
  std::unordered_set<std::string> instance_prefixes_;  // "X3.", "X3.X17."
  std::unordered_map<std::string, std::string> role_annotations_;
  std::vector<lint::power::DomainAnnotation> domain_annotations_;
  std::optional<std::string> arch_annotation_;
  std::vector<lint::Diagnostic> parse_diags_;
  lint::LintOptions lint_options_;
  bool lint_on_run_ = true;
};

class NetlistParser {
 public:
  // Parses the full netlist text.  First line is the title (SPICE
  // convention) unless it starts with a recognized card letter or '.'.
  std::unique_ptr<ParsedNetlist> parse(const std::string& text);
  std::unique_ptr<ParsedNetlist> parse_stream(std::istream& in);
};

// Number with engineering suffix, e.g. "2.2k" -> 2200.  Returns nullopt on
// malformed input and on a value that is not finite.
std::optional<double> parse_si_number(const std::string& token);

}  // namespace nvsram::spice
