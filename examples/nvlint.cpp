// nvlint: static netlist linter — rejects bad circuits before simulation.
//
// Usage:
//   nvlint [options] <netlist.cir>...
//   nvlint [options] --bench=<nvpg|nof|osr|all>
//   nvlint --rules | --list-rules
//
// Options:
//   --rules          print the rule catalog (id, default severity, summary)
//   --list-rules     tabular catalog: rule id, family, default severity
//   --explain=<id>   one-paragraph explanation of a rule, with the minimal
//                    triggering example and its seeded fixture
//   --disable=<id>   disable a rule (repeatable)
//   --baseline=<f>   suppress findings recorded in a baseline file (one
//                    "file|rule|device|node" line each, instance-path
//                    normalized) so legacy findings don't gate CI while new
//                    ones still fail; suppressed findings drop out of the
//                    counts and the exit status
//   --write-baseline=<f>  write the baseline file for everything this
//                    invocation found (complete, sorted; combine with
//                    --baseline to start from the current state)
//   --werror         exit nonzero on warnings as well as errors
//   --werror=<glob>  promote warnings whose rule id matches the glob to
//                    errors for exit-status purposes (repeatable; '*'
//                    wildcards, e.g. --werror=protocol-*)
//   --bench=<arch>   instead of (or in addition to) netlists, build the
//                    scheduled benchmark deck for an architecture (nvpg,
//                    nof, osr, or all), export its stimulus timeline, and
//                    run the temporal protocol + units + power-intent
//                    passes over it.  Reported as pseudo-file
//                    "bench:<arch>"; no transient is solved.
//   --format=json    machine-readable output: a JSON array with one object
//                    per file {file, parse_failed, errors, warnings,
//                    diagnostics:[{rule, severity, file, line, message,
//                    device, node, phase}]} (CI gates parse this)
//   --format=sarif   SARIF 2.1.0 on stdout (one run, full rule catalog,
//                    one result per diagnostic; parse failures appear as
//                    ruleId "parse-error").  Uploadable to GitHub code
//                    scanning.
//   -q, --quiet      print only the per-file summary lines
//
// Findings replicated across .subckt instances (same rule on the same
// definition-local device/node, per Diagnostic::dedup_key) are collapsed in
// every output format into one finding carrying the instance count and up
// to three exemplar instance paths; the error/warning totals and the exit
// status still count every instance.
//
// Exit status: 0 clean, 1 lint errors (or warnings with --werror /
// --werror=<glob> matches), 2 parse failure or unreadable file.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "lint/dataflow/check.h"
#include "lint/linter.h"
#include "lint/temporal/protocol.h"
#include "spice/netlist_parser.h"
#include "sram/schedules.h"

namespace {

void print_rules() {
  std::cout << "nvlint rules:\n";
  for (const auto& rule : nvsram::lint::rule_catalog()) {
    std::cout << "  " << rule.id << " (" << to_string(rule.severity)
              << "): " << rule.summary << "\n";
  }
}

void print_rule_list() {
  std::size_t width = 0;
  for (const auto& rule : nvsram::lint::rule_catalog()) {
    width = std::max(width, std::string(rule.id).size());
  }
  for (const auto& rule : nvsram::lint::rule_catalog()) {
    std::cout << std::left << std::setw(static_cast<int>(width) + 2) << rule.id
              << std::setw(12) << rule.family << to_string(rule.severity)
              << "\n";
  }
}

// --explain=<rule-id>: the catalog's one-paragraph description plus the
// minimal triggering example and the seeded fixture that locks the rule.
int print_explain(const std::string& id) {
  const nvsram::lint::RuleInfo* rule = nvsram::lint::find_rule(id);
  if (rule == nullptr) {
    std::cerr << "nvlint: unknown rule id '" << id << "' (see --rules)\n";
    return 2;
  }
  std::cout << rule->id << " (family " << rule->family << ", default "
            << to_string(rule->severity) << ")\n\n  " << rule->summary
            << "\n\n" << rule->description << "\n";
  if (rule->example[0] != '\0') {
    std::cout << "\nExample:\n" << rule->example;
  }
  if (rule->fixture[0] != '\0') {
    std::cout << "\nSeeded fixture: tests/netlists_bad/" << rule->fixture
              << "\n";
  }
  return 0;
}

// '*'-wildcard match (no character classes; enough for rule-family globs
// like "protocol-*").
bool glob_match(const std::string& pattern, const std::string& s) {
  std::size_t p = 0, i = 0, star = std::string::npos, mark = 0;
  while (i < s.size()) {
    if (p < pattern.size() && (pattern[p] == s[i])) {
      ++p, ++i;
    } else if (p < pattern.size() && pattern[p] == '*') {
      star = p++;
      mark = i;
    } else if (star != std::string::npos) {
      p = star + 1;
      i = ++mark;
    } else {
      return false;
    }
  }
  while (p < pattern.size() && pattern[p] == '*') ++p;
  return p == pattern.size();
}

struct FileResult {
  bool parse_failed = false;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t werror_hits = 0;  // warnings promoted by --werror=<glob>
};

enum class Format { kText, kJson, kSarif };

// SARIF needs every diagnostic of the invocation in one document, so the
// sarif path collects (file, finding) tuples instead of streaming.
struct SarifResult {
  std::string file;
  nvsram::lint::Diagnostic diag;
  std::size_t instances = 0;           // 0: top-level (not replicated)
  std::vector<std::string> exemplars;  // up to three instance paths
};

// One deduplicated finding: a representative diagnostic plus the instance
// paths of every replica that collapsed into it (empty for top-level
// findings).
struct Finding {
  const nvsram::lint::Diagnostic* rep = nullptr;
  std::vector<std::string> paths;
};

// Collapses instance-replicated diagnostics into one finding each;
// top-level diagnostics pass through untouched.  The group key is
// Diagnostic::dedup_key plus the message with the instance prefix stripped,
// so replicas of one definition-local finding merge across instances while
// distinct findings on the same device/node (e.g. the undetermined-unknown
// and unsolvable-equation halves of one structural defect) stay separate.
std::vector<Finding> dedup_findings(
    const std::vector<const nvsram::lint::Diagnostic*>& diags) {
  std::vector<Finding> findings;
  std::map<std::string, std::size_t> group_of;
  for (const auto* d : diags) {
    if (d->instance_path.empty()) {
      findings.push_back({d, {}});
      continue;
    }
    std::string prefix = d->instance_path + "/";
    std::replace(prefix.begin(), prefix.end(), '/', '.');
    std::string message = d->message;
    for (std::size_t pos = 0;
         (pos = message.find(prefix, pos)) != std::string::npos;) {
      message.erase(pos, prefix.size());
    }
    auto [it, fresh] =
        group_of.emplace(d->dedup_key() + "|" + message, findings.size());
    if (fresh) findings.push_back({d, {}});
    auto& paths = findings[it->second].paths;
    if (std::find(paths.begin(), paths.end(), d->instance_path) ==
        paths.end()) {
      paths.push_back(d->instance_path);
    }
  }
  return findings;
}

// "16 instances: X0_0, X0_1, X0_2 … and 13 more instances"
std::string instance_note(const std::vector<std::string>& paths) {
  std::ostringstream ss;
  ss << paths.size() << " instances: ";
  const std::size_t shown = std::min<std::size_t>(paths.size(), 3);
  for (std::size_t i = 0; i < shown; ++i) {
    if (i) ss << ", ";
    ss << paths[i];
  }
  if (paths.size() > shown) {
    ss << " … and " << paths.size() - shown << " more instances";
  }
  return ss.str();
}

// Minimal JSON string escaping (quotes, backslashes, control characters).
std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void print_json_diagnostic(std::ostream& os, const std::string& path,
                           const Finding& f, bool first) {
  const nvsram::lint::Diagnostic& d = *f.rep;
  if (!first) os << ",";
  os << "\n      {\"rule\": \"" << json_escape(d.rule) << "\", \"severity\": \""
     << to_string(d.severity) << "\", \"file\": \"" << json_escape(path)
     << "\", \"line\": " << d.line << ", \"message\": \""
     << json_escape(d.message) << "\", \"device\": \"" << json_escape(d.device)
     << "\", \"node\": \"" << json_escape(d.node) << "\", \"phase\": \""
     << json_escape(d.phase) << "\", \"instances\": " << f.paths.size()
     << ", \"exemplar_paths\": [";
  const std::size_t shown = std::min<std::size_t>(f.paths.size(), 3);
  for (std::size_t i = 0; i < shown; ++i) {
    os << (i ? ", " : "") << "\"" << json_escape(f.paths[i]) << "\"";
  }
  os << "]}";
}

// Baseline suppression + baseline capture, shared by every output path.
struct BaselineCtx {
  std::set<std::string> accepted;       // loaded from --baseline
  std::set<std::string>* out = nullptr; // filled for --write-baseline
};

// Shared reporting tail for real files and bench pseudo-files.
FileResult report_diagnostics(const std::string& path,
                              const nvsram::lint::LintReport& report,
                              const std::vector<std::string>& werror_globs,
                              bool quiet, Format format,
                              std::vector<SarifResult>& sarif,
                              bool first_file, BaselineCtx& baseline) {
  using namespace nvsram;
  FileResult result;
  std::vector<const lint::Diagnostic*> kept;
  std::size_t infos = 0;
  std::size_t suppressed = 0;
  for (const auto& d : report.diagnostics()) {
    const std::string key = path + "|" + d.dedup_key();
    if (baseline.out != nullptr) baseline.out->insert(key);
    if (baseline.accepted.count(key) > 0) {
      ++suppressed;
      continue;
    }
    kept.push_back(&d);
    if (d.severity == lint::Severity::kError) {
      ++result.errors;
    } else if (d.severity == lint::Severity::kWarning) {
      ++result.warnings;
    } else {
      ++infos;
    }
  }
  for (const auto* d : kept) {
    if (d->severity != lint::Severity::kWarning) continue;
    for (const auto& glob : werror_globs) {
      if (glob_match(glob, d->rule)) {
        ++result.werror_hits;
        break;
      }
    }
  }
  const std::vector<Finding> findings = dedup_findings(kept);
  if (format == Format::kSarif) {
    for (const auto& f : findings) {
      SarifResult r{path, *f.rep, f.paths.size(), {}};
      const std::size_t shown = std::min<std::size_t>(f.paths.size(), 3);
      r.exemplars.assign(f.paths.begin(),
                         f.paths.begin() + static_cast<std::ptrdiff_t>(shown));
      sarif.push_back(std::move(r));
    }
    return result;
  }
  if (format == Format::kJson) {
    if (!first_file) std::cout << ",";
    std::cout << "\n  {\"file\": \"" << json_escape(path)
              << "\", \"parse_failed\": false, \"errors\": " << result.errors
              << ", \"warnings\": " << result.warnings;
    if (!baseline.accepted.empty()) {
      std::cout << ", \"baselined\": " << suppressed;
    }
    std::cout << ", \"diagnostics\": [";
    bool first = true;
    for (const auto& f : findings) {
      print_json_diagnostic(std::cout, path, f, first);
      first = false;
    }
    std::cout << (first ? "]" : "\n    ]") << "}";
    return result;
  }
  if (!quiet) {
    for (const auto& f : findings) {
      const lint::Diagnostic& d = *f.rep;
      std::cout << path << ":" << (d.line >= 0 ? std::to_string(d.line) : "-")
                << ": " << to_string(d.severity) << "[" << d.rule
                << "]: " << d.message;
      if (!d.phase.empty()) std::cout << " (phase " << d.phase << ")";
      if (f.paths.size() > 1) {
        std::cout << " (" << instance_note(f.paths) << ")";
      }
      std::cout << "\n";
    }
  }
  std::cout << path << ": " << result.errors << " error(s), "
            << result.warnings << " warning(s), " << infos << " info(s)";
  if (suppressed > 0) std::cout << ", " << suppressed << " baselined";
  std::cout << "\n";
  return result;
}

FileResult lint_file(const std::string& path,
                     const nvsram::lint::LintOptions& options,
                     const std::vector<std::string>& werror_globs, bool quiet,
                     Format format, std::vector<SarifResult>& sarif,
                     bool first_file, BaselineCtx& baseline) {
  using namespace nvsram;
  FileResult result;

  auto report_parse_failure = [&](int line, const std::string& what) {
    result.parse_failed = true;
    if (format == Format::kJson) {
      if (!first_file) std::cout << ",";
      std::cout << "\n  {\"file\": \"" << json_escape(path)
                << "\", \"parse_failed\": true, \"errors\": 0, \"warnings\": "
                   "0, \"diagnostics\": []}";
    } else if (format == Format::kSarif) {
      lint::Diagnostic d;
      d.rule = "parse-error";
      d.severity = lint::Severity::kError;
      d.message = what;
      d.line = line;
      sarif.push_back({path, std::move(d)});
    }
  };

  std::ifstream in(path);
  if (!in) {
    std::cerr << path << ": cannot open file\n";
    report_parse_failure(-1, "cannot open file");
    return result;
  }
  std::ostringstream ss;
  ss << in.rdbuf();

  spice::NetlistParser parser;
  std::unique_ptr<spice::ParsedNetlist> net;
  try {
    net = parser.parse(ss.str());
  } catch (const spice::NetlistError& e) {
    std::cerr << path << ":" << e.line() << ": parse-error: " << e.what()
              << "\n";
    report_parse_failure(e.line(), e.what());
    return result;
  }

  return report_diagnostics(path, net->lint(options), werror_globs, quiet,
                            format, sarif, first_file, baseline);
}

// Builds the scheduled benchmark deck for one architecture and runs
// sram::lint_schedule's passes (protocol, units, parameters, power intent,
// dataflow) over it.  Purely static: nothing is solved.
FileResult lint_bench(nvsram::sram::BenchArch arch,
                      const nvsram::lint::LintOptions& options,
                      const std::vector<std::string>& werror_globs, bool quiet,
                      Format format, std::vector<SarifResult>& sarif,
                      bool first_file, BaselineCtx& baseline) {
  using namespace nvsram;
  const std::string path = std::string("bench:") + sram::to_string(arch);

  models::PaperParams pp;
  const sram::TestbenchOptions tb_opts;
  const auto tb = sram::build_benchmark_schedule(arch, pp,
                                                 sram::ScheduleParams{}, tb_opts);

  auto opt = lint::temporal::TemporalOptions::from_paper(pp);
  switch (arch) {
    case sram::BenchArch::kNVPG:
      opt.arch = lint::temporal::TemporalOptions::Arch::kNVPG;
      break;
    case sram::BenchArch::kNOF:
      opt.arch = lint::temporal::TemporalOptions::Arch::kNOF;
      // The NOF cycle is stretched to embed the store (two steps of pulse +
      // settle margin); the clock-store check compares against this
      // effective budget, not the raw clock.
      opt.clock_period += 2.0 * (pp.store_pulse + tb_opts.store_margin);
      break;
    case sram::BenchArch::kOSR:
      opt.arch = lint::temporal::TemporalOptions::Arch::kOSR;
      break;
  }

  lint::LintReport report;
  for (auto& d : sram::lint_schedule(
           *tb, opt, lint::dataflow::DataflowOptions::from_paper(pp))) {
    if (!options.enabled(d.rule)) continue;
    if (d.severity < options.min_severity) continue;
    report.add(std::move(d));
  }

  return report_diagnostics(path, report, werror_globs, quiet, format, sarif,
                            first_file, baseline);
}

// SARIF 2.1.0 document: one run, the full rule catalog as
// tool.driver.rules (plus the synthetic "parse-error" rule), one result per
// diagnostic.  GitHub code scanning ingests this directly.
void print_sarif(const std::vector<SarifResult>& results) {
  using nvsram::lint::Severity;
  const auto& catalog = nvsram::lint::rule_catalog();
  auto level_of = [](Severity s) {
    return s == Severity::kError     ? "error"
           : s == Severity::kWarning ? "warning"
                                     : "note";
  };

  std::cout << "{\n"
            << "  \"$schema\": "
               "\"https://json.schemastore.org/sarif-2.1.0.json\",\n"
            << "  \"version\": \"2.1.0\",\n"
            << "  \"runs\": [\n    {\n"
            << "      \"tool\": {\n        \"driver\": {\n"
            << "          \"name\": \"nvlint\",\n"
            << "          \"informationUri\": \"docs/LINT.md\",\n"
            << "          \"rules\": [";
  bool first = true;
  auto print_rule = [&](const std::string& id, const std::string& family,
                        Severity severity, const std::string& summary) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << "\n            {\"id\": \"" << json_escape(id)
              << "\", \"shortDescription\": {\"text\": \""
              << json_escape(summary)
              << "\"}, \"defaultConfiguration\": {\"level\": \""
              << level_of(severity) << "\"}, \"properties\": {\"family\": \""
              << json_escape(family) << "\"}}";
  };
  for (const auto& rule : catalog) {
    print_rule(rule.id, rule.family, rule.severity, rule.summary);
  }
  print_rule("parse-error", "parser", Severity::kError,
             "netlist text could not be parsed");
  std::cout << "\n          ]\n        }\n      },\n"
            << "      \"results\": [";

  first = true;
  for (const auto& r : results) {
    if (!first) std::cout << ",";
    first = false;
    std::cout << "\n        {\"ruleId\": \"" << json_escape(r.diag.rule)
              << "\", \"level\": \"" << level_of(r.diag.severity)
              << "\", \"message\": {\"text\": \"" << json_escape(r.diag.message)
              << "\"}, \"locations\": [{\"physicalLocation\": "
                 "{\"artifactLocation\": {\"uri\": \""
              << json_escape(r.file) << "\"}";
    if (r.diag.line >= 1) {
      std::cout << ", \"region\": {\"startLine\": " << r.diag.line << "}";
    }
    std::cout << "}}], \"properties\": {\"device\": \""
              << json_escape(r.diag.device) << "\", \"node\": \""
              << json_escape(r.diag.node) << "\", \"phase\": \""
              << json_escape(r.diag.phase) << "\", \"instances\": "
              << r.instances << ", \"exemplarPaths\": [";
    for (std::size_t i = 0; i < r.exemplars.size(); ++i) {
      std::cout << (i ? ", " : "") << "\"" << json_escape(r.exemplars[i])
                << "\"";
    }
    std::cout << "]}}";
  }
  std::cout << (first ? "]" : "\n      ]") << "\n    }\n  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  nvsram::lint::LintOptions options;
  std::vector<std::string> files;
  std::vector<nvsram::sram::BenchArch> benches;
  std::vector<std::string> werror_globs;
  bool quiet = false;
  bool werror = false;
  Format format = Format::kText;
  std::vector<SarifResult> sarif;
  std::string baseline_path;
  std::string write_baseline_path;
  BaselineCtx baseline;
  std::set<std::string> baseline_found;

  const char* usage =
      "usage: nvlint [--rules] [--list-rules] [--explain=<id>] "
      "[--disable=<id>] [--baseline=<file>] "
      "[--write-baseline=<file>] [--werror] "
      "[--werror=<glob>] [--bench=<nvpg|nof|osr|all>] [--format=json|sarif] "
      "[-q] <netlist.cir>...\n";

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--rules") {
      print_rules();
      return 0;
    } else if (arg == "--list-rules") {
      print_rule_list();
      return 0;
    } else if (arg.rfind("--explain=", 0) == 0) {
      return print_explain(arg.substr(10));
    } else if (arg.rfind("--disable=", 0) == 0) {
      const std::string id = arg.substr(10);
      const auto& catalog = nvsram::lint::rule_catalog();
      const bool known =
          std::any_of(catalog.begin(), catalog.end(),
                      [&](const auto& rule) { return id == rule.id; });
      if (!known) {
        std::cerr << "nvlint: unknown rule id '" << id
                  << "' in --disable (see --rules)\n";
        return 2;
      }
      options.disable(id);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
      if (baseline_path.empty()) {
        std::cerr << "nvlint: empty --baseline= path\n";
        return 2;
      }
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = arg.substr(17);
      if (write_baseline_path.empty()) {
        std::cerr << "nvlint: empty --write-baseline= path\n";
        return 2;
      }
    } else if (arg == "--werror") {
      werror = true;
    } else if (arg.rfind("--werror=", 0) == 0) {
      const std::string glob = arg.substr(9);
      if (glob.empty()) {
        std::cerr << "nvlint: empty --werror= glob\n";
        return 2;
      }
      werror_globs.push_back(glob);
    } else if (arg.rfind("--bench=", 0) == 0) {
      const std::string id = arg.substr(8);
      if (id == "all") {
        benches.push_back(nvsram::sram::BenchArch::kNVPG);
        benches.push_back(nvsram::sram::BenchArch::kNOF);
        benches.push_back(nvsram::sram::BenchArch::kOSR);
      } else if (auto arch = nvsram::sram::bench_arch_from_string(id)) {
        benches.push_back(*arch);
      } else {
        std::cerr << "nvlint: unknown architecture '" << id
                  << "' in --bench (nvpg, nof, osr, all)\n";
        return 2;
      }
    } else if (arg == "--format=json") {
      format = Format::kJson;
    } else if (arg == "--format=sarif") {
      format = Format::kSarif;
    } else if (arg.rfind("--format=", 0) == 0) {
      std::cerr << "nvlint: unknown format '" << arg.substr(9)
                << "' (supported: json, sarif)\n";
      return 2;
    } else if (arg == "-q" || arg == "--quiet") {
      quiet = true;
    } else if (arg == "-h" || arg == "--help") {
      std::cout << usage;
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::cerr << "nvlint: unknown option '" << arg << "'\n";
      return 2;
    } else {
      files.push_back(arg);
    }
  }
  if (files.empty() && benches.empty()) {
    std::cerr << usage;
    return 2;
  }
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::cerr << "nvlint: cannot open baseline '" << baseline_path << "'\n";
      return 2;
    }
    std::string line;
    while (std::getline(in, line)) {
      if (line.empty() || line[0] == '#') continue;
      baseline.accepted.insert(line);
    }
  }
  if (!write_baseline_path.empty()) baseline.out = &baseline_found;

  bool any_parse_failed = false;
  std::size_t total_errors = 0;
  std::size_t total_warnings = 0;
  std::size_t total_werror_hits = 0;
  if (format == Format::kJson) std::cout << "[";
  bool first = true;
  for (const auto& path : files) {
    const FileResult r = lint_file(path, options, werror_globs, quiet, format,
                                   sarif, first, baseline);
    first = false;
    any_parse_failed = any_parse_failed || r.parse_failed;
    total_errors += r.errors;
    total_warnings += r.warnings;
    total_werror_hits += r.werror_hits;
  }
  for (const auto arch : benches) {
    const FileResult r = lint_bench(arch, options, werror_globs, quiet, format,
                                    sarif, first, baseline);
    first = false;
    total_errors += r.errors;
    total_warnings += r.warnings;
    total_werror_hits += r.werror_hits;
  }
  if (format == Format::kJson) std::cout << "\n]\n";
  if (format == Format::kSarif) print_sarif(sarif);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path);
    if (!out) {
      std::cerr << "nvlint: cannot write baseline '" << write_baseline_path
                << "'\n";
      return 2;
    }
    out << "# nvlint baseline: accepted findings, one per line as\n"
           "# file|rule|device|node (instance-path normalized, so one line\n"
           "# covers every replicated instance).  Regenerate with\n"
           "# --write-baseline=<file>; suppress with --baseline=<file>.\n";
    for (const auto& key : baseline_found) out << key << "\n";
  }

  if (any_parse_failed) return 2;
  if (total_errors > 0) return 1;
  if (total_werror_hits > 0) return 1;
  if (werror && total_warnings > 0) return 1;
  return 0;
}
