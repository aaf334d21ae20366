#include "spice/netlist_parser.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstring>
#include <limits>
#include <sstream>
#include <string_view>
#include <unordered_map>
#include <unordered_set>

#include "lint/linter.h"
#include "lint/temporal/protocol.h"
#include "lint/temporal/role.h"
#include "models/finfet.h"
#include "models/mtj.h"
#include "spice/elements.h"
#include "spice/fet_element.h"
#include "spice/mtj_element.h"
#include "util/stats.h"

namespace nvsram::spice {

namespace {

std::string lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return s;
}

// Splits a card line into tokens; parentheses become their own groups, so
// "PULSE(0 1 1n)" -> "pulse(", "0", "1", "1n", ")".
std::vector<std::string> tokenize(std::string_view line) {
  std::vector<std::string> out;
  std::string cur;
  auto flush = [&] {
    if (!cur.empty()) {
      out.push_back(cur);
      cur.clear();
    }
  };
  for (char c : line) {
    if (std::isspace(static_cast<unsigned char>(c)) || c == ',') {
      flush();
    } else if (c == '(') {
      cur += '(';
      flush();
    } else if (c == ')') {
      flush();
      out.push_back(")");
    } else {
      cur += c;
    }
  }
  flush();
  return out;
}

// True for the decimal forms the grammar documents: an optional sign,
// digits with at most one '.', and an optional exponent "e[+-]digits".  No
// "nan", "inf" or hexadecimal, which std::stod would also take.  `t` is
// lowercase.
bool is_decimal(const std::string& t) {
  std::size_t i = 0;
  auto skip_digits = [&] {
    const std::size_t from = i;
    while (i < t.size() && std::isdigit(static_cast<unsigned char>(t[i]))) ++i;
    return i - from;
  };
  if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
  std::size_t mantissa = skip_digits();
  if (i < t.size() && t[i] == '.') {
    ++i;
    mantissa += skip_digits();
  }
  if (mantissa == 0) return false;
  if (i < t.size() && t[i] == 'e') {
    ++i;
    if (i < t.size() && (t[i] == '+' || t[i] == '-')) ++i;
    if (skip_digits() == 0) return false;
  }
  return i == t.size();
}

// One card, tokenized once.  A .subckt body keeps its cards in this form,
// and every instance replays them.
struct Card {
  std::vector<std::string> tokens;
  std::string head;  // tokens[0], lowercased
  int line = 0;
};

// key=value option; returns nullopt if the token has no '='.
std::optional<std::pair<std::string, std::string>> split_kv(
    const std::string& token) {
  const auto eq = token.find('=');
  if (eq == std::string::npos) return std::nullopt;
  return std::make_pair(lower(token.substr(0, eq)), token.substr(eq + 1));
}

}  // namespace

NetlistError::NetlistError(int line, const std::string& message)
    : std::runtime_error("netlist line " + std::to_string(line) + ": " +
                         message),
      line_(line) {}

std::optional<double> parse_si_number(const std::string& token) {
  if (token.empty()) return std::nullopt;
  const std::string t = lower(token);
  // Longest-suffix-first so "meg" beats "m".
  static const std::pair<const char*, double> kSuffixes[] = {
      {"meg", 1e6}, {"t", 1e12}, {"g", 1e9}, {"k", 1e3}, {"m", 1e-3},
      {"u", 1e-6},  {"n", 1e-9}, {"p", 1e-12}, {"f", 1e-15},
  };
  std::string digits = t;
  double scale = 1.0;
  for (const auto& [suffix, s] : kSuffixes) {
    const std::size_t len = std::strlen(suffix);
    if (t.size() > len && t.compare(t.size() - len, len, suffix) == 0) {
      // Careful: "1e-9" ends with no suffix; make sure the character before
      // the suffix is a digit or '.', not 'e' (exponent form has priority).
      const char before = t[t.size() - len - 1];
      if (std::isdigit(static_cast<unsigned char>(before)) || before == '.') {
        digits = t.substr(0, t.size() - len);
        scale = s;
        break;
      }
    }
  }
  if (!is_decimal(digits)) return std::nullopt;
  try {
    const double v = std::stod(digits) * scale;
    if (!std::isfinite(v)) return std::nullopt;
    return v;
  } catch (const std::out_of_range&) {
    return std::nullopt;
  }
}

namespace {

class ParserImpl {
 public:
  explicit ParserImpl(ParsedNetlist& out) : out_(out) {}

  void feed(const std::string& line_raw, int line_no) {
    line_no_ = line_no;
    // Strip comments: '*' at start, ';' anywhere.
    if (!line_raw.empty() && line_raw[0] == '*') return;
    Card card;
    card.tokens =
        tokenize(std::string_view(line_raw).substr(0, line_raw.find(';')));
    if (card.tokens.empty()) return;
    card.head = lower(card.tokens[0]);
    card.line = line_no;

    if (card.head == ".end") {
      ended_ = true;
      return;
    }
    if (ended_) return;

    // Inside a .subckt definition: record the body's cards.
    if (!subckt_stack_.empty()) {
      if (card.head == ".ends") {
        SubcktDef def = std::move(subckt_stack_.back());
        subckt_stack_.pop_back();
        diagnose_unused_ports(def);
        subckts_[def.name] = std::move(def);
        return;
      }
      if (card.head == ".subckt") {
        fail(".subckt definitions cannot nest");
      }
      subckt_stack_.back().body.push_back(std::move(card));
      return;
    }

    if (card.head == ".subckt") {
      begin_subckt(card.tokens);
      return;
    }
    if (card.head == ".ends") fail(".ends without .subckt");
    dispatch(card);
  }

  bool saw_any_card() const { return saw_card_; }

 private:
  struct SubcktDef {
    std::string name;
    std::vector<std::string> ports;
    std::vector<Card> body;
    int def_line = -1;  // line of the .subckt card
  };

  // Parses one element or dot card on line_no_: a top-level card, or a
  // body card an instance replays.
  void dispatch(const Card& card) {
    const std::vector<std::string>& tokens = card.tokens;
    const std::string& head = card.head;
    // Convert stray exceptions (duplicate device names, element constructor
    // validation such as R <= 0) into NetlistErrors so every parse failure
    // carries its source line.
    try {
      if (head[0] == '.') {
        parse_dot_card(head, tokens);
      } else if (head[0] == 'x') {
        parse_instance(tokens);
      } else {
        // An element card adds its device, then any companions (a FET's
        // capacitors), so its line belongs to the first position it filled.
        const std::size_t first = out_.circuit().devices().size();
        switch (head[0]) {
          case 'r': parse_resistor(tokens); break;
          case 'c': parse_capacitor(tokens); break;
          case 'v': parse_source<VSource>(tokens); break;
          case 'i': parse_source<ISource>(tokens); break;
          case 'd': parse_diode(tokens); break;
          case 'm': parse_fet(tokens); break;
          case 'y': parse_mtj(tokens); break;
          default:
            throw NetlistError(line_no_, "unknown card '" + tokens[0] + "'");
        }
        out_.record_device_line(first, line_no_);
        saw_card_ = true;
      }
    } catch (const NetlistError&) {
      throw;  // already located (possibly on a subckt body line)
    } catch (const std::exception& e) {
      fail(e.what());
    }
  }

  // A port never mentioned in the definition body is dead: the instance node
  // wired to it stays unconnected inside the cell.  Recorded as a lint
  // diagnostic (not a parse error) so intentionally partial cells still load.
  // Fires once per definition, attributed to the .subckt card's own line —
  // never to whichever instance happened to parse last.  Node names inside a
  // definition resolve against the port map case-insensitively (matching the
  // card-letter convention), so a body's "bl" counts as use of port "BL".
  void diagnose_unused_ports(const SubcktDef& def) {
    std::unordered_set<std::string> used;
    for (const Card& card : def.body) {
      for (const auto& token : card.tokens) used.insert(lower(token));
    }
    for (const auto& port : def.ports) {
      if (used.count(lower(port))) continue;
      lint::Diagnostic d;
      d.rule = lint::rules::kSubcktUnusedPort;
      d.severity = lint::default_severity(d.rule);
      d.message = ".subckt '" + def.name + "' port '" + port +
                  "' is never used inside the definition body";
      d.node = port;
      d.line = def.def_line;
      out_.add_parse_diagnostic(std::move(d));
    }
  }

  struct Scope {
    std::string prefix;                                  // "X1."
    std::unordered_map<std::string, std::string> ports;  // local -> global
  };
  [[noreturn]] void fail(const std::string& msg) {
    throw NetlistError(line_no_, msg);
  }

  double number(const std::string& token) {
    const auto v = parse_si_number(token);
    if (!v) fail("bad number '" + token + "'");
    return *v;
  }

  // An integer field: the number must be whole and fit an int before the
  // cast, which would otherwise truncate it or be undefined.
  int integer(const char* field, const std::string& token) {
    const double v = number(token);
    if (!(v == std::trunc(v) && v >= std::numeric_limits<int>::min() &&
          v <= std::numeric_limits<int>::max())) {
      fail(std::string(field) + " must be an integer that fits an int, got '" +
           token + "'");
    }
    return static_cast<int>(v);
  }

  NodeId node(const std::string& name) {
    Circuit& ckt = out_.circuit();
    const std::size_t known = ckt.node_count();
    const NodeId id = ckt.node(resolve_node(name));
    if (ckt.node_count() != known) out_.record_node_line(id, line_no_);
    return id;
  }

  // Scope prefixes are fully qualified at instantiation time, and port maps
  // store already-resolved global names, so only the innermost scope is
  // consulted.
  std::string resolve_node(const std::string& name) const {
    if (name == "0" || name == "gnd") return "0";  // ground is global
    if (scopes_.empty()) return name;
    const Scope& scope = scopes_.back();
    const auto found = scope.ports.find(lower(name));  // ports match any case
    return found != scope.ports.end() ? found->second : scope.prefix + name;
  }

  std::string devname(const std::string& name) const {
    return scopes_.empty() ? name : scopes_.back().prefix + name;
  }

  void need(const std::vector<std::string>& t, std::size_t n,
            const char* what) {
    if (t.size() < n) fail(std::string("too few fields for ") + what);
  }

  void parse_resistor(const std::vector<std::string>& t) {
    need(t, 4, "resistor");
    out_.circuit().add<Resistor>(devname(t[0]), node(t[1]), node(t[2]),
                                 number(t[3]));
  }

  void parse_capacitor(const std::vector<std::string>& t) {
    need(t, 4, "capacitor");
    out_.circuit().add<Capacitor>(devname(t[0]), node(t[1]), node(t[2]),
                                  number(t[3]));
  }

  // `device` names the source in a PWL diagnostic.
  SourceSpec parse_spec(const std::vector<std::string>& t, std::size_t i,
                        const std::string& device) {
    const std::string kind = lower(t[i]);
    if (kind == "dc") {
      if (i + 1 >= t.size()) fail("DC needs a value");
      return SourceSpec::dc(number(t[i + 1]));
    }
    if (kind == "pulse(") {
      std::vector<double> args;
      for (std::size_t k = i + 1; k < t.size() && t[k] != ")"; ++k) {
        args.push_back(number(t[k]));
      }
      if (args.size() < 6 || args.size() > 7) {
        fail("PULSE needs 6-7 arguments (v1 v2 td tr tf pw [per])");
      }
      PulseSpec p;
      p.v_initial = args[0];
      p.v_pulsed = args[1];
      p.delay = args[2];
      p.rise = args[3];
      p.fall = args[4];
      p.width = args[5];
      p.period = args.size() == 7 ? args[6] : 0.0;
      return SourceSpec::pulse(p);
    }
    if (kind == "pwl(") {
      std::vector<double> args;
      for (std::size_t k = i + 1; k < t.size() && t[k] != ")"; ++k) {
        args.push_back(number(t[k]));
      }
      if (args.size() < 2 || args.size() % 2 != 0) {
        fail("PWL needs an even number of arguments");
      }
      std::vector<std::pair<double, double>> pts;
      for (std::size_t k = 0; k < args.size(); k += 2) {
        pts.emplace_back(args[k], args[k + 1]);
      }
      sanitize_pwl(pts, device);
      try {
        return SourceSpec::pwl(pts);
      } catch (const std::invalid_argument& e) {
        fail(e.what());
      }
    }
    // Bare value means DC.
    return SourceSpec::dc(number(t[i]));
  }

  // A later PWL point at an earlier-or-equal time shadows what the source
  // "really does" — the simulator would quietly interpolate something other
  // than the author's schedule.  Reported as a lint diagnostic (with the
  // card's line), then repaired (sort, keep the last point of any duplicate
  // time) so parsing and the remaining analyses continue.
  void sanitize_pwl(std::vector<std::pair<double, double>>& pts,
                    const std::string& device) {
    bool monotonic = true;
    for (std::size_t k = 1; k < pts.size(); ++k) {
      if (pts[k].first <= pts[k - 1].first) {
        monotonic = false;
        break;
      }
    }
    if (monotonic) return;

    lint::Diagnostic d;
    d.rule = lint::rules::kProtocolPwlNonmonotonic;
    d.severity = lint::default_severity(d.rule);
    d.message = "PWL time points of '" + device +
                "' are not strictly increasing; sorted and deduplicated "
                "(later duplicates win) — fix the stimulus, the schedule is "
                "not what was written";
    d.device = device;
    d.line = line_no_;
    out_.add_parse_diagnostic(std::move(d));

    std::stable_sort(pts.begin(), pts.end(),
                     [](const auto& a, const auto& b) {
                       return a.first < b.first;
                     });
    std::vector<std::pair<double, double>> fixed;
    for (const auto& p : pts) {
      if (!fixed.empty() && fixed.back().first == p.first) {
        fixed.back().second = p.second;  // last duplicate wins
      } else {
        fixed.push_back(p);
      }
    }
    pts = std::move(fixed);
  }

  template <typename SourceT>
  void parse_source(const std::vector<std::string>& t) {
    need(t, 4, "source");
    const std::string name = devname(t[0]);
    out_.circuit().add<SourceT>(name, node(t[1]), node(t[2]),
                                parse_spec(t, 3, name));
  }

  void parse_diode(const std::vector<std::string>& t) {
    need(t, 3, "diode");
    double is = 1e-14;
    double n = 1.0;
    for (std::size_t k = 3; k < t.size(); ++k) {
      const auto kv = split_kv(t[k]);
      if (!kv) fail("diode options must be key=value");
      if (kv->first == "is") is = number(kv->second);
      else if (kv->first == "n") n = number(kv->second);
      else fail("unknown diode option '" + kv->first + "'");
    }
    out_.circuit().add<Diode>(devname(t[0]), node(t[1]), node(t[2]), is, n);
  }

  void parse_fet(const std::vector<std::string>& t) {
    need(t, 5, "fet");
    const std::string model = lower(t[4]);
    models::FinFETParams params;
    if (model == "nfin") {
      params = models::ptm20_nmos(1);
    } else if (model == "pfin") {
      params = models::ptm20_pmos(1);
    } else {
      fail("fet model must be nfin or pfin, got '" + t[4] + "'");
    }
    for (std::size_t k = 5; k < t.size(); ++k) {
      const auto kv = split_kv(t[k]);
      if (!kv) fail("fet options must be key=value");
      if (kv->first == "fins") {
        params.fin_count = integer("fins", kv->second);
      } else if (kv->first == "vth") {
        params.vth0 = number(kv->second);
      } else if (kv->first == "l") {
        params.channel_length = number(kv->second);
      } else {
        fail("unknown fet option '" + kv->first + "'");
      }
    }
    add_finfet(out_.circuit(), devname(t[0]), node(t[1]), node(t[2]),
               node(t[3]), params);
  }

  void parse_mtj(const std::vector<std::string>& t) {
    need(t, 4, "mtj");
    const std::string st = lower(t[3]);
    models::MtjState state;
    if (st == "p") state = models::MtjState::kParallel;
    else if (st == "ap") state = models::MtjState::kAntiparallel;
    else fail("mtj state must be P or AP");
    models::MTJParams params = models::paper_mtj(false);
    for (std::size_t k = 4; k < t.size(); ++k) {
      if (lower(t[k]) == "fast") {
        const double tau0 = params.tau0;
        params = models::paper_mtj(true);
        params.tau0 = tau0;
        continue;
      }
      const auto kv = split_kv(t[k]);
      if (!kv) fail("mtj options must be key=value or 'fast'");
      if (kv->first == "tau0") params.tau0 = number(kv->second);
      else if (kv->first == "diameter") params.diameter = number(kv->second);
      else if (kv->first == "tmr") params.tmr0 = number(kv->second);
      else if (kv->first == "jc") params.jc = number(kv->second);
      else fail("unknown mtj option '" + kv->first + "'");
    }
    out_.circuit().add<MTJElement>(devname(t[0]), node(t[1]), node(t[2]),
                                   params, state);
  }

  void begin_subckt(const std::vector<std::string>& t) {
    need(t, 3, ".subckt");
    SubcktDef def;
    def.def_line = line_no_;
    def.name = lower(t[1]);
    for (std::size_t k = 2; k < t.size(); ++k) def.ports.push_back(t[k]);
    if (subckts_.count(def.name)) {
      fail("duplicate .subckt '" + def.name + "'");
    }
    subckt_stack_.push_back(std::move(def));
  }

  void parse_instance(const std::vector<std::string>& t) {
    need(t, 3, "subckt instance");
    const std::string sub_name = lower(t.back());
    const auto it = subckts_.find(sub_name);
    if (it == subckts_.end()) {
      fail("unknown subcircuit '" + t.back() + "'");
    }
    const SubcktDef& def = it->second;
    const std::size_t given = t.size() - 2;  // nodes between name and subname
    if (given != def.ports.size()) {
      fail("subcircuit '" + def.name + "' expects " +
           std::to_string(def.ports.size()) + " ports, got " +
           std::to_string(given));
    }
    if (scopes_.size() >= 16) fail("subcircuit nesting too deep");

    Scope scope;
    const std::string name = devname(t[0]);
    scope.prefix = name + ".";
    for (std::size_t k = 0; k < def.ports.size(); ++k) {
      // Map the local port name to the caller's (already resolved) node.
      // Keys are lowercased: body references resolve case-insensitively.
      scope.ports.emplace(lower(def.ports[k]), resolve_node(t[1 + k]));
    }
    out_.record_instance(name);
    scopes_.push_back(std::move(scope));
    const int saved_line = line_no_;
    for (const Card& card : def.body) {
      line_no_ = card.line;
      dispatch(card);
    }
    line_no_ = saved_line;
    scopes_.pop_back();
    saw_card_ = true;
  }

  void parse_dot_card(const std::string& head,
                      const std::vector<std::string>& t) {
    if (head == ".dc") {
      need(t, 5, ".dc");
      DcSweepCard card;
      card.source = t[1];
      card.start = number(t[2]);
      card.stop = number(t[3]);
      card.points = integer(".dc points", t[4]);
      if (card.points < 2) fail(".dc needs at least 2 points");
      out_.set_dc_card(card);
    } else if (head == ".tran") {
      need(t, 2, ".tran");
      TranCard card;
      card.t_stop = number(t[1]);
      if (t.size() > 2) card.dt_max = number(t[2]);
      if (card.t_stop <= 0.0) fail(".tran needs a positive stop time");
      out_.set_tran_card(card);
    } else if (head == ".role") {
      need(t, 3, ".role");
      const std::string role = lower(t[2]);
      if (!lint::temporal::role_from_string(role)) {
        fail("unknown .role '" + t[2] +
             "' (expected power, power-gate, wordline, bitline, precharge, "
             "write-driver, store-enable, restore-ctrl, or other)");
      }
      out_.set_role_annotation(devname(t[1]), role);
    } else if (head == ".domain") {
      need(t, 3, ".domain");
      lint::power::DomainAnnotation ann;
      ann.node = resolve_node(t[1]);
      ann.name = t[2];
      ann.line = line_no_;
      if (t.size() > 3) {
        const std::string kind = lower(t[3]);
        if (kind == "gated") {
          ann.gated = true;
        } else if (kind == "always-on") {
          ann.gated = false;
        } else {
          fail("unknown .domain kind '" + t[3] +
               "' (expected gated or always-on)");
        }
      }
      out_.add_domain_annotation(std::move(ann));
    } else if (head == ".arch") {
      need(t, 2, ".arch");
      const std::string arch = lower(t[1]);
      if (!lint::temporal::arch_from_string(arch)) {
        fail("unknown .arch '" + t[1] + "' (expected nvpg, nof, or osr)");
      }
      out_.set_arch_annotation(arch);
    } else if (head == ".probe") {
      for (std::size_t k = 1; k < t.size();) {
        const std::string what = lower(t[k]);
        // Forms: v( node ) / i( dev ) / p( src ) / e( src )
        if ((what == "v(" || what == "i(" || what == "p(" || what == "e(") &&
            k + 2 < t.size() && t[k + 2] == ")") {
          const std::string arg = t[k + 1];
          add_probe(what[0], arg);
          k += 3;
        } else {
          fail("bad .probe term '" + t[k] + "'");
        }
      }
    } else {
      fail("unknown directive '" + head + "'");
    }
  }

  void add_probe(char kind, const std::string& arg) {
    auto& ckt = out_.circuit();
    switch (kind) {
      case 'v':
        if (!ckt.has_node(arg)) fail("probe of unknown node '" + arg + "'");
        out_.add_probe(Probe::node_voltage(ckt.find_node(arg), "v(" + arg + ")"));
        break;
      case 'i': {
        Device* dev = ckt.find_device(arg);
        if (!dev) fail("probe of unknown device '" + arg + "'");
        out_.add_probe(Probe::device_current(dev, "i(" + arg + ")"));
        break;
      }
      case 'p':
      case 'e': {
        auto* src = device_cast<VSource>(ckt.find_device(arg));
        if (!src) fail("probe of unknown voltage source '" + arg + "'");
        out_.add_probe(kind == 'p'
                           ? Probe::source_power(src, "p(" + arg + ")")
                           : Probe::source_energy(src, "e(" + arg + ")"));
        break;
      }
      default: fail("bad probe kind");
    }
  }

  ParsedNetlist& out_;
  int line_no_ = 0;
  bool ended_ = false;
  bool saw_card_ = false;
  std::vector<Scope> scopes_;
  std::vector<SubcktDef> subckt_stack_;
  std::unordered_map<std::string, SubcktDef> subckts_;
};

void record_line(std::vector<int>& lines, std::size_t at, int line) {
  if (at >= lines.size()) lines.resize(at + 1, -1);
  if (lines[at] < 0) lines[at] = line;
}

int line_at(const std::vector<int>& lines, std::size_t at) {
  return at < lines.size() ? lines[at] : -1;
}

}  // namespace

lint::LintReport ParsedNetlist::lint() const { return lint(lint_options_); }

lint::LintReport ParsedNetlist::lint(const lint::LintOptions& options) const {
  return lint::lint_netlist(*this, options);
}

void ParsedNetlist::ensure_lint_ok() {
  if (!lint_on_run_) return;
  lint::LintReport report = lint(lint_options_);
  if (report.has_errors()) throw lint::LintError(std::move(report));
}

void ParsedNetlist::record_device_line(std::size_t index, int line) {
  record_line(device_lines_, index, line);
}

void ParsedNetlist::record_node_line(NodeId node, int line) {
  record_line(node_lines_, node, line);
}

int ParsedNetlist::device_line(const std::string& name) const {
  const auto index = circuit_.device_index(name);
  return index ? line_at(device_lines_, *index) : -1;
}

int ParsedNetlist::node_line(const std::string& name) const {
  if (!circuit_.has_node(name)) return -1;
  return line_at(node_lines_, circuit_.find_node(name));
}

std::string ParsedNetlist::instance_path_of(const std::string& name) const {
  // Longest recorded instance prefix wins, so "X3.X17.M2" maps to "X3/X17"
  // while a helper companion like "M1.cgs" (no instance prefix) maps to "".
  std::string probe = name;
  for (;;) {
    const auto dot = probe.rfind('.');
    if (dot == std::string::npos) return "";
    probe.resize(dot);
    if (instance_prefixes_.count(probe + ".")) {
      std::string path = probe;
      std::replace(path.begin(), path.end(), '.', '/');
      return path;
    }
  }
}

void ParsedNetlist::set_role_annotation(const std::string& device,
                                        std::string role) {
  role_annotations_[lower(device)] = std::move(role);
}

const std::string* ParsedNetlist::role_annotation(
    const std::string& device) const {
  const auto it = role_annotations_.find(lower(device));
  return it == role_annotations_.end() ? nullptr : &it->second;
}

void ParsedNetlist::add_parse_diagnostic(lint::Diagnostic d) {
  parse_diags_.push_back(std::move(d));
}

Waveform ParsedNetlist::run_dc_sweep() {
  if (!dc_) throw std::logic_error("netlist has no .dc card");
  ensure_lint_ok();
  auto* src = device_cast<VSource>(circuit_.find_device(dc_->source));
  auto* isrc = device_cast<ISource>(circuit_.find_device(dc_->source));
  if (!src && !isrc) {
    throw std::logic_error(".dc source '" + dc_->source + "' not found");
  }
  auto points = util::linspace(dc_->start, dc_->stop,
                               static_cast<std::size_t>(dc_->points));
  DCSweep sweep(
      circuit_,
      [this](double v) {
        Device* dev = circuit_.find_device(dc_->source);
        if (auto* vs = device_cast<VSource>(dev)) {
          vs->set_spec(SourceSpec::dc(v));
        }
      },
      std::move(points), probes_);
  return sweep.run();
}

Waveform ParsedNetlist::run_tran() {
  if (!tran_) throw std::logic_error("netlist has no .tran card");
  ensure_lint_ok();
  TranOptions opt;
  opt.t_stop = tran_->t_stop;
  if (tran_->dt_max > 0.0) opt.dt_max = tran_->dt_max;
  TranAnalysis tran(circuit_, opt, probes_);
  return tran.run();
}

std::optional<DCSolution> ParsedNetlist::run_op() {
  ensure_lint_ok();
  DCAnalysis dc(circuit_);
  return dc.solve();
}

std::unique_ptr<ParsedNetlist> NetlistParser::parse(const std::string& text) {
  std::istringstream in(text);
  return parse_stream(in);
}

std::unique_ptr<ParsedNetlist> NetlistParser::parse_stream(std::istream& in) {
  auto out = std::make_unique<ParsedNetlist>();
  ParserImpl impl(*out);
  std::string line;
  int line_no = 0;
  bool first = true;
  while (std::getline(in, line)) {
    ++line_no;
    if (first) {
      first = false;
      // SPICE title-line convention: if the first line does not parse as a
      // card, it is the title.
      try {
        impl.feed(line, line_no);
      } catch (const NetlistError&) {
        out->set_title(line);
      }
      continue;
    }
    impl.feed(line, line_no);
  }
  if (!impl.saw_any_card()) {
    throw NetlistError(line_no, "netlist contains no devices");
  }
  return out;
}

}  // namespace nvsram::spice
