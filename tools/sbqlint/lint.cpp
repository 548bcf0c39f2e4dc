#include "sbqlint/lint.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/error.h"
#include "sbqlint/cache.h"
#include "sbqlint/graph_rules.h"
#include "sbqlint/tokenizer.h"

namespace sbq::lint {

namespace {

// ---------------------------------------------------------------------------
// Path helpers and rule scopes.
// ---------------------------------------------------------------------------

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.compare(0, prefix.size(), prefix) == 0;
}

/// First path component: "src/pbio/x.h" -> "src"; "" if none.
std::string first_component(const std::string& path) {
  const std::size_t slash = path.find('/');
  return slash == std::string::npos ? path : path.substr(0, slash);
}

/// Subsystem of a src/ file ("apps/image/..." folds to "apps"); "" outside.
std::string subsystem_of(const std::string& rel_path) {
  if (!starts_with(rel_path, "src/")) return {};
  const std::string below = rel_path.substr(4);
  return first_component(below);
}

bool suppressed(const Scan& scan, int line, const std::string& rule) {
  const auto it = scan.allowances.find(line);
  return it != scan.allowances.end() && it->second.count(rule) > 0;
}

struct RuleContext {
  const std::string& path;
  const Scan& scan;
  const Config& config;
  std::vector<Finding>& findings;

  void report(int line, const std::string& rule, const std::string& message) const {
    if (!suppressed(scan, line, rule)) {
      findings.push_back(Finding{path, line, rule, message});
    }
  }
};

// ---------------------------------------------------------------------------
// Rule: layering — #include edges under src/ must follow the subsystem DAG.
// ---------------------------------------------------------------------------

void check_layering(const RuleContext& ctx) {
  const std::string sub = subsystem_of(ctx.path);
  if (sub.empty()) return;  // tools/tests/bench compose freely
  const auto allowed = ctx.config.layering.find(sub);
  if (allowed == ctx.config.layering.end()) {
    ctx.report(1, "layering",
               "unknown subsystem 'src/" + sub +
                   "' — add it to the DAG in sbqlint's default_config()");
    return;
  }
  for (const IncludeDirective& inc : ctx.scan.includes) {
    if (inc.angled) continue;  // system headers
    const std::string target = first_component(inc.path);
    if (ctx.config.layering.count(target) == 0) continue;  // not a subsystem
    if (target == sub || allowed->second.count(target) > 0) continue;
    std::string allowed_list;
    for (const std::string& t : allowed->second) {
      allowed_list += allowed_list.empty() ? t : ", " + t;
    }
    ctx.report(inc.line, "layering",
               "src/" + sub + " may not include \"" + inc.path +
                   "\" (allowed layers: " + sub +
                   (allowed_list.empty() ? "" : ", " + allowed_list) + ")");
  }
}

// ---------------------------------------------------------------------------
// Rule: no-raw-throw — every throw constructs an sbq::Error subclass.
// ---------------------------------------------------------------------------

void check_no_raw_throw(const RuleContext& ctx) {
  if (!starts_with(ctx.path, "src/") && !starts_with(ctx.path, "tools/")) return;
  const std::vector<Token>& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "throw") continue;
    std::size_t j = i + 1;
    if (j < toks.size() && toks[j].text == ";") continue;  // rethrow
    // Collect the qualified id that follows, if any.
    std::vector<std::string> components;
    if (j < toks.size() && toks[j].text == "::") ++j;  // ::sbq::Error(...)
    while (j < toks.size() && toks[j].kind == Token::Kind::kIdent) {
      components.push_back(toks[j].text);
      ++j;
      if (j < toks.size() && toks[j].text == "::") {
        ++j;
      } else {
        break;
      }
    }
    bool ok = false;
    if (!components.empty() && j < toks.size() &&
        (toks[j].text == "(" || toks[j].text == "{")) {
      ok = ctx.config.error_types.count(components.back()) > 0;
      for (std::size_t q = 0; ok && q + 1 < components.size(); ++q) {
        ok = ctx.config.error_namespaces.count(components[q]) > 0;
      }
    }
    if (!ok) {
      std::string expr;
      std::string prev;
      for (std::size_t k = i + 1; k < toks.size() && k < i + 6; ++k) {
        const std::string& text = toks[k].text;
        if (text == ";" || text == "(" || text == "{") break;
        if (!expr.empty() && text != "::" && prev != "::") expr += " ";
        expr += text;
        prev = text;
      }
      ctx.report(toks[i].line, "no-raw-throw",
                 "throw must construct an sbq::Error subclass, got 'throw " +
                     expr + "' (keeps the fuzz contract machine-checkable)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: no-swallow — catch (...) must rethrow or convert.
// ---------------------------------------------------------------------------

void check_no_swallow(const RuleContext& ctx) {
  if (!starts_with(ctx.path, "src/") && !starts_with(ctx.path, "tools/")) return;
  const std::vector<Token>& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent || toks[i].text != "catch") continue;
    if (toks[i + 1].text != "(") continue;
    // Collect the exception-declaration between the parens.
    std::size_t j = i + 2;
    int depth = 1;
    std::vector<std::size_t> params;
    for (; j < toks.size() && depth > 0; ++j) {
      if (toks[j].text == "(") ++depth;
      if (toks[j].text == ")" && --depth == 0) break;
      params.push_back(j);
    }
    if (params.size() != 1 || toks[params[0]].text != "...") continue;
    // Scan the handler block for any throw (rethrow or conversion).
    std::size_t k = j + 1;
    if (k >= toks.size() || toks[k].text != "{") continue;
    int braces = 1;
    bool throws = false;
    for (++k; k < toks.size() && braces > 0; ++k) {
      if (toks[k].text == "{") ++braces;
      else if (toks[k].text == "}") --braces;
      else if (toks[k].kind == Token::Kind::kIdent && toks[k].text == "throw")
        throws = true;
    }
    if (!throws) {
      ctx.report(toks[i].line, "no-swallow",
                 "catch (...) must rethrow or convert the exception "
                 "(or carry sbqlint:allow(no-swallow) with a justification)");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: cast-confinement — reinterpret_cast / memcpy only in allowlisted
// codec/endian/syscall files.
// ---------------------------------------------------------------------------

void check_cast_confinement(const RuleContext& ctx) {
  if (!starts_with(ctx.path, "src/") && !starts_with(ctx.path, "tools/")) return;
  if (ctx.config.cast_allowlist.count(ctx.path) > 0) return;
  for (const Token& tok : ctx.scan.tokens) {
    if (tok.kind != Token::Kind::kIdent) continue;
    if (tok.text == "reinterpret_cast" || tok.text == "memcpy") {
      ctx.report(tok.line, "cast-confinement",
                 tok.text +
                     " is confined to the codec/endian/syscall allowlist "
                     "(use sbq::as_bytes/as_chars/to_string, or extend the "
                     "allowlist in sbqlint's default_config())");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: clock-discipline — real clocks only in src/common/clock.h.
// ---------------------------------------------------------------------------

void check_clock_discipline(const RuleContext& ctx) {
  if (ctx.config.clock_allowlist.count(ctx.path) > 0) return;
  const std::vector<Token>& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const bool banned =
        ctx.config.clock_banned.count(toks[i].text) > 0 ||
        (ctx.config.clock_banned_calls.count(toks[i].text) > 0 &&
         i + 1 < toks.size() && toks[i + 1].text == "(");
    if (banned) {
      ctx.report(toks[i].line, "clock-discipline",
                 "'" + toks[i].text +
                     "' bypasses the clock discipline: real time comes from "
                     "common/clock.h, simulated time from net::TimeSource");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: sleep-discipline — product code never blocks the thread directly.
// Delays (retry backoff, probe pacing, hedge boundaries) route through
// core::wait_on, which advances a SimClock in place, so every schedule is
// reproducible under simulation. Scoped to src/ and tools/: tests and bench
// drive real servers and legitimately sleep.
// ---------------------------------------------------------------------------

void check_sleep_discipline(const RuleContext& ctx) {
  if (!starts_with(ctx.path, "src/") && !starts_with(ctx.path, "tools/")) {
    return;
  }
  if (ctx.config.sleep_allowlist.count(ctx.path) > 0) return;
  const std::vector<Token>& toks = ctx.scan.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    if (ctx.config.sleep_banned_calls.count(toks[i].text) > 0 &&
        i + 1 < toks.size() && toks[i + 1].text == "(") {
      ctx.report(toks[i].line, "sleep-discipline",
                 "'" + toks[i].text +
                     "' blocks the thread outside the delay allowlist: pace "
                     "waits through core::wait_on (virtual time under "
                     "simulation), or extend sleep_allowlist in sbqlint's "
                     "default_config()");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: bad-pragma — pragmas must name rules the analyzer knows. A typo'd
// pragma otherwise suppresses nothing while looking like it does.
// ---------------------------------------------------------------------------

const std::set<std::string>& known_rule_names() {
  static const std::set<std::string> kNames = [] {
    std::set<std::string> names;
    for (const RuleInfo& rule : rules()) names.insert(rule.name);
    return names;
  }();
  return kNames;
}

void check_bad_pragma(const RuleContext& ctx) {
  for (const AllowPragma& pragma : ctx.scan.pragmas) {
    for (const std::string& rule : pragma.rules) {
      if (known_rule_names().count(rule) > 0) continue;
      ctx.report(pragma.line, "bad-pragma",
                 "sbqlint:allow names unknown rule '" + rule +
                     "' — it suppresses nothing (see --list-rules)");
    }
  }
  for (const EdgePragma& edge : ctx.scan.edges) {
    if (edge.malformed) {
      ctx.report(edge.line, "bad-pragma",
                 "malformed sbqlint:edge pragma — expected "
                 "sbqlint:edge(caller -> callee)");
    }
  }
  for (const FieldAnnotation& ann : ctx.scan.annotations) {
    if (ann.malformed) {
      ctx.report(ann.line, "bad-pragma",
                 std::string("malformed sbqlint:") +
                     (ann.kind == FieldAnnotation::Kind::kGuardedBy
                          ? "guarded_by"
                          : "affine") +
                     " annotation — expected a single unqualified "
                     "member/root name");
    }
  }
}

void run_line_rules(const std::string& path, const Scan& scan,
                    const Config& config, std::vector<Finding>& findings) {
  const RuleContext ctx{path, scan, config, findings};
  check_layering(ctx);
  check_no_raw_throw(ctx);
  check_no_swallow(ctx);
  check_cast_confinement(ctx);
  check_clock_discipline(ctx);
  check_sleep_discipline(ctx);
  check_bad_pragma(ctx);
}

void sort_findings(std::vector<Finding>& findings) {
  std::sort(findings.begin(), findings.end(),
            [](const Finding& a, const Finding& b) {
              if (a.file != b.file) return a.file < b.file;
              return a.line != b.line ? a.line < b.line : a.rule < b.rule;
            });
}

/// Files under src/ and tools/ participate in the cross-TU call graph;
/// tests and bench drive servers from the outside and may block freely.
bool in_call_graph(const std::string& path) {
  return starts_with(path, "src/") || starts_with(path, "tools/");
}

}  // namespace

// ---------------------------------------------------------------------------
// Public API.
// ---------------------------------------------------------------------------

std::string format_finding(const Finding& finding) {
  return finding.file + ":" + std::to_string(finding.line) + ": " +
         finding.rule + ": " + finding.message;
}

std::vector<RuleInfo> rules() {
  return {
      {"layering", "#include edges must follow the subsystem DAG "
                   "(common -> xml/compress/pbio -> net/http -> "
                   "soap/qos/wsdl -> core -> apps)"},
      {"no-raw-throw", "every throw in src/ and tools/ must construct an "
                       "sbq::Error subclass (malformed input => sbq::Error)"},
      {"no-swallow", "catch (...) must rethrow or convert; silent swallows "
                     "need an explicit sbqlint:allow pragma"},
      {"cast-confinement", "reinterpret_cast / memcpy confined to the "
                           "codec/endian/syscall file allowlist"},
      {"clock-discipline", "no real-clock primitives outside "
                           "src/common/clock.h (simulation determinism)"},
      {"sleep-discipline", "no direct thread sleeps in src/ or tools/ "
                           "outside the delay-primitive allowlist (pace "
                           "waits through core::wait_on)"},
      {"event-loop-blocking", "nothing reachable from the event-runtime "
                              "roots (http::Server shard loops) may hit a "
                              "blocking primitive"},
      {"lock-discipline", "no blocking call while a lock is held, no "
                          "self-deadlock, no ABBA cycle in the lock-order "
                          "graph"},
      {"hot-path-allocation", "nothing reachable from the encode->write "
                              "path may construct flat std::string / "
                              "std::vector<char> copies or call the copy "
                              "escape hatches"},
      {"guarded-field", "fields annotated sbqlint:guarded_by(mu) are only "
                        "accessed while mu is held, directly or via the "
                        "caller's held-lock set along call edges"},
      {"thread-affinity", "functions/fields annotated sbqlint:affine(root) "
                          "are only reachable from that thread root's "
                          "entry points"},
      {"bad-pragma", "sbqlint pragmas must name known rules, resolvable "
                     "sbqlint:edge endpoints, bindable guarded_by/affine "
                     "annotations, and known thread roots"},
  };
}

Config default_config() {
  Config config;
  // The DESIGN.md DAG: common is the substrate; xml/compress/pbio/net are
  // leaf codecs and transports over it; http rides net; soap/qos/wsdl are
  // description layers over the codecs; core composes everything; apps sit
  // on top of core. rpc is the standalone Sun RPC baseline.
  config.layering = {
      {"common", {}},
      {"xml", {"common"}},
      {"compress", {"common"}},
      {"pbio", {"common"}},
      {"net", {"common"}},
      {"http", {"common", "net"}},
      {"rpc", {"common", "net"}},
      {"soap", {"common", "xml", "pbio"}},
      {"qos", {"common", "pbio"}},
      {"wsdl", {"common", "xml", "pbio", "qos"}},
      {"core",
       {"common", "xml", "compress", "pbio", "net", "http", "soap", "qos",
        "wsdl"}},
      {"apps", {"common", "xml", "compress", "pbio", "qos", "core"}},
  };
  config.error_types = {
      "Error",        "ParseError",    "CodecError", "TransportError",
      "TimeoutError", "OverloadError", "RpcError",   "QosError",
      "UsageError",   "XmlError",
  };
  config.error_namespaces = {
      "sbq",  "common", "xml",  "compress", "pbio", "net",
      "http", "rpc",    "soap", "wsdl",     "qos",  "core",
  };
  config.cast_allowlist = {
      "src/common/bytes.h",        // the canonical char<->byte bridge
      "src/common/arena.h",        // allocator block copies
      "src/common/buffer_chain.cpp",  // owned-storage views + coalesce copy
      "src/net/tcp.cpp",           // sockaddr casts for the BSD socket API
      "src/net/poller.cpp",        // epoll_data / eventfd counter plumbing
      "src/pbio/encode.cpp",       // wire codec: native-layout encode
      "src/pbio/plan.cpp",         // wire codec: receiver-makes-right decode
  };
  config.clock_allowlist = {"src/common/clock.h"};
  config.clock_banned = {
      "system_clock", "steady_clock",  "high_resolution_clock",
      "gettimeofday", "clock_gettime", "timespec_get",
      "localtime",    "localtime_r",   "gmtime",
      "gmtime_r",     "mktime",        "ctime",
      "asctime",      "strftime",      "ftime",
  };
  config.clock_banned_calls = {"time", "clock"};
  config.sleep_allowlist = {
      "src/core/client.cpp",      // core::wait_on, the blessed delay primitive
      "src/net/fault.cpp",        // kStall on a live stream really stalls
      "src/http/server.cpp",      // drain wait for in-flight exchanges
  };
  config.sleep_banned_calls = {"sleep_for", "sleep_until", "sleep", "usleep",
                               "nanosleep"};

  // --- graph rules -------------------------------------------------------
  // The serving pool: each http::Server pool thread alternates a poll step
  // and an exchange. The poll step (and everything it reaches) must never
  // block except in the poller's wait — the exchange runs the handler,
  // which may.
  config.event_roots = {"Server::Impl::poll_step"};
  // The repo's blocking surface, by name. Bodies of these primitives are
  // implementation detail (read_some's poll() IS the primitive); the rule
  // fires on reaching a call to one.
  config.blocking_calls = {
      "accept",     "connect",       "join",       "nanosleep",
      "read_exact", "read_request",  "read_response", "read_some",
      "round_trip", "sleep",         "sleep_for",  "sleep_until",
      "usleep",     "wait",          "wait_for",   "wait_on",
      "wait_until", "wait_us",       "write_all",  "write_chain",
  };
  // poller.wait(timeout) is the event loop's one blessed blocking point.
  config.blocking_exempt_receivers = {"poller"};
  // The zero-copy encode->write path: message serialization into a
  // BufferChain and the gather-write surfaces that drain it.
  config.hot_path_roots = {"serialize_to", "write_chain", "write_chain_some"};
  // Documented staging exceptions: the head of a message accumulates
  // small header fields into ONE owned std::string that is then MOVED
  // into the chain as a segment — one allocation, zero copies of the
  // body. The bodies of these functions may build that string.
  config.hot_path_allowlist = {
      "Request::serialize_to",
      "Response::serialize_to",
      "serialize_headers",
  };
  // Copy-by-design escape hatches, banned in call position on the path.
  config.hot_allocation_calls = {"coalesce", "append_copy", "to_string"};
  // Thread roots for the thread-affinity rule. Each names the entry
  // points that run on that thread family; sbqlint:affine(<root>)
  // annotations refer to these keys. Every pool thread runs both server
  // roots in turn, so they split code paths, not threads: `poll` owns the
  // connection table and the connection state machine, `exchange` runs
  // handler code and reaches its connection only through the exchange.
  config.affinity_roots = {
      {"poll", {"Server::Impl::poll_step"}},
      {"exchange", {"Server::Impl::run_exchange"}},
      {"client", {"ResilientStub::call"}},
  };
  return config;
}

std::vector<Finding> analyze_source(const std::string& rel_path,
                                    const std::string& content,
                                    const Config& config) {
  const Scan scan = scan_source(content);
  std::vector<Finding> findings;
  run_line_rules(rel_path, scan, config, findings);
  sort_findings(findings);
  return findings;
}

std::vector<SourceFile> load_tree(const std::string& root) {
  namespace fs = std::filesystem;
  const fs::path base(root);
  std::vector<std::string> paths;
  for (const char* dir : {"src", "tools", "tests", "bench"}) {
    const fs::path top = base / dir;
    if (!fs::exists(top)) continue;
    for (const auto& entry : fs::recursive_directory_iterator(top)) {
      if (!entry.is_regular_file()) continue;
      const std::string ext = entry.path().extension().string();
      if (ext != ".h" && ext != ".hpp" && ext != ".cpp" && ext != ".cc") continue;
      paths.push_back(fs::relative(entry.path(), base).generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<SourceFile> files;
  files.reserve(paths.size());
  for (const std::string& rel : paths) {
    std::ifstream in(base / rel, std::ios::binary);
    if (!in) throw sbq::Error("sbqlint: cannot read " + (base / rel).string());
    std::ostringstream ss;
    ss << in.rdbuf();
    files.push_back(SourceFile{rel, ss.str()});
  }
  return files;
}

std::vector<Finding> analyze_program(const std::vector<SourceFile>& files,
                                     const Config& config,
                                     const std::set<std::string>& only_rules,
                                     RunStats* stats, ScanCache* cache) {
  std::vector<ProgramFile> program;
  program.reserve(files.size());
  std::vector<Finding> findings;
  std::size_t pragmas = 0;
  std::size_t edges = 0;
  for (const SourceFile& file : files) {
    ProgramFile entry;
    entry.path = file.path;
    if (cache == nullptr || !cache->load(file.content, entry.scan)) {
      entry.scan = scan_source(file.content);
      if (cache != nullptr) cache->store(file.content, entry.scan);
    }
    entry.in_graph = in_call_graph(file.path);
    if (entry.in_graph) {
      entry.graph = parse_file_graph(entry.path, entry.scan);
    }
    pragmas += entry.scan.pragmas.size();
    edges += entry.scan.edges.size();
    run_line_rules(entry.path, entry.scan, config, findings);
    program.push_back(std::move(entry));
  }
  GraphStats graph_stats;
  run_graph_rules(program, config, findings, &graph_stats);
  if (!only_rules.empty()) {
    findings.erase(std::remove_if(findings.begin(), findings.end(),
                                  [&](const Finding& f) {
                                    return only_rules.count(f.rule) == 0;
                                  }),
                   findings.end());
  }
  sort_findings(findings);
  if (stats != nullptr) {
    stats->files_scanned = files.size();
    stats->functions = graph_stats.functions;
    stats->call_edges = graph_stats.call_edges;
    stats->pragmas_in_force = pragmas;
    stats->edge_pragmas = edges;
    stats->annotated_fields = graph_stats.annotated_fields;
    stats->affinity_roots = graph_stats.affinity_roots;
    stats->findings = findings.size();
    if (cache != nullptr) {
      stats->cache_hits = cache->hits();
      stats->cache_misses = cache->misses();
    }
    stats->rules_run.clear();
    for (const RuleInfo& rule : rules()) {
      if (only_rules.empty() || only_rules.count(rule.name) > 0) {
        stats->rules_run.push_back(rule.name);
      }
    }
  }
  return findings;
}

std::vector<Finding> analyze_tree(const std::string& root,
                                  const Config& config) {
  return analyze_program(load_tree(root), config);
}

}  // namespace sbq::lint
