#include "sbqlint/graph_rules.h"

#include <algorithm>
#include <iterator>
#include <map>
#include <set>
#include <string>

namespace sbq::lint {

namespace {

/// Reports graph findings with both suppression scopes: a line pragma at
/// the finding, or a function-level pragma on the attributed function's
/// definition line (in the function's own file).
class Reporter {
 public:
  Reporter(const std::vector<ProgramFile>& files,
           std::vector<Finding>& findings)
      : findings_(findings) {
    for (const ProgramFile& file : files) scans_[file.path] = &file.scan;
  }

  bool line_allowed(const std::string& file, int line,
                    const std::string& rule) const {
    const auto it = scans_.find(file);
    if (it == scans_.end()) return false;
    const auto at = it->second->allowances.find(line);
    return at != it->second->allowances.end() && at->second.count(rule) > 0;
  }

  void report(const FunctionDef* fn, const std::string& file, int line,
              const std::string& rule, const std::string& message) {
    if (line_allowed(file, line, rule)) return;
    if (fn != nullptr && line_allowed(fn->file, fn->line, rule)) return;
    const auto key = std::make_tuple(file, line, rule);
    if (!reported_.insert(key).second) return;
    findings_.push_back(Finding{file, line, rule, message});
  }

 private:
  std::vector<Finding>& findings_;
  std::map<std::string, const Scan*> scans_;
  std::set<std::tuple<std::string, int, std::string>> reported_;
};

std::string call_name(const CallSite& call) {
  std::string out;
  for (const std::string& part : call.path) {
    if (!out.empty()) out += "::";
    out += part;
  }
  return out;
}

/// A call site that hits a blocking primitive by name, unless its
/// receiver is exempt (the poller's own wait is the one blessed block).
bool is_blocking_call(const CallSite& call, const Config& config) {
  if (config.blocking_calls.count(call.path.back()) == 0) return false;
  if (!call.receiver.empty() &&
      config.blocking_exempt_receivers.count(call.receiver) > 0) {
    return false;
  }
  return true;
}

std::vector<int> collect_roots(const CallGraph& graph,
                               const std::set<std::string>& patterns) {
  std::vector<int> roots;
  for (const std::string& pattern : patterns) {
    for (const int n : graph.match_suffix(pattern)) roots.push_back(n);
  }
  return roots;
}

std::string held_list(const CallSite& call) {
  std::string out;
  for (std::size_t i = 0; i < call.held_keys.size(); ++i) {
    if (call.held_keys[i] == call.released_key) continue;
    if (!out.empty()) out += "', '";
    out += call.held_names[i];
  }
  return out;
}

// -------------------------------------------------------------------------
// event-loop-blocking
// -------------------------------------------------------------------------

void check_event_loop_blocking(const CallGraph& graph, const Config& config,
                               Reporter& reporter) {
  std::vector<int> parent;
  const std::vector<int> roots = collect_roots(graph, config.event_roots);
  const std::vector<bool> reachable = graph.reach(roots, &parent);
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    if (!reachable[n]) continue;
    for (const FunctionDef* def : graph.nodes()[n].defs) {
      for (const CallSite& call : def->calls) {
        if (!is_blocking_call(call, config)) continue;
        reporter.report(
            def, def->file, call.line, "event-loop-blocking",
            "'" + call_name(call) +
                "' may block the poll step (reachable: " +
                graph.path_to(static_cast<int>(n), parent) +
                "); nothing on the poller path may block — move the work "
                "into the exchange or use the nonblocking surface");
      }
    }
  }
}

// -------------------------------------------------------------------------
// lock-discipline
// -------------------------------------------------------------------------

struct LockWitness {
  const FunctionDef* fn = nullptr;
  std::string file;
  int line = 0;
  std::string from_name;
  std::string to_name;
};

void check_lock_discipline(const CallGraph& graph, const Config& config,
                           Reporter& reporter) {
  const auto& nodes = graph.nodes();
  const int count = static_cast<int>(nodes.size());

  // may_block: reverse propagation from direct blocking call sites, with a
  // next-hop chain for witness messages.
  std::vector<std::string> direct_prim(count);
  std::vector<int> next_hop(count, -2);  // -2 unset, -1 blocks directly
  std::vector<std::vector<int>> rev(count);
  for (int n = 0; n < count; ++n) {
    for (const int callee : nodes[n].callees) rev[callee].push_back(n);
    for (const FunctionDef* def : nodes[n].defs) {
      for (const CallSite& call : def->calls) {
        if (direct_prim[n].empty() && is_blocking_call(call, config)) {
          // A cv wait that releases its own guard still blocks the thread.
          direct_prim[n] = call.path.back();
        }
      }
    }
  }
  std::vector<int> queue;
  for (int n = 0; n < count; ++n) {
    if (!direct_prim[n].empty()) {
      next_hop[n] = -1;
      queue.push_back(n);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int n = queue[head];
    for (const int caller : rev[n]) {
      if (next_hop[caller] != -2) continue;
      next_hop[caller] = n;
      queue.push_back(caller);
    }
  }
  auto may_block = [&](int n) { return next_hop[n] != -2; };
  auto block_witness = [&](int n) {
    std::string out = nodes[n].display;
    int hops = 0;
    while (next_hop[n] >= 0 && hops++ < count) {
      n = next_hop[n];
      out += " -> " + nodes[n].display;
    }
    return out + " -> " + direct_prim[n];
  };

  // acquires_transitive: lock keys a node (or anything it calls) takes.
  std::vector<std::set<std::string>> acquires(count);
  for (int n = 0; n < count; ++n) {
    for (const FunctionDef* def : nodes[n].defs) {
      for (const LockAcquire& acq : def->locks) acquires[n].insert(acq.key);
    }
  }
  for (bool changed = true; changed;) {
    changed = false;
    for (int n = 0; n < count; ++n) {
      for (const int callee : nodes[n].callees) {
        for (const std::string& key : acquires[callee]) {
          if (acquires[n].insert(key).second) changed = true;
        }
      }
    }
  }

  // Lock-order edges: key -> key, with the acquisition site as witness.
  std::map<std::pair<std::string, std::string>, LockWitness> order;
  auto add_order = [&](const std::string& from, const std::string& to,
                       const LockWitness& w) {
    if (from == to) return;
    order.emplace(std::make_pair(from, to), w);
  };

  for (int n = 0; n < count; ++n) {
    for (const FunctionDef* def : nodes[n].defs) {
      // Nested acquisitions: direct self-deadlock + order edges.
      for (const LockAcquire& acq : def->locks) {
        for (std::size_t h = 0; h < acq.held_keys.size(); ++h) {
          if (acq.held_keys[h] == acq.key) {
            reporter.report(def, def->file, acq.line, "lock-discipline",
                            "lock '" + acq.name +
                                "' is already held here and is acquired "
                                "again (self-deadlock)");
            continue;
          }
          add_order(acq.held_keys[h], acq.key,
                    LockWitness{def, def->file, acq.line, acq.held_names[h],
                                acq.name});
        }
      }
      for (const CallSite& call : def->calls) {
        std::vector<std::string> held_keys, held_names;
        for (std::size_t h = 0; h < call.held_keys.size(); ++h) {
          if (call.held_keys[h] == call.released_key) continue;
          held_keys.push_back(call.held_keys[h]);
          held_names.push_back(call.held_names[h]);
        }
        if (held_keys.empty()) continue;
        // Blocking primitive by name while a lock is held.
        if (is_blocking_call(call, config)) {
          reporter.report(def, def->file, call.line, "lock-discipline",
                          "blocking call '" + call_name(call) +
                              "' while holding lock '" + held_list(call) +
                              "' — release the lock before waiting");
          continue;
        }
        const std::vector<int> targets = graph.resolve_call(nodes[n], call);
        // A resolved callee that may (transitively) block.
        for (const int target : targets) {
          if (may_block(target)) {
            reporter.report(def, def->file, call.line, "lock-discipline",
                            "call to '" + nodes[target].display +
                                "' may block (" + block_witness(target) +
                                ") while holding lock '" + held_list(call) +
                                "'");
            break;
          }
        }
        // A callee that re-acquires a lock this thread already holds, and
        // cross-function lock-order edges.
        for (const int target : targets) {
          for (std::size_t h = 0; h < held_keys.size(); ++h) {
            if (acquires[target].count(held_keys[h]) > 0) {
              reporter.report(def, def->file, call.line, "lock-discipline",
                              "call to '" + nodes[target].display +
                                  "' re-acquires lock '" + held_names[h] +
                                  "' already held here (self-deadlock)");
            }
            for (const std::string& taken : acquires[target]) {
              add_order(held_keys[h], taken,
                        LockWitness{def, def->file, call.line, held_names[h],
                                    taken});
            }
          }
        }
      }
    }
  }

  // ABBA: a cycle in the lock-order graph. Transitive closure is cheap at
  // this scale (dozens of lock keys).
  std::map<std::string, std::set<std::string>> after;
  for (const auto& [edge, witness] : order) after[edge.first].insert(edge.second);
  for (bool changed = true; changed;) {
    changed = false;
    for (auto& [from, tos] : after) {
      const std::set<std::string> snapshot = tos;
      for (const std::string& mid : snapshot) {
        const auto it = after.find(mid);
        if (it == after.end()) continue;
        for (const std::string& far : it->second) {
          if (tos.insert(far).second) changed = true;
        }
      }
    }
  }
  std::set<std::pair<std::string, std::string>> cycles_reported;
  for (const auto& [edge, witness] : order) {
    const auto back = after.find(edge.second);
    if (back == after.end() || back->second.count(edge.first) == 0) continue;
    const auto canonical = edge.first < edge.second
                               ? std::make_pair(edge.first, edge.second)
                               : std::make_pair(edge.second, edge.first);
    if (!cycles_reported.insert(canonical).second) continue;
    std::string where;
    const auto reverse = order.find(std::make_pair(edge.second, edge.first));
    if (reverse != order.end()) {
      where = " (reverse order at " + reverse->second.file + ":" +
              std::to_string(reverse->second.line) + ")";
    } else {
      where = " (reverse order via intermediate locks)";
    }
    reporter.report(witness.fn, witness.file, witness.line, "lock-discipline",
                    "lock-order cycle: '" + witness.from_name + "' -> '" +
                        witness.to_name + "' here, but '" + witness.to_name +
                        "' is also taken before '" + witness.from_name + "'" +
                        where + " — ABBA deadlock risk");
  }
}

// -------------------------------------------------------------------------
// hot-path-allocation
// -------------------------------------------------------------------------

void check_hot_path_allocation(const CallGraph& graph, const Config& config,
                               Reporter& reporter) {
  std::vector<int> parent;
  const std::vector<int> roots = collect_roots(graph, config.hot_path_roots);
  const std::vector<bool> reachable = graph.reach(roots, &parent);
  std::set<int> allowed;
  for (const std::string& pattern : config.hot_path_allowlist) {
    for (const int n : graph.match_suffix(pattern)) allowed.insert(n);
  }
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    if (!reachable[n] || allowed.count(static_cast<int>(n)) > 0) continue;
    const std::string path = graph.path_to(static_cast<int>(n), parent);
    for (const FunctionDef* def : graph.nodes()[n].defs) {
      for (const FlatAlloc& alloc : def->allocs) {
        if (alloc.in_throw) continue;  // error exits leave the hot path
        reporter.report(def, def->file, alloc.line, "hot-path-allocation",
                        "constructs " + alloc.what +
                            " on the zero-copy hot path (reachable: " + path +
                            "); stage bytes into the BufferChain instead, "
                            "or extend hot_path_allowlist with a rationale");
      }
      for (const CallSite& call : def->calls) {
        if (call.in_throw) continue;
        if (config.hot_allocation_calls.count(call.path.back()) == 0) continue;
        reporter.report(def, def->file, call.line, "hot-path-allocation",
                        "'" + call_name(call) +
                            "' copies on the zero-copy hot path (reachable: " +
                            path + "); the encode->write path must stay "
                            "segment-based");
      }
    }
  }
}

// -------------------------------------------------------------------------
// guarded-field / thread-affinity shared substrate
// -------------------------------------------------------------------------

/// The enclosing scope of a function: its qualified name minus the last
/// component, e.g. "sbq::qos::LoadMonitor" for LoadMonitor::load.
std::string owner_of(const FunctionDef& def) {
  std::string out;
  for (std::size_t i = 0; i + 1 < def.qualified.size(); ++i) {
    if (!out.empty()) out += "::";
    out += def.qualified[i];
  }
  return out;
}

std::string last_component(const std::string& key) {
  const std::size_t pos = key.rfind("::");
  return pos == std::string::npos ? key : key.substr(pos + 2);
}

/// The annotated-field roster. Access sites resolve against it the way
/// calls resolve against the graph: an implicit (`this`) access binds
/// only to a field of the enclosing class; a receiver-qualified access
/// binds by field name when the name is unique across all annotations,
/// and resolves to nothing when ambiguous (resolve_call's receiver rule).
class FieldIndex {
 public:
  explicit FieldIndex(const std::vector<const FileGraph*>& graphs) {
    for (const FileGraph* g : graphs) {
      for (const FieldDecl& field : g->fields) {
        by_name_[field.name].push_back(&field);
        ++count_;
      }
    }
  }

  const FieldDecl* match(const FunctionDef& def,
                         const FieldAccess& access) const {
    const auto it = by_name_.find(access.name);
    if (it == by_name_.end()) return nullptr;
    if (access.receiver.empty()) {
      const std::string owner = owner_of(def);
      for (const FieldDecl* field : it->second) {
        if (field->class_key == owner) return field;
      }
      return nullptr;
    }
    return it->second.size() == 1 ? it->second.front() : nullptr;
  }

  std::size_t count() const { return count_; }

 private:
  std::map<std::string, std::vector<const FieldDecl*>> by_name_;
  std::size_t count_ = 0;
};

/// Constructors and destructors build/tear down the object before/after
/// it is shared: they touch its fields without the lock by design, and
/// run on whatever thread owns the object's lifetime.
bool is_structor_of(const FunctionDef& def, const FieldDecl& field) {
  if (def.qualified.empty()) return false;
  std::string_view name = def.qualified.back();
  if (!name.empty() && name.front() == '~') name.remove_prefix(1);
  return name == last_component(field.class_key) &&
         owner_of(def) == field.class_key;
}

/// One resolved call edge, kept with its call site so the held-lock set
/// there is available (the plain CallGraph only keeps node indices).
struct CallerEdge {
  int caller = 0;
  const CallSite* call = nullptr;
};

std::vector<std::vector<CallerEdge>> collect_callers(const CallGraph& graph) {
  std::vector<std::vector<CallerEdge>> callers(graph.nodes().size());
  for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
    for (const FunctionDef* def : graph.nodes()[n].defs) {
      for (const CallSite& call : def->calls) {
        for (const int target : graph.resolve_call(graph.nodes()[n], call)) {
          callers[target].push_back(CallerEdge{static_cast<int>(n), &call});
        }
      }
    }
  }
  return callers;
}

/// Lock keys held at a call site, minus a cv-released guard.
std::set<std::string> held_at(const CallSite& call) {
  std::set<std::string> out;
  for (const std::string& key : call.held_keys) {
    if (key != call.released_key) out.insert(key);
  }
  return out;
}

/// entry_held[n]: the lock keys guaranteed held on EVERY path into n —
/// the intersection, over all resolved call sites of n, of (locks held
/// at the site plus locks guaranteed at the caller's own entry).
/// Callerless functions guarantee nothing; so do pure call-graph cycles
/// no outside caller enters (their lingering "unconstrained" state
/// drops to the empty set after the fixpoint).
std::vector<std::set<std::string>> compute_entry_held(
    const CallGraph& graph,
    const std::vector<std::vector<CallerEdge>>& callers) {
  const int count = static_cast<int>(graph.nodes().size());
  std::vector<bool> unconstrained(count);
  std::vector<std::set<std::string>> entry(count);
  for (int n = 0; n < count; ++n) unconstrained[n] = !callers[n].empty();
  for (;;) {
    for (bool changed = true; changed;) {
      changed = false;
      for (int n = 0; n < count; ++n) {
        if (callers[n].empty()) continue;
        bool any = false;
        std::set<std::string> next;
        for (const CallerEdge& edge : callers[n]) {
          if (unconstrained[edge.caller]) continue;
          std::set<std::string> contrib = held_at(*edge.call);
          contrib.insert(entry[edge.caller].begin(), entry[edge.caller].end());
          if (!any) {
            next = std::move(contrib);
            any = true;
          } else {
            std::set<std::string> meet;
            std::set_intersection(next.begin(), next.end(), contrib.begin(),
                                  contrib.end(),
                                  std::inserter(meet, meet.begin()));
            next = std::move(meet);
          }
        }
        if (!any) continue;
        if (unconstrained[n] || next != entry[n]) {
          unconstrained[n] = false;
          entry[n] = std::move(next);
          changed = true;
        }
      }
    }
    // Nodes still unconstrained sit in pure call cycles no grounded caller
    // enters (e.g. mutually-recursive retry/failover layers whose external
    // call sites did not resolve). Ground them to "no guarantees" and run
    // the fixpoint once more so their callees still get the locks held at
    // the concrete call sites — skipping those edges forever would discard
    // that information and misreport every access behind them.
    bool grounded = false;
    for (int n = 0; n < count; ++n) {
      if (unconstrained[n]) {
        unconstrained[n] = false;
        entry[n].clear();
        grounded = true;
      }
    }
    if (!grounded) break;
  }
  return entry;
}

/// Does a held-key set establish `required`? Implicit accesses need the
/// exact class-scoped key; receiver-qualified accesses match by the lock
/// member's NAME (the receiver's class and the lock expression's scope
/// need not agree — `lock(s.completion_mu)` in an Impl method keys the
/// guard under Impl, not under Impl::Shard where the field lives).
bool establishes(const std::set<std::string>& keys,
                 const std::string& required, bool by_name) {
  if (!by_name) return keys.count(required) > 0;
  for (const std::string& key : keys) {
    if (last_component(key) == required) return true;
  }
  return false;
}

/// Witness chain for an unguarded access: walks caller edges upward,
/// always choosing a call site that does NOT establish the required
/// lock, so the printed chain is an actual unlocked path into the
/// function ("caller -> ... -> accessor").
std::string unlocked_chain(const CallGraph& graph,
                           const std::vector<std::vector<CallerEdge>>& callers,
                           const std::vector<std::set<std::string>>& entry,
                           int node, const std::string& required,
                           bool by_name) {
  std::vector<int> chain{node};
  std::set<int> visited{node};
  for (int cur = node, hops = 0; hops < 8; ++hops) {
    int up = -1;
    for (const CallerEdge& edge : callers[cur]) {
      if (visited.count(edge.caller) > 0) continue;
      std::set<std::string> have = held_at(*edge.call);
      have.insert(entry[edge.caller].begin(), entry[edge.caller].end());
      if (establishes(have, required, by_name)) continue;
      up = edge.caller;
      break;
    }
    if (up < 0) break;
    chain.push_back(up);
    visited.insert(up);
    cur = up;
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += graph.nodes()[static_cast<std::size_t>(*it)].display;
  }
  return out;
}

// -------------------------------------------------------------------------
// guarded-field
// -------------------------------------------------------------------------

void check_guarded_field(const CallGraph& graph, const FieldIndex& fields,
                         const std::vector<std::vector<CallerEdge>>& callers,
                         const std::vector<std::set<std::string>>& entry,
                         Reporter& reporter) {
  const auto& nodes = graph.nodes();
  for (std::size_t n = 0; n < nodes.size(); ++n) {
    for (const FunctionDef* def : nodes[n].defs) {
      for (const FieldAccess& access : def->accesses) {
        const FieldDecl* field = fields.match(*def, access);
        if (field == nullptr || field->guard.empty()) continue;
        if (is_structor_of(*def, *field)) continue;
        const bool by_name = !access.receiver.empty();
        const std::string& required =
            by_name ? field->guard : field->guard_key;
        std::set<std::string> have(access.held_keys.begin(),
                                   access.held_keys.end());
        have.insert(entry[n].begin(), entry[n].end());
        if (establishes(have, required, by_name)) continue;
        reporter.report(
            def, def->file, access.line, "guarded-field",
            std::string(access.write ? "write to" : "read of") + " field '" +
                access.name + "' without holding '" + field->guard +
                "' (annotated guarded_by at " + field->file + ":" +
                std::to_string(field->line) + "); unlocked path: " +
                unlocked_chain(graph, callers, entry, static_cast<int>(n),
                               required, by_name));
      }
    }
  }
}

// -------------------------------------------------------------------------
// thread-affinity
// -------------------------------------------------------------------------

void check_thread_affinity(const CallGraph& graph, const Config& config,
                           const FieldIndex& fields, Reporter& reporter,
                           std::size_t* live_roots) {
  for (const auto& [root, patterns] : config.affinity_roots) {
    const std::vector<int> entries = collect_roots(graph, patterns);
    if (entries.empty()) continue;
    if (live_roots != nullptr) ++*live_roots;
    std::vector<int> parent;
    const std::vector<bool> reachable = graph.reach(entries, &parent);
    for (std::size_t n = 0; n < graph.nodes().size(); ++n) {
      if (!reachable[n]) continue;
      for (const FunctionDef* def : graph.nodes()[n].defs) {
        if (!def->affinity.empty() && def->affinity != root) {
          reporter.report(
              def, def->file, def->line, "thread-affinity",
              "function '" + def->display + "' is affine to '" +
                  def->affinity + "' but reachable from the '" + root +
                  "' root: " + graph.path_to(static_cast<int>(n), parent));
        }
        for (const FieldAccess& access : def->accesses) {
          const FieldDecl* field = fields.match(*def, access);
          if (field == nullptr || field->affinity.empty()) continue;
          if (field->affinity == root) continue;
          if (is_structor_of(*def, *field)) continue;
          reporter.report(
              def, def->file, access.line, "thread-affinity",
              std::string(access.write ? "write to" : "read of") +
                  " field '" + access.name + "' affine to '" +
                  field->affinity + "' (annotated at " + field->file + ":" +
                  std::to_string(field->line) + ") from the '" + root +
                  "' root: " + graph.path_to(static_cast<int>(n), parent));
        }
      }
    }
  }
}

/// Annotations that never bound to a declaration, and affine annotations
/// naming a root the config does not know, report as bad-pragma — a
/// dangling annotation checks nothing while looking like it does.
void check_annotation_pragmas(const std::vector<ProgramFile>& files,
                              const Config& config, Reporter& reporter) {
  for (const ProgramFile& file : files) {
    if (!file.in_graph) continue;
    std::set<std::size_t> bound(file.graph.bound_annotations.begin(),
                                file.graph.bound_annotations.end());
    for (std::size_t a = 0; a < file.scan.annotations.size(); ++a) {
      const FieldAnnotation& ann = file.scan.annotations[a];
      if (ann.malformed) continue;  // reported per-file as bad-pragma
      const char* form = ann.kind == FieldAnnotation::Kind::kGuardedBy
                             ? "guarded_by"
                             : "affine";
      if (bound.count(a) == 0) {
        reporter.report(nullptr, file.path, ann.line, "bad-pragma",
                        std::string("sbqlint:") + form + "(" + ann.arg +
                            ") does not bind to a field or function "
                            "declaration — put it on the declaration line "
                            "or the line above");
        continue;
      }
      if (ann.kind == FieldAnnotation::Kind::kAffine &&
          config.affinity_roots.count(ann.arg) == 0) {
        reporter.report(nullptr, file.path, ann.line, "bad-pragma",
                        "sbqlint:affine(" + ann.arg +
                            ") names an unknown thread root — known roots "
                            "are the affinity_roots keys in "
                            "default_config()");
      }
    }
  }
}

}  // namespace

void run_graph_rules(const std::vector<ProgramFile>& files,
                     const Config& config, std::vector<Finding>& findings,
                     GraphStats* stats) {
  std::vector<const FileGraph*> graphs;
  for (const ProgramFile& file : files) {
    if (file.in_graph) graphs.push_back(&file.graph);
  }
  CallGraph graph(graphs, config.layering);

  Reporter reporter(files, findings);
  for (const ProgramFile& file : files) {
    if (!file.in_graph) continue;
    for (const EdgePragma& edge : file.scan.edges) {
      if (edge.malformed) continue;  // reported per-file as bad-pragma
      if (!graph.add_edge(edge.caller, edge.callee)) {
        reporter.report(nullptr, file.path, edge.line, "bad-pragma",
                        "sbqlint:edge(" + edge.caller + " -> " + edge.callee +
                            ") does not resolve to known functions on both "
                            "sides — fix the names or delete the pragma");
      }
    }
  }

  check_event_loop_blocking(graph, config, reporter);
  check_lock_discipline(graph, config, reporter);
  check_hot_path_allocation(graph, config, reporter);

  const FieldIndex fields(graphs);
  const std::vector<std::vector<CallerEdge>> callers = collect_callers(graph);
  const std::vector<std::set<std::string>> entry =
      compute_entry_held(graph, callers);
  check_guarded_field(graph, fields, callers, entry, reporter);
  std::size_t live_roots = 0;
  check_thread_affinity(graph, config, fields, reporter, &live_roots);
  check_annotation_pragmas(files, config, reporter);

  if (stats != nullptr) {
    stats->functions = graph.nodes().size();
    stats->call_edges = graph.edge_count();
    stats->annotated_fields = fields.count();
    stats->affinity_roots = live_roots;
  }
}

}  // namespace sbq::lint
