// sbqlint call graph — pass 1 of the two-pass analyzer.
//
// parse_file_graph() walks a file's token stream with a scope stack
// (namespaces, classes, function bodies) and extracts, per function
// definition: the calls it makes, the locks it acquires (scoped guards
// and statement-position `mutex.lock()`), the flat-buffer
// constructions the hot-path rule cares about, and every field access in
// value position (with the lock set held there). Class-scope declarations
// carrying `sbqlint:guarded_by` / `sbqlint:affine` annotations are bound
// to FieldDecls, and `sbqlint:affine` on a definition line marks the
// function itself. CallGraph then folds
// every definition across all translation units into nodes keyed by
// qualified name (overload sets merge into one node — a deliberate
// over-approximation) and resolves call sites to nodes by qualified-name
// suffix match: `a::b::f` matches a call written `b::f` or `f`.
//
// Known, documented approximations (docs/static-analysis.md):
//   - an unqualified call `f(...)` matches EVERY node whose last
//     component is `f` (method vs free function of the same name merge
//     for reachability purposes);
//   - lambdas are analyzed as part of their enclosing function, so a
//     lambda handed to a thread or callback registry attributes its
//     calls to the function that created it — which is exactly the edge
//     the graph wants for `workers.emplace_back([this] { loop(); })`;
//   - edges through function pointers / std::function values the parser
//     cannot see are declared with `// sbqlint:edge(caller -> callee)`;
//   - lock identity is `<owning scope>::<member name>`, a lock-CLASS
//     key: two instances of the same member (e.g. a pipe's two endpoint
//     mutexes) share a key. Right for ordering analysis, blind to
//     instance-level aliasing.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "sbqlint/tokenizer.h"

namespace sbq::lint {

/// One lock acquisition inside a function body.
struct LockAcquire {
  std::string name;  // display name, e.g. "completion_mu"
  std::string key;   // scoped identity, e.g. "Server::Impl::completion_mu"
  int line = 0;
  std::vector<std::string> held_keys;   // lock keys already held here
  std::vector<std::string> held_names;  // parallel display names
};

/// One call site inside a function body.
struct CallSite {
  std::vector<std::string> path;  // qualified components as written
  std::string receiver;  // identifier before a trailing `.`/`->`, or ""
  int line = 0;
  std::vector<std::string> held_keys;   // lock keys held at the call
  std::vector<std::string> held_names;  // parallel display names
  /// Condition-variable wait pattern `cv.wait(guard, ...)`: the lock the
  /// guard holds is released for the duration of the wait.
  std::string released_key;
  bool in_throw = false;  // inside a throw expression: leaving the fast path
};

/// One flat-buffer construction (std::string / std::vector<char> and kin).
struct FlatAlloc {
  std::string what;  // e.g. "std::string"
  int line = 0;
  bool in_throw = false;
};

/// One field access inside a function body: a member-ish identifier in
/// value position (not a call, not a qualified-name component). Recorded
/// for every identifier; the guarded-field / thread-affinity rules filter
/// against the annotated-field roster at link time.
struct FieldAccess {
  std::string name;      // field identifier as written
  std::string receiver;  // identifier before `.`/`->`; "" = implicit this
  bool write = false;    // assignment / compound-assignment / ++ / --
  int line = 0;
  std::vector<std::string> held_keys;   // lock keys held at the access
  std::vector<std::string> held_names;  // parallel display names
};

/// A class field carrying a `guarded_by` / `affine` annotation, bound to
/// its declaration by the parser.
struct FieldDecl {
  std::string name;       // field identifier
  std::string class_key;  // owning scope, e.g. "sbq::qos::LoadMonitor"
  std::string guard;      // mutex member name ("" = not lock-guarded)
  std::string guard_key;  // class_key + "::" + guard
  std::string affinity;   // thread-root name ("" = no affinity)
  std::string file;
  int line = 0;  // annotation line (for "annotated at" in findings)
};

struct FunctionDef {
  std::string file;
  int line = 0;  // definition line — the scope of a function-level pragma
  std::vector<std::string> qualified;  // scope components + name
  std::string display;                 // qualified joined with "::"
  std::string affinity;  // thread-root name from `sbqlint:affine` ("" = none)
  std::vector<CallSite> calls;
  std::vector<LockAcquire> locks;
  std::vector<FlatAlloc> allocs;
  std::vector<FieldAccess> accesses;
};

struct FileGraph {
  std::vector<FunctionDef> functions;
  std::vector<FieldDecl> fields;  // annotated field declarations
  /// Indices into Scan::annotations that bound to a field or function;
  /// the bad-pragma rule reports the rest as dangling.
  std::vector<std::size_t> bound_annotations;
};

/// Pass 1 for one file: extract function definitions from the token stream.
FileGraph parse_file_graph(const std::string& path, const Scan& scan);

/// The folded, cross-TU graph (pass 2 substrate).
class CallGraph {
 public:
  struct Node {
    std::string display;
    std::vector<std::string> qualified;
    std::vector<const FunctionDef*> defs;  // overloads + out-of-line splits
    std::vector<int> callees;              // resolved + pragma edges, deduped
    std::set<std::string> subsystems;      // src/ subsystems of defs; "" = tools
  };

  /// Folds every file's functions into nodes and resolves every call site.
  /// The FileGraphs must outlive the CallGraph. `layering` (the subsystem
  /// DAG from Config) prunes name-match edges that no #include could
  /// carry: a `common` function's `chunks_.end()` cannot resolve to a
  /// method in `pbio`. An empty map disables the pruning (tests).
  explicit CallGraph(const std::vector<const FileGraph*>& files,
                     std::map<std::string, std::set<std::string>> layering = {});

  /// Adds a `sbqlint:edge(caller -> callee)` pragma edge. Both sides are
  /// suffix patterns; returns false (no edge) if either side resolves to
  /// no node, so the caller can report the dangling pragma.
  bool add_edge(const std::string& caller, const std::string& callee);

  const std::vector<Node>& nodes() const { return nodes_; }

  /// All nodes whose qualified name ends with the call path's components.
  std::vector<int> resolve(const std::vector<std::string>& path) const;

  /// resolve() for a call site seen from `caller`: an unqualified call
  /// with no receiver (or `this->`) that matches a function in the
  /// caller's own scope resolves to that scope only — `dispatch(...)`
  /// inside Server::Impl means Impl::dispatch, not every dispatch in
  /// the repo. Receiver-ful calls keep the full over-approximation (the
  /// receiver could be any type).
  std::vector<int> resolve_call(const Node& caller, const CallSite& call) const;

  /// All nodes matching an `A::B::f`-style suffix pattern (roots, pragmas).
  std::vector<int> match_suffix(const std::string& pattern) const;

  /// Forward reachability from `roots`; parent[n] = the caller that first
  /// reached n (or -1 for roots), for witness-path reconstruction.
  std::vector<bool> reach(const std::vector<int>& roots,
                          std::vector<int>* parent = nullptr) const;

  /// Human-readable witness path root -> ... -> node ("a -> b -> c").
  std::string path_to(int node, const std::vector<int>& parent) const;

  std::size_t edge_count() const;

 private:
  bool edge_allowed(const Node& caller, const Node& callee) const;
  static bool same_scope(const Node& a, const Node& b);

  std::vector<Node> nodes_;
  std::map<std::string, std::vector<int>> by_last_;  // last component -> nodes
  std::map<std::string, std::set<std::string>> layering_;
};

/// Splits "a::b::c" into components.
std::vector<std::string> split_qualified(const std::string& name);

}  // namespace sbq::lint
