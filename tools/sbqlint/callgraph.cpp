#include "sbqlint/callgraph.h"

#include <algorithm>
#include <set>

namespace sbq::lint {

namespace {

const std::set<std::string>& statement_keywords() {
  static const std::set<std::string> kWords = {
      "if",      "while",   "for",      "switch",        "return",
      "sizeof",  "alignof", "decltype", "catch",         "new",
      "delete",  "throw",   "case",     "do",            "else",
      "goto",    "co_await", "co_return", "co_yield",    "static_assert",
      "alignas", "noexcept", "typeid",  "requires",      "const_cast",
      "static_cast", "dynamic_cast", "reinterpret_cast", "operator",
  };
  return kWords;
}

bool is_guard_type(const std::string& text) {
  return text == "lock_guard" || text == "unique_lock" ||
         text == "scoped_lock" || text == "shared_lock";
}

/// Skips a balanced `<...>` starting at `i` (which must be '<'). Returns
/// the index just past the matching '>', or `i` itself when the angles
/// do not balance within a sane window (then '<' was a comparison).
std::size_t skip_angles(const std::vector<Token>& t, std::size_t i) {
  int depth = 0;
  for (std::size_t j = i; j < t.size() && j < i + 256; ++j) {
    const std::string& s = t[j].text;
    if (s == "<") ++depth;
    else if (s == ">") {
      if (--depth == 0) return j + 1;
    } else if (s == ";" || s == "{" || s == "}") {
      break;  // statement boundary: not a template argument list
    }
  }
  return i;
}

/// Skips a balanced `(...)`/`{...}` starting at `i` (an opener). Returns
/// the index just past the matching closer, or t.size() on imbalance.
std::size_t skip_group(const std::vector<Token>& t, std::size_t i) {
  const std::string open = t[i].text;
  const std::string close = open == "(" ? ")" : (open == "{" ? "}" : "]");
  int depth = 0;
  for (std::size_t j = i; j < t.size(); ++j) {
    if (t[j].text == open) ++depth;
    else if (t[j].text == close && --depth == 0) return j + 1;
  }
  return t.size();
}

struct ActiveLock {
  std::string name;
  std::string key;
  std::string guard_var;  // "" for a manual mutex.lock()
  int decl_depth = 0;     // brace depth of the guard declaration
  bool manual = false;    // manual locks survive block exits until .unlock()
};

class FileParser {
 public:
  FileParser(const std::string& path, const Scan& scan)
      : path_(path), t_(scan.tokens), anns_(scan.annotations),
        ann_bound_(scan.annotations.size(), false) {
    // Like allow pragmas, an annotation covers its own line and the next.
    for (std::size_t a = 0; a < anns_.size(); ++a) {
      if (anns_[a].malformed) continue;
      ann_at_[anns_[a].line].push_back(a);
      ann_at_[anns_[a].line + 1].push_back(a);
    }
  }

  FileGraph run() {
    while (i_ < t_.size()) {
      top_level_step();
    }
    for (std::size_t a = 0; a < ann_bound_.size(); ++a) {
      if (ann_bound_[a]) out_.bound_annotations.push_back(a);
    }
    return std::move(out_);
  }

 private:
  struct ScopeEnt {
    std::vector<std::string> name;  // empty for brace balancers
    bool is_class = false;
  };

  bool ident_at(std::size_t i, const char* text) const {
    return i < t_.size() && t_[i].kind == Token::Kind::kIdent &&
           t_[i].text == text;
  }
  bool punct_at(std::size_t i, const char* text) const {
    return i < t_.size() && t_[i].kind == Token::Kind::kPunct &&
           t_[i].text == text;
  }

  void skip_to_semicolon() {
    while (i_ < t_.size() && t_[i_].text != ";" && t_[i_].text != "{") ++i_;
    if (i_ < t_.size() && t_[i_].text == ";") ++i_;
  }

  void top_level_step() {
    const Token& tok = t_[i_];
    if (tok.kind == Token::Kind::kPunct) {
      if (tok.text == "}") {
        if (!scopes_.empty()) scopes_.pop_back();
        ++i_;
        return;
      }
      if (tok.text == "{") {
        scopes_.push_back(ScopeEnt{});  // balancer (init lists, enum bodies)
        ++i_;
        return;
      }
      ++i_;
      return;
    }
    if (tok.kind != Token::Kind::kIdent) {
      ++i_;
      return;
    }
    maybe_bind_field(tok.line);
    const std::string& word = tok.text;
    if (word == "namespace") {
      handle_namespace();
      return;
    }
    if ((word == "class" || word == "struct" || word == "union") &&
        !(i_ > 0 && ident_at(i_ - 1, "enum"))) {
      handle_class();
      return;
    }
    if (word == "template") {
      ++i_;
      if (punct_at(i_, "<")) i_ = skip_angles(t_, i_);
      return;
    }
    if (word == "using" || word == "typedef" || word == "friend") {
      skip_to_semicolon();
      return;
    }
    try_function_def();
  }

  void handle_namespace() {
    std::size_t j = i_ + 1;
    std::vector<std::string> name;
    while (j < t_.size() && t_[j].kind == Token::Kind::kIdent) {
      name.push_back(t_[j].text);
      ++j;
      if (punct_at(j, "::")) ++j;
      else break;
    }
    if (punct_at(j, "{")) {
      scopes_.push_back(ScopeEnt{std::move(name)});
      i_ = j + 1;
      return;
    }
    // namespace alias or ill-formed: skip the statement.
    i_ = j;
    skip_to_semicolon();
  }

  void handle_class() {
    std::size_t j = i_ + 1;
    // Skip attributes / export macros conservatively: take the LAST
    // identifier chain before ':' / '{' / ';' as the class name.
    std::vector<std::string> name;
    while (j < t_.size()) {
      const Token& tok = t_[j];
      if (tok.kind == Token::Kind::kIdent && tok.text != "final") {
        name.clear();
        name.push_back(tok.text);
        ++j;
        while (punct_at(j, "::") && j + 1 < t_.size() &&
               t_[j + 1].kind == Token::Kind::kIdent) {
          name.push_back(t_[j + 1].text);
          j += 2;
        }
        if (punct_at(j, "<")) j = skip_angles(t_, j);  // specialization
        continue;
      }
      if (tok.text == ":" || tok.text == "final") {
        // Base-clause (or final): scan forward to the body brace.
        while (j < t_.size() && t_[j].text != "{" && t_[j].text != ";") ++j;
        continue;
      }
      break;
    }
    if (punct_at(j, "{")) {
      scopes_.push_back(ScopeEnt{std::move(name), true});
      i_ = j + 1;
      return;
    }
    // Forward declaration, variable of class type, etc.
    i_ = j < t_.size() ? j + 1 : t_.size();
  }

  /// Binds a `guarded_by`/`affine` annotation covering `line` to the class
  /// member declared at the current token. Fires only at class scope and
  /// at a statement start; a declarator that turns out to be a function
  /// (hits '(' before a terminator) is left for try_function_def — a
  /// guarded_by there stays unbound and is reported by bad-pragma.
  void maybe_bind_field(int line) {
    const auto covering = ann_at_.find(line);
    if (covering == ann_at_.end()) return;
    bool pending = false;
    for (const std::size_t a : covering->second) pending |= !ann_bound_[a];
    if (!pending) return;
    if (scopes_.empty() || !scopes_.back().is_class) return;
    if (i_ > 0) {
      const std::string& prev = t_[i_ - 1].text;
      if (prev != ";" && prev != "{" && prev != "}" && prev != ":") return;
    }
    // Scan the declarator: the field name is the last identifier before
    // `;` / `=` / `{` / `[`. Template argument lists (which may contain
    // parentheses, e.g. std::function<LoadSample()>) are skipped whole.
    std::string name;
    for (std::size_t j = i_; j < t_.size() && j < i_ + 128;) {
      const std::string& s = t_[j].text;
      if (s == "<") {
        const std::size_t past = skip_angles(t_, j);
        if (past != j) {
          j = past;
          continue;
        }
      }
      if (s == ";" || s == "=" || s == "{" || s == "[") break;
      if (s == "(" || s == "}") return;  // a function or unparsable shape
      if (t_[j].kind == Token::Kind::kIdent) name = t_[j].text;
      ++j;
    }
    if (name.empty()) return;
    FieldDecl field;
    field.name = name;
    for (const ScopeEnt& scope : scopes_) {
      for (const std::string& part : scope.name) {
        if (!field.class_key.empty()) field.class_key += "::";
        field.class_key += part;
      }
    }
    field.file = path_;
    for (const std::size_t a : covering->second) {
      if (ann_bound_[a]) continue;
      const FieldAnnotation& ann = anns_[a];
      if (ann.kind == FieldAnnotation::Kind::kGuardedBy) {
        field.guard = ann.arg;
        field.guard_key = field.class_key.empty()
                              ? ann.arg
                              : field.class_key + "::" + ann.arg;
      } else {
        field.affinity = ann.arg;
      }
      field.line = ann.line;
      ann_bound_[a] = true;
    }
    out_.fields.push_back(std::move(field));
  }

  /// Attempts to parse a function definition starting at the current
  /// token; on failure just advances one token.
  void try_function_def() {
    // Find the name: an identifier directly followed by '(' (with the
    // `operator` family folded into one name).
    const std::size_t start = i_;
    std::size_t name_at = i_;
    std::string name = t_[i_].text;
    if (name == "operator") {
      // operator+, operator(), operator[], operator bool, ...
      std::size_t j = i_ + 1;
      if (punct_at(j, "(") && punct_at(j + 1, ")")) {
        name = "operator()";
        j += 2;
      } else {
        while (j < t_.size() && !punct_at(j, "(") && t_[j].text != ";" &&
               t_[j].text != "{" && j < i_ + 6) {
          name += t_[j].text;
          ++j;
        }
      }
      if (!punct_at(j, "(")) {
        ++i_;
        return;
      }
      name_at = j - 1;
    } else {
      if (statement_keywords().count(name) > 0 || !punct_at(i_ + 1, "(")) {
        ++i_;
        return;
      }
      // A member access at namespace scope is never a definition.
      if (i_ > 0 && (punct_at(i_ - 1, ".") || punct_at(i_ - 1, "->"))) {
        ++i_;
        return;
      }
    }
    // Collect the qualified prefix written before the name: `A::B::name`
    // (destructors fold '~' into the component).
    std::vector<std::string> written{name};
    std::size_t k = start;
    if (k > 0 && punct_at(k - 1, "~")) {
      written.back() = "~" + written.back();
      --k;
    }
    while (k >= 2 && punct_at(k - 1, "::") &&
           t_[k - 2].kind == Token::Kind::kIdent) {
      written.insert(written.begin(), t_[k - 2].text);
      k -= 2;
    }
    // Parameter list.
    std::size_t params_open = name_at + 1;
    std::size_t after = skip_group(t_, params_open);
    if (after >= t_.size()) {
      ++i_;
      return;
    }
    // Absorb the bits between the parameter list and the body.
    std::size_t j = after;
    bool is_def = false;
    for (std::size_t guard = 0; j < t_.size() && guard < 64; ++guard) {
      const std::string& s = t_[j].text;
      if (s == "{") {
        is_def = true;
        break;
      }
      if (s == ";") {
        i_ = j + 1;  // declaration
        return;
      }
      if (s == "=") {
        skip_declaration_tail(j);  // = default / = delete / = 0
        return;
      }
      if (s == ":") {
        if (!absorb_member_init_list(j)) {
          ++i_;
          return;
        }
        is_def = punct_at(j, "{");
        break;
      }
      if (s == "(") {  // noexcept(...), decltype in trailing return
        j = skip_group(t_, j);
        continue;
      }
      if (s == "<") {
        const std::size_t skipped = skip_angles(t_, j);
        j = skipped == j ? j + 1 : skipped;
        continue;
      }
      if (t_[j].kind == Token::Kind::kIdent || s == "&" || s == "&&" ||
          s == "*" || s == "->" || s == "," || s == "::" || s == "[" ||
          s == "]" || s == ">") {
        ++j;
        continue;
      }
      ++i_;  // something unexpected: not a definition
      return;
    }
    if (!is_def || !punct_at(j, "{")) {
      i_ = std::max(i_ + 1, j);
      return;
    }
    FunctionDef fn;
    fn.file = path_;
    fn.line = t_[name_at].line;
    // An `affine(root)` annotation on (or above) the definition line pins
    // the whole function to that thread root.
    const auto covering = ann_at_.find(fn.line);
    if (covering != ann_at_.end()) {
      for (const std::size_t a : covering->second) {
        if (ann_bound_[a]) continue;
        if (anns_[a].kind != FieldAnnotation::Kind::kAffine) continue;
        fn.affinity = anns_[a].arg;
        ann_bound_[a] = true;
      }
    }
    for (const ScopeEnt& scope : scopes_) {
      fn.qualified.insert(fn.qualified.end(), scope.name.begin(),
                          scope.name.end());
    }
    // Drop a written prefix that repeats the innermost scope
    // (`void Server::shutdown()` defined at namespace scope).
    fn.qualified.insert(fn.qualified.end(), written.begin(), written.end());
    fn.display = join(fn.qualified);
    parse_body(j + 1, fn);
    out_.functions.push_back(std::move(fn));
  }

  /// `= default;` / `= delete;` / `= 0;` after a declarator.
  void skip_declaration_tail(std::size_t j) {
    while (j < t_.size() && t_[j].text != ";") ++j;
    i_ = j < t_.size() ? j + 1 : t_.size();
  }

  /// Consumes a constructor member-init list starting at ':' and leaves
  /// `j` at the body's '{'. Returns false when the shape is not an init
  /// list after all.
  bool absorb_member_init_list(std::size_t& j) {
    ++j;  // past ':'
    for (std::size_t guard = 0; j < t_.size() && guard < 512; ++guard) {
      // member name (possibly qualified/templated base)
      while (j < t_.size() && (t_[j].kind == Token::Kind::kIdent ||
                               t_[j].text == "::")) {
        ++j;
      }
      if (punct_at(j, "<")) j = skip_angles(t_, j);
      if (j >= t_.size()) return false;
      if (t_[j].text != "(" && t_[j].text != "{") return false;
      j = skip_group(t_, j);
      if (punct_at(j, ",")) {
        ++j;
        continue;
      }
      if (punct_at(j, "...")) ++j;  // pack expansion
      return punct_at(j, "{");
    }
    return false;
  }

  static std::string join(const std::vector<std::string>& parts) {
    std::string out;
    for (const std::string& p : parts) {
      if (!out.empty()) out += "::";
      out += p;
    }
    return out;
  }

  /// The scope a member name belongs to: the function's qualified name
  /// minus the function component itself.
  static std::string owner_of(const FunctionDef& fn) {
    std::string out;
    for (std::size_t q = 0; q + 1 < fn.qualified.size(); ++q) {
      if (!out.empty()) out += "::";
      out += fn.qualified[q];
    }
    return out;
  }

  /// Walks one function body starting just past its '{'; fills calls,
  /// locks, and allocs; leaves i_ just past the matching '}'.
  void parse_body(std::size_t start, FunctionDef& fn) {
    const std::string owner = owner_of(fn);
    int depth = 1;
    std::vector<ActiveLock> held;
    std::size_t throw_end = 0;  // token index bounding the active throw expr
    std::size_t j = start;
    while (j < t_.size() && depth > 0) {
      const Token& tok = t_[j];
      if (tok.kind == Token::Kind::kPunct) {
        if (tok.text == "{") {
          ++depth;
        } else if (tok.text == "}") {
          --depth;
          // Scoped guards die with their block.
          held.erase(std::remove_if(held.begin(), held.end(),
                                    [&](const ActiveLock& l) {
                                      return !l.manual && l.decl_depth > depth;
                                    }),
                     held.end());
        }
        ++j;
        continue;
      }
      if (tok.kind != Token::Kind::kIdent) {
        ++j;
        continue;
      }
      const bool in_throw = j < throw_end;
      const std::string& word = tok.text;
      if (word == "throw") {
        std::size_t e = j + 1;
        while (e < t_.size() && t_[e].text != ";" && t_[e].text != "}") ++e;
        throw_end = e;
        ++j;
        continue;
      }
      if (is_guard_type(word) && !punct_at(j + 1, "::")) {
        const std::size_t next = parse_guard(j, owner, depth, held, fn);
        if (next > j) {
          j = next;
          continue;
        }
        ++j;
        continue;
      }
      if ((word == "lock" || word == "unlock") && j > 0 &&
          (punct_at(j - 1, ".") || punct_at(j - 1, "->")) &&
          punct_at(j + 1, "(") && punct_at(j + 2, ")")) {
        if (handle_manual_lock(j, word == "lock", owner, held, fn)) {
          j += 3;
          continue;
        }
      }
      if (word == "std" && punct_at(j + 1, "::")) {
        const std::size_t next = try_flat_alloc(j, in_throw, fn);
        if (next > j) {
          j = next;
          continue;
        }
      }
      if (word == "operator") {
        ++j;
        continue;
      }
      // Plain call site: IDENT '('.
      if (punct_at(j + 1, "(") && statement_keywords().count(word) == 0 &&
          !is_guard_type(word)) {
        record_call(j, in_throw, held, fn);
      } else if (!punct_at(j + 1, "(")) {
        record_access(j, held, fn);
      }
      ++j;
    }
    i_ = j;
  }

  /// Declaration/type keywords whose appearance in value position is
  /// never a member access worth recording.
  static bool access_ignored(const std::string& word) {
    static const std::set<std::string> kWords = {
        "auto",      "bool",     "break",    "char",      "const",
        "constexpr", "continue", "default",  "double",    "enum",
        "explicit",  "false",    "float",    "inline",    "int",
        "long",      "mutable",  "nullptr",  "private",   "protected",
        "public",    "short",    "signed",   "static",    "std",
        "struct",    "this",     "true",     "try",       "typename",
        "union",     "unsigned", "using",    "void",      "volatile",
        "class",     "namespace", "template", "virtual",  "final",
        "override",  "noexcept",
    };
    return kWords.count(word) > 0;
  }

  /// Records a value-position identifier as a field access candidate: the
  /// guarded-field / thread-affinity rules filter these against the
  /// annotated-field roster at link time, so over-recording locals and
  /// type names here is harmless.
  void record_access(std::size_t j, const std::vector<ActiveLock>& held,
                     FunctionDef& fn) {
    const std::string& word = t_[j].text;
    if (statement_keywords().count(word) > 0 || access_ignored(word) ||
        is_guard_type(word)) {
      return;
    }
    if (punct_at(j + 1, "::")) return;           // scope-prefix position
    if (j > 0 && punct_at(j - 1, "::")) return;  // qualified-name component
    FieldAccess access;
    access.name = word;
    access.line = t_[j].line;
    std::size_t chain_start = j;
    if (j > 0 && (punct_at(j - 1, ".") || punct_at(j - 1, "->"))) {
      access.receiver = (j >= 2 && t_[j - 2].kind == Token::Kind::kIdent)
                            ? t_[j - 2].text
                            : std::string("<expr>");
      if (access.receiver == "this") access.receiver.clear();
      // Walk back over the receiver chain so prefix ++/-- lands on it.
      std::size_t first = j;
      while (first >= 2 &&
             (punct_at(first - 1, ".") || punct_at(first - 1, "->")) &&
             t_[first - 2].kind == Token::Kind::kIdent) {
        first -= 2;
      }
      chain_start = first;
    }
    access.write = is_write_at(j, chain_start);
    for (const ActiveLock& l : held) {
      access.held_keys.push_back(l.key);
      access.held_names.push_back(l.name);
    }
    fn.accesses.push_back(std::move(access));
  }

  /// Assignment / compound assignment / increment / decrement targeting
  /// the access at `j` (whose receiver chain starts at `chain_start`).
  bool is_write_at(std::size_t j, std::size_t chain_start) const {
    if (punct_at(j + 1, "=") && !punct_at(j + 2, "=")) return true;
    static const char* const kCompound[] = {"+", "-", "*", "/",
                                            "%", "&", "|", "^"};
    for (const char* const op : kCompound) {
      if (punct_at(j + 1, op) && punct_at(j + 2, "=")) return true;
    }
    if ((punct_at(j + 1, "+") && punct_at(j + 2, "+")) ||
        (punct_at(j + 1, "-") && punct_at(j + 2, "-"))) {
      return true;
    }
    if (chain_start >= 2 &&
        ((punct_at(chain_start - 1, "+") && punct_at(chain_start - 2, "+")) ||
         (punct_at(chain_start - 1, "-") && punct_at(chain_start - 2, "-")))) {
      return true;
    }
    return false;
  }

  /// `std::lock_guard [<T>] var ( args )` and friends. Returns the index
  /// just past the declaration, or `j` when it isn't a guard declaration.
  std::size_t parse_guard(std::size_t j, const std::string& owner, int depth,
                          std::vector<ActiveLock>& held, FunctionDef& fn) {
    std::size_t k = j + 1;
    if (punct_at(k, "<")) {
      const std::size_t skipped = skip_angles(t_, k);
      if (skipped == k) return j;
      k = skipped;
    }
    std::string var;
    if (k < t_.size() && t_[k].kind == Token::Kind::kIdent) {
      var = t_[k].text;
      ++k;
    }
    if (!punct_at(k, "(") && !punct_at(k, "{")) return j;
    const std::size_t args_open = k;
    const std::size_t past = skip_group(t_, args_open);
    // Split the top-level comma-separated arguments.
    std::vector<std::vector<std::size_t>> args(1);
    int inner = 0;
    for (std::size_t a = args_open + 1; a + 1 < past; ++a) {
      const std::string& s = t_[a].text;
      if (s == "(" || s == "{" || s == "[" || s == "<") ++inner;
      else if (s == ")" || s == "}" || s == "]" || s == ">") --inner;
      else if (s == "," && inner == 0) {
        args.emplace_back();
        continue;
      }
      args.back().push_back(a);
    }
    bool deferred = false;
    std::vector<std::string> mutexes;
    for (const auto& arg : args) {
      std::string last_ident;
      bool tag = false;
      for (const std::size_t a : arg) {
        if (t_[a].kind != Token::Kind::kIdent) continue;
        if (t_[a].text == "defer_lock" || t_[a].text == "adopt_lock" ||
            t_[a].text == "try_to_lock") {
          tag = true;
          if (t_[a].text == "defer_lock" || t_[a].text == "adopt_lock") {
            deferred = true;  // adopt: already held via manual .lock()
          }
        }
        if (t_[a].text != "std") last_ident = t_[a].text;
      }
      if (!tag && !last_ident.empty()) mutexes.push_back(last_ident);
    }
    if (!deferred) {
      std::vector<std::string> held_keys, held_names;
      for (const ActiveLock& l : held) {
        held_keys.push_back(l.key);
        held_names.push_back(l.name);
      }
      for (const std::string& m : mutexes) {
        LockAcquire acq;
        acq.name = m;
        acq.key = owner.empty() ? m : owner + "::" + m;
        acq.line = t_[j].line;
        acq.held_keys = held_keys;    // siblings of one scoped_lock do not
        acq.held_names = held_names;  // order against each other
        fn.locks.push_back(acq);
      }
      for (const std::string& m : mutexes) {
        ActiveLock l;
        l.name = m;
        l.key = owner.empty() ? m : owner + "::" + m;
        l.guard_var = var;
        l.decl_depth = depth;
        held.push_back(l);
      }
    }
    return past;
  }

  /// Statement-position `mu.lock()` / `mu.unlock()` (and guard.unlock()).
  /// Value-position calls like `weak.lock()` are left to call recording.
  bool handle_manual_lock(std::size_t j, bool is_lock, const std::string& owner,
                          std::vector<ActiveLock>& held, FunctionDef& fn) {
    // Receiver chain: IDENT ((. | -> | ::) IDENT)* directly before.
    std::size_t first = j - 1;  // at '.' or '->'
    std::string receiver;
    while (first > 0) {
      if (t_[first].kind == Token::Kind::kPunct &&
          (t_[first].text == "." || t_[first].text == "->" ||
           t_[first].text == "::")) {
        --first;
        continue;
      }
      if (t_[first].kind == Token::Kind::kIdent) {
        if (receiver.empty()) receiver = t_[first].text;
        if (first == 0) break;
        const std::string& prev = t_[first - 1].text;
        if (prev == "." || prev == "->" || prev == "::") {
          --first;
          continue;
        }
      }
      break;
    }
    // The chain must start a statement for this to be a mutex operation.
    const std::string& before =
        first > 0 ? t_[first - 1].text : std::string(";");
    if (before != ";" && before != "{" && before != "}" && before != ")") {
      return false;
    }
    // The mutex (or guard) name is the identifier right before `.lock`.
    std::string name;
    if (j >= 2 && t_[j - 2].kind == Token::Kind::kIdent) name = t_[j - 2].text;
    if (name.empty()) return false;
    if (is_lock) {
      std::vector<std::string> held_keys, held_names;
      for (const ActiveLock& l : held) {
        held_keys.push_back(l.key);
        held_names.push_back(l.name);
      }
      LockAcquire acq;
      acq.name = name;
      acq.key = owner.empty() ? name : owner + "::" + name;
      acq.line = t_[j].line;
      acq.held_keys = std::move(held_keys);
      acq.held_names = std::move(held_names);
      fn.locks.push_back(acq);
      ActiveLock l;
      l.name = name;
      l.key = acq.key;
      l.manual = true;
      held.push_back(l);
    } else {
      // Release by guard variable first, then by mutex name, newest first.
      for (auto it = held.rbegin(); it != held.rend(); ++it) {
        if (it->guard_var == name || it->name == name) {
          held.erase(std::next(it).base());
          break;
        }
      }
    }
    return true;
  }

  /// `std::string x` / `std::string(...)` / `std::vector<char> v` — the
  /// flat-copy constructions the hot-path rule bans. Returns the index
  /// just past the matched type name, or `j` when there is no match.
  std::size_t try_flat_alloc(std::size_t j, bool in_throw, FunctionDef& fn) {
    const std::size_t type_at = j + 2;
    if (type_at >= t_.size() || t_[type_at].kind != Token::Kind::kIdent) {
      return j;
    }
    const std::string& type = t_[type_at].text;
    std::size_t end = type_at + 1;
    std::string what;
    if (type == "string") {
      what = "std::string";
    } else if (type == "vector" && punct_at(end, "<")) {
      const std::size_t past = skip_angles(t_, end);
      if (past == end) return j;
      std::string flat;
      for (std::size_t a = end + 1; a + 1 < past; ++a) {
        if (t_[a].kind == Token::Kind::kIdent &&
            (t_[a].text == "char" || t_[a].text == "uint8_t" ||
             t_[a].text == "int8_t" || t_[a].text == "byte")) {
          flat = t_[a].text;
        }
      }
      if (flat.empty()) return j;
      what = "std::vector<" + flat + ">";
      end = past;
    } else {
      return j;
    }
    // Construction position: a declared variable or a temporary. A
    // reference/pointer/parameter-ish use (&, *, >, comma, closer) is not
    // a construction.
    if (end < t_.size() &&
        (t_[end].kind == Token::Kind::kIdent || t_[end].text == "(" ||
         t_[end].text == "{")) {
      fn.allocs.push_back(FlatAlloc{what, t_[type_at].line, in_throw});
    }
    return end;
  }

  /// Keywords that may directly precede a call expression. Any OTHER
  /// identifier before `name(` means `Type name(args)` — a declaration,
  /// not a call (`Bytes copy(...)` must not become an edge to a `copy`
  /// method somewhere in the repo).
  static bool value_position_keyword(const std::string& word) {
    static const std::set<std::string> kWords = {
        "return", "co_return", "co_await", "co_yield",
        "throw",  "case",      "else",     "do",
    };
    return kWords.count(word) > 0;
  }

  void record_call(std::size_t j, bool in_throw,
                   const std::vector<ActiveLock>& held, FunctionDef& fn) {
    CallSite call;
    call.line = t_[j].line;
    call.in_throw = in_throw;
    call.path.push_back(t_[j].text);
    // Qualified prefix written at the call site.
    std::size_t k = j;
    while (k >= 2 && punct_at(k - 1, "::") &&
           t_[k - 2].kind == Token::Kind::kIdent) {
      call.path.insert(call.path.begin(), t_[k - 2].text);
      k -= 2;
    }
    // `::open(fd, ...)` — a bare global qualifier marks a libc/system
    // call. Every repo function lives in a namespace, so the call cannot
    // resolve here and must not match repo methods (`::shutdown(fd, ...)`
    // is not an edge to Server::shutdown, and `::accept` on a
    // nonblocking fd is not the repo's blocking TcpListener::accept).
    if (k >= 1 && punct_at(k - 1, "::") &&
        (k < 2 || t_[k - 2].kind != Token::Kind::kIdent)) {
      return;
    }
    // Receiver before a trailing `.`/`->` on the first component. A
    // non-identifier receiver expression (`policy_.file().attribute()`)
    // is recorded as "<expr>" so resolution knows this is a member call
    // on some other object, not an implicit-this call.
    if (k >= 1 && (punct_at(k - 1, ".") || punct_at(k - 1, "->"))) {
      call.receiver = (k >= 2 && t_[k - 2].kind == Token::Kind::kIdent)
                          ? t_[k - 2].text
                          : std::string("<expr>");
    } else if (call.path.size() == 1 && k >= 1 &&
               t_[k - 1].kind == Token::Kind::kIdent &&
               !value_position_keyword(t_[k - 1].text)) {
      return;  // `Type name(args)` — a declaration, not a call
    }
    for (const ActiveLock& l : held) {
      call.held_keys.push_back(l.key);
      call.held_names.push_back(l.name);
    }
    // `cv.wait(guard, ...)`: the guard's lock is released while waiting.
    if ((t_[j].text == "wait" || t_[j].text == "wait_for" ||
         t_[j].text == "wait_until") &&
        !call.receiver.empty() && punct_at(j + 1, "(") &&
        j + 2 < t_.size() && t_[j + 2].kind == Token::Kind::kIdent &&
        (punct_at(j + 3, ",") || punct_at(j + 3, ")"))) {
      const std::string& arg = t_[j + 2].text;
      for (const ActiveLock& l : held) {
        if (!l.guard_var.empty() && l.guard_var == arg) {
          call.released_key = l.key;
          break;
        }
      }
    }
    fn.calls.push_back(std::move(call));
  }

  const std::string& path_;
  const std::vector<Token>& t_;
  const std::vector<FieldAnnotation>& anns_;
  std::vector<char> ann_bound_;  // parallel to anns_: bound to a decl?
  std::map<int, std::vector<std::size_t>> ann_at_;  // line -> covering anns
  std::size_t i_ = 0;
  std::vector<ScopeEnt> scopes_;
  FileGraph out_;
};

bool ends_with_components(const std::vector<std::string>& qualified,
                          const std::vector<std::string>& suffix) {
  if (suffix.size() > qualified.size()) return false;
  const std::size_t off = qualified.size() - suffix.size();
  for (std::size_t i = 0; i < suffix.size(); ++i) {
    if (qualified[off + i] != suffix[i]) return false;
  }
  return true;
}

}  // namespace

std::vector<std::string> split_qualified(const std::string& name) {
  std::vector<std::string> parts;
  std::size_t pos = 0;
  while (pos <= name.size()) {
    const std::size_t next = name.find("::", pos);
    if (next == std::string::npos) {
      parts.push_back(name.substr(pos));
      break;
    }
    parts.push_back(name.substr(pos, next - pos));
    pos = next + 2;
  }
  parts.erase(std::remove(parts.begin(), parts.end(), std::string()),
              parts.end());
  return parts;
}

FileGraph parse_file_graph(const std::string& path, const Scan& scan) {
  return FileParser(path, scan).run();
}

namespace {

/// src/<sub>/... -> "sub" (matching lint.cpp's layering rule); "" outside.
std::string file_subsystem(const std::string& rel_path) {
  if (rel_path.rfind("src/", 0) != 0) return {};
  const std::string below = rel_path.substr(4);
  const std::size_t slash = below.find('/');
  return slash == std::string::npos ? below : below.substr(0, slash);
}

}  // namespace

CallGraph::CallGraph(const std::vector<const FileGraph*>& files,
                     std::map<std::string, std::set<std::string>> layering)
    : layering_(std::move(layering)) {
  std::map<std::string, int> by_display;
  for (const FileGraph* fg : files) {
    for (const FunctionDef& fn : fg->functions) {
      auto [it, inserted] = by_display.emplace(
          fn.display, static_cast<int>(nodes_.size()));
      if (inserted) {
        Node node;
        node.display = fn.display;
        node.qualified = fn.qualified;
        nodes_.push_back(std::move(node));
      }
      nodes_[it->second].defs.push_back(&fn);
      nodes_[it->second].subsystems.insert(file_subsystem(fn.file));
    }
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    by_last_[nodes_[i].qualified.back()].push_back(static_cast<int>(i));
  }
  for (std::size_t i = 0; i < nodes_.size(); ++i) {
    std::set<int> targets;
    for (const FunctionDef* def : nodes_[i].defs) {
      for (const CallSite& call : def->calls) {
        for (const int target : resolve_call(nodes_[i], call)) {
          targets.insert(target);
        }
      }
    }
    targets.erase(static_cast<int>(i));  // self-recursion adds nothing
    nodes_[i].callees.assign(targets.begin(), targets.end());
  }
}

bool CallGraph::add_edge(const std::string& caller, const std::string& callee) {
  const std::vector<int> from = match_suffix(caller);
  const std::vector<int> to = match_suffix(callee);
  if (from.empty() || to.empty()) return false;
  for (const int f : from) {
    for (const int t : to) {
      if (t == f) continue;
      auto& out = nodes_[f].callees;
      if (std::find(out.begin(), out.end(), t) == out.end()) out.push_back(t);
    }
  }
  return true;
}

std::vector<int> CallGraph::resolve(
    const std::vector<std::string>& path) const {
  std::vector<int> out;
  if (path.empty()) return out;
  const auto it = by_last_.find(path.back());
  if (it == by_last_.end()) return out;
  for (const int idx : it->second) {
    if (ends_with_components(nodes_[idx].qualified, path)) out.push_back(idx);
  }
  return out;
}

std::vector<int> CallGraph::match_suffix(const std::string& pattern) const {
  return resolve(split_qualified(pattern));
}

bool CallGraph::same_scope(const Node& a, const Node& b) {
  return a.qualified.size() == b.qualified.size() &&
         a.qualified.size() >= 2 &&
         std::equal(a.qualified.begin(), a.qualified.end() - 1,
                    b.qualified.begin());
}

bool CallGraph::edge_allowed(const Node& caller, const Node& callee) const {
  if (layering_.empty()) return true;
  for (const std::string& from : caller.subsystems) {
    if (from.empty()) return true;  // tools compose freely
    const auto allowed = layering_.find(from);
    for (const std::string& to : callee.subsystems) {
      if (to == from) return true;
      if (allowed != layering_.end() && allowed->second.count(to) > 0) {
        return true;
      }
    }
  }
  return false;
}

std::vector<int> CallGraph::resolve_call(const Node& caller,
                                         const CallSite& call) const {
  // `cv.wait(guard, ...)` is a condition-variable wait, not a call into
  // the graph — a repo function that happens to be named `wait` (e.g.
  // net::Poller's) must not inherit the cv's call sites.
  if (!call.released_key.empty()) return {};
  const bool implicit = call.receiver.empty() || call.receiver == "this";
  const bool unqualified = call.path.size() == 1;
  std::vector<int> out;
  for (const int n : resolve(call.path)) {
    if (!edge_allowed(caller, nodes_[n])) continue;
    // `x.f()` names some OTHER object: a same-class candidate would alias
    // this instance's locks under our class-keyed lock identity, so the
    // explicit receiver drops it (`policy_.file().attribute()` is not a
    // recursive QualityManager::attribute call).
    if (!implicit && unqualified && same_scope(caller, nodes_[n])) continue;
    out.push_back(n);
  }
  if (implicit && unqualified && out.size() > 1) {
    std::vector<int> same;
    for (const int n : out) {
      if (same_scope(caller, nodes_[n])) same.push_back(n);
    }
    if (!same.empty()) return same;
  }
  // An ambiguous receiver-ful call (`plans_.size()`, `counter.load(...)`)
  // is almost always an STL member whose name collides with repo methods;
  // fanning out to every candidate wires sibling classes' locks together.
  // The receiver's type is unknowable here, so resolve only a unique
  // match and let `sbqlint:edge` declare the ones that matter.
  if (!implicit && unqualified && out.size() > 1) return {};
  return out;
}

std::vector<bool> CallGraph::reach(const std::vector<int>& roots,
                                   std::vector<int>* parent) const {
  std::vector<bool> seen(nodes_.size(), false);
  if (parent) parent->assign(nodes_.size(), -1);
  std::vector<int> queue;
  for (const int r : roots) {
    if (r >= 0 && r < static_cast<int>(nodes_.size()) && !seen[r]) {
      seen[r] = true;
      queue.push_back(r);
    }
  }
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const int n = queue[head];
    for (const int callee : nodes_[n].callees) {
      if (seen[callee]) continue;
      seen[callee] = true;
      if (parent) (*parent)[callee] = n;
      queue.push_back(callee);
    }
  }
  return seen;
}

std::string CallGraph::path_to(int node, const std::vector<int>& parent) const {
  std::vector<int> chain;
  for (int n = node; n >= 0; n = parent[n]) {
    chain.push_back(n);
    if (chain.size() > nodes_.size()) break;  // defensive
  }
  std::string out;
  for (auto it = chain.rbegin(); it != chain.rend(); ++it) {
    if (!out.empty()) out += " -> ";
    out += nodes_[*it].display;
  }
  return out;
}

std::size_t CallGraph::edge_count() const {
  std::size_t n = 0;
  for (const Node& node : nodes_) n += node.callees.size();
  return n;
}

}  // namespace sbq::lint
