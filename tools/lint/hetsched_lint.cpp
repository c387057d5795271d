// hetsched_lint — repo-specific static checks no generic tool enforces.
//
// The library's correctness story rests on contracts that live between the
// lines of the C++ type system, so clang-tidy cannot see them:
//
//   [float-compare]   Raw `==`/`!=` on doubles is forbidden outside
//                     src/util/ and analysis_constants.h.  The engines'
//                     bit-identity guarantees make exact FP comparison a
//                     deliberate, documented act — every remaining site
//                     must carry `hetsched-lint: allow(float-compare)`.
//   [assert-abort]    Library code must fail through HETSCHED_CHECK* (one
//                     abort path, with source location and a message), not
//                     bare assert()/abort(), which NDEBUG silently strips
//                     or which lose the diagnostic.
//   [nondeterminism]  std::random_device, rand()/srand(), and unseeded
//                     standard engines break the repo's determinism
//                     contract (every experiment replays bit-for-bit from
//                     a seed); all randomness must flow through util/rng.h.
//   [noalloc]         Functions annotated `// HETSCHED_NOALLOC` are the
//                     warm admit/depart and first_fit_accepts paths plus
//                     the net/ per-frame decode/route/process/encode
//                     handlers, which must not allocate: `new`, `delete`,
//                     the C allocators (malloc/calloc/realloc/strdup),
//                     std::function construction, and push_back/
//                     emplace_back/resize/reserve on anything that is not
//                     a PartitionScratch member are flagged.  Amortized
//                     arena growth is suppressed per line with
//                     `hetsched-lint: allow(noalloc)`.
//   [metric-handle]   HETSCHED_COUNT/HETSCHED_TIMED/HETSCHED_GAUGE_*/
//                     HETSCHED_HIST_RECORD/HETSCHED_SPAN_RECORD/
//                     HETSCHED_FLIGHT_RECORD uses
//                     inside a HETSCHED_NOALLOC or HETSCHED_OWNER_LOOP
//                     function must pass pre-registered handles and plain
//                     values: a string literal or a registry() call in the
//                     macro argument means the hot path is registering by
//                     name (which locks and allocates on first hit).
//   [owner-loop-blocking]
//                     Functions annotated `// HETSCHED_OWNER_LOOP` run on
//                     a thread-per-core owner loop (src/net/server.cc) or
//                     the online warm path and must never block: fsync/
//                     fdatasync, every sleep flavor, condition-variable
//                     timed waits, blocking connect(), and system()/popen()
//                     are banned, as is any write/send loop with no
//                     EAGAIN/EWOULDBLOCK exit.  A one-level intra-TU call
//                     graph extends the check to helpers the annotated
//                     function calls by name in the same file.
//   [lock-order]      std::lock_guard/unique_lock/scoped_lock acquisition
//                     order is recorded per function across src/net and
//                     src/io (mutexes keyed by their final member name);
//                     any pair of mutexes acquired in both orders anywhere
//                     in the batch is a potential ABBA deadlock and both
//                     sites are flagged.
//   [parser-bounds]   In src/net and src/io, functions whose name has a
//                     decode/parse/load/read segment consume untrusted
//                     bytes: every memcpy/memmove/get_u16/get_u32/get_u64
//                     and pointer advance must be dominated by a length
//                     check (a `<`/`<=`/`>`/`>=` comparison over a length-
//                     like quantity earlier in the function).
//   [stale-allow]     A `hetsched-lint: allow(<rule>)` comment that
//                     suppresses nothing is itself an error: documented
//                     exceptions must not outlive the code they excuse.
//                     (Not suppressible, by construction.)
//
// Scanning is lexical (comments and string literals are stripped first),
// but rules 6–8 run over a brace-matched function extractor: a small lexer
// walks every file, skips preprocessor directives, classifies each `{` as
// namespace / aggregate / function / other, and records per-function line
// ranges, names, and annotation scopes (generalizing the original
// HETSCHED_NOALLOC region finder).  The rules are tuned to this codebase
// and verified two ways by CTest: `lint_tree` must report zero violations
// on src/, and `lint_fixtures` runs every file in tools/lint/testdata/ and
// requires each declared `EXPECT-VIOLATION: <rule>` to fire — so a rule
// that silently stops matching fails CI just like a rule that starts
// firing on clean code.
//
// Usage:
//   hetsched_lint --root <repo-root>      # scan <repo-root>/src
//   hetsched_lint --fixtures <dir>        # self-test against fixtures
//   hetsched_lint <file>...               # scan specific files
#include <algorithm>
#include <cctype>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Violation {
  std::string file;
  std::size_t line = 0;  // 1-based
  std::string rule;
  std::string message;
};

struct FileText {
  std::string path;
  std::vector<std::string> raw;   // original lines
  std::vector<std::string> code;  // comments and literals blanked out
};

bool is_ident_char(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) != 0 || c == '_';
}

// Blanks out comments, string literals, and char literals, preserving line
// structure so diagnostics keep their line numbers.
std::vector<std::string> strip_comments_and_literals(
    const std::vector<std::string>& raw) {
  std::vector<std::string> out;
  out.reserve(raw.size());
  bool in_block_comment = false;
  for (const std::string& line : raw) {
    std::string code(line.size(), ' ');
    for (std::size_t i = 0; i < line.size();) {
      if (in_block_comment) {
        if (line[i] == '*' && i + 1 < line.size() && line[i + 1] == '/') {
          in_block_comment = false;
          i += 2;
        } else {
          ++i;
        }
        continue;
      }
      const char c = line[i];
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '/') break;
      if (c == '/' && i + 1 < line.size() && line[i + 1] == '*') {
        in_block_comment = true;
        i += 2;
        continue;
      }
      if (c == '"' || c == '\'') {
        const char quote = c;
        code[i] = quote;
        ++i;
        while (i < line.size()) {
          if (line[i] == '\\') {
            i += 2;
            continue;
          }
          if (line[i] == quote) {
            code[i] = quote;
            ++i;
            break;
          }
          ++i;
        }
        continue;
      }
      code[i] = c;
      ++i;
    }
    out.push_back(std::move(code));
  }
  return out;
}

// ------------------------------------------------------------ suppressions

// A `hetsched-lint: allow(<rule>)` comment suppresses <rule> on its own
// line and on the line after it (so the comment can sit above the code).
// Each site tracks whether it actually suppressed anything: a site that
// never fires is reported as [stale-allow] at the end of the batch.
struct AllowSite {
  std::string rule;
  std::size_t line = 0;  // 1-based line of the comment
  bool used = false;
};

struct Suppressions {
  std::vector<AllowSite> sites;
  // rule -> covered 1-based line -> indices into `sites`.
  std::map<std::string, std::map<std::size_t, std::vector<std::size_t>>> cover;
};

Suppressions collect_suppressions(const std::vector<std::string>& raw) {
  Suppressions out;
  const std::string marker = "hetsched-lint: allow(";
  for (std::size_t i = 0; i < raw.size(); ++i) {
    std::size_t pos = 0;
    while ((pos = raw[i].find(marker, pos)) != std::string::npos) {
      pos += marker.size();
      const std::size_t close = raw[i].find(')', pos);
      if (close == std::string::npos) break;
      const std::string rule = raw[i].substr(pos, close - pos);
      const std::size_t idx = out.sites.size();
      out.sites.push_back({rule, i + 1, false});
      out.cover[rule][i + 1].push_back(idx);
      out.cover[rule][i + 2].push_back(idx);
      pos = close;
    }
  }
  return out;
}

bool suppressed(Suppressions& sup, const std::string& rule,
                std::size_t line) {
  const auto it = sup.cover.find(rule);
  if (it == sup.cover.end()) return false;
  const auto jt = it->second.find(line);
  if (jt == it->second.end()) return false;
  for (const std::size_t idx : jt->second) sup.sites[idx].used = true;
  return true;
}

const std::set<std::string>& known_rules() {
  static const std::set<std::string> kRules = {
      "float-compare", "assert-abort",        "nondeterminism",
      "noalloc",       "metric-handle",       "owner-loop-blocking",
      "lock-order",    "parser-bounds"};
  return kRules;
}

void check_stale_allows(const FileText& file, const Suppressions& sup,
                        std::vector<Violation>* out) {
  for (const AllowSite& site : sup.sites) {
    if (site.used) continue;
    const bool known = known_rules().count(site.rule) > 0;
    out->push_back({file.path, site.line, "stale-allow",
                    known ? "allow(" + site.rule +
                                ") suppresses nothing; delete the stale "
                                "suppression or restore the code it excused"
                          : "allow(" + site.rule +
                                ") names a rule hetsched_lint does not "
                                "have"});
  }
}

// True if `text` contains `token` as a whole identifier at some position;
// reports the first such position via `*pos`.
bool find_word(const std::string& text, const std::string& token,
               std::size_t* pos, std::size_t start = 0) {
  for (std::size_t at = text.find(token, start); at != std::string::npos;
       at = text.find(token, at + 1)) {
    const bool left_ok = at == 0 || !is_ident_char(text[at - 1]);
    const std::size_t end = at + token.size();
    const bool right_ok = end >= text.size() || !is_ident_char(text[end]);
    if (left_ok && right_ok) {
      *pos = at;
      return true;
    }
  }
  return false;
}

// True if `token` occurs as a whole word immediately followed by `(`
// (optionally separated by spaces) — i.e. looks like a call.
bool find_call(const std::string& line, const std::string& token,
               std::size_t* pos, std::size_t start = 0) {
  std::size_t at = start;
  while (find_word(line, token, &at, at)) {
    std::size_t after = at + token.size();
    while (after < line.size() && line[after] == ' ') ++after;
    if (after < line.size() && line[after] == '(') {
      *pos = at;
      return true;
    }
    at = at + token.size();
  }
  return false;
}

// ------------------------------------------------------ function extractor

// A brace-matched function definition.  Code lines [open_line, body_end)
// belong to it (the signature tail on the `{` line included, matching the
// original HETSCHED_NOALLOC region finder's semantics).
struct Function {
  std::string name;       // unqualified: `Server::drain_readable` -> same
  std::size_t sig_line = 0;   // 0-based line where the signature started
  std::size_t open_line = 0;  // 0-based line of the opening `{`
  std::size_t open_col = 0;
  std::size_t body_end = 0;  // 0-based line AFTER the closing `}` line
};

// Lines that are preprocessor directives (including `\` continuations) are
// invisible to the extractor: multi-line macros (util/check.h) carry brace
// tokens that would otherwise corrupt the depth tracking.
std::vector<bool> directive_mask(const std::vector<std::string>& raw) {
  std::vector<bool> mask(raw.size(), false);
  bool continued = false;
  for (std::size_t i = 0; i < raw.size(); ++i) {
    const std::string& line = raw[i];
    std::size_t j = 0;
    while (j < line.size() &&
           std::isspace(static_cast<unsigned char>(line[j])) != 0) {
      ++j;
    }
    const bool directive = continued || (j < line.size() && line[j] == '#');
    mask[i] = directive;
    continued = directive && !line.empty() && line.back() == '\\';
  }
  return mask;
}

std::string trim(const std::string& s) {
  std::size_t a = 0;
  std::size_t b = s.size();
  while (a < b && s[a] == ' ') ++a;
  while (b > a && s[b - 1] == ' ') --b;
  return s.substr(a, b - a);
}

// Drops leading `template <...>` groups from a pending signature so the
// keyword / `=` heuristics below see only the declaration itself.
std::string strip_template_intro(std::string s) {
  for (;;) {
    s = trim(s);
    if (s.rfind("template", 0) != 0) return s;
    const std::size_t lt = s.find('<');
    if (lt == std::string::npos) return s;
    int depth = 0;
    std::size_t i = lt;
    for (; i < s.size(); ++i) {
      if (s[i] == '<') ++depth;
      if (s[i] == '>' && --depth == 0) break;
    }
    if (i >= s.size()) return s;
    s = s.substr(i + 1);
  }
}

enum class BlockKind { kNamespace, kAggregate, kFunction, kOther, kPlain };

bool pending_has_keyword_before(const std::string& pending,
                                const std::string& kw, std::size_t limit) {
  std::size_t pos = 0;
  return find_word(pending, kw, &pos) && pos < limit;
}

BlockKind classify_pending(const std::string& raw_pending,
                           std::string* name_out) {
  const std::string pending = strip_template_intro(raw_pending);
  std::size_t unused = 0;
  if (find_word(pending, "namespace", &unused)) return BlockKind::kNamespace;
  const std::size_t paren = pending.find('(');
  const std::size_t limit =
      paren == std::string::npos ? pending.size() : paren;
  for (const char* kw : {"struct", "class", "union", "enum"}) {
    if (pending_has_keyword_before(pending, kw, limit)) {
      return BlockKind::kAggregate;
    }
  }
  if (paren == std::string::npos) return BlockKind::kOther;
  if (pending.find('=') < paren) return BlockKind::kOther;
  // Name = identifier immediately before the first `(`.
  std::size_t i = paren;
  while (i > 0 && pending[i - 1] == ' ') --i;
  const std::size_t stop = i;
  while (i > 0 && is_ident_char(pending[i - 1])) --i;
  if (i == stop) return BlockKind::kOther;
  const std::string name = pending.substr(i, stop - i);
  static const std::set<std::string> kControl = {
      "if", "for", "while", "switch", "catch", "do", "return"};
  if (kControl.count(name) > 0) return BlockKind::kOther;
  *name_out = name;
  return BlockKind::kFunction;
}

std::vector<Function> extract_functions(const FileText& file) {
  struct Frame {
    BlockKind kind;
    std::size_t func_index = 0;  // into `open`, when kind == kFunction
  };
  const std::vector<bool> directives = directive_mask(file.raw);
  std::vector<Function> done;
  std::vector<Function> open;
  std::vector<Frame> stack;
  std::string pending;
  std::size_t pending_line = 0;
  const auto in_function = [&]() {
    for (const Frame& f : stack) {
      if (f.kind == BlockKind::kFunction) return true;
    }
    return false;
  };
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    if (directives[li]) continue;
    const std::string& line = file.code[li];
    for (std::size_t ci = 0; ci < line.size(); ++ci) {
      const char c = line[ci];
      if (c == '{') {
        if (in_function()) {
          stack.push_back({BlockKind::kPlain, 0});
        } else {
          std::string name;
          const BlockKind kind = classify_pending(pending, &name);
          Frame frame{kind, 0};
          if (kind == BlockKind::kFunction) {
            Function fn;
            fn.name = name;
            fn.sig_line = pending_line;
            fn.open_line = li;
            fn.open_col = ci;
            frame.func_index = open.size();
            open.push_back(fn);
          }
          stack.push_back(frame);
        }
        pending.clear();
        continue;
      }
      if (c == '}') {
        if (!stack.empty()) {
          const Frame frame = stack.back();
          stack.pop_back();
          if (frame.kind == BlockKind::kFunction) {
            Function fn = open[frame.func_index];
            fn.body_end = li + 1;
            done.push_back(fn);
          }
        }
        pending.clear();
        continue;
      }
      if (c == ';') {
        pending.clear();
        continue;
      }
      if (in_function()) continue;
      if (c == ':' && ci + 1 < line.size() && line[ci + 1] != ':' &&
          (ci == 0 || line[ci - 1] != ':')) {
        const std::string t = trim(pending);
        if (t == "public" || t == "private" || t == "protected") {
          pending.clear();
          continue;
        }
      }
      const char normalized = (c == '\t') ? ' ' : c;
      if (normalized == ' ' && (pending.empty() || pending.back() == ' ')) {
        continue;
      }
      if (pending.empty()) pending_line = li;
      pending.push_back(normalized);
    }
    // Line break acts as whitespace in the pending signature.
    if (!pending.empty() && pending.back() != ' ') pending.push_back(' ');
  }
  std::sort(done.begin(), done.end(),
            [](const Function& a, const Function& b) {
              return a.open_line < b.open_line;
            });
  return done;
}

// --------------------------------------------------------- annotation scopes

// An annotation comment (e.g. `// HETSCHED_NOALLOC`) owns the first `{`
// within the next 11 lines — normally a function from the extractor, but a
// lambda or other unclassified block falls back to raw brace matching so
// annotated lambdas keep working exactly as before.
struct Scope {
  std::size_t annotation_line = 0;  // 0-based raw line of the annotation
  std::string name = "<lambda>";
  std::size_t open_line = 0;
  std::size_t body_end = 0;
  bool found = false;
  bool is_function = false;
  std::size_t func_index = 0;
};

std::vector<Scope> find_annotated_scopes(const FileText& file,
                                         const std::vector<Function>& fns,
                                         const std::string& marker) {
  std::vector<Scope> scopes;
  for (std::size_t li = 0; li < file.raw.size(); ++li) {
    if (file.raw[li].find(marker) == std::string::npos) continue;
    Scope scope;
    scope.annotation_line = li;
    std::size_t open_line = li + 1;
    std::size_t open_col = std::string::npos;
    for (; open_line < file.code.size() && open_line < li + 12; ++open_line) {
      open_col = file.code[open_line].find('{');
      if (open_col != std::string::npos) break;
    }
    if (open_col == std::string::npos) {
      scopes.push_back(scope);
      continue;
    }
    scope.found = true;
    for (std::size_t fi = 0; fi < fns.size(); ++fi) {
      if (fns[fi].open_line == open_line && fns[fi].open_col == open_col) {
        scope.name = fns[fi].name;
        scope.open_line = fns[fi].open_line;
        scope.body_end = fns[fi].body_end;
        scope.is_function = true;
        scope.func_index = fi;
        break;
      }
    }
    if (!scope.is_function) {
      int depth = 0;
      std::size_t body_end = file.code.size();
      for (std::size_t bl = open_line; bl < file.code.size(); ++bl) {
        const std::string& line = file.code[bl];
        const std::size_t start = bl == open_line ? open_col : 0;
        for (std::size_t ci = start; ci < line.size(); ++ci) {
          if (line[ci] == '{') ++depth;
          if (line[ci] == '}') --depth;
          if (depth == 0) {
            body_end = bl + 1;
            break;
          }
        }
        if (body_end != file.code.size()) break;
      }
      scope.open_line = open_line;
      scope.body_end = body_end;
    }
    scopes.push_back(scope);
  }
  return scopes;
}

// ----------------------------------------------------------- float-compare

bool path_exempt_from_float_rule(const std::string& path) {
  return path.find("/util/") != std::string::npos ||
         path.find("analysis_constants.h") != std::string::npos;
}

// Floating-point literal ending at (exclusive) position `end`.
bool float_literal_ends_at(const std::string& s, std::size_t end) {
  std::size_t i = end;
  bool digits = false;
  bool dot = false;
  while (i > 0) {
    const char c = s[i - 1];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      digits = true;
    } else if (c == '.') {
      dot = true;
    } else if (c == 'e' || c == 'E' || c == '+' || c == '-' || c == 'f') {
      // exponent / suffix chars; keep scanning
    } else {
      break;
    }
    --i;
  }
  return digits && dot;
}

// Floating-point literal starting at position `start`.
bool float_literal_starts_at(const std::string& s, std::size_t start) {
  std::size_t i = start;
  bool digits = false;
  bool dot = false;
  while (i < s.size()) {
    const char c = s[i];
    if (std::isdigit(static_cast<unsigned char>(c)) != 0) {
      digits = true;
    } else if (c == '.') {
      dot = true;
    } else if (c == 'e' || c == 'E' || c == 'f' ||
               ((c == '+' || c == '-') && i > start &&
                (s[i - 1] == 'e' || s[i - 1] == 'E'))) {
      // exponent / suffix chars; keep scanning
    } else {
      break;
    }
    ++i;
  }
  return digits && dot;
}

// Last identifier before position `end` (an operand like `a.b[i]` reports
// `b`: for member chains the final member name is what the double-name set
// indexes).
std::string last_ident_before(const std::string& s, std::size_t end) {
  std::size_t i = end;
  while (i > 0 && !is_ident_char(s[i - 1])) {
    const char c = s[i - 1];
    // Stop at anything that is not part of a postfix expression.
    if (c != ' ' && c != ']' && c != ')' && c != '[') return "";
    --i;
  }
  const std::size_t stop = i;
  while (i > 0 && is_ident_char(s[i - 1])) --i;
  if (i == stop) return "";
  return s.substr(i, stop - i);
}

// First operand after position `start`, following member chains: for
// `speeds.size()` the compared value is `.size()`'s result, so the LAST
// member name in the chain is reported (mirroring last_ident_before).
std::string first_ident_after(const std::string& s, std::size_t start) {
  std::size_t i = start;
  while (i < s.size() &&
         (s[i] == ' ' || s[i] == '(' || s[i] == '-' || s[i] == '+')) {
    ++i;
  }
  std::size_t from = i;
  while (i < s.size() && is_ident_char(s[i])) ++i;
  std::string name = s.substr(from, i - from);
  while (i < s.size()) {
    if (s[i] == '(' || s[i] == '[') {
      const char open = s[i];
      const char close = open == '(' ? ')' : ']';
      int depth = 0;
      while (i < s.size()) {
        if (s[i] == open) ++depth;
        if (s[i] == close && --depth == 0) {
          ++i;
          break;
        }
        ++i;
      }
    } else if (s[i] == '.' && i + 1 < s.size() && is_ident_char(s[i + 1])) {
      from = ++i;
      while (i < s.size() && is_ident_char(s[i])) ++i;
      name = s.substr(from, i - from);
    } else {
      break;
    }
  }
  return name;
}

// Names declared with double type: `double x`, `double& x`,
// `std::vector<double> xs`, `span<const double> xs`, including function
// names with a double return type.  Each file is checked against the names
// declared in headers (the API surface every TU sees) plus its own — NOT
// against other .cc files' locals, whose short names (`double s`, `double
// m`) would false-positive integer comparisons across the tree.
void collect_double_names(const FileText& file, std::set<std::string>* names) {
  static const std::vector<std::string> kPrefixes = {
      "double", "vector<double>", "span<const double>", "span<double>"};
  for (const std::string& line : file.code) {
    for (const std::string& prefix : kPrefixes) {
      std::size_t pos = 0;
      while ((pos = line.find(prefix, pos)) != std::string::npos) {
        const bool left_ok = pos == 0 || !is_ident_char(line[pos - 1]);
        std::size_t i = pos + prefix.size();
        pos = i;
        if (!left_ok) continue;
        while (i < line.size() && (line[i] == ' ' || line[i] == '&')) ++i;
        const std::size_t from = i;
        while (i < line.size() && is_ident_char(line[i])) ++i;
        if (i > from && !std::isdigit(static_cast<unsigned char>(line[from]))) {
          names->insert(line.substr(from, i - from));
        }
      }
    }
  }
}

void check_float_compare(const FileText& file,
                         const std::set<std::string>& double_names,
                         Suppressions& sup, std::vector<Violation>* out) {
  if (path_exempt_from_float_rule(file.path)) return;
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (std::size_t i = 0; i + 1 < line.size(); ++i) {
      const char c = line[i];
      if ((c != '=' && c != '!') || line[i + 1] != '=') continue;
      // Exclude <=, >=, ==/= chains, and operator==/!= declarations.
      if (i > 0 && (line[i - 1] == '<' || line[i - 1] == '>' ||
                    line[i - 1] == '=' || line[i - 1] == '!')) {
        continue;
      }
      if (i + 2 < line.size() && line[i + 2] == '=') continue;
      const std::size_t op_end = i + 2;
      const std::string left = last_ident_before(line, i);
      if (left == "operator") continue;
      const std::string right = first_ident_after(line, op_end);
      const bool left_fp = float_literal_ends_at(line, i > 0 ? i - 1 : 0) ||
                           double_names.count(left) > 0;
      std::size_t r = op_end;
      while (r < line.size() && line[r] == ' ') ++r;
      const bool right_fp = float_literal_starts_at(line, r) ||
                            double_names.count(right) > 0;
      if (!left_fp && !right_fp) continue;
      if (suppressed(sup, "float-compare", li + 1)) continue;
      out->push_back({file.path, li + 1, "float-compare",
                      "raw ==/!= on double (use an explicit tolerance, or "
                      "document exactness with hetsched-lint: "
                      "allow(float-compare))"});
      ++i;  // do not re-flag the same operator
    }
  }
}

// ------------------------------------------------------------ assert-abort

void check_assert_abort(const FileText& file, Suppressions& sup,
                        std::vector<Violation>* out) {
  if (file.path.find("util/check.h") != std::string::npos) return;
  static const std::vector<std::string> kBanned = {"assert", "abort"};
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (const std::string& token : kBanned) {
      std::size_t pos = 0;
      std::size_t from = 0;
      while (find_word(line, token, &pos, from)) {
        from = pos + token.size();
        std::size_t after = pos + token.size();
        while (after < line.size() && line[after] == ' ') ++after;
        const bool is_call = after < line.size() && line[after] == '(';
        const bool qualified =
            pos >= 5 && line.compare(pos - 5, 5, "std::") == 0;
        if (!is_call && !qualified) continue;
        if (suppressed(sup, "assert-abort", li + 1)) continue;
        out->push_back({file.path, li + 1, "assert-abort",
                        "library code must fail through HETSCHED_CHECK*, "
                        "not " + token + "()"});
      }
    }
  }
}

// ---------------------------------------------------------- nondeterminism

void check_nondeterminism(const FileText& file, Suppressions& sup,
                          std::vector<Violation>* out) {
  static const std::vector<std::string> kBanned = {
      "random_device", "srand", "rand", "mt19937", "mt19937_64",
      "default_random_engine", "minstd_rand", "minstd_rand0"};
  for (std::size_t li = 0; li < file.code.size(); ++li) {
    const std::string& line = file.code[li];
    for (const std::string& token : kBanned) {
      std::size_t pos = 0;
      if (!find_word(line, token, &pos)) continue;
      // `rand`/`srand` only count as calls or std:: references; the engine
      // and device names are banned in any position (declaration, member,
      // template argument) because a seeded std engine is still a
      // determinism hazard across libstdc++ versions.
      if (token == "rand" || token == "srand") {
        std::size_t after = pos + token.size();
        while (after < line.size() && line[after] == ' ') ++after;
        const bool is_call = after < line.size() && line[after] == '(';
        const bool qualified =
            pos >= 5 && line.compare(pos - 5, 5, "std::") == 0;
        if (!is_call && !qualified) continue;
      }
      if (suppressed(sup, "nondeterminism", li + 1)) continue;
      out->push_back({file.path, li + 1, "nondeterminism",
                      token + " breaks the determinism contract; all "
                      "randomness must flow through util/rng.h"});
    }
  }
}

// ----------------------------------------------------------------- noalloc

// Receivers rooted in a PartitionScratch (`s.`, `scratch.`, or any name
// containing "scratch") may warm up their storage.
bool scratch_receiver(const std::string& receiver) {
  if (receiver.find("scratch") != std::string::npos) return true;
  return receiver == "s" || receiver.rfind("s.", 0) == 0;
}

// Receiver chain before a `.member(` call site, e.g. `st_.residents[j]`.
std::string receiver_before(const std::string& s, std::size_t dot) {
  std::size_t i = dot;
  int bracket_depth = 0;
  while (i > 0) {
    const char c = s[i - 1];
    if (c == ']' || c == ')') {
      ++bracket_depth;
    } else if (c == '[' || c == '(') {
      if (bracket_depth == 0) break;
      --bracket_depth;
    } else if (bracket_depth == 0 && !is_ident_char(c) && c != '.' &&
               c != '_') {
      break;
    }
    --i;
  }
  return s.substr(i, dot - i);
}

void check_noalloc(const FileText& file, const std::vector<Scope>& scopes,
                   Suppressions& sup, std::vector<Violation>* out) {
  static const std::vector<std::string> kMemberCalls = {
      "push_back", "emplace_back", "resize", "reserve",
      "shrink_to_fit", "insert", "append"};
  static const std::vector<std::string> kBannedWords = {
      "new",    "delete", "make_unique", "make_shared",
      "malloc", "calloc", "realloc",     "strdup"};
  for (const Scope& body : scopes) {
    if (!body.found) {
      out->push_back({file.path, body.annotation_line + 1, "noalloc",
                      "HETSCHED_NOALLOC annotation with no function body "
                      "within 10 lines"});
      continue;
    }
    for (std::size_t bl = body.open_line; bl < body.body_end; ++bl) {
      const std::string& line = file.code[bl];
      for (const std::string& word : kBannedWords) {
        std::size_t pos = 0;
        if (!find_word(line, word, &pos)) continue;
        if (suppressed(sup, "noalloc", bl + 1)) continue;
        out->push_back({file.path, bl + 1, "noalloc",
                        "`" + word + "` inside a HETSCHED_NOALLOC function"});
      }
      std::size_t fpos = line.find("std::function");
      if (fpos != std::string::npos && !suppressed(sup, "noalloc", bl + 1)) {
        out->push_back({file.path, bl + 1, "noalloc",
                        "std::function construction inside a "
                        "HETSCHED_NOALLOC function"});
      }
      for (const std::string& call : kMemberCalls) {
        std::size_t pos = 0;
        std::size_t from = 0;
        while (find_word(line, call, &pos, from)) {
          from = pos + call.size();
          if (pos == 0 || line[pos - 1] != '.') continue;
          const std::size_t after = pos + call.size();
          if (after >= line.size() || line[after] != '(') continue;
          const std::string receiver = receiver_before(line, pos - 1);
          if (scratch_receiver(receiver)) continue;
          if (suppressed(sup, "noalloc", bl + 1)) continue;
          out->push_back(
              {file.path, bl + 1, "noalloc",
               "." + call + "() on non-scratch `" + receiver +
                   "` inside a HETSCHED_NOALLOC function"});
        }
      }
    }
  }
}

// ----------------------------------------------------------- metric-handle

// Instrumentation macros allowed in hot paths only with pre-registered
// handles (see src/obs/metrics.h).
bool metric_macro_at(const std::string& line, std::size_t* pos,
                     std::size_t* name_end, std::size_t start) {
  static const std::vector<std::string> kMacros = {
      "HETSCHED_COUNT_ADD",      "HETSCHED_COUNT",
      "HETSCHED_TIMED_SAMPLED",  "HETSCHED_TIMED",
      "HETSCHED_GAUGE_SET",      "HETSCHED_GAUGE_ADD",
      "HETSCHED_GAUGE_REGISTER", "HETSCHED_HIST_RECORD",
      "HETSCHED_SPAN_RECORD",    "HETSCHED_FLIGHT_RECORD"};
  std::size_t best = std::string::npos;
  std::size_t best_end = 0;
  for (const std::string& macro : kMacros) {
    std::size_t at = 0;
    if (!find_word(line, macro, &at, start)) continue;
    if (at < best) {
      best = at;
      best_end = at + macro.size();
    }
  }
  if (best == std::string::npos) return false;
  *pos = best;
  *name_end = best_end;
  return true;
}

void check_metric_handle(const FileText& file,
                         const std::vector<Scope>& scopes, Suppressions& sup,
                         std::vector<Violation>* out) {
  for (const Scope& body : scopes) {
    if (!body.found) continue;  // reported by check_noalloc
    for (std::size_t bl = body.open_line; bl < body.body_end; ++bl) {
      std::size_t from = 0;
      std::size_t pos = 0;
      std::size_t name_end = 0;
      while (metric_macro_at(file.code[bl], &pos, &name_end, from)) {
        from = name_end;
        // Collect the macro's parenthesized argument text, which may span
        // lines.  Literal stripping keeps the quote characters, so a
        // by-name registration is visible as a '"' in the argument.
        std::string arg;
        int depth = 0;
        bool done = false;
        std::size_t ci = name_end;
        for (std::size_t al = bl; al < body.body_end && !done; ++al) {
          const std::string& line = file.code[al];
          for (; ci < line.size(); ++ci) {
            if (line[ci] == '(') ++depth;
            if (line[ci] == ')' && --depth == 0) {
              done = true;
              break;
            }
            if (depth > 0) arg.push_back(line[ci]);
          }
          ci = 0;
        }
        std::size_t unused = 0;
        const bool by_name = arg.find('"') != std::string::npos ||
                             find_word(arg, "registry", &unused);
        if (!by_name) continue;
        if (suppressed(sup, "metric-handle", bl + 1)) continue;
        out->push_back(
            {file.path, bl + 1, "metric-handle",
             "metric/span/flight macro in a HETSCHED_NOALLOC or "
             "HETSCHED_OWNER_LOOP function must take a pre-registered "
             "handle, not a by-name registry lookup"});
      }
    }
  }
}

// ----------------------------------------------------- owner-loop-blocking

// Calls that park the calling thread.  An owner loop that blocks stops
// serving every shard it owns, so these may only run on the pacer /
// recovery / coordinator threads.
const std::vector<std::string>& blocking_calls() {
  static const std::vector<std::string> kCalls = {
      "fsync",     "fdatasync",  "syncfs", "sync_file_range",
      "sleep",     "usleep",     "nanosleep",
      "sleep_for", "sleep_until", "wait_for", "wait_until",
      "system",    "popen",      "connect"};
  return kCalls;
}

const std::vector<std::string>& write_calls() {
  static const std::vector<std::string> kCalls = {
      "write", "pwrite", "writev", "pwritev", "send", "sendto", "sendmsg"};
  return kCalls;
}

// Scans lines [begin, end) of `file` for rule-6 violations, reporting each
// at most once per line via `reported`.  `context` names the annotated
// function (and, for helpers, the call edge) in the message.
void scan_owner_scope(const FileText& file, std::size_t begin,
                      std::size_t end, const std::string& context,
                      Suppressions& sup,
                      std::set<std::size_t>* reported,
                      std::vector<Violation>* out) {
  for (std::size_t li = begin; li < end; ++li) {
    const std::string& line = file.code[li];
    for (const std::string& token : blocking_calls()) {
      std::size_t pos = 0;
      if (!find_call(line, token, &pos)) continue;
      if (reported->count(li) > 0) break;
      if (suppressed(sup, "owner-loop-blocking", li + 1)) break;
      reported->insert(li);
      out->push_back({file.path, li + 1, "owner-loop-blocking",
                      "blocking `" + token + "` " + context});
      break;
    }
  }
  // Unbounded write loops: a while/for/do body containing a write-family
  // call must also mention EAGAIN/EWOULDBLOCK, i.e. have a partial-write
  // exit.  Blocking-fd retry loops busy the owner loop for as long as the
  // peer (or disk) pleases.
  for (std::size_t li = begin; li < end; ++li) {
    const std::string& line = file.code[li];
    std::size_t kw = 0;
    bool is_loop = find_call(line, "while", &kw) || find_call(line, "for", &kw);
    if (!is_loop) {
      std::size_t dpos = 0;
      if (find_word(line, "do", &dpos)) {
        std::size_t after = dpos + 2;
        while (after < line.size() && line[after] == ' ') ++after;
        is_loop = after >= line.size() || line[after] == '{';
        kw = dpos;
      }
    }
    if (!is_loop) continue;
    // Find the loop body: first `{` (brace-matched) or `;` (single
    // statement, body = remainder of the statement) after the keyword.
    std::size_t body_begin = li;
    std::size_t body_stop = li + 1;  // exclusive
    int paren = 0;
    bool located = false;
    for (std::size_t bl = li; bl < end && !located; ++bl) {
      const std::string& bline = file.code[bl];
      for (std::size_t ci = (bl == li ? kw : 0); ci < bline.size(); ++ci) {
        const char c = bline[ci];
        if (c == '(') ++paren;
        if (c == ')') --paren;
        if (c == ';' && paren == 0) {
          body_begin = li;
          body_stop = bl + 1;
          located = true;
          break;
        }
        if (c == '{') {
          int depth = 0;
          std::size_t close = end - 1;
          bool closed = false;
          for (std::size_t cl = bl; cl < end && !closed; ++cl) {
            const std::string& cline = file.code[cl];
            for (std::size_t cj = (cl == bl ? ci : 0); cj < cline.size();
                 ++cj) {
              if (cline[cj] == '{') ++depth;
              if (cline[cj] == '}' && --depth == 0) {
                close = cl;
                closed = true;
                break;
              }
            }
          }
          body_begin = li;
          body_stop = close + 1;
          located = true;
          break;
        }
      }
    }
    if (!located) continue;
    bool has_write = false;
    std::size_t write_line = li;
    bool has_exit = false;
    for (std::size_t bl = body_begin; bl < body_stop; ++bl) {
      const std::string& bline = file.code[bl];
      if (!has_write) {
        for (const std::string& token : write_calls()) {
          std::size_t pos = 0;
          if (find_call(bline, token, &pos)) {
            has_write = true;
            write_line = bl;
            break;
          }
        }
      }
      std::size_t unused = 0;
      if (find_word(bline, "EAGAIN", &unused) ||
          find_word(bline, "EWOULDBLOCK", &unused)) {
        has_exit = true;
      }
    }
    if (!has_write || has_exit) continue;
    if (reported->count(write_line) > 0) continue;
    if (suppressed(sup, "owner-loop-blocking", write_line + 1)) continue;
    reported->insert(write_line);
    out->push_back({file.path, write_line + 1, "owner-loop-blocking",
                    "write loop with no EAGAIN/EWOULDBLOCK exit " + context});
  }
}

// Callee names: identifiers directly followed by `(` inside [begin, end).
std::set<std::string> collect_callees(const FileText& file, std::size_t begin,
                                      std::size_t end) {
  std::set<std::string> names;
  for (std::size_t li = begin; li < end; ++li) {
    const std::string& line = file.code[li];
    for (std::size_t ci = 0; ci < line.size(); ++ci) {
      if (line[ci] != '(') continue;
      std::size_t j = ci;
      while (j > 0 && line[j - 1] == ' ') --j;
      const std::size_t stop = j;
      while (j > 0 && is_ident_char(line[j - 1])) --j;
      if (j < stop) names.insert(line.substr(j, stop - j));
    }
  }
  return names;
}

void check_owner_loop(const FileText& file, const std::vector<Function>& fns,
                      const std::vector<Scope>& scopes, Suppressions& sup,
                      std::vector<Violation>* out) {
  if (scopes.empty()) return;
  std::set<std::size_t> annotated_opens;
  for (const Scope& s : scopes) {
    if (s.found) annotated_opens.insert(s.open_line);
  }
  std::map<std::string, std::vector<std::size_t>> by_name;
  for (std::size_t fi = 0; fi < fns.size(); ++fi) {
    by_name[fns[fi].name].push_back(fi);
  }
  std::set<std::size_t> reported;
  for (const Scope& scope : scopes) {
    if (!scope.found) {
      out->push_back({file.path, scope.annotation_line + 1,
                      "owner-loop-blocking",
                      "HETSCHED_OWNER_LOOP annotation with no function "
                      "body within 10 lines"});
      continue;
    }
    scan_owner_scope(file, scope.open_line, scope.body_end,
                     "in owner-loop function `" + scope.name + "`", sup,
                     &reported, out);
    // One-level intra-TU call graph: helpers this function calls by name
    // in the same file are held to the same standard.
    for (const std::string& callee :
         collect_callees(file, scope.open_line, scope.body_end)) {
      if (callee == scope.name) continue;
      const auto it = by_name.find(callee);
      if (it == by_name.end()) continue;
      for (const std::size_t fi : it->second) {
        const Function& g = fns[fi];
        if (annotated_opens.count(g.open_line) > 0) continue;  // direct
        scan_owner_scope(file, g.open_line, g.body_end,
                         "in `" + g.name + "`, called from owner-loop "
                         "function `" + scope.name + "`",
                         sup, &reported, out);
      }
    }
  }
}

// -------------------------------------------------------------- lock-order

// Rules 7 and 8 cover the service plane (net/ + io/); .lint fixtures are
// always in scope so the rules stay self-tested.
bool concurrency_path(const std::string& path) {
  if (path.size() >= 5 &&
      path.compare(path.size() - 5, 5, ".lint") == 0) {
    return true;
  }
  return path.find("/net/") != std::string::npos ||
         path.find("/io/") != std::string::npos;
}

struct LockSite {
  std::size_t file_index = 0;
  std::size_t line = 0;  // 1-based: the second acquisition of the pair
};

using LockEdges =
    std::map<std::pair<std::string, std::string>, std::vector<LockSite>>;

// Mutex expressions are keyed by their final member segment: `sh.write_mu`
// and `conn->write_mu` are the same lock *class*, which is exactly the
// granularity a lock hierarchy is declared at.
std::string normalize_mutex(std::string expr) {
  std::string s;
  for (const char c : expr) {
    if (c != ' ') s.push_back(c);
  }
  while (!s.empty() && (s.front() == '&' || s.front() == '*')) {
    s.erase(s.begin());
  }
  std::size_t cut = std::string::npos;
  for (std::size_t i = 0; i + 1 < s.size(); ++i) {
    if (s[i] == '-' && s[i + 1] == '>') cut = i + 2;
  }
  const std::size_t dot = s.find_last_of('.');
  if (dot != std::string::npos && (cut == std::string::npos || dot + 1 > cut)) {
    cut = dot + 1;
  }
  if (cut != std::string::npos && cut < s.size()) s = s.substr(cut);
  // Drop any trailing index/call decoration.
  const std::size_t brk = s.find_first_of("([");
  if (brk != std::string::npos) s = s.substr(0, brk);
  return s;
}

// Records, for every guard declared in `fn`, which locks were already held
// (by brace depth) when it was acquired.
void collect_lock_edges(const FileText& file, std::size_t file_index,
                        const Function& fn, LockEdges* edges) {
  static const std::vector<std::string> kGuards = {
      "lock_guard", "unique_lock", "scoped_lock"};
  struct Held {
    int depth;
    std::string name;
  };
  std::vector<Held> held;
  int depth = 0;
  for (std::size_t li = fn.open_line; li < fn.body_end; ++li) {
    const std::string& line = file.code[li];
    const std::size_t start = li == fn.open_line ? fn.open_col : 0;
    for (std::size_t ci = start; ci < line.size(); ++ci) {
      const char c = line[ci];
      if (c == '{') ++depth;
      if (c == '}') {
        --depth;
        while (!held.empty() && held.back().depth > depth) held.pop_back();
        continue;
      }
      // Does a guard token start here?
      for (const std::string& guard : kGuards) {
        if (line.compare(ci, guard.size(), guard) != 0) continue;
        if (ci > 0 && is_ident_char(line[ci - 1])) continue;
        const std::size_t after = ci + guard.size();
        if (after < line.size() && is_ident_char(line[after])) continue;
        // Skip optional template arguments, then the variable name, then
        // read the mutex expression from the parenthesized initializer.
        std::size_t j = after;
        while (j < line.size() && line[j] == ' ') ++j;
        if (j < line.size() && line[j] == '<') {
          int angle = 0;
          for (; j < line.size(); ++j) {
            if (line[j] == '<') ++angle;
            if (line[j] == '>' && --angle == 0) {
              ++j;
              break;
            }
          }
        }
        while (j < line.size() && (line[j] == ' ' || line[j] == '&')) ++j;
        while (j < line.size() && is_ident_char(line[j])) ++j;
        while (j < line.size() && line[j] == ' ') ++j;
        if (j >= line.size() || (line[j] != '(' && line[j] != '{')) break;
        const char open = line[j];
        const char close = open == '(' ? ')' : '}';
        int pd = 0;
        std::size_t k = j;
        std::size_t expr_end = std::string::npos;
        bool top_comma = false;
        for (; k < line.size(); ++k) {
          if (line[k] == open) ++pd;
          if (line[k] == close && --pd == 0) {
            expr_end = k;
            break;
          }
          if (line[k] == ',' && pd == 1) top_comma = true;
        }
        if (expr_end == std::string::npos || top_comma) break;
        const std::string name =
            normalize_mutex(line.substr(j + 1, expr_end - j - 1));
        if (name.empty()) break;
        for (const Held& h : held) {
          if (h.name != name) {
            (*edges)[{h.name, name}].push_back({file_index, li + 1});
          }
        }
        held.push_back({depth, name});
        break;
      }
    }
  }
}

void resolve_lock_order(const std::vector<FileText>& files,
                        const LockEdges& edges,
                        std::vector<Suppressions>& sups,
                        std::vector<Violation>* out) {
  for (const auto& [pair, sites] : edges) {
    const auto rev = edges.find({pair.second, pair.first});
    if (rev == edges.end()) continue;
    const LockSite& other = rev->second.front();
    for (const LockSite& site : sites) {
      if (suppressed(sups[site.file_index], "lock-order", site.line)) {
        continue;
      }
      out->push_back(
          {files[site.file_index].path, site.line, "lock-order",
           "`" + pair.second + "` acquired while holding `" + pair.first +
               "`, but the opposite order exists at " +
               files[other.file_index].path + ":" +
               std::to_string(other.line)});
    }
  }
}

// ----------------------------------------------------------- parser-bounds

// A function parses untrusted bytes if a `_`-separated segment of its name
// starts with decode/parse/load/read (so `drain_readable` and `wal_load`
// qualify but `thread_main` does not).
bool parser_function_name(const std::string& name) {
  static const std::vector<std::string> kStems = {"decode", "parse", "load",
                                                  "read"};
  std::size_t start = 0;
  while (start <= name.size()) {
    std::size_t us = name.find('_', start);
    if (us == std::string::npos) us = name.size();
    const std::string seg = name.substr(start, us - start);
    for (const std::string& stem : kStems) {
      if (seg.rfind(stem, 0) == 0) return true;
    }
    if (us == name.size()) break;
    start = us + 1;
  }
  return false;
}

// A guard line compares a length-like quantity.  clang-format guarantees
// comparison operators are space-separated (templates are not), so ` < `
// style matching does not trip over `vector<double>`.
bool length_guard_line(const std::string& line) {
  const bool has_cmp =
      line.find(" < ") != std::string::npos ||
      line.find(" > ") != std::string::npos ||
      line.find(" <= ") != std::string::npos ||
      line.find(" >= ") != std::string::npos;
  if (!has_cmp) return false;
  static const std::vector<std::string> kLengthy = {
      "len",  "Len",  "size",  "Size",  "count", "Count",
      "off",  "Off",  "bytes", "Bytes", "avail", "remaining",
      "need", "sizeof"};
  for (const std::string& t : kLengthy) {
    if (line.find(t) != std::string::npos) return true;
  }
  return false;
}

void check_parser_bounds(const FileText& file,
                         const std::vector<Function>& fns, Suppressions& sup,
                         std::vector<Violation>* out) {
  if (!concurrency_path(file.path)) return;
  static const std::vector<std::string> kAccess = {
      "memcpy", "memmove", "get_u16", "get_u32", "get_u64"};
  static const std::vector<std::string> kCursors = {"p", "ptr", "cur", "off",
                                                    "src"};
  for (const Function& fn : fns) {
    if (!parser_function_name(fn.name)) continue;
    bool guard_seen = false;
    std::set<std::size_t> flagged;
    for (std::size_t li = fn.open_line; li < fn.body_end; ++li) {
      const std::string& line = file.code[li];
      if (length_guard_line(line)) guard_seen = true;
      if (guard_seen) continue;
      bool access = false;
      std::string what;
      for (const std::string& token : kAccess) {
        std::size_t pos = 0;
        if (find_call(line, token, &pos)) {
          access = true;
          what = token + "()";
          break;
        }
      }
      if (!access) {
        for (const std::string& cursor : kCursors) {
          std::size_t pos = 0;
          if (!find_word(line, cursor, &pos)) continue;
          std::size_t after = pos + cursor.size();
          while (after < line.size() && line[after] == ' ') ++after;
          if (after + 1 < line.size() && line[after] == '+' &&
              line[after + 1] == '=') {
            access = true;
            what = "pointer advance on `" + cursor + "`";
            break;
          }
        }
      }
      if (!access || flagged.count(li) > 0) continue;
      if (suppressed(sup, "parser-bounds", li + 1)) continue;
      flagged.insert(li);
      out->push_back({file.path, li + 1, "parser-bounds",
                      what + " in parser function `" + fn.name +
                          "` is not dominated by a length check"});
    }
  }
}

// ------------------------------------------------------------------ driver

bool read_file(const std::string& path, FileText* out) {
  std::ifstream in(path);
  if (!in) return false;
  out->path = path;
  std::string line;
  while (std::getline(in, line)) out->raw.push_back(line);
  out->code = strip_comments_and_literals(out->raw);
  return true;
}

bool is_header(const std::string& path) {
  return path.size() >= 2 && path.compare(path.size() - 2, 2, ".h") == 0;
}

std::vector<Violation> scan_batch(const std::vector<FileText>& files) {
  std::set<std::string> header_names;
  for (const FileText& f : files) {
    if (is_header(f.path)) collect_double_names(f, &header_names);
  }
  std::vector<Violation> violations;
  std::vector<Suppressions> sups;
  sups.reserve(files.size());
  LockEdges edges;
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    const FileText& f = files[fi];
    std::set<std::string> double_names = header_names;
    collect_double_names(f, &double_names);
    sups.push_back(collect_suppressions(f.raw));
    Suppressions& sup = sups.back();
    const std::vector<Function> fns = extract_functions(f);
    const std::vector<Scope> noalloc_scopes =
        find_annotated_scopes(f, fns, "// HETSCHED_NOALLOC");
    const std::vector<Scope> owner_scopes =
        find_annotated_scopes(f, fns, "// HETSCHED_OWNER_LOOP");
    check_float_compare(f, double_names, sup, &violations);
    check_assert_abort(f, sup, &violations);
    check_nondeterminism(f, sup, &violations);
    check_noalloc(f, noalloc_scopes, sup, &violations);
    // [metric-handle] covers both hot-path annotations: a function that
    // carries NOALLOC and OWNER_LOOP contributes its scope once.
    std::vector<Scope> handle_scopes = noalloc_scopes;
    for (const Scope& s : owner_scopes) {
      const bool dup = std::any_of(
          handle_scopes.begin(), handle_scopes.end(),
          [&](const Scope& t) { return t.open_line == s.open_line; });
      if (!dup) handle_scopes.push_back(s);
    }
    check_metric_handle(f, handle_scopes, sup, &violations);
    check_owner_loop(f, fns, owner_scopes, sup, &violations);
    check_parser_bounds(f, fns, sup, &violations);
    if (concurrency_path(f.path)) {
      for (const Function& fn : fns) {
        collect_lock_edges(f, fi, fn, &edges);
      }
    }
  }
  resolve_lock_order(files, edges, sups, &violations);
  for (std::size_t fi = 0; fi < files.size(); ++fi) {
    check_stale_allows(files[fi], sups[fi], &violations);
  }
  std::sort(violations.begin(), violations.end(),
            [](const Violation& a, const Violation& b) {
              if (a.file != b.file) return a.file < b.file;
              if (a.line != b.line) return a.line < b.line;
              return a.rule < b.rule;
            });
  return violations;
}

void print_violations(const std::vector<Violation>& violations) {
  for (const Violation& v : violations) {
    std::fprintf(stderr, "%s:%zu: [%s] %s\n", v.file.c_str(), v.line,
                 v.rule.c_str(), v.message.c_str());
  }
}

bool scannable_source(const fs::path& p) {
  const std::string ext = p.extension().string();
  return ext == ".cc" || ext == ".cpp" || ext == ".h";
}

int scan_tree(const std::string& root) {
  const fs::path src = fs::path(root) / "src";
  if (!fs::is_directory(src)) {
    std::fprintf(stderr, "hetsched_lint: no src/ under %s\n", root.c_str());
    return 2;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::recursive_directory_iterator(src)) {
    if (entry.is_regular_file() && scannable_source(entry.path())) {
      paths.push_back(entry.path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<FileText> files;
  for (const std::string& p : paths) {
    FileText f;
    if (!read_file(p, &f)) {
      std::fprintf(stderr, "hetsched_lint: cannot read %s\n", p.c_str());
      return 2;
    }
    files.push_back(std::move(f));
  }
  const std::vector<Violation> violations = scan_batch(files);
  print_violations(violations);
  std::fprintf(stderr, "hetsched_lint: %zu file(s), %zu violation(s)\n",
               files.size(), violations.size());
  return violations.empty() ? 0 : 1;
}

// Fixture mode: every file in `dir` is scanned on its own (so fixture
// declarations do not leak into each other's double-name sets), and the
// multiset of fired rules must equal the file's EXPECT-VIOLATION lines.
int run_fixtures(const std::string& dir) {
  if (!fs::is_directory(dir)) {
    std::fprintf(stderr, "hetsched_lint: no fixture dir %s\n", dir.c_str());
    return 2;
  }
  std::vector<std::string> paths;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file()) {
      paths.push_back(entry.path().generic_string());
    }
  }
  std::sort(paths.begin(), paths.end());
  if (paths.empty()) {
    std::fprintf(stderr, "hetsched_lint: fixture dir %s is empty\n",
                 dir.c_str());
    return 2;
  }
  int failures = 0;
  for (const std::string& p : paths) {
    FileText f;
    if (!read_file(p, &f)) {
      std::fprintf(stderr, "hetsched_lint: cannot read %s\n", p.c_str());
      return 2;
    }
    std::vector<std::string> expected;
    const std::string marker = "EXPECT-VIOLATION:";
    for (const std::string& line : f.raw) {
      const std::size_t pos = line.find(marker);
      if (pos == std::string::npos) continue;
      std::istringstream rest(line.substr(pos + marker.size()));
      std::string rule;
      rest >> rule;
      if (!rule.empty()) expected.push_back(rule);
    }
    std::vector<FileText> batch;
    batch.push_back(std::move(f));
    std::vector<std::string> fired;
    const std::vector<Violation> violations = scan_batch(batch);
    fired.reserve(violations.size());
    for (const Violation& v : violations) fired.push_back(v.rule);
    std::sort(expected.begin(), expected.end());
    std::sort(fired.begin(), fired.end());
    if (expected != fired) {
      ++failures;
      std::fprintf(stderr, "hetsched_lint: fixture mismatch in %s\n",
                   p.c_str());
      std::fprintf(stderr, "  expected:");
      for (const std::string& r : expected) {
        std::fprintf(stderr, " %s", r.c_str());
      }
      std::fprintf(stderr, "\n  fired:   ");
      for (const std::string& r : fired) std::fprintf(stderr, " %s", r.c_str());
      std::fprintf(stderr, "\n");
      print_violations(violations);
    }
  }
  std::fprintf(stderr, "hetsched_lint: %zu fixture(s), %d mismatch(es)\n",
               paths.size(), failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.size() == 2 && args[0] == "--root") return scan_tree(args[1]);
  if (args.size() == 2 && args[0] == "--fixtures") {
    return run_fixtures(args[1]);
  }
  if (!args.empty() && args[0][0] != '-') {
    std::vector<FileText> files;
    for (const std::string& p : args) {
      FileText f;
      if (!read_file(p, &f)) {
        std::fprintf(stderr, "hetsched_lint: cannot read %s\n", p.c_str());
        return 2;
      }
      files.push_back(std::move(f));
    }
    const std::vector<Violation> violations = scan_batch(files);
    print_violations(violations);
    return violations.empty() ? 0 : 1;
  }
  std::fprintf(stderr,
               "usage: hetsched_lint --root <repo-root> | --fixtures <dir> "
               "| <file>...\n");
  return 2;
}
