// wiera-lint: a project-specific static analyzer for the Wiera codebase.
//
// Enforces, at analysis time, the invariants the runtime substrate (sanitizer,
// chaos oracle, integrity, telemetry — PRs 1–5) only catches after the fact:
//
//   determinism-source   no wall clocks / OS randomness in sim-reachable code
//   unordered-iteration  no range-for over unordered containers (hash order
//                        leaks into rendered output / hashed / replicated
//                        state)
//   status-discipline    no (void)-laundered Status / Result<T>
//   await-hazard         no reference into shared (member) state, and no RAII
//                        lock guard, live across a co_await suspension point
//   span-pairing         every opened trace span is closed or escapes
//   layering             include edges respect the module DAG
//
// Deliberately token-based (no libclang): a hand-rolled lexer plus an include
// walker is enough for these shapes, builds with the stock toolchain, and
// keeps the analyzer a ~1s no-dependency step in CI. The trade-off is
// documented per check in docs/STATIC_ANALYSIS.md: the checks are
// flow-insensitive approximations with suppression comments
// (`// wiera-lint: allow(<check>) <reason>`) as the escape hatch.
#pragma once

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

namespace wiera::lint {

// ------------------------------------------------------------------ tokens

struct Token {
  enum class Kind { kIdent, kNumber, kString, kChar, kPunct, kEof };
  Kind kind = Kind::kEof;
  std::string text;
  int line = 0;
};

// Lex C++ source. Comments and preprocessor line structure are dropped
// (suppressions and includes are extracted from raw lines instead); raw
// strings, escapes and multi-char punctuation (`::`, `->`, ...) are handled.
std::vector<Token> lex(const std::string& text);

// Index of the token matching an opening `<` at `open` (treats `>>` as two
// closers). Returns `open` when no match is found before `limit`.
size_t match_angle(const std::vector<Token>& toks, size_t open, size_t limit);

// Index of the `}` matching the `{` at `open`; toks.size() when unmatched.
size_t match_brace(const std::vector<Token>& toks, size_t open);

// True when the `{` at index i opens a function or lambda body (i.e. a
// coroutine-suspension barrier), as opposed to a control-flow block,
// class/namespace body, or braced initializer.
bool is_function_body_brace(const std::vector<Token>& toks, size_t i);

// ---------------------------------------------------------------- findings

struct Finding {
  std::string check;
  std::string file;  // path as given on the command line
  int line = 0;
  std::string message;
  std::string hint;  // printed under --fix-hints

  bool operator<(const Finding& o) const {
    if (file != o.file) return file < o.file;
    if (line != o.line) return line < o.line;
    if (check != o.check) return check < o.check;
    return message < o.message;
  }
};

// ------------------------------------------------------------ source files

struct Suppression {
  int target_line = 0;  // line whose findings this comment suppresses
  std::string check;
  std::string reason;
  int comment_line = 0;
};

struct SourceFile {
  std::string path;    // as passed (repo-relative in normal runs)
  std::string module;  // "sim" for src/sim/...; "" outside src/
  bool is_header = false;
  std::string text;
  std::vector<Token> tokens;
  std::vector<Suppression> suppressions;
  std::vector<std::pair<int, std::string>> includes;  // line, quoted path
};

// ---------------------------------------------------------------- project

// Cross-file symbol knowledge the per-file checks consult.
class Project {
 public:
  std::vector<SourceFile> files;

  // Function names declared (anywhere in the scanned tree) to return Status,
  // Result<T>, Task<Status> or Task<Result<T>>.
  std::set<std::string> status_functions;

  // Variable name -> container kinds seen for that name across the tree.
  // A name declared both ordered and unordered somewhere is ambiguous and
  // skipped by unordered-iteration.
  enum ContainerKind { kUnordered = 1, kOrdered = 2 };
  std::map<std::string, int> container_vars;

  // Module layering DAG: module -> direct sanctioned dependencies.
  // `allowed_deps` is the transitive closure used to admit include edges.
  std::map<std::string, std::set<std::string>> module_deps;
  std::map<std::string, std::set<std::string>> allowed_deps;

  bool is_unordered_var(const std::string& name) const {
    auto it = container_vars.find(name);
    return it != container_vars.end() && it->second == kUnordered;
  }
};

// ------------------------------------------------------------------ checks

class Check {
 public:
  virtual ~Check() = default;
  virtual std::string name() const = 0;
  virtual std::string description() const = 0;
  virtual void run(const SourceFile& file, const Project& project,
                   std::vector<Finding>& out) const = 0;
};

std::vector<std::unique_ptr<Check>> make_all_checks();

// ------------------------------------------------------------------ driver

struct Options {
  std::vector<std::string> paths;  // files or directories, root-relative
  std::string root = ".";
  std::string baseline_path;        // grandfathered findings ("" = none)
  std::string write_baseline_path;  // emit current findings and exit
  bool fix_hints = false;
  std::set<std::string> only;  // restrict to these checks ("" = all)
};

struct RunResult {
  std::vector<Finding> findings;   // new findings (not suppressed/baselined)
  int suppressed = 0;
  int baselined = 0;
  int files_scanned = 0;
};

// Load → lex → table-build → check → suppress → baseline-filter.
// Returns the surviving findings sorted by file/line.
RunResult run_lint(const Options& options);

// Exposed for tests: build a Project from in-memory or on-disk files.
SourceFile load_source(const std::string& path, std::string virtual_path,
                       std::vector<Finding>& out);
void build_tables(Project& project);

std::string render(const Finding& f, bool fix_hints);

}  // namespace wiera::lint
