// Source loading, suppression parsing, and project-wide symbol tables.
#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>

#include "lint.h"

namespace wiera::lint {

namespace {

const char* kKnownChecks[] = {
    "determinism-source", "unordered-iteration", "status-discipline",
    "await-hazard",       "span-pairing",        "layering",
};

bool known_check(const std::string& name) {
  for (const char* c : kKnownChecks) {
    if (name == c) return true;
  }
  return false;
}

std::string trim(std::string s) {
  const auto b = s.find_first_not_of(" \t\r");
  const auto e = s.find_last_not_of(" \t\r");
  if (b == std::string::npos) return "";
  return s.substr(b, e - b + 1);
}

// Module of a repo-relative path: "src/sim/sync.h" -> "sim"; "" outside src/.
std::string module_of(const std::string& path) {
  if (path.rfind("src/", 0) != 0) return "";
  const size_t slash = path.find('/', 4);
  if (slash == std::string::npos) return "";
  return path.substr(4, slash - 4);
}

// Parse `// wiera-lint: allow(<check>) <reason>` comments line by line.
// A comment on a code line suppresses that line; a comment alone on its line
// suppresses the next line.
void parse_suppressions(SourceFile& file, std::vector<Finding>& out) {
  std::istringstream in(file.text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    line_no++;
    const size_t at = raw.find("wiera-lint:");
    if (at == std::string::npos) continue;
    const size_t comment = raw.rfind("//", at);
    if (comment == std::string::npos) continue;  // not in a line comment
    std::string rest = trim(raw.substr(at + std::strlen("wiera-lint:")));
    if (rest.rfind("allow(", 0) != 0) {
      out.push_back({"bad-suppression", file.path, line_no,
                     "unrecognized wiera-lint directive (expected "
                     "`allow(<check>) <reason>`)",
                     "write `// wiera-lint: allow(<check>) <reason>`"});
      continue;
    }
    const size_t close = rest.find(')');
    if (close == std::string::npos) continue;
    const std::string check = trim(rest.substr(6, close - 6));
    const std::string reason = trim(rest.substr(close + 1));
    if (!known_check(check)) {
      out.push_back({"bad-suppression", file.path, line_no,
                     "allow(" + check + ") names an unknown check",
                     "see wiera-lint --list-checks for valid names"});
      continue;
    }
    if (reason.empty()) {
      out.push_back({"bad-suppression", file.path, line_no,
                     "allow(" + check + ") carries no reason; every "
                     "suppression must justify itself",
                     "append a short reason after the closing parenthesis"});
      continue;
    }
    const bool comment_only = trim(raw.substr(0, comment)).empty();
    Suppression s;
    s.check = check;
    s.reason = reason;
    s.comment_line = line_no;
    s.target_line = comment_only ? line_no + 1 : line_no;
    file.suppressions.push_back(std::move(s));
  }
}

void parse_includes(SourceFile& file) {
  std::istringstream in(file.text);
  std::string raw;
  int line_no = 0;
  while (std::getline(in, raw)) {
    line_no++;
    std::string s = trim(raw);
    if (s.empty() || s[0] != '#') continue;
    s = trim(s.substr(1));
    if (s.rfind("include", 0) != 0) continue;
    s = trim(s.substr(std::strlen("include")));
    if (s.size() < 2 || s[0] != '"') continue;  // system headers exempt
    const size_t close = s.find('"', 1);
    if (close == std::string::npos) continue;
    file.includes.emplace_back(line_no, s.substr(1, close - 1));
  }
}

// --- project tables --------------------------------------------------------

bool is_unordered_name(const std::string& t) {
  return t == "unordered_map" || t == "unordered_set" ||
         t == "unordered_multimap" || t == "unordered_multiset" ||
         t == "FlatHashMap";
}

bool is_ordered_name(const std::string& t) {
  return t == "map" || t == "set" || t == "multimap" || t == "multiset";
}

// After `unordered_map<...>` (or map<...>), record the declared variable
// names until the statement ends.
void collect_container_decls(const SourceFile& file, Project& project) {
  const auto& toks = file.tokens;
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    int kind = 0;
    if (is_unordered_name(toks[i].text)) kind = Project::kUnordered;
    else if (is_ordered_name(toks[i].text)) kind = Project::kOrdered;
    if (kind == 0) continue;
    size_t j = i + 1;
    if (toks[j].text != "<") continue;  // e.g. `using map;` — not a decl
    const size_t close = match_angle(toks, j, toks.size());
    if (close == j) continue;
    j = close + 1;
    // Declarators: [*|&] name [, name ...] terminated by ; = { ( )
    while (j < toks.size()) {
      while (toks[j].text == "*" || toks[j].text == "&" ||
             toks[j].text == "const") {
        j++;
      }
      if (toks[j].kind != Token::Kind::kIdent) break;
      project.container_vars[toks[j].text] |= kind;
      j++;
      if (toks[j].text == ",") { j++; continue; }
      break;
    }
  }
}

// Record function names whose declared return type is Status, Result<T>,
// Task<Status> or Task<Result<T>>. Token shapes:
//   Status  name (          Result < ... > name (
//   Task < Status > name (  Task < Result < ... > > name (
void collect_status_functions(const SourceFile& file, Project& project) {
  const auto& toks = file.tokens;
  auto add_if_fn = [&](size_t name_idx) {
    if (name_idx + 1 >= toks.size()) return;
    if (toks[name_idx].kind != Token::Kind::kIdent) return;
    if (toks[name_idx + 1].text != "(") return;
    const std::string& name = toks[name_idx].text;
    if (name == "operator") return;
    project.status_functions.insert(name);
  };
  for (size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Token::Kind::kIdent) continue;
    const std::string& t = toks[i].text;
    if (t == "Status") {
      // `Status name(`; skip `Status(` ctor calls and `Status&` refs.
      add_if_fn(i + 1);
    } else if (t == "Result" || t == "Task") {
      if (toks[i + 1].text != "<") continue;
      const size_t close = match_angle(toks, i + 1, toks.size());
      if (close == i + 1) continue;
      if (t == "Result") {
        add_if_fn(close + 1);
      } else {
        // Task<...>: only status-ish payloads count.
        bool statusy = false;
        for (size_t k = i + 2; k < close; ++k) {
          if (toks[k].text == "Status" || toks[k].text == "Result") {
            statusy = true;
            break;
          }
        }
        if (statusy) add_if_fn(close + 1);
      }
    }
  }
}

}  // namespace

SourceFile load_source(const std::string& path, std::string virtual_path,
                       std::vector<Finding>& out) {
  SourceFile file;
  file.path = std::move(virtual_path);
  file.module = module_of(file.path);
  file.is_header = file.path.size() > 2 &&
                   file.path.compare(file.path.size() - 2, 2, ".h") == 0;
  std::ifstream in(path);
  std::ostringstream buf;
  buf << in.rdbuf();
  file.text = buf.str();
  file.tokens = lex(file.text);
  parse_suppressions(file, out);
  parse_includes(file);
  return file;
}

void build_tables(Project& project) {
  for (const SourceFile& file : project.files) {
    collect_container_decls(file, project);
    collect_status_functions(file, project);
  }

  // The sanctioned module DAG. This is the *measured* dependency structure
  // of the tree, frozen as policy: an include edge is admissible iff the
  // target module is in the transitive closure of the including module's
  // sanctioned deps. Growing a module's reach is a deliberate act — edit
  // this table (and docs/STATIC_ANALYSIS.md) in the same PR.
  auto& d = project.module_deps;
  d["common"] = {};
  d["obs"] = {"common"};
  d["policy"] = {"common"};
  d["sim"] = {"common", "obs"};
  d["net"] = {"common", "sim"};
  d["store"] = {"common", "sim"};
  d["rpc"] = {"common", "net", "obs", "sim"};
  d["metadb"] = {"common", "rpc"};
  d["coord"] = {"common", "rpc", "sim"};
  d["cost"] = {"common", "net", "store"};
  d["tiera"] = {"common", "metadb", "obs", "policy", "sim", "store"};
  d["wiera"] = {"common", "coord", "net", "obs", "policy", "rpc", "sim",
                "tiera"};
  d["ycsb"] = {"common", "wiera"};
  d["vfs"] = {"common", "wiera"};
  d["apps"] = {"common", "vfs"};

  // Transitive closure.
  for (const auto& [mod, deps] : d) {
    std::set<std::string>& closure = project.allowed_deps[mod];
    std::vector<std::string> work(deps.begin(), deps.end());
    while (!work.empty()) {
      std::string m = work.back();
      work.pop_back();
      if (!closure.insert(m).second) continue;
      auto it = d.find(m);
      if (it == d.end()) continue;
      for (const std::string& next : it->second) work.push_back(next);
    }
  }
}

size_t match_brace(const std::vector<Token>& toks, size_t open) {
  int depth = 0;
  for (size_t i = open; i < toks.size(); ++i) {
    if (toks[i].text == "{") depth++;
    else if (toks[i].text == "}" && --depth == 0) return i;
  }
  return toks.size();
}

bool is_function_body_brace(const std::vector<Token>& toks, size_t i) {
  if (i == 0 || toks[i].text != "{") return false;
  // Walk back over trailing specifiers and trailing-return-type tokens.
  size_t j = i - 1;
  auto skippable = [](const Token& t) {
    if (t.kind == Token::Kind::kIdent) {
      return t.text == "const" || t.text == "noexcept" ||
             t.text == "override" || t.text == "final" ||
             t.text == "mutable" || t.text == "try";
    }
    // Pieces of a trailing return type: `-> sim::Task<void>`.
    return t.text == "->" || t.text == "::" || t.text == "<" ||
           t.text == ">" || t.text == ">>" || t.text == "*" || t.text == "&";
  };
  while (j > 0 && (skippable(toks[j]) ||
                   (toks[j].kind == Token::Kind::kIdent && j > 0 &&
                    (toks[j - 1].text == "->" || toks[j - 1].text == "::" ||
                     toks[j - 1].text == "<")))) {
    j--;
  }
  if (toks[j].text != ")") return false;
  // Backwards paren match, then look at what introduced the paren group.
  int depth = 0;
  size_t k = j;
  while (true) {
    if (toks[k].text == ")") depth++;
    else if (toks[k].text == "(" && --depth == 0) break;
    if (k == 0) return false;
    k--;
  }
  if (k == 0) return false;
  const std::string& intro = toks[k - 1].text;
  if (intro == "if" || intro == "while" || intro == "for" ||
      intro == "switch" || intro == "catch") {
    return false;
  }
  // `](...)` is a lambda; `name(...)` / `operator()(...)` a function.
  return true;
}

std::string render(const Finding& f, bool fix_hints) {
  std::string out = f.file + ":" + std::to_string(f.line) + ": [" + f.check +
                    "] " + f.message;
  if (fix_hints && !f.hint.empty()) out += "\n    fix-hint: " + f.hint;
  out += "\n";
  return out;
}

}  // namespace wiera::lint
