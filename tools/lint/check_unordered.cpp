// unordered-iteration: flag range-for loops over std::unordered_{map,set}
// and wiera::FlatHashMap variables. Hash-table iteration order is
// implementation- and size-history-dependent; when such a loop feeds
// rendered diagnostics, the determinism trace hash, or replication fan-out,
// the output silently varies across platforms and across runs that grew the
// table differently (docs/DETERMINISM.md). Collect-and-sort, or use
// std::map, instead.
//
// A name declared as an unordered container in one place and an ordered one
// in another is ambiguous at token level and deliberately skipped — the
// check under-reports rather than cries wolf.
#include "lint.h"

namespace wiera::lint {

namespace {

class UnorderedIterationCheck : public Check {
 public:
  std::string name() const override { return "unordered-iteration"; }
  std::string description() const override {
    return "no range-for over unordered containers (hash order leaks into "
           "rendered / hashed / replicated state)";
  }

  void run(const SourceFile& file, const Project& project,
           std::vector<Finding>& out) const override {
    if (file.module.empty()) return;  // src/ only
    const auto& toks = file.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
      if (toks[i].text != "for" || toks[i + 1].text != "(") continue;
      // Find the matching close paren and the range-for colon at depth 1.
      int depth = 0;
      size_t colon = 0, close = 0;
      for (size_t j = i + 1; j < toks.size(); ++j) {
        const std::string& t = toks[j].text;
        if (t == "(") depth++;
        else if (t == ")") {
          if (--depth == 0) { close = j; break; }
        } else if (t == ":" && depth == 1 && colon == 0) {
          colon = j;
        } else if (t == ";" && depth == 1) {
          break;  // classic for loop
        }
      }
      if (colon == 0 || close == 0) continue;
      for (size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind != Token::Kind::kIdent) continue;
        if (!project.is_unordered_var(toks[j].text)) continue;
        out.push_back(
            {name(), file.path, toks[i].line,
             "range-for over unordered container '" + toks[j].text +
                 "': iteration order is hash-dependent",
             "copy the keys/values into a vector and sort before use, or "
             "declare the member as std::map/std::set if order matters"});
        break;  // one finding per loop
      }
    }
  }
};

}  // namespace

std::unique_ptr<Check> make_unordered_check() {
  return std::make_unique<UnorderedIterationCheck>();
}

}  // namespace wiera::lint
