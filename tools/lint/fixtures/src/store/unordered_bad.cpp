// Fixture: unordered-iteration positives — a std::unordered_map and a
// wiera::FlatHashMap.
#include <map>
#include <string>
#include <unordered_map>

#include "common/flat_hash.h"

namespace fx {

struct Table {
  std::unordered_map<std::string, int> counts_;
  std::map<std::string, int> sorted_;
  std::unordered_map<std::string, int> ambiguous_;
  wiera::FlatHashMap<std::string, int> slots_;

  int render() const {
    int total = 0;
    for (const auto& [k, v] : counts_) {
      total += v + static_cast<int>(k.size());
    }
    for (const auto& [k, v] : slots_) {
      total += v + static_cast<int>(k.size());
    }
    for (const auto& [k, v] : sorted_) {
      total += v + static_cast<int>(k.size());
    }
    return total;
  }
};

}  // namespace fx
