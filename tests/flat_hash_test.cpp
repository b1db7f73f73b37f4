// Tests for wiera::FlatHashMap: probe runs that wrap past the last slot,
// backward-shift erase, growth with live entries, heterogeneous lookup,
// move-only values, and a differential fuzz against std::unordered_map
// under hashes weak enough to force long probe runs.
#include <gtest/gtest.h>

#include <charconv>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/flat_hash.h"
#include "common/rng.h"

namespace wiera {
namespace {

// "h<N>:<anything>" hashes to N, so a test places each key's home slot.
struct HomeHash {
  size_t operator()(std::string_view s) const {
    size_t home = 0;
    const size_t colon = s.find(':');
    std::from_chars(s.data() + 1, s.data() + colon, home);
    return home;
  }
};

using Placed = FlatHashMap<std::string, int, HomeHash>;

// Every key in `keys` maps to its index.
void expect_all_found(const Placed& table, const std::vector<std::string>& keys) {
  for (size_t i = 0; i < keys.size(); ++i) {
    const int* v = table.find(keys[i]);
    ASSERT_NE(v, nullptr) << keys[i];
    EXPECT_EQ(*v, static_cast<int>(i)) << keys[i];
  }
}

TEST(FlatHashMapTest, EmptyTableFindsNothing) {
  FlatHashMap<std::string, int> table;
  EXPECT_EQ(table.find("k"), nullptr);
  EXPECT_FALSE(table.erase("k"));
  EXPECT_FALSE(table.take("k").has_value());
  EXPECT_EQ(table.size(), 0u);
  EXPECT_EQ(table.capacity(), 0u);
}

TEST(FlatHashMapTest, TryEmplaceKeepsTheFirstValue) {
  FlatHashMap<std::string, int> table;
  auto [v, inserted] = table.try_emplace(std::string("k"), 1);
  EXPECT_TRUE(inserted);
  EXPECT_EQ(*v, 1);
  auto [again, inserted_again] = table.try_emplace(std::string("k"), 2);
  EXPECT_FALSE(inserted_again);
  EXPECT_EQ(*again, 1);
  *again = 3;
  EXPECT_EQ(*table.find("k"), 3);
  EXPECT_EQ(table.size(), 1u);
}

TEST(FlatHashMapTest, ProbeRunWrapsPastTheLastSlot) {
  Placed table;
  // Three keys homed on the last of 16 slots fill slots 15, 0 and 1; a key
  // homed on slot 0 lands after them, in slot 2.
  const std::vector<std::string> keys = {"h15:a", "h15:b", "h15:c", "h0:d"};
  for (size_t i = 0; i < keys.size(); ++i) {
    ASSERT_TRUE(table.try_emplace(keys[i], static_cast<int>(i)).second);
  }
  ASSERT_EQ(table.capacity(), 16u);
  expect_all_found(table, keys);
  EXPECT_EQ(table.find("h15:z"), nullptr);
  EXPECT_EQ(table.find("h0:z"), nullptr);
  EXPECT_EQ(table.find("h1:z"), nullptr);
}

TEST(FlatHashMapTest, EraseMidRunKeepsEveryLaterKeyReachable) {
  // One run across the wrap: slots 14..3 hold homes 14, 14, 15, 0, 15, 1.
  const std::vector<std::string> keys = {"h14:a", "h14:b", "h15:c",
                                         "h0:d",  "h15:e", "h1:f"};
  for (size_t victim = 0; victim < keys.size(); ++victim) {
    Placed table;
    for (size_t i = 0; i < keys.size(); ++i) {
      table.try_emplace(keys[i], static_cast<int>(i));
    }
    ASSERT_TRUE(table.erase(keys[victim]));
    EXPECT_FALSE(table.contains(keys[victim]));
    EXPECT_EQ(table.size(), keys.size() - 1);
    for (size_t i = 0; i < keys.size(); ++i) {
      if (i == victim) continue;
      const int* v = table.find(keys[i]);
      ASSERT_NE(v, nullptr) << "lost " << keys[i] << " erasing " << keys[victim];
      EXPECT_EQ(*v, static_cast<int>(i));
    }
    // The freed slot is reusable, and the key is stored again once.
    ASSERT_TRUE(table.try_emplace(keys[victim], 99).second);
    EXPECT_EQ(*table.find(keys[victim]), 99);
    EXPECT_EQ(table.size(), keys.size());
  }
}

TEST(FlatHashMapTest, EraseLeavesEntriesHomedAfterTheHoleInPlace) {
  Placed table;
  // Slot 3 holds a key homed there; erasing the run's head at slot 2 must
  // not pull it back before its home.
  table.try_emplace("h2:a", 0);
  table.try_emplace("h3:b", 1);
  table.try_emplace("h2:c", 2);  // slot 4, behind h3:b
  ASSERT_TRUE(table.erase("h2:a"));
  ASSERT_NE(table.find("h3:b"), nullptr);
  EXPECT_EQ(*table.find("h3:b"), 1);
  ASSERT_NE(table.find("h2:c"), nullptr);
  EXPECT_EQ(*table.find("h2:c"), 2);
}

TEST(FlatHashMapTest, GrowthKeepsLiveEntries) {
  FlatHashMap<std::string, int> table;
  std::vector<size_t> capacities;
  for (int i = 0; i < 1000; ++i) {
    table.try_emplace("key" + std::to_string(i), i);
    if (capacities.empty() || capacities.back() != table.capacity()) {
      capacities.push_back(table.capacity());
      for (int j = 0; j <= i; ++j) {
        const int* v = table.find("key" + std::to_string(j));
        ASSERT_NE(v, nullptr) << j << " lost growing to " << table.capacity();
        EXPECT_EQ(*v, j);
      }
    }
    // Never fuller than three quarters.
    ASSERT_LE(table.size() * 4, table.capacity() * 3);
  }
  EXPECT_EQ(capacities,
            (std::vector<size_t>{16, 32, 64, 128, 256, 512, 1024, 2048}));
  EXPECT_EQ(table.size(), 1000u);
}

TEST(FlatHashMapTest, GrowthReplacesCollidingRuns) {
  // Every key homed on one slot: each growth re-places the whole run.
  Placed table;
  std::vector<std::string> keys;
  for (int i = 0; i < 40; ++i) keys.push_back("h7:" + std::to_string(i));
  for (size_t i = 0; i < keys.size(); ++i) {
    table.try_emplace(keys[i], static_cast<int>(i));
    expect_all_found(
        table, std::vector<std::string>(keys.begin(), keys.begin() + i + 1));
  }
  EXPECT_EQ(table.capacity(), 64u);
}

TEST(FlatHashMapTest, StringViewLooksUpStringKeys) {
  FlatHashMap<std::string, int> table;
  table.try_emplace(std::string("alpha"), 1);
  table.try_emplace(std::string_view("beta"), 2);
  const std::string buffer = "xxalphaxx";
  const std::string_view alpha(buffer.data() + 2, 5);
  ASSERT_NE(table.find(alpha), nullptr);
  EXPECT_EQ(*table.find(alpha), 1);
  EXPECT_TRUE(table.contains(std::string_view("beta")));
  EXPECT_FALSE(table.contains(std::string_view("alph")));
  EXPECT_FALSE(table.try_emplace(alpha, 5).second);
  EXPECT_EQ(table.take(alpha), 1);
  EXPECT_TRUE(table.erase(std::string_view("beta")));
  EXPECT_TRUE(table.empty());
}

TEST(FlatHashMapTest, StringViewKeysPointIntoCallerStorage) {
  // The memory tier keys its table by views of the keys its list owns.
  std::vector<std::unique_ptr<std::string>> owned;
  FlatHashMap<std::string_view, size_t> table;
  for (size_t i = 0; i < 100; ++i) {
    owned.push_back(std::make_unique<std::string>("object#" + std::to_string(i)));
    table.try_emplace(std::string_view(*owned.back()), i);
  }
  for (size_t i = 0; i < owned.size(); ++i) {
    const std::string probe = "object#" + std::to_string(i);
    ASSERT_NE(table.find(probe), nullptr);
    EXPECT_EQ(*table.find(probe), i);
  }
}

// Move-only, and counts live instances so a leak or a double destroy shows.
struct Tracked {
  static inline int live = 0;
  explicit Tracked(int v) : value(std::make_unique<int>(v)) { live++; }
  Tracked(Tracked&& other) noexcept : value(std::move(other.value)) { live++; }
  Tracked& operator=(Tracked&& other) noexcept {
    value = std::move(other.value);
    return *this;
  }
  Tracked(const Tracked&) = delete;
  Tracked& operator=(const Tracked&) = delete;
  ~Tracked() { live--; }
  std::unique_ptr<int> value;
};

TEST(FlatHashMapTest, MoveOnlyValuesSurviveGrowthAndShifts) {
  Tracked::live = 0;
  {
    FlatHashMap<std::string, Tracked> table;
    for (int i = 0; i < 200; ++i) table.try_emplace("k" + std::to_string(i), i);
    EXPECT_EQ(Tracked::live, 200);
    for (int i = 0; i < 200; i += 2) {
      ASSERT_TRUE(table.erase("k" + std::to_string(i)));
    }
    EXPECT_EQ(Tracked::live, 100);
    std::optional<Tracked> taken = table.take("k1");
    ASSERT_TRUE(taken.has_value());
    EXPECT_EQ(*taken->value, 1);
    taken.reset();
    EXPECT_EQ(Tracked::live, 99);
    for (int i = 3; i < 200; i += 2) {
      const Tracked* t = table.find("k" + std::to_string(i));
      ASSERT_NE(t, nullptr);
      EXPECT_EQ(*t->value, i);
    }
    table.clear();
    EXPECT_EQ(Tracked::live, 0);
    table.try_emplace(std::string("again"), 7);
    EXPECT_EQ(Tracked::live, 1);
  }
  EXPECT_EQ(Tracked::live, 0);  // the destructor drops what is left

  FlatHashMap<std::string, std::unique_ptr<int>> owners;
  owners.try_emplace(std::string("a"), std::make_unique<int>(5));
  std::optional<std::unique_ptr<int>> a = owners.take("a");
  ASSERT_TRUE(a.has_value());
  EXPECT_EQ(**a, 5);
}

// Eight home slots at the bottom of the array...
struct LowHomes {
  size_t operator()(std::string_view s) const {
    return static_cast<unsigned char>(s.back()) % 8;
  }
};
// ...or at the top, so every run wraps past the last slot.
struct HighHomes {
  size_t operator()(std::string_view s) const {
    return ~size_t{0} - static_cast<unsigned char>(s.back()) % 8;
  }
};

template <class Hash>
void fuzz_against_unordered_map(uint64_t seed) {
  FlatHashMap<std::string, int, Hash> table;
  std::unordered_map<std::string, int> reference;
  std::vector<std::string> universe;
  for (int i = 0; i < 96; ++i) universe.push_back("key" + std::to_string(i));
  Rng rng(seed);
  for (int step = 0; step < 4000; ++step) {
    const std::string& key = universe[rng.next_below(universe.size())];
    const int value = static_cast<int>(rng.next_below(1000));
    switch (rng.next_below(4)) {
      case 0:
      case 1: {
        auto [v, inserted] = table.try_emplace(key, value);
        auto [it, ref_inserted] = reference.try_emplace(key, value);
        ASSERT_EQ(inserted, ref_inserted) << "step " << step;
        ASSERT_EQ(*v, it->second) << "step " << step;
        break;
      }
      case 2:
        ASSERT_EQ(table.erase(key), reference.erase(key) == 1)
            << "step " << step;
        break;
      case 3: {
        const std::optional<int> taken = table.take(key);
        auto it = reference.find(key);
        ASSERT_EQ(taken.has_value(), it != reference.end()) << "step " << step;
        if (it != reference.end()) {
          ASSERT_EQ(*taken, it->second);
          reference.erase(it);
        }
        break;
      }
    }
    ASSERT_EQ(table.size(), reference.size()) << "step " << step;
    ASSERT_LE(table.size() * 4, table.capacity() * 3);
    for (const std::string& k : universe) {
      const int* v = table.find(k);
      auto it = reference.find(k);
      ASSERT_EQ(v != nullptr, it != reference.end())
          << k << " at step " << step;
      if (v != nullptr) {
        ASSERT_EQ(*v, it->second) << k << " at step " << step;
      }
    }
  }
}

TEST(FlatHashMapTest, DifferentialFuzzWithLowHomes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    fuzz_against_unordered_map<LowHomes>(seed);
  }
}

TEST(FlatHashMapTest, DifferentialFuzzWithWrappingHomes) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    fuzz_against_unordered_map<HighHomes>(seed);
  }
}

TEST(FlatHashMapTest, DifferentialFuzzWithTheDefaultHash) {
  fuzz_against_unordered_map<StringHash>(7);
}

}  // namespace
}  // namespace wiera
