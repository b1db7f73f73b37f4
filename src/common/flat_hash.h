// Open-addressing hash table for the per-request lookups: MetaDb's point
// index, the tier stores and the lock table.
//
// A std::unordered_map hit reads the bucket, the node before the match, the
// node and the next node's bucket, each a separate allocation; on a store of
// 10–20k keys all of them are cache-cold. FlatHashMap keeps its entries in
// one power-of-two slot array and probes linearly, so a hit usually reads
// one slot:
//   * Each slot caches its key's full hash (top bit set = occupied), so a
//     probe compares keys only on a hash match, and growth re-places every
//     slot by its cached hash without hashing a key again.
//   * Erase shifts the rest of the probe run back over the hole (no
//     tombstones): a lookup stops at the first empty slot.
//   * Lookups are heterogeneous: a table keyed by std::string or
//     std::string_view answers a std::string_view without building a key.
//
// There is deliberately no iteration. Slot order follows hash values and
// growth history, so a caller that walks its keys keeps its own ordered
// structure (wiera-lint's unordered-iteration check treats FlatHashMap as
// unordered).
//
// Invalidation: an insert may grow the array and an erase shifts slots, so
// a value pointer from find() / try_emplace() is valid only until the next
// insert or erase on the same table.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <new>
#include <optional>
#include <string_view>
#include <utility>

namespace wiera {

// Hashes anything that converts to std::string_view, so one hasher serves
// std::string and std::string_view keys and their lookups alike.
struct StringHash {
  size_t operator()(std::string_view s) const noexcept {
    return std::hash<std::string_view>{}(s);
  }
};

template <class K, class V, class Hash = StringHash,
          class Eq = std::equal_to<>>
class FlatHashMap {
 public:
  FlatHashMap() = default;
  ~FlatHashMap() { clear(); }

  FlatHashMap(const FlatHashMap&) = delete;
  FlatHashMap& operator=(const FlatHashMap&) = delete;

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  size_t capacity() const { return mask_ == 0 ? 0 : mask_ + 1; }

  // The value stored under `key`, or null.
  template <class Q>
  V* find(const Q& key) {
    const size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].entry.value;
  }
  template <class Q>
  const V* find(const Q& key) const {
    const size_t i = index_of(key);
    return i == kNone ? nullptr : &slots_[i].entry.value;
  }
  template <class Q>
  bool contains(const Q& key) const {
    return find(key) != nullptr;
  }

  // The value under `key` and false when present; otherwise stores `key`
  // with a value built from `args` and returns it and true.
  template <class Q, class... Args>
  std::pair<V*, bool> try_emplace(Q&& key, Args&&... args) {
    const uint64_t h = tag(key);
    size_t i = h & mask_;
    if (size_ > 0) {
      for (; slots_[i].hash != 0; i = (i + 1) & mask_) {
        Slot& s = slots_[i];
        if (s.hash == h && eq_(s.entry.key, key)) {
          return {&s.entry.value, false};
        }
      }
    }
    if ((size_ + 1) * kMaxLoadDen > capacity() * kMaxLoadNum) {
      grow();
      i = free_slot(h);
    }
    Slot& s = slots_[i];
    ::new (static_cast<void*>(&s.entry))
        Entry{K(std::forward<Q>(key)), V(std::forward<Args>(args)...)};
    s.hash = h;
    size_++;
    return {&s.entry.value, true};
  }

  // Removes `key`; false when it was absent.
  template <class Q>
  bool erase(const Q& key) {
    const size_t i = index_of(key);
    if (i == kNone) return false;
    erase_at(i);
    return true;
  }

  // Removes `key` and returns its value; nullopt when it was absent.
  template <class Q>
  std::optional<V> take(const Q& key) {
    const size_t i = index_of(key);
    if (i == kNone) return std::nullopt;
    std::optional<V> value(std::move(slots_[i].entry.value));
    erase_at(i);
    return value;
  }

  // Drops every entry; the slot array is kept for reuse.
  void clear() {
    if (size_ == 0) return;
    for (size_t i = 0; i <= mask_; ++i) {
      if (slots_[i].hash != 0) vacate(slots_[i]);
    }
    size_ = 0;
  }

 private:
  // Grow past 3/4 full: linear probing's runs lengthen quickly beyond that.
  static constexpr size_t kMaxLoadNum = 3;
  static constexpr size_t kMaxLoadDen = 4;
  static constexpr size_t kMinCapacity = 16;
  static constexpr uint64_t kOccupied = uint64_t{1} << 63;
  static constexpr size_t kNone = ~size_t{0};

  struct Entry {
    K key;
    V value;
  };
  // `entry` is alive exactly while `hash` is non-zero.
  struct Slot {
    Slot() {}
    ~Slot() {}
    uint64_t hash = 0;
    union {
      Entry entry;
    };
  };

  template <class Q>
  uint64_t tag(const Q& key) const {
    return static_cast<uint64_t>(hash_(key)) | kOccupied;
  }

  template <class Q>
  size_t index_of(const Q& key) const {
    if (size_ == 0) return kNone;
    const uint64_t h = tag(key);
    for (size_t i = h & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.hash == 0) return kNone;
      if (s.hash == h && eq_(s.entry.key, key)) return i;
    }
  }

  // Empties slot `hole`, then shifts the rest of its probe run back: each
  // later entry moves into the hole unless its home slot lies after the
  // hole, so no lookup meets a gap before reaching its key.
  void erase_at(size_t hole) {
    vacate(slots_[hole]);
    for (size_t i = (hole + 1) & mask_; slots_[i].hash != 0;
         i = (i + 1) & mask_) {
      const size_t home = slots_[i].hash & mask_;
      if (((i - home) & mask_) < ((i - hole) & mask_)) continue;
      move_slot(slots_[hole], slots_[i]);
      hole = i;
    }
    size_--;
  }

  size_t free_slot(uint64_t h) const {
    size_t i = h & mask_;
    while (slots_[i].hash != 0) i = (i + 1) & mask_;
    return i;
  }

  static void vacate(Slot& s) {
    s.entry.~Entry();
    s.hash = 0;
  }

  // Moves the live entry of `from` into the empty slot `to`.
  static void move_slot(Slot& to, Slot& from) {
    ::new (static_cast<void*>(&to.entry)) Entry(std::move(from.entry));
    to.hash = from.hash;
    vacate(from);
  }

  void grow() {
    const size_t old_capacity = capacity();
    const size_t new_capacity =
        old_capacity == 0 ? kMinCapacity : old_capacity * 2;
    std::unique_ptr<Slot[]> old = std::move(slots_);
    slots_ = std::make_unique<Slot[]>(new_capacity);
    mask_ = new_capacity - 1;
    for (size_t i = 0; i < old_capacity; ++i) {
      if (old[i].hash != 0) move_slot(slots_[free_slot(old[i].hash)], old[i]);
    }
  }

  std::unique_ptr<Slot[]> slots_;
  size_t mask_ = 0;  // capacity - 1; 0 before the first insert
  size_t size_ = 0;
  [[no_unique_address]] Hash hash_;
  [[no_unique_address]] Eq eq_;
};

}  // namespace wiera
