// Byte-buffer types and helpers for object payloads and message bodies.
//
// Objects in Wiera are uninterpreted byte sequences (§2.2 of the paper).
// Payloads can be large and are shared between replicas inside one process,
// so the canonical representations are reference-counted:
//
//  * Buffer — a (storage, offset, len) view into shared immutable bytes.
//    Copying or slicing a Buffer never copies bytes, only bumps refcounts.
//  * Blob — an object payload; a thin semantic wrapper over one Buffer.
//  * BodyView — an RPC message body: logically one contiguous byte string,
//    physically a short list of Buffer segments. Wire encoders append blob
//    payloads as shared segments instead of memcpying them into the body,
//    and decoders hand out Blobs that alias the body's storage — so on the
//    PUT/GET hot path a payload is copied at most once per node (into the
//    original Bytes) no matter how many RPC hops or replicas it crosses.
//  * BufferArena — recycles byte-vector capacity across messages so the
//    encode path reuses allocations instead of hitting the allocator per
//    message.
#pragma once

#include <cassert>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/small_vec.h"

namespace wiera {

using Bytes = std::vector<uint8_t>;

// Ref-counted view into shared immutable byte storage. Copy/slice are O(1)
// refcount operations; the underlying bytes are freed when the last view
// drops. A Buffer's bytes are always contiguous.
class Buffer {
 public:
  Buffer() = default;
  explicit Buffer(Bytes bytes)
      : storage_(std::make_shared<const Bytes>(std::move(bytes))),
        offset_(0),
        len_(storage_->size()) {}
  explicit Buffer(std::string_view s) : Buffer(Bytes(s.begin(), s.end())) {}
  Buffer(std::shared_ptr<const Bytes> storage, size_t offset, size_t len)
      : storage_(std::move(storage)), offset_(offset), len_(len) {
    assert(storage_ != nullptr && offset_ + len_ <= storage_->size());
  }

  static Buffer zeros(size_t size) { return Buffer(Bytes(size, 0)); }

  size_t size() const { return len_; }
  bool empty() const { return len_ == 0; }
  const uint8_t* data() const {
    return storage_ ? storage_->data() + offset_ : nullptr;
  }
  std::string_view view() const {
    return {reinterpret_cast<const char*>(data()), len_};
  }

  // A sub-view sharing this buffer's storage; clamps to the buffer's end.
  Buffer slice(size_t offset, size_t len) const {
    if (!storage_ || offset >= len_) return {};
    return Buffer(storage_, offset_ + offset, std::min(len, len_ - offset));
  }

  bool shares_storage_with(const Buffer& other) const {
    return storage_ != nullptr && storage_ == other.storage_;
  }
  // Live references to the storage block (tests assert lifetime behavior).
  long use_count() const { return storage_.use_count(); }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    if (a.len_ != b.len_) return false;
    if (a.storage_ == b.storage_ && a.offset_ == b.offset_) return true;
    return a.len_ == 0 || std::memcmp(a.data(), b.data(), a.len_) == 0;
  }

 private:
  std::shared_ptr<const Bytes> storage_;
  size_t offset_ = 0;
  size_t len_ = 0;
};

// Recycles byte-vector capacity across messages. acquire() hands out an
// empty Bytes that reuses a previously released block's capacity; seal()
// wraps filled bytes in a Buffer whose storage returns to this arena when
// the last reference drops. The arena must outlive every Buffer sealed
// through it. Single-threaded by design, like the simulation it serves.
class BufferArena {
 public:
  Bytes acquire(size_t reserve_hint = 0) {
    Bytes out;
    if (!free_.empty()) {
      out = std::move(free_.back());
      free_.pop_back();
      out.clear();
    }
    if (out.capacity() < reserve_hint) out.reserve(reserve_hint);
    return out;
  }

  void release(Bytes bytes) {
    if (free_.size() < kMaxPooled && bytes.capacity() > 0) {
      free_.push_back(std::move(bytes));
    }
  }

  Buffer seal(Bytes bytes) {
    const size_t len = bytes.size();
    // One fused allocation (control block + block) via allocate_shared,
    // aliased down to the Bytes member — and even that allocation is
    // recycled through the slab freelist below. A naive `new Bytes` +
    // custom-deleter control block costs two malloc/free pairs per sealed
    // message, which IS most of the work on the small-RPC hot path.
    auto block = std::allocate_shared<ArenaBlock>(BlockAlloc<ArenaBlock>(this),
                                                  this, std::move(bytes));
    std::shared_ptr<const Bytes> storage(block, &block->bytes);
    return Buffer(std::move(storage), 0, len);
  }

  size_t pooled() const { return free_.size(); }

  ~BufferArena() {
    for (void* slab : slabs_) ::operator delete(slab);
  }
  BufferArena() = default;
  BufferArena(const BufferArena&) = delete;
  BufferArena& operator=(const BufferArena&) = delete;

 private:
  struct ArenaBlock {
    ArenaBlock(BufferArena* a, Bytes b) : arena(a), bytes(std::move(b)) {}
    ~ArenaBlock() { arena->release(std::move(bytes)); }
    BufferArena* arena;
    Bytes bytes;
  };

  // Fixed-size slab recycling for the shared_ptr control block + ArenaBlock
  // node that allocate_shared fuses into one piece. Every sealed message
  // needs exactly one such node, so round-tripping them through a freelist
  // makes the steady-state encode path allocation-free. Slabs only serve
  // single-object allocations that fit kSlabBytes; anything else falls
  // through to plain operator new.
  template <typename T>
  struct BlockAlloc {
    using value_type = T;
    explicit BlockAlloc(BufferArena* a) : arena(a) {}
    template <typename U>
    BlockAlloc(const BlockAlloc<U>& other) : arena(other.arena) {}

    T* allocate(size_t n) {
      if (n == 1 && sizeof(T) <= kSlabBytes &&
          alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
          !arena->slabs_.empty()) {
        void* slab = arena->slabs_.back();
        arena->slabs_.pop_back();
        return static_cast<T*>(slab);
      }
      return static_cast<T*>(::operator new(
          n == 1 && sizeof(T) <= kSlabBytes ? kSlabBytes : n * sizeof(T)));
    }
    void deallocate(T* p, size_t n) {
      if (n == 1 && sizeof(T) <= kSlabBytes &&
          alignof(T) <= __STDCPP_DEFAULT_NEW_ALIGNMENT__ &&
          arena->slabs_.size() < kMaxPooled) {
        arena->slabs_.push_back(p);
        return;
      }
      ::operator delete(p);
    }
    template <typename U>
    bool operator==(const BlockAlloc<U>& other) const {
      return arena == other.arena;
    }

    BufferArena* arena;
  };

  static constexpr size_t kMaxPooled = 64;
  static constexpr size_t kSlabBytes = 128;
  std::vector<Bytes> free_;
  std::vector<void*> slabs_;
};

// Immutable, cheaply copyable payload. A put() captures the bytes once;
// replication/copy responses then share the buffer instead of duplicating
// multi-megabyte values per replica.
class Blob {
 public:
  Blob() = default;
  explicit Blob(Bytes data) : buf_(std::move(data)) {}
  explicit Blob(std::string_view s) : buf_(s) {}
  explicit Blob(Buffer buffer) : buf_(std::move(buffer)) {}

  // A zero-filled payload of the given size (workload generators use this;
  // content does not matter, size drives transfer and storage costs).
  static Blob zeros(size_t size) { return Blob(Buffer::zeros(size)); }

  size_t size() const { return buf_.size(); }
  bool empty() const { return buf_.empty(); }
  const uint8_t* data() const { return buf_.data(); }

  std::string_view view() const { return buf_.view(); }
  std::string to_string() const { return std::string(view()); }

  const Buffer& buffer() const { return buf_; }

  friend bool operator==(const Blob& a, const Blob& b) {
    return a.buf_ == b.buf_;
  }

 private:
  Buffer buf_;
};

// Segmented RPC message body. Logically one contiguous byte string (size(),
// at(), flatten() all address the concatenation); physically a short inline
// list of ref-counted segments, so appending a payload is a refcount bump.
// Wire layout is identical to the flat encoding — segmentation is invisible
// on the (simulated) wire, and wire_size/transfer costs are unchanged.
class BodyView {
 public:
  BodyView() = default;
  // Implicit: most messages are a single owned segment of header fields.
  BodyView(Bytes bytes) {  // NOLINT(google-explicit-constructor)
    append(Buffer(std::move(bytes)));
  }
  explicit BodyView(Buffer segment) { append(std::move(segment)); }

  BodyView(const BodyView&) = default;
  BodyView& operator=(const BodyView&) = default;
  BodyView(BodyView&& other) noexcept
      : segments_(std::move(other.segments_)), size_(other.size_) {
    other.size_ = 0;
  }
  BodyView& operator=(BodyView&& other) noexcept {
    segments_ = std::move(other.segments_);
    size_ = other.size_;
    other.size_ = 0;
    return *this;
  }

  void append(Buffer segment) {
    if (segment.empty()) return;
    size_ += segment.size();
    segments_.push_back(std::move(segment));
  }

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  size_t segment_count() const { return segments_.size(); }
  const Buffer& segment(size_t i) const { return segments_[i]; }

  uint8_t at(size_t logical) const {
    assert(logical < size_);
    for (const Buffer& seg : segments_) {
      if (logical < seg.size()) return seg.data()[logical];
      logical -= seg.size();
    }
    return 0;
  }

  // Copy-on-write byte flip (chaos message corruption). Only the segment
  // containing the byte is cloned: with zero-copy bodies the payload
  // storage is shared with the sender's tiers and any sibling messages, so
  // flipping in place would corrupt every holder, not just this delivery.
  void flip_byte(size_t logical) {
    assert(logical < size_);
    for (size_t i = 0; i < segments_.size(); ++i) {
      Buffer& seg = segments_[i];
      if (logical >= seg.size()) {
        logical -= seg.size();
        continue;
      }
      Bytes copy(seg.data(), seg.data() + seg.size());
      copy[logical] ^= 0x01;
      seg = Buffer(std::move(copy));
      return;
    }
  }

  // The full logical byte string, copied out (tests / legacy comparisons).
  Bytes flatten() const {
    Bytes out;
    out.reserve(size_);
    for (const Buffer& seg : segments_) {
      out.insert(out.end(), seg.data(), seg.data() + seg.size());
    }
    return out;
  }

  friend bool operator==(const BodyView& a, const BodyView& b) {
    if (a.size_ != b.size_) return false;
    for (size_t i = 0; i < a.size_; ++i) {
      if (a.at(i) != b.at(i)) return false;
    }
    return true;
  }

 private:
  SmallVec<Buffer, 3> segments_;
  size_t size_ = 0;
};

// FNV-1a 64-bit — the one stable hash behind object checksums, dedup
// checks, key scrambling and the determinism trace. Inline: it runs over
// every payload byte and on every simulated event.
inline constexpr uint64_t kFnv1aBasis = 14695981039346656037ull;
inline constexpr uint64_t kFnv1aPrime = 1099511628211ull;

// Continues `hash` over `len` bytes.
inline uint64_t fnv1a64(uint64_t hash, const void* data, size_t len) {
  const auto* p = static_cast<const uint8_t*>(data);
  for (size_t i = 0; i < len; ++i) {
    hash ^= p[i];
    hash *= kFnv1aPrime;
  }
  return hash;
}

// Continues `hash` over the eight bytes of `v`, least significant first.
inline uint64_t fnv1a64_u64(uint64_t hash, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    hash ^= (v >> (8 * i)) & 0xFF;
    hash *= kFnv1aPrime;
  }
  return hash;
}

inline uint64_t fnv1a64(const void* data, size_t len) {
  return fnv1a64(kFnv1aBasis, data, len);
}

inline uint64_t fnv1a64(std::string_view s) {
  return fnv1a64(s.data(), s.size());
}

}  // namespace wiera
