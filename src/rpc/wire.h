// Binary wire format — the Thrift stand-in's serialization layer.
//
// Little-endian fixed-width integers, length-prefixed strings/blobs. Every
// RPC payload in the system is produced by WireWriter and consumed by
// WireReader; the serialized size feeds the network model, so message sizes
// (and therefore transfer times and egress bills) are realistic.
//
// Field lists: like a Thrift IDL struct, a message is declared once. Each
// struct lists its fields in wire order in a static `wire_fields`, and
// put_field / get_field (end of this file) derive both directions from it.
//
// Zero-copy path: blob payloads at or above kZeroCopyThreshold are not
// memcpy'd into the scratch buffer — the writer seals the scratch as one
// segment and appends the blob's ref-counted Buffer as the next, and
// take_body() hands the segments to rpc::Message without flattening. The
// segmented body's logical byte string is identical to the flat encoding
// (take() still produces it), so wire sizes, transfer times, and every
// determinism trace are unchanged. Readers constructed over a BodyView
// alias blob bytes out of the body's storage instead of copying.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/bytes.h"
#include "common/status.h"
#include "common/time.h"

namespace wiera::rpc {

// Blobs shorter than this are cheaper to memcpy inline than to carry as a
// separate ref-counted segment (segment = shared_ptr bump + vector slot).
inline constexpr size_t kZeroCopyThreshold = 64;

class WireWriter {
 public:
  WireWriter() : arena_(default_arena()), buf_(arena_->acquire()) {}
  explicit WireWriter(BufferArena* arena)
      : arena_(arena), buf_(arena_->acquire()) {}

  void put_u8(uint8_t v) { buf_.push_back(v); }
  void put_bool(bool v) { put_u8(v ? 1 : 0); }
  void put_u32(uint32_t v) { put_raw(&v, sizeof(v)); }
  void put_u64(uint64_t v) { put_raw(&v, sizeof(v)); }
  void put_i64(int64_t v) { put_raw(&v, sizeof(v)); }
  void put_double(double v) { put_raw(&v, sizeof(v)); }

  void put_string(std::string_view s) {
    put_u32(static_cast<uint32_t>(s.size()));
    put_raw(s.data(), s.size());
  }

  void put_blob(const Blob& b) {
    put_u32(static_cast<uint32_t>(b.size()));
    if (b.size() >= kZeroCopyThreshold) {
      seal_scratch();
      body_.append(b.buffer());
    } else {
      put_raw(b.data(), b.size());
    }
  }

  size_t size() const { return body_.size() + buf_.size(); }

  // Flat encoding, always a fresh copy when blobs were segmented. The
  // metadata snapshot and tests use this; the RPC path uses take_body().
  Bytes take() {
    if (body_.segment_count() == 0) return std::move(buf_);
    Bytes out = body_.flatten();
    out.insert(out.end(), buf_.begin(), buf_.end());
    body_ = BodyView();
    buf_.clear();
    return out;
  }

  // The segmented body: blob payloads ride as shared segments, everything
  // else in arena-recycled scratch segments. Logical bytes == take().
  BodyView take_body() {
    seal_scratch();
    return std::move(body_);
  }

  // Only meaningful while no blob has been segmented (the scratch holds the
  // whole encoding); the metadata checksum path uses this.
  const Bytes& bytes() const {
    assert(body_.segment_count() == 0 &&
           "bytes() is invalid after a zero-copy put_blob; use take()");
    return buf_;
  }

 private:
  void put_raw(const void* data, size_t len) {
    const auto* p = static_cast<const uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  void seal_scratch() {
    if (buf_.empty()) return;
    body_.append(arena_->seal(std::move(buf_)));
    buf_ = arena_->acquire();
  }

  // Encoders are free functions with no per-simulation handle, so the
  // recycling pool is process-wide. The simulation is single-threaded and
  // buffer reuse is invisible to program logic (contents are fully
  // rewritten, sizes unchanged), so determinism is unaffected.
  static BufferArena* default_arena() {
    static BufferArena arena;
    return &arena;
  }

  BufferArena* arena_;
  BodyView body_;
  Bytes buf_;
};

// Bounds-checked reader. Reads return false / default on truncation and
// latch an error flag; callers check ok() once at the end (Thrift-style).
// Constructed over a BodyView it reads the logical byte string across
// segments; get_blob then aliases the body's storage (zero copy) whenever
// the blob does not straddle a segment boundary — which it never does for
// writer-produced bodies, only for corrupted length fields.
class WireReader {
 public:
  explicit WireReader(const Bytes& data)
      : data_(data.data()), size_(data.size()) {}
  WireReader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit WireReader(const BodyView& body)
      : body_(&body), size_(body.size()) {}

  bool ok() const { return !failed_; }
  size_t remaining() const { return size_ - pos_; }

  uint8_t get_u8() {
    uint8_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }
  bool get_bool() { return get_u8() != 0; }
  uint32_t get_u32() {
    uint32_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }
  uint64_t get_u64() {
    uint64_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }
  int64_t get_i64() {
    int64_t v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }
  double get_double() {
    double v = 0;
    get_raw(&v, sizeof(v));
    return v;
  }

  std::string get_string() {
    const uint32_t len = get_u32();
    if (failed_ || len > remaining()) {
      failed_ = true;
      return {};
    }
    std::string s(len, '\0');
    copy_out(s.data(), len);
    return s;
  }

  Blob get_blob() {
    const uint32_t len = get_u32();
    if (failed_ || len > remaining()) {
      failed_ = true;
      return {};
    }
    if (len == 0) return {};
    if (body_ != nullptr) {
      const Buffer& seg = body_->segment(seg_);
      if (len <= seg.size() - seg_off_) {
        // Fast path: the payload sits inside one segment — hand out a view
        // of the body's storage instead of copying.
        Buffer alias = seg.slice(seg_off_, len);
        advance(len);
        return Blob(std::move(alias));
      }
      Bytes out(len);
      copy_out(out.data(), len);
      return Blob(std::move(out));
    }
    Blob b(Bytes(data_ + pos_, data_ + pos_ + len));
    pos_ += len;
    return b;
  }

  Status status() const {
    return failed_ ? invalid_argument("truncated or malformed wire data")
                   : ok_status();
  }

 private:
  void get_raw(void* out, size_t len) {
    if (failed_ || len > remaining()) {
      failed_ = true;
      std::memset(out, 0, len);
      return;
    }
    copy_out(out, len);
  }

  // Copies `len` logical bytes (possibly across segments) and advances.
  // Caller has already bounds-checked.
  void copy_out(void* out, size_t len) {
    if (body_ == nullptr) {
      std::memcpy(out, data_ + pos_, len);
      pos_ += len;
      return;
    }
    auto* dst = static_cast<uint8_t*>(out);
    while (len > 0) {
      const Buffer& seg = body_->segment(seg_);
      const size_t take = std::min(len, seg.size() - seg_off_);
      std::memcpy(dst, seg.data() + seg_off_, take);
      dst += take;
      len -= take;
      advance(take);
    }
  }

  void advance(size_t n) {
    pos_ += n;
    if (body_ == nullptr) return;
    seg_off_ += n;
    while (seg_ < body_->segment_count() &&
           seg_off_ >= body_->segment(seg_).size()) {
      seg_off_ -= body_->segment(seg_).size();
      seg_++;
    }
  }

  const uint8_t* data_ = nullptr;
  const BodyView* body_ = nullptr;
  size_t size_;
  size_t pos_ = 0;
  size_t seg_ = 0;     // segmented mode: current segment index
  size_t seg_off_ = 0;  // ... and offset within it
  bool failed_ = false;
};

// ---- field lists ----
//
// A struct joins the wire format by listing its fields in wire order:
//
//   struct RepairFetchRequest {
//     std::string key;
//     int64_t version = 0;
//     template <class Self>
//     static auto wire_fields(Self& m) { return std::tie(m.key, m.version); }
//   };
//
// The wire types: bool (u8), int64_t, uint64_t, strings and Blobs (u32
// length, then the bytes), TimePoint (i64 µs), enums (u32), vectors (u32
// count, then the elements) and nested field-list structs. Fields a struct
// leaves out of its list (frame metadata such as deadlines) never travel.
template <class T>
concept WireStruct = requires(T& m) { T::wire_fields(m); };

inline void put_field(WireWriter& w, bool v) { w.put_bool(v); }
inline void put_field(WireWriter& w, int64_t v) { w.put_i64(v); }
inline void put_field(WireWriter& w, uint64_t v) { w.put_u64(v); }
inline void put_field(WireWriter& w, const std::string& v) { w.put_string(v); }
inline void put_field(WireWriter& w, const Blob& v) { w.put_blob(v); }
inline void put_field(WireWriter& w, TimePoint v) { w.put_i64(v.us()); }
template <class E>
  requires std::is_enum_v<E>
void put_field(WireWriter& w, E v) {
  w.put_u32(static_cast<uint32_t>(v));
}
template <class T>
void put_field(WireWriter& w, const std::vector<T>& v) {
  w.put_u32(static_cast<uint32_t>(v.size()));
  for (const T& e : v) put_field(w, e);
}
template <WireStruct T>
void put_field(WireWriter& w, const T& m) {
  std::apply([&w](const auto&... f) { (put_field(w, f), ...); },
             T::wire_fields(m));
}

// Reads never throw: a short body latches the reader's error flag and the
// caller checks r.ok() once at the end.
inline void get_field(WireReader& r, bool& v) { v = r.get_bool(); }
inline void get_field(WireReader& r, int64_t& v) { v = r.get_i64(); }
inline void get_field(WireReader& r, uint64_t& v) { v = r.get_u64(); }
inline void get_field(WireReader& r, std::string& v) { v = r.get_string(); }
inline void get_field(WireReader& r, Blob& v) { v = r.get_blob(); }
inline void get_field(WireReader& r, TimePoint& v) {
  v = TimePoint(r.get_i64());
}
template <class E>
  requires std::is_enum_v<E>
void get_field(WireReader& r, E& v) {
  v = static_cast<E>(r.get_u32());
}
// Stops at the first failed read: a corrupt count cannot drive a
// four-billion-step loop over an empty body.
template <class T>
void get_field(WireReader& r, std::vector<T>& v) {
  const uint32_t n = r.get_u32();
  for (uint32_t i = 0; i < n && r.ok(); ++i) get_field(r, v.emplace_back());
}
template <WireStruct T>
void get_field(WireReader& r, T& m) {
  std::apply([&r](auto&... f) { (get_field(r, f), ...); }, T::wire_fields(m));
}

}  // namespace wiera::rpc
