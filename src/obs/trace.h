// Distributed tracing: Dapper-style spans over the simulation's virtual
// clock, collected in a bounded in-memory buffer and reassembled on demand
// into per-request trees with hop-latency breakdowns (TraceView).
//
// Determinism contract (docs/DETERMINISM.md): trace ids come from a
// *dedicated* RNG stream seeded from the simulation seed — never from the
// shared sim RNG — and span ids from a sequential counter, so the same seed
// always yields the same ids and telemetry can never perturb the schedule.
// Id generation runs whether or not retention is enabled; `set_retain(false)`
// only stops the collector from storing spans (pure memory, schedules
// nothing), which is what keeps the determinism trace hash byte-identical
// with telemetry on vs. off.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "common/trace.h"

namespace wiera::obs {

struct Span {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;  // 0 for a root span
  std::string name;             // e.g. "client.put", "rpc.server peer.client_put"
  std::string host;             // emitting instance/node, e.g. "NYC"
  TimePoint start;
  TimePoint end = TimePoint::max();  // max() while the span is open
  std::string status = "ok";
  std::vector<std::string> annotations;  // "key=value" strings, in order

  bool open() const { return end == TimePoint::max(); }
  Duration duration() const {
    return open() ? Duration::zero() : end - start;
  }
};

class Tracer {
 public:
  explicit Tracer(uint64_t seed);

  // Virtual-clock hook for span start/end stamps.
  void set_clock(std::function<TimePoint()> clock) {
    clock_ = std::move(clock);
  }
  // Retention gate: when off, ids are still generated (see header comment)
  // but nothing is stored.
  void set_retain(bool on) { retain_ = on; }
  bool retain() const { return retain_; }

  // New root span; trace id drawn from the dedicated id RNG.
  TraceContext start_trace(std::string_view name, std::string_view host);
  // Child span. An inactive parent returns an inactive context without
  // consuming the span counter (the untraced state of a request is decided
  // by its call path, not by the schedule, so this stays deterministic).
  // A non-empty `detail` is appended to the name after one space
  // ("rpc.call" + "peer.client_get"), so a hop never builds its name string:
  // the retained span's name is assembled in place, and with retention off
  // not at all.
  TraceContext start_span(std::string_view name, std::string_view host,
                          const TraceContext& parent,
                          std::string_view detail = {});
  void end_span(const TraceContext& ctx, std::string_view status = "ok");
  // Attach a "key=value" annotation to an open or closed retained span.
  void annotate(const TraceContext& ctx, std::string annotation);
  void annotate(uint64_t span_id, std::string annotation);

  // Leak detection (SimChecker hooks into this at quiescence).
  int64_t open_count() const { return open_count_; }
  std::vector<std::string> open_span_names() const;

  int64_t dropped() const { return dropped_; }
  size_t span_count() const { return spans_.size(); }
  // Deterministic oldest-to-newest visitation of every retained span — the
  // attribution reporter's scan surface for worst-span selection.
  void for_each_span(const std::function<void(const Span&)>& fn) const {
    for (size_t i = head_; i < spans_.size(); ++i) fn(spans_[i]);
    for (size_t i = 0; i < head_; ++i) fn(spans_[i]);
  }
  const Span* find_span(uint64_t span_id) const;
  // All retained spans of one trace, in creation order.
  std::vector<const Span*> trace_spans(uint64_t trace_id) const;

 private:
  // Bounded collector: drop-oldest keeps the tail of a long run — the spans
  // a failure report actually wants — while capping memory. A power of two,
  // so a ring position wraps with a mask.
  static constexpr size_t kCapacity = 16384;

  TimePoint now() const { return clock_ ? clock_() : TimePoint::origin(); }
  // Stores ctx's span, open, in the next unfilled slot or, once the ring is
  // full, in the oldest one, which it evicts.
  void retain_span(const TraceContext& ctx, std::string_view name,
                   std::string_view host, std::string_view detail);
  // i-th oldest retained span.
  const Span& at(size_t i) const {
    return spans_[(head_ + i) & (kCapacity - 1)];
  }
  Span* find_mutable(uint64_t span_id) {
    return const_cast<Span*>(find_span(span_id));
  }

  Rng id_rng_;
  uint64_t span_seq_ = 0;
  bool retain_ = true;
  std::function<TimePoint()> clock_;

  // The ring: reserved to kCapacity on the first retained span and filled by
  // emplace_back, so slot addresses never move and pages are touched only as
  // slots fill. head_ is the oldest slot (0 until the ring is full).
  std::vector<Span> spans_;
  size_t head_ = 0;
  int64_t open_count_ = 0;
  int64_t dropped_ = 0;
};

// Reassembles one trace's spans into a tree and renders the hop-latency
// breakdown. Built lazily from the tracer's collector; cheap to construct.
class TraceView {
 public:
  TraceView(const Tracer& tracer, uint64_t trace_id);

  bool empty() const { return spans_.empty(); }
  size_t span_count() const { return spans_.size(); }
  const std::vector<const Span*>& spans() const { return spans_; }
  // The root span (parent_span_id == 0), or nullptr when the root was
  // dropped from the bounded collector.
  const Span* root() const;
  // Exactly one root and every non-root parent resolves to a retained span
  // (no orphans); duplicate span ids are impossible by construction.
  bool well_formed() const;
  // ASCII tree: one line per span with start offset from the trace root,
  // duration, host, status and annotations. Children sorted by start time.
  std::string render() const;

 private:
  // Whether the span's parent is among this trace's retained spans.
  bool parent_retained(const Span* span) const;
  void render_node(const Span* span, int depth, TimePoint origin,
                   std::string& out) const;

  uint64_t trace_id_;
  std::vector<const Span*> spans_;  // in span-id order
  std::map<uint64_t, std::vector<const Span*>> children_;
};

}  // namespace wiera::obs
