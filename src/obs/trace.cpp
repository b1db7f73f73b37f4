#include "obs/trace.h"

#include <algorithm>

#include "common/strings.h"

namespace wiera::obs {

namespace {
// Keep the tracer's id stream independent of everything else derived from
// the seed (sim RNG, workload RNGs) so adding a trace never shifts them.
constexpr uint64_t kTracerSeedSalt = 0x7261636572696457ull;  // "WieraTrace"
}  // namespace

Tracer::Tracer(uint64_t seed) : id_rng_(seed ^ kTracerSeedSalt) {}

TraceContext Tracer::start_trace(std::string_view name,
                                 std::string_view host) {
  TraceContext ctx;
  do {
    ctx.trace_id = id_rng_.next_u64();
  } while (ctx.trace_id == 0);
  ctx.span_id = ++span_seq_;
  ctx.parent_span_id = 0;
  if (retain_) retain_span(ctx, name, host, {});
  return ctx;
}

TraceContext Tracer::start_span(std::string_view name, std::string_view host,
                                const TraceContext& parent,
                                std::string_view detail) {
  if (!parent.active()) return {};
  TraceContext ctx;
  ctx.trace_id = parent.trace_id;
  ctx.span_id = ++span_seq_;
  ctx.parent_span_id = parent.span_id;
  if (retain_) retain_span(ctx, name, host, detail);
  return ctx;
}

void Tracer::end_span(const TraceContext& ctx, std::string_view status) {
  Span* span = find_mutable(ctx.span_id);
  if (span == nullptr || !span->open()) return;
  span->end = now();
  span->status.assign(status);
  open_count_--;
}

void Tracer::annotate(const TraceContext& ctx, std::string annotation) {
  annotate(ctx.span_id, std::move(annotation));
}

void Tracer::annotate(uint64_t span_id, std::string annotation) {
  Span* span = find_mutable(span_id);
  if (span == nullptr) return;
  span->annotations.push_back(std::move(annotation));
}

std::vector<std::string> Tracer::open_span_names() const {
  std::vector<std::string> out;
  for_each_span([&](const Span& span) {
    if (span.open()) out.push_back(span.name + " (" + span.host + ")");
  });
  return out;
}

const Span* Tracer::find_span(uint64_t span_id) const {
  if (spans_.empty() || span_id < at(0).span_id) return nullptr;
  // Retained ids increase, and run consecutively while retention stays on:
  // the id's offset from the oldest retained id is its slot.
  const uint64_t offset = span_id - at(0).span_id;
  if (offset < spans_.size() && at(offset).span_id == span_id) {
    return &at(offset);
  }
  // A retention gap (set_retain(false) then true) skipped ids: search the
  // ring, oldest to newest, by its increasing ids.
  size_t lo = 0, hi = spans_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    if (at(mid).span_id < span_id) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo < spans_.size() && at(lo).span_id == span_id ? &at(lo) : nullptr;
}

std::vector<const Span*> Tracer::trace_spans(uint64_t trace_id) const {
  std::vector<const Span*> out;
  for_each_span([&](const Span& span) {
    if (span.trace_id == trace_id) out.push_back(&span);
  });
  return out;
}

void Tracer::retain_span(const TraceContext& ctx, std::string_view name,
                         std::string_view host, std::string_view detail) {
  Span* span = nullptr;
  if (spans_.size() < kCapacity) {
    spans_.reserve(kCapacity);  // no-op after the first retained span
    span = &spans_.emplace_back();
  } else {
    // Evict the oldest span and reuse its slot in place: its strings and
    // annotation vector keep their capacity.
    span = &spans_[head_];
    head_ = (head_ + 1) & (kCapacity - 1);
    if (span->open()) open_count_--;
    dropped_++;
    span->end = TimePoint::max();
    span->status.assign("ok");
    span->annotations.clear();
  }
  open_count_++;
  span->trace_id = ctx.trace_id;
  span->span_id = ctx.span_id;
  span->parent_span_id = ctx.parent_span_id;
  span->name.assign(name);
  if (!detail.empty()) {
    span->name += ' ';
    span->name += detail;
  }
  span->host.assign(host);
  span->start = now();
}

// ---------------------------------------------------------------- TraceView

TraceView::TraceView(const Tracer& tracer, uint64_t trace_id)
    : trace_id_(trace_id), spans_(tracer.trace_spans(trace_id)) {
  for (const Span* span : spans_) {
    children_[span->parent_span_id].push_back(span);
  }
  for (auto& [parent, kids] : children_) {
    std::sort(kids.begin(), kids.end(), [](const Span* a, const Span* b) {
      if (a->start != b->start) return a->start < b->start;
      return a->span_id < b->span_id;
    });
  }
}

const Span* TraceView::root() const {
  auto it = children_.find(0);
  if (it == children_.end() || it->second.size() != 1) return nullptr;
  return it->second.front();
}

bool TraceView::parent_retained(const Span* span) const {
  auto it = std::lower_bound(
      spans_.begin(), spans_.end(), span->parent_span_id,
      [](const Span* s, uint64_t id) { return s->span_id < id; });
  return it != spans_.end() && (*it)->span_id == span->parent_span_id;
}

bool TraceView::well_formed() const {
  if (root() == nullptr) return false;
  return std::all_of(spans_.begin(), spans_.end(), [&](const Span* span) {
    return span->parent_span_id == 0 || parent_retained(span);
  });
}

std::string TraceView::render() const {
  std::string out = str_format("trace %016llx: %zu span(s)\n",
                               static_cast<unsigned long long>(trace_id_),
                               spans_.size());
  if (spans_.empty()) return out;
  // Render every parentless subtree (a single root in the well-formed case;
  // orphans still render rather than vanish when the collector dropped
  // their ancestors).
  const Span* r = root();
  const TimePoint origin = r != nullptr ? r->start : spans_.front()->start;
  for (const auto& [parent, kids] : children_) {
    for (const Span* span : kids) {
      if (span->parent_span_id != 0 && parent_retained(span)) continue;
      render_node(span, 1, origin, out);
    }
  }
  return out;
}

void TraceView::render_node(const Span* span, int depth, TimePoint origin,
                            std::string& out) const {
  out.append(static_cast<size_t>(depth) * 2, ' ');
  out += str_format(
      "+%-9s %-9s %s [%s] %s", (span->start - origin).to_string().c_str(),
      span->open() ? "open" : span->duration().to_string().c_str(),
      span->name.c_str(), span->host.c_str(), span->status.c_str());
  for (const std::string& a : span->annotations) {
    out += " {" + a + "}";
  }
  out += "\n";
  auto it = children_.find(span->span_id);
  if (it == children_.end()) return;
  for (const Span* child : it->second) {
    render_node(child, depth + 1, origin, out);
  }
}

}  // namespace wiera::obs
