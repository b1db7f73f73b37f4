// Unit tests for the telemetry layer (docs/OBSERVABILITY.md): metrics
// registry, exact small-sample histogram percentiles, deterministic tracing
// with TraceView reassembly, the JSONL event journal, and the SimChecker's
// leaked-span diagnostic at quiescence.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/units.h"
#include "obs/telemetry.h"
#include "sim/simulation.h"

namespace wiera::obs {
namespace {

// ----------------------------------------------------------------- registry

TEST(RegistryTest, LabeledFamiliesShareNameButNotSeries) {
  Registry reg;
  Counter* a = reg.counter("wiera_repairs_total", {{"instance", "NYC"}});
  Counter* b = reg.counter("wiera_repairs_total", {{"instance", "Paris"}});
  EXPECT_NE(a, b);
  a->inc(3);
  b->inc();
  EXPECT_EQ(reg.counter_value("wiera_repairs_total", {{"instance", "NYC"}}),
            3);
  EXPECT_EQ(reg.counter_value("wiera_repairs_total", {{"instance", "Paris"}}),
            1);
  EXPECT_EQ(reg.counter_sum("wiera_repairs_total"), 4);
  // Missing series/family read as zero, never materialize.
  EXPECT_EQ(reg.counter_value("wiera_repairs_total", {{"instance", "LA"}}), 0);
  EXPECT_EQ(reg.counter_sum("nope_total"), 0);
}

TEST(RegistryTest, GetOrCreateReturnsStablePointers) {
  Registry reg;
  Counter* a = reg.counter("x_total", {{"k", "v"}});
  a->inc();
  // Same name+labels in any key order resolves to the same instrument.
  EXPECT_EQ(reg.counter("x_total", {{"k", "v"}}), a);
  Gauge* g = reg.gauge("x_depth");
  g->set(2.5);
  EXPECT_EQ(reg.gauge("x_depth"), g);
  Histogram* h = reg.histogram("x_us");
  h->record(msec(5));
  EXPECT_EQ(reg.histogram("x_us"), h);
  ASSERT_NE(reg.find_histogram("x_us"), nullptr);
  EXPECT_EQ(reg.find_histogram("x_us")->count(), 1);
  EXPECT_EQ(reg.find_histogram("x_us", {{"k", "v"}}), nullptr);
}

TEST(RegistryTest, RenderTextIsSortedAndByteStable) {
  Registry reg;
  // Created in reverse order on purpose: rendering must sort by family
  // name, then label string.
  reg.counter("z_total")->inc(9);
  reg.counter("a_total", {{"instance", "b"}})->inc(2);
  reg.counter("a_total", {{"instance", "a"}})->inc(1);
  reg.histogram("m_us")->record(msec(10));
  const std::string text = reg.render_text();
  EXPECT_LT(text.find("a_total{instance=\"a\"} 1"),
            text.find("a_total{instance=\"b\"} 2"));
  // Families sorted by name within each instrument kind; counters render
  // before histograms.
  EXPECT_LT(text.find("a_total"), text.find("z_total"));
  EXPECT_LT(text.find("z_total"), text.find("m_us"));
  EXPECT_NE(text.find("m_us_count"), std::string::npos);
  // Byte-stable: a second render is identical.
  EXPECT_EQ(text, reg.render_text());
  const std::string json = reg.render_json();
  EXPECT_NE(json.find("\"z_total\""), std::string::npos);
  // JSON keys carry the label string with inner quotes escaped.
  EXPECT_NE(json.find("a_total{instance=\\\"a\\\"}"), std::string::npos);
}

// ---------------------------------------------------- exact small-n centiles

TEST(HistogramTest, SingleSampleReportsItselfAtEveryQuantile) {
  LatencyHistogram h;
  h.record(msec(7));
  EXPECT_EQ(h.count(), 1);
  EXPECT_EQ(h.sum(), msec(7));
  for (double q : {0.0, 0.01, 0.5, 0.95, 0.99, 1.0}) {
    EXPECT_EQ(h.percentile(q), msec(7)) << "q=" << q;
  }
}

TEST(HistogramTest, TwoSamplesSplitAtTheMedian) {
  // The documented n=2 edge: nearest-rank gives the lower sample for
  // q<=0.5 and the upper one above — no bucket interpolation drift.
  LatencyHistogram h;
  h.record(msec(1));
  h.record(msec(100));
  EXPECT_EQ(h.percentile(0.5), msec(1));
  EXPECT_EQ(h.percentile(0.51), msec(100));
  EXPECT_EQ(h.percentile(0.99), msec(100));
  EXPECT_EQ(h.sum(), msec(101));
}

TEST(HistogramTest, ExactUntilSampleCapThenBucketed) {
  LatencyHistogram h;
  for (int i = 1; i <= 64; ++i) h.record(msec(i));
  // Still exact at the cap: p50 over 1..64ms is the 32nd sample.
  EXPECT_EQ(h.percentile(0.5), msec(32));
  h.record(msec(65));  // 65th sample: flips to the bucketed approximation
  const Duration p50 = h.percentile(0.5);
  // Bucketed error bound is ~6% of the true value (33ms).
  EXPECT_GE(p50, msec(33));
  EXPECT_LE(p50.us(), static_cast<int64_t>(msec(33).us() * 1.12));
  EXPECT_EQ(h.count(), 65);
}

TEST(HistogramTest, MergeStaysExactOnlyWhileSmall) {
  LatencyHistogram a, b;
  a.record(msec(1));
  b.record(msec(3));
  a.merge(b);
  EXPECT_EQ(a.count(), 2);
  EXPECT_EQ(a.percentile(0.5), msec(1));
  EXPECT_EQ(a.percentile(1.0), msec(3));

  LatencyHistogram big, small;
  for (int i = 0; i < 100; ++i) big.record(msec(10));
  small.record(msec(10));
  small.merge(big);  // union > kExactSamples: falls back to buckets
  EXPECT_EQ(small.count(), 101);
  EXPECT_GE(small.percentile(0.5), msec(10));
}

TEST(HistogramTest, ResetRestoresExactMode) {
  LatencyHistogram h;
  for (int i = 0; i < 200; ++i) h.record(msec(50));
  h.reset();
  EXPECT_EQ(h.count(), 0);
  EXPECT_EQ(h.sum(), Duration::zero());
  EXPECT_EQ(h.percentile(0.5), Duration::zero());
  h.record(msec(9));
  EXPECT_EQ(h.percentile(0.99), msec(9));  // exact again after reset
}

// ------------------------------------------------------------------- tracer

TEST(TracerTest, SameSeedSameIdsDifferentSeedDifferent) {
  Tracer a(42), b(42), c(43);
  const TraceContext ta = a.start_trace("op", "h");
  const TraceContext tb = b.start_trace("op", "h");
  const TraceContext tc = c.start_trace("op", "h");
  EXPECT_EQ(ta.trace_id, tb.trace_id);
  EXPECT_EQ(ta.span_id, tb.span_id);
  EXPECT_NE(ta.trace_id, tc.trace_id);
}

TEST(TracerTest, InactiveParentYieldsInactiveChildWithoutConsumingIds) {
  Tracer t(1);
  const TraceContext untraced = t.start_span("child", "h", TraceContext{});
  EXPECT_FALSE(untraced.active());
  // The no-op child must not have consumed the span counter: the next real
  // trace's ids match a fresh tracer's second... i.e. a tracer that never
  // saw the inactive call.
  Tracer fresh(1);
  EXPECT_EQ(t.start_trace("op", "h").span_id,
            fresh.start_trace("op", "h").span_id);
}

TEST(TracerTest, OpenCountTracksUnclosedSpans) {
  Tracer t(1);
  const TraceContext root = t.start_trace("op", "h");
  const TraceContext child = t.start_span("step", "h", root);
  EXPECT_EQ(t.open_count(), 2);
  t.end_span(child);
  t.end_span(root, "UNAVAILABLE");
  EXPECT_EQ(t.open_count(), 0);
  const Span* span = t.find_span(root.span_id);
  ASSERT_NE(span, nullptr);
  EXPECT_EQ(span->status, "UNAVAILABLE");
  EXPECT_FALSE(span->open());
}

TEST(TracerTest, AnnotationsLandInOrder) {
  Tracer t(1);
  const TraceContext root = t.start_trace("op", "h");
  t.annotate(root, "retry=1");
  t.annotate(root, "breaker=open");
  t.end_span(root);
  const Span* span = t.find_span(root.span_id);
  ASSERT_NE(span, nullptr);
  ASSERT_EQ(span->annotations.size(), 2u);
  EXPECT_EQ(span->annotations[0], "retry=1");
  EXPECT_EQ(span->annotations[1], "breaker=open");
}

TEST(TracerTest, RetentionOffStillGeneratesIdsButStoresNothing) {
  Tracer t(1);
  t.set_retain(false);
  const TraceContext root = t.start_trace("op", "h");
  EXPECT_TRUE(root.active());  // ids always flow (determinism contract)
  t.annotate(root, "x=y");
  t.end_span(root);
  EXPECT_EQ(t.span_count(), 0u);
  EXPECT_EQ(t.find_span(root.span_id), nullptr);
  // Id stream identical to a retaining tracer with the same seed.
  Tracer keep(1);
  EXPECT_EQ(keep.start_trace("op", "h").trace_id, root.trace_id);
}

TEST(TracerTest, BoundedCollectorDropsOldest) {
  Tracer t(1);
  const TraceContext first = t.start_trace("first", "h");
  t.end_span(first);
  for (int i = 0; i < 20000; ++i) {
    const TraceContext ctx = t.start_trace("churn", "h");
    t.end_span(ctx);
  }
  EXPECT_GT(t.dropped(), 0);
  EXPECT_LE(t.span_count(), 16384u);
  EXPECT_EQ(t.find_span(first.span_id), nullptr);  // oldest evicted
  EXPECT_EQ(t.open_count(), 0);
}

TEST(TracerTest, WraparoundAtExactCapacityBoundary) {
  Tracer t(1);
  // Fill to exactly the collector bound: nothing dropped yet.
  std::vector<uint64_t> ids;
  for (int i = 0; i < 16384; ++i) {
    const TraceContext ctx = t.start_trace("fill", "h");
    t.end_span(ctx);
    ids.push_back(ctx.span_id);
  }
  EXPECT_EQ(t.span_count(), 16384u);
  EXPECT_EQ(t.dropped(), 0);
  EXPECT_NE(t.find_span(ids.front()), nullptr);
  // One more span evicts exactly the oldest — and only the oldest.
  const TraceContext extra = t.start_trace("extra", "h");
  t.end_span(extra);
  EXPECT_EQ(t.span_count(), 16384u);
  EXPECT_EQ(t.dropped(), 1);
  EXPECT_EQ(t.find_span(ids[0]), nullptr);
  EXPECT_NE(t.find_span(ids[1]), nullptr);
  EXPECT_NE(t.find_span(extra.span_id), nullptr);
}

TEST(TracerTest, DroppedCountsEveryEvictionIncludingOpenSpans) {
  Tracer t(1);
  // An open span can be evicted too; the open-leak counter must not go
  // negative when its end_span arrives after eviction.
  const TraceContext doomed = t.start_trace("doomed", "h");
  for (int i = 0; i < 16384; ++i) {
    const TraceContext ctx = t.start_trace("churn", "h");
    t.end_span(ctx);
  }
  EXPECT_EQ(t.find_span(doomed.span_id), nullptr);
  EXPECT_EQ(t.dropped(), 1);
  EXPECT_EQ(t.open_count(), 0);  // the evicted open span left the count
  t.end_span(doomed);  // late close of an evicted span: harmless no-op
  EXPECT_GE(t.open_count(), 0);
  // for_each_span visits exactly the retained window, oldest first.
  size_t visited = 0;
  TimePoint prev = TimePoint::origin();
  t.for_each_span([&](const Span& s) {
    visited++;
    EXPECT_GE(s.start, prev);
    prev = s.start;
  });
  EXPECT_EQ(visited, t.span_count());
}

TEST(TracerTest, DetailJoinsTheNameWithOneSpace) {
  Tracer t(1);
  const TraceContext root = t.start_trace("client.get", "app");
  const TraceContext rpc = t.start_span("rpc.call", "h", root,
                                        "peer.client_get");
  const TraceContext bare = t.start_span("tiera.get", "h", rpc);
  const TraceContext empty = t.start_span("tiera.get", "h", rpc, "");
  ASSERT_NE(t.find_span(rpc.span_id), nullptr);
  EXPECT_EQ(t.find_span(rpc.span_id)->name, "rpc.call peer.client_get");
  ASSERT_NE(t.find_span(bare.span_id), nullptr);
  EXPECT_EQ(t.find_span(bare.span_id)->name, "tiera.get");
  ASSERT_NE(t.find_span(empty.span_id), nullptr);
  EXPECT_EQ(t.find_span(empty.span_id)->name, "tiera.get");
}

TEST(TracerTest, ReusedSlotKeepsNothingOfTheEvictedSpan) {
  Tracer t(1);
  TimePoint clock = TimePoint::origin();
  t.set_clock([&clock] { return clock; });
  // The first span is a child (of a parent never retained), annotated and
  // closed with an error; the span that takes over its slot is a fresh root.
  const TraceContext outside{0xfeed, 99, 0};
  const TraceContext first = t.start_span("first", "evicted-host", outside);
  t.annotate(first, "retry=1");
  t.annotate(first, "breaker=open");
  clock = clock + msec(1);
  t.end_span(first, "UNAVAILABLE");
  for (int i = 0; i < 16383; ++i) {
    const TraceContext ctx = t.start_trace("churn", "h");
    t.end_span(ctx);
  }
  EXPECT_EQ(t.dropped(), 0);
  clock = clock + msec(5);
  const TraceContext reuse = t.start_trace("reuse", "new-host");
  EXPECT_EQ(t.dropped(), 1);
  EXPECT_EQ(t.find_span(first.span_id), nullptr);
  const Span* span = t.find_span(reuse.span_id);
  ASSERT_NE(span, nullptr);
  EXPECT_TRUE(span->open());
  EXPECT_EQ(span->status, "ok");
  EXPECT_TRUE(span->annotations.empty());
  EXPECT_EQ(span->name, "reuse");
  EXPECT_EQ(span->host, "new-host");
  EXPECT_EQ(span->trace_id, reuse.trace_id);
  EXPECT_EQ(span->parent_span_id, 0u);
  EXPECT_EQ(span->start, clock);
  EXPECT_EQ(t.open_count(), 1);
}

TEST(TracerTest, LookupAcrossARetentionGap) {
  Tracer t(1);
  std::vector<TraceContext> kept;
  for (int i = 0; i < 3; ++i) kept.push_back(t.start_trace("before", "h"));
  // 20 000 ids pass unretained: more than the ring holds, so the ids after
  // the gap are not at their offset from the oldest retained id.
  t.set_retain(false);
  for (int i = 0; i < 20000; ++i) {
    const TraceContext ctx = t.start_trace("gap", "h");
    t.end_span(ctx);
  }
  t.set_retain(true);
  for (int i = 0; i < 3; ++i) kept.push_back(t.start_trace("after", "h"));
  EXPECT_EQ(kept[3].span_id, kept[2].span_id + 20001);
  EXPECT_EQ(t.span_count(), 6u);
  EXPECT_EQ(t.dropped(), 0);
  EXPECT_EQ(t.open_count(), 6);

  for (const TraceContext& ctx : kept) {
    const Span* span = t.find_span(ctx.span_id);
    ASSERT_NE(span, nullptr);
    EXPECT_EQ(span->span_id, ctx.span_id);
    t.annotate(ctx, "id=" + std::to_string(ctx.span_id));
  }
  // Ids inside the gap and past the newest were never retained.
  EXPECT_EQ(t.find_span(kept[2].span_id + 1), nullptr);
  EXPECT_EQ(t.find_span(kept[3].span_id - 1), nullptr);
  EXPECT_EQ(t.find_span(kept[5].span_id + 1), nullptr);

  t.end_span(kept[1], "UNAVAILABLE");
  t.end_span(kept[4], "DEADLINE_EXCEEDED");
  EXPECT_EQ(t.open_count(), 4);
  EXPECT_EQ(t.find_span(kept[1].span_id)->status, "UNAVAILABLE");
  EXPECT_EQ(t.find_span(kept[4].span_id)->status, "DEADLINE_EXCEEDED");

  std::vector<uint64_t> visited;
  t.for_each_span([&](const Span& s) {
    visited.push_back(s.span_id);
    ASSERT_EQ(s.annotations.size(), 1u);
    EXPECT_EQ(s.annotations[0], "id=" + std::to_string(s.span_id));
  });
  std::vector<uint64_t> expected;
  for (const TraceContext& ctx : kept) expected.push_back(ctx.span_id);
  EXPECT_EQ(visited, expected);
}

// ---------------------------------------------------------------- traceview

TEST(TraceViewTest, ReassemblesTreeAndRendersHops) {
  Tracer t(7);
  const TraceContext root = t.start_trace("client.put", "app");
  const TraceContext rpc = t.start_span("rpc.call peer.client_put", "c1", root);
  const TraceContext server = t.start_span("rpc.server peer.client_put",
                                           "tiera-1", rpc);
  t.annotate(server, "mode=eventual");
  t.end_span(server);
  t.end_span(rpc);
  t.end_span(root);

  TraceView view(t, root.trace_id);
  EXPECT_EQ(view.span_count(), 3u);
  EXPECT_TRUE(view.well_formed());
  ASSERT_NE(view.root(), nullptr);
  EXPECT_EQ(view.root()->span_id, root.span_id);
  const std::string rendered = view.render();
  EXPECT_NE(rendered.find("client.put"), std::string::npos);
  EXPECT_NE(rendered.find("rpc.server peer.client_put"), std::string::npos);
  EXPECT_NE(rendered.find("mode=eventual"), std::string::npos);
}

TEST(TraceViewTest, OrphanSpanBreaksWellFormedness) {
  Tracer t(7);
  const TraceContext root = t.start_trace("op", "h");
  // Forge a parent that was never retained: the child's parent pointer
  // cannot resolve, which a well-formed tree must reject.
  TraceContext forged = root;
  forged.span_id = root.span_id + 9999;
  const TraceContext orphan = t.start_span("lost", "h", forged);
  t.end_span(orphan);
  t.end_span(root);
  TraceView view(t, root.trace_id);
  EXPECT_EQ(view.span_count(), 2u);
  EXPECT_FALSE(view.well_formed());
}

TEST(TraceViewTest, DroppedRootLeavesHeadlessButRenderableTrace) {
  Tracer t(3);
  // A long-lived trace whose root span is evicted by churn: the children
  // survive, reassembly reports no root and not-well-formed, and render()
  // still produces stable output instead of crashing on the missing parent.
  const TraceContext root = t.start_trace("client.put", "app");
  const TraceContext child = t.start_span("rpc.call", "c1", root);
  t.end_span(child);
  t.end_span(root);
  for (int i = 0; i < 16384; ++i) {
    // Churn one span per iteration until the root (retained first) is gone
    // but the child still fits in the window.
    const TraceContext ctx = t.start_trace("churn", "h");
    t.end_span(ctx);
    if (t.find_span(root.span_id) == nullptr) break;
  }
  ASSERT_EQ(t.find_span(root.span_id), nullptr);
  ASSERT_NE(t.find_span(child.span_id), nullptr);
  TraceView view(t, root.trace_id);
  EXPECT_EQ(view.span_count(), 1u);
  EXPECT_EQ(view.root(), nullptr);
  EXPECT_FALSE(view.well_formed());
  const std::string rendered = view.render();
  EXPECT_EQ(rendered, view.render());  // stable under a headless tree
}

TEST(TraceViewTest, UnknownTraceIsEmpty) {
  Tracer t(7);
  TraceView view(t, 0xdeadbeef);
  EXPECT_TRUE(view.empty());
  EXPECT_EQ(view.root(), nullptr);
  EXPECT_FALSE(view.well_formed());
}

// ------------------------------------------------------------------ journal

TEST(JournalTest, DisabledWithoutSinkEnvVar) {
  unsetenv("WIERA_JOURNAL");
  Journal j;
  EXPECT_FALSE(j.enabled());
  j.event("test", "noop").str("k", "v");  // must be a cheap no-op
  EXPECT_EQ(j.events_written(), 0);
}

TEST(JournalTest, WritesParseableJsonlToFile) {
  const std::string path = ::testing::TempDir() + "/wiera_journal_test.jsonl";
  std::remove(path.c_str());
  setenv("WIERA_JOURNAL", path.c_str(), 1);
  {
    Journal j;
    ASSERT_TRUE(j.enabled());
    j.set_clock([] { return TimePoint::origin() + msec(5); });
    TraceContext ctx{0xabcull, 0x12ull, 0};
    j.event("peer", "repair")
        .str("instance", "NYC")
        .str("key", "k\"0")  // quote must be escaped
        .num("version", int64_t{3})
        .boolean("scrub", true)
        .trace(ctx);
    EXPECT_EQ(j.events_written(), 1);
  }
  unsetenv("WIERA_JOURNAL");

  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char buf[1024];
  ASSERT_NE(std::fgets(buf, sizeof(buf), f), nullptr);
  std::fclose(f);
  const std::string line(buf);
  EXPECT_NE(line.find("\"ts_us\":5000"), std::string::npos) << line;
  EXPECT_NE(line.find("\"component\":\"peer\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"event\":\"repair\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"key\":\"k\\\"0\""), std::string::npos) << line;
  EXPECT_NE(line.find("\"version\":3"), std::string::npos) << line;
  EXPECT_NE(line.find("\"scrub\":true"), std::string::npos) << line;
  EXPECT_NE(line.find("\"trace\":\"0x0000000000000abc\""), std::string::npos)
      << line;
  std::remove(path.c_str());
}

// ---------------------------------------------------------------- telemetry

TEST(TelemetryTest, EnabledFlagGatesRetentionAndJournalOnly) {
  unsetenv("WIERA_TELEMETRY");
  unsetenv("WIERA_JOURNAL");
  Telemetry t(/*seed=*/5);
  EXPECT_TRUE(t.enabled());
  t.set_enabled(false);
  EXPECT_FALSE(t.tracer().retain());
  // Metrics keep recording regardless — accessors stay live.
  t.registry().counter("x_total")->inc();
  EXPECT_EQ(t.registry().counter_value("x_total"), 1);
  const TraceContext ctx = t.tracer().start_trace("op", "h");
  EXPECT_TRUE(ctx.active());
  t.tracer().end_span(ctx);
  EXPECT_EQ(t.tracer().span_count(), 0u);
}

// --------------------------------------------------- leaked-span diagnostic

sim::Task<void> leaky_task(sim::Simulation& sim) {
  sim.telemetry().tracer().start_trace("leaky.op", "h");  // never ended
  co_await sim.delay(msec(1));
}

sim::Task<void> clean_task(sim::Simulation& sim) {
  const TraceContext ctx = sim.telemetry().tracer().start_trace("ok.op", "h");
  co_await sim.delay(msec(1));
  sim.telemetry().tracer().end_span(ctx);
}

bool has_leak_diagnostic(const sim::Simulation& sim) {
  for (const auto& d : sim.checker().diagnostics()) {
    if (d.kind == sim::SimDiagnostic::Kind::kLeakedSpan) return true;
  }
  return false;
}

TEST(SimCheckerSpanTest, OpenSpanAtQuiescenceIsReported) {
  sim::Simulation sim(1);
  sim.spawn(leaky_task(sim));
  sim.run();
  EXPECT_TRUE(has_leak_diagnostic(sim));
  EXPECT_EQ(sim.telemetry().tracer().open_count(), 1);
}

TEST(SimCheckerSpanTest, ClosedSpansRaiseNoDiagnostic) {
  sim::Simulation sim(1);
  sim.spawn(clean_task(sim));
  sim.run();
  EXPECT_FALSE(has_leak_diagnostic(sim));
  EXPECT_EQ(sim.telemetry().tracer().open_count(), 0);
}

}  // namespace
}  // namespace wiera::obs
