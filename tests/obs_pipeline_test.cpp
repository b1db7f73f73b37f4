// Unit tests for the sim-time metrics pipeline (docs/METRICS_PIPELINE.md):
// ring-buffer time series with windowed queries, the registry scraper, the
// space-saving hot-key sketch, multi-window burn-rate alert rules, histogram
// snapshot/diff deltas, the sim-layer scrape driver, and the failure
// attribution report.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "obs/alerts.h"
#include "obs/keystats.h"
#include "obs/metrics.h"
#include "obs/sampler.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "sim/attribution.h"
#include "sim/events.h"
#include "sim/obs_pipeline.h"
#include "sim/simulation.h"
#include "sim/slo.h"

namespace wiera::obs {
namespace {

TimePoint at_ms(int64_t ms) { return TimePoint::origin() + msec(ms); }

// -------------------------------------------------------------- time series

TEST(TimeSeriesTest, WindowedQueriesOverACumulativeCounter) {
  TimeSeries ts(64);
  // Counter growing by 10 per second for 10s.
  for (int i = 0; i <= 9; ++i) {
    ts.record(at_ms(i * 1000), 10.0 * i);
  }
  const TimePoint now = at_ms(9000);
  // Window [4s, 9s] holds values 40..90: delta 50, rate 10/s.
  EXPECT_DOUBLE_EQ(ts.delta_over(sec(5), now), 50.0);
  EXPECT_DOUBLE_EQ(ts.rate_over(sec(5), now), 10.0);
  EXPECT_EQ(ts.samples_in(sec(5), now), 6u);
  EXPECT_DOUBLE_EQ(ts.max_over(sec(5), now), 90.0);
  EXPECT_DOUBLE_EQ(ts.mean_over(sec(5), now), 65.0);
  EXPECT_TRUE(ts.covers(sec(5), now));
  // The retained history starts at t=0, so a 20s window is not covered.
  EXPECT_FALSE(ts.covers(sec(20), now));
}

TEST(TimeSeriesTest, RingDropsOldestAtCapacity) {
  TimeSeries ts(4);
  EXPECT_EQ(ts.capacity(), 4u);
  for (int i = 0; i < 10; ++i) ts.record(at_ms(i), static_cast<double>(i));
  EXPECT_EQ(ts.size(), 4u);
  EXPECT_EQ(ts.dropped(), 6);
  // Oldest-to-newest iteration holds the tail of the stream.
  EXPECT_DOUBLE_EQ(ts.oldest().value, 6.0);
  EXPECT_DOUBLE_EQ(ts.at(1).value, 7.0);
  EXPECT_DOUBLE_EQ(ts.at(2).value, 8.0);
  EXPECT_DOUBLE_EQ(ts.latest().value, 9.0);
}

TEST(TimeSeriesTest, PercentileOverIsNearestRank) {
  TimeSeries ts(16);
  // Out-of-order *values* (times ascending): percentile sorts values.
  ts.record(at_ms(1), 30.0);
  ts.record(at_ms(2), 10.0);
  ts.record(at_ms(3), 40.0);
  ts.record(at_ms(4), 20.0);
  const TimePoint now = at_ms(4);
  // rank = max(1, ceil(q*n)) over sorted {10,20,30,40}.
  EXPECT_DOUBLE_EQ(ts.percentile_over(sec(1), now, 0.0), 10.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(sec(1), now, 0.5), 20.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(sec(1), now, 0.51), 30.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(sec(1), now, 0.99), 40.0);
}

TEST(TimeSeriesTest, EmptyAndSparseSeriesReadAsZero) {
  TimeSeries ts;
  const TimePoint now = at_ms(1000);
  EXPECT_TRUE(ts.empty());
  EXPECT_DOUBLE_EQ(ts.delta_over(sec(1), now), 0.0);
  EXPECT_DOUBLE_EQ(ts.rate_over(sec(1), now), 0.0);
  EXPECT_DOUBLE_EQ(ts.percentile_over(sec(1), now, 0.99), 0.0);
  EXPECT_FALSE(ts.covers(sec(1), now));
  // One sample: no delta (needs two), but percentile/max see it.
  ts.record(now, 7.0);
  EXPECT_DOUBLE_EQ(ts.delta_over(sec(1), now), 0.0);
  EXPECT_DOUBLE_EQ(ts.max_over(sec(1), now), 7.0);
  EXPECT_FALSE(ts.covers(sec(1), now));
}

TEST(TimeSeriesTest, RenderJsonIsDeterministic) {
  TimeSeries ts(8);
  ts.record(at_ms(1), 1.5);
  ts.record(at_ms(2), 2.5);
  const std::string json = ts.render_json();
  EXPECT_NE(json.find("\"n\":2"), std::string::npos);
  EXPECT_NE(json.find("\"dropped\":0"), std::string::npos);
  EXPECT_NE(json.find("\"samples\":[["), std::string::npos);
  EXPECT_EQ(json, ts.render_json());
}

// ------------------------------------------------------------------ sampler

TEST(SamplerTest, ScrapeCapturesCountersGaugesAndHistogramDerivatives) {
  Registry reg;
  Counter* ops = reg.counter("ops_total", {{"instance", "NYC"}});
  Gauge* depth = reg.gauge("queue_depth");
  Histogram* lat = reg.histogram("op_us");

  Sampler sampler;
  ops->inc(5);
  depth->set(3.0);
  lat->record(msec(10));
  sampler.scrape(reg, at_ms(100));
  ops->inc(5);
  lat->record(msec(30));
  sampler.scrape(reg, at_ms(200));

  EXPECT_EQ(sampler.scrapes(), 2);
  EXPECT_EQ(sampler.last_scrape(), at_ms(200));
  const TimeSeries* c = sampler.series("ops_total{instance=\"NYC\"}");
  ASSERT_NE(c, nullptr);
  EXPECT_DOUBLE_EQ(c->oldest().value, 5.0);
  EXPECT_DOUBLE_EQ(c->latest().value, 10.0);
  const TimeSeries* g = sampler.series("queue_depth");
  ASSERT_NE(g, nullptr);
  EXPECT_DOUBLE_EQ(g->latest().value, 3.0);
  const TimeSeries* hc = sampler.series("op_us#count");
  ASSERT_NE(hc, nullptr);
  EXPECT_DOUBLE_EQ(hc->latest().value, 2.0);
  const TimeSeries* hp = sampler.series("op_us#p99_us");
  ASSERT_NE(hp, nullptr);
  // Two exact samples: nearest-rank p99 is the max.
  EXPECT_DOUBLE_EQ(hp->latest().value,
                   static_cast<double>(msec(30).us()));
  ASSERT_NE(sampler.series("op_us#sum_us"), nullptr);
  EXPECT_EQ(sampler.series("nope_total"), nullptr);
  EXPECT_EQ(sampler.series_count(), 5u);
  // render_json is sorted by series id and byte-stable.
  EXPECT_EQ(sampler.render_json(), sampler.render_json());
  EXPECT_NE(sampler.render_json().find("\"scrapes\":2"), std::string::npos);
}

TEST(SamplerTest, PerSeriesKeepBoundsMemory) {
  Registry reg;
  Counter* c = reg.counter("x_total");
  Sampler sampler{Sampler::Config{/*keep=*/3}};
  for (int i = 0; i < 8; ++i) {
    c->inc();
    sampler.scrape(reg, at_ms(i * 10));
  }
  const TimeSeries* ts = sampler.series("x_total");
  ASSERT_NE(ts, nullptr);
  EXPECT_EQ(ts->size(), 3u);
  EXPECT_EQ(ts->dropped(), 5);
  EXPECT_DOUBLE_EQ(ts->latest().value, 8.0);
}

// ----------------------------------------------------------------- keystats

TEST(KeyStatsTest, DisabledSketchRecordsNothingAndRegistersNothing) {
  Registry reg;
  KeyStats stats;  // default config: disabled
  stats.bind(&reg, "NYC");
  stats.record_access("k0", "app-0", at_ms(100), /*is_put=*/false);
  EXPECT_EQ(stats.total_accesses(), 0);
  EXPECT_TRUE(stats.top_keys(5, at_ms(100)).empty());
  // No series materialized: the registry dump stays byte-identical.
  EXPECT_EQ(reg.counter_sum("wiera_keystats_accesses_total"), 0);
  EXPECT_EQ(reg.render_text(), Registry().render_text());
}

TEST(KeyStatsTest, SpaceSavingEvictsMinimumAndBoundsTheError) {
  KeyStats::Config config;
  config.enabled = true;
  config.top_k = 2;
  KeyStats stats(config);
  const TimePoint t = at_ms(100);
  stats.record_access("a", "t0", t, false);
  stats.record_access("a", "t0", t, false);
  stats.record_access("a", "t0", t, false);
  stats.record_access("b", "t0", t, false);
  // Sketch full {a:3, b:1}: "c" evicts the minimum (b) and inherits its
  // count as the overestimate.
  stats.record_access("c", "t0", t, false);
  auto top = stats.top_keys(5, t);
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, "a");
  EXPECT_EQ(top[0].count, 3);
  EXPECT_EQ(top[0].overestimate, 0);
  EXPECT_EQ(top[1].id, "c");
  EXPECT_EQ(top[1].count, 2);
  EXPECT_EQ(top[1].overestimate, 1);
  // count - overestimate lower-bounds the true frequency (c appeared once).
  EXPECT_LE(top[1].count - top[1].overestimate, 1);
  EXPECT_EQ(stats.total_accesses(), 5);
}

TEST(KeyStatsTest, SlidingWindowRotatesAndForgetsStaleEpochs) {
  KeyStats::Config config;
  config.enabled = true;
  config.window = sec(5);
  KeyStats stats(config);
  for (int i = 0; i < 5; ++i) {
    stats.record_access("x", "t0", at_ms(1000), false);
  }
  // One epoch later: x slides into the previous epoch and still counts.
  stats.record_access("y", "t1", at_ms(1000) + sec(6), false);
  auto top = stats.top_keys(5, at_ms(1000) + sec(6));
  ASSERT_EQ(top.size(), 2u);
  EXPECT_EQ(top[0].id, "x");
  EXPECT_GT(top[0].rate_per_sec, 0.0);
  // Two whole epochs later: nothing recent survives except the new access.
  stats.record_access("z", "t2", at_ms(1000) + sec(20), false);
  top = stats.top_keys(5, at_ms(1000) + sec(20));
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].id, "z");
}

TEST(KeyStatsTest, TenantsTrackedSeparatelyWithDeterministicTieBreak) {
  KeyStats::Config config;
  config.enabled = true;
  KeyStats stats(config);
  const TimePoint t = at_ms(100);
  stats.record_access("k1", "beta", t, true);
  stats.record_access("k2", "alpha", t, false);
  auto tenants = stats.top_tenants(5, t);
  ASSERT_EQ(tenants.size(), 2u);
  // Equal counts break ties by id ascending.
  EXPECT_EQ(tenants[0].id, "alpha");
  EXPECT_EQ(tenants[1].id, "beta");
  EXPECT_EQ(stats.put_accesses(), 1);
  const std::string json = stats.render_json(t);
  EXPECT_NE(json.find("\"tenants\":"), std::string::npos);
  EXPECT_NE(json.find("\"alpha\""), std::string::npos);
}

TEST(KeyStatsTest, EnabledSketchRegistersSeriesLazily) {
  Registry reg;
  KeyStats::Config config;
  config.enabled = true;
  KeyStats stats(config);
  stats.bind(&reg, "NYC");
  // Bound but unexercised: still no series.
  EXPECT_EQ(reg.render_text(), Registry().render_text());
  stats.record_access("k0", "app-0", at_ms(100), false);
  stats.record_access("k0", "app-0", at_ms(200), false);
  EXPECT_EQ(reg.counter_value("wiera_keystats_accesses_total",
                              {{"instance", "NYC"}}),
            2);
}

// ------------------------------------------------------------------- alerts

// Drives a counter pair through quiet / burning / quiet / burning phases and
// checks the multi-window rule fires exactly once per breach episode.
TEST(AlertRulesTest, BurnRateIsEdgeTriggeredAndReArms) {
  Registry reg;
  Counter* bad = reg.counter("bad_total");
  Counter* ops = reg.counter("ops_total");
  Sampler sampler;
  AlertRules rules;
  AlertRule rule;
  rule.name = "shed-burn";
  rule.clause = "shed-fraction";
  rule.kind = AlertRule::Kind::kBurnRate;
  rule.series = "bad_total";
  rule.denominator = "ops_total";
  rule.budget = 0.1;
  rule.long_window = sec(2);
  rule.short_window = msec(500);
  rules.add(rule);
  EXPECT_EQ(rules.rule_count(), 1u);

  int tick = 0;
  const auto phase = [&](int ticks, int64_t bad_inc, int64_t ops_inc) {
    for (int i = 0; i < ticks; ++i) {
      bad->inc(bad_inc);
      ops->inc(ops_inc);
      tick++;
      sampler.scrape(reg, at_ms(tick * 100));
      rules.evaluate(sampler, at_ms(tick * 100));
    }
  };

  phase(40, 0, 10);  // 4s quiet: windows covered, burn 0
  EXPECT_TRUE(rules.firings().empty());
  phase(30, 3, 10);  // 3s burning at 30% >> 10% budget
  ASSERT_EQ(rules.firings().size(), 1u);
  const TimePoint first = rules.firings()[0].at;
  EXPECT_GE(rules.firings()[0].long_burn, 1.0);
  EXPECT_GE(rules.firings()[0].short_burn, 1.0);
  phase(30, 0, 10);  // clears
  EXPECT_EQ(rules.firings().size(), 1u);
  phase(30, 3, 10);  // second breach episode
  ASSERT_EQ(rules.firings().size(), 2u);
  EXPECT_TRUE(rules.fired("shed-fraction"));
  EXPECT_EQ(rules.first_firing("shed-fraction"), first);
  EXPECT_EQ(rules.first_firing("no-such-clause"), TimePoint::max());
  EXPECT_NE(rules.render_text().find("ALERT shed-burn"), std::string::npos);
  EXPECT_NE(rules.render_json().find("\"clause\":\"shed-fraction\""),
            std::string::npos);
}

TEST(AlertRulesTest, PartialWindowCoverageCannotFire) {
  Registry reg;
  Counter* bad = reg.counter("bad_total");
  Counter* ops = reg.counter("ops_total");
  Sampler sampler;
  AlertRules rules;
  AlertRule rule;
  rule.name = "shed-burn";
  rule.clause = "shed-fraction";
  rule.series = "bad_total";
  rule.denominator = "ops_total";
  rule.budget = 0.01;
  rule.long_window = sec(10);  // longer than the whole drive below
  rule.short_window = msec(200);
  rules.add(rule);
  for (int i = 1; i <= 20; ++i) {
    bad->inc(10);
    ops->inc(10);  // 100% bad: would scream if windows were ready
    sampler.scrape(reg, at_ms(i * 100));
    rules.evaluate(sampler, at_ms(i * 100));
  }
  EXPECT_TRUE(rules.firings().empty())
      << "fired on a window the series does not cover";
}

TEST(AlertRulesTest, ValueAboveGuardsLatencyBounds) {
  Registry reg;
  Gauge* p99 = reg.gauge("get_p99_us");
  Sampler sampler;
  AlertRules rules;
  AlertRule rule;
  rule.name = "get-p99-burn";
  rule.clause = "get-p99";
  rule.kind = AlertRule::Kind::kValueAbove;
  rule.series = "get_p99_us";
  rule.budget = 1000.0;  // 1ms bound
  rule.long_window = sec(1);
  rule.short_window = msec(300);
  rules.add(rule);
  int tick = 0;
  const auto drive = [&](int ticks, double value) {
    for (int i = 0; i < ticks; ++i) {
      p99->set(value);
      tick++;
      sampler.scrape(reg, at_ms(tick * 100));
      rules.evaluate(sampler, at_ms(tick * 100));
    }
  };
  drive(15, 200.0);  // healthy
  EXPECT_TRUE(rules.firings().empty());
  drive(15, 5000.0);  // 5x the bound
  ASSERT_EQ(rules.firings().size(), 1u);
  EXPECT_EQ(rules.firings()[0].clause, "get-p99");
}

TEST(AlertRulesTest, StallFiresWhenProgressStops) {
  Registry reg;
  Counter* done = reg.counter("ops_ok_total");
  Sampler sampler;
  AlertRules rules;
  AlertRule rule;
  rule.name = "availability-stall";
  rule.clause = "availability-gap";
  rule.kind = AlertRule::Kind::kStall;
  rule.series = "ops_ok_total";
  rule.long_window = sec(2);
  rule.short_window = msec(500);
  rules.add(rule);
  int tick = 0;
  const auto drive = [&](int ticks, int64_t inc) {
    for (int i = 0; i < ticks; ++i) {
      done->inc(inc);
      tick++;
      sampler.scrape(reg, at_ms(tick * 100));
      rules.evaluate(sampler, at_ms(tick * 100));
    }
  };
  drive(30, 1);  // progressing
  EXPECT_TRUE(rules.firings().empty());
  drive(25, 0);  // frozen long enough to cover both windows
  ASSERT_EQ(rules.firings().size(), 1u);
  EXPECT_EQ(rules.firings()[0].clause, "availability-gap");
  drive(10, 1);  // progress resumes: latch re-arms, no spurious firing
  EXPECT_EQ(rules.firings().size(), 1u);
}

// --------------------------------------------------- histogram snapshot/diff

TEST(HistogramDeltaTest, SnapshotDiffYieldsExactIntervalPercentiles) {
  Registry reg;
  Histogram* h = reg.histogram("op_us");
  for (int i = 1; i <= 10; ++i) h->record(msec(i));
  const LatencyHistogram before = h->snapshot();
  EXPECT_EQ(before.count(), 10);
  for (int i = 101; i <= 106; ++i) h->record(msec(i));
  const LatencyHistogram delta = h->diff(before);
  // The interval histogram covers exactly the six new samples, with exact
  // nearest-rank percentiles over them.
  EXPECT_EQ(delta.count(), 6);
  EXPECT_EQ(delta.sum(), msec(101 + 102 + 103 + 104 + 105 + 106));
  EXPECT_EQ(delta.percentile(0.5), msec(103));
  EXPECT_EQ(delta.percentile(0.99), msec(106));
  EXPECT_EQ(delta.percentile(0.0), msec(101));
  // The cumulative histogram is untouched.
  EXPECT_EQ(h->count(), 16);
}

TEST(HistogramDeltaTest, DeltaSinceEdgeCases) {
  LatencyHistogram a;
  LatencyHistogram empty;
  a.record(msec(5));
  // Nothing recorded since: empty delta.
  const LatencyHistogram none = a.delta_since(a);
  EXPECT_EQ(none.count(), 0);
  // Earlier snapshot from a *different*, larger run: refused as empty
  // rather than producing negative counts.
  LatencyHistogram big;
  for (int i = 0; i < 5; ++i) big.record(msec(1));
  const LatencyHistogram refused = empty.delta_since(big);
  EXPECT_EQ(refused.count(), 0);
  // Delta against an empty baseline is the histogram itself.
  const LatencyHistogram all = a.delta_since(empty);
  EXPECT_EQ(all.count(), 1);
  EXPECT_EQ(all.percentile(0.99), msec(5));
}

TEST(HistogramDeltaTest, CustomExactCapKeepsNearestRankPastTheDefault) {
  // The default cap flips to ~12%-wide buckets past 64 samples; a raised cap
  // keeps the exact nearest-rank path (sim/slo.cpp's p99-inflation clause
  // relies on this for byte-identical messages).
  LatencyHistogram capped(int64_t{1} << 20);
  LatencyHistogram dflt;
  for (int i = 1; i <= 200; ++i) {
    capped.record(msec(i));
    dflt.record(msec(i));
  }
  // Exact nearest-rank p99 over 1..200ms: rank ceil(0.99*200)=198.
  EXPECT_EQ(capped.percentile(0.99), msec(198));
  EXPECT_EQ(capped.percentile(0.5), msec(100));
  // The default-cap histogram is bucketed by now: approximate, not exact.
  const Duration approx = dflt.percentile(0.5);
  EXPECT_GE(approx, msec(100));
  EXPECT_LE(approx.us(), static_cast<int64_t>(msec(100).us() * 1.13));
}

TEST(HistogramDeltaTest, ExactDeltaFallsBackToEnvelopeWhenBucketed) {
  LatencyHistogram h;
  for (int i = 0; i < 100; ++i) h.record(msec(10));
  const LatencyHistogram before = h;  // already bucketed (count > 64)
  for (int i = 0; i < 10; ++i) h.record(msec(50));
  const LatencyHistogram delta = h.delta_since(before);
  EXPECT_EQ(delta.count(), 10);
  // Bucketed interval: percentile stays inside the full-run envelope.
  EXPECT_GE(delta.percentile(0.99), msec(10));
  EXPECT_LE(delta.percentile(0.99).us(),
            static_cast<int64_t>(msec(50).us() * 1.13));
}

// ------------------------------------------------------------ obs pipeline

sim::Task<void> count_ops(sim::Simulation& sim, Counter* ops, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.delay(msec(50));
    ops->inc();
  }
}

TEST(ObsPipelineTest, UnarmedPipelineSchedulesNothing) {
  uint64_t bare_hash = 0;
  {
    sim::Simulation sim(7);
    Counter* ops = sim.telemetry().registry().counter("ops_total");
    sim.spawn(count_ops(sim, ops, 10), "workload");
    sim.run();
    bare_hash = sim.checker().trace_hash();
  }
  sim::Simulation sim(7);
  Counter* ops = sim.telemetry().registry().counter("ops_total");
  sim::ObsPipeline pipeline(sim);  // constructed but never armed
  sim.spawn(count_ops(sim, ops, 10), "workload");
  sim.run();
  EXPECT_FALSE(pipeline.armed());
  EXPECT_EQ(pipeline.sampler(), nullptr);
  EXPECT_EQ(sim.checker().trace_hash(), bare_hash)
      << "an unarmed pipeline must not perturb the schedule";
}

TEST(ObsPipelineTest, ArmedPipelineScrapesAndEvaluatesDeterministically) {
  const auto run = [](std::string* json) {
    sim::Simulation sim(7);
    Counter* ops = sim.telemetry().registry().counter("ops_total");
    sim::ObsPipeline pipeline(sim);
    AlertRule rule;
    rule.name = "ops-stall";
    rule.clause = "availability-gap";
    rule.kind = AlertRule::Kind::kStall;
    rule.series = "ops_total";
    rule.long_window = msec(400);
    rule.short_window = msec(200);
    pipeline.add_rule(rule);
    sim::ObsPipeline::Config config;
    config.interval = msec(20);
    config.until = TimePoint::origin() + sec(2);
    pipeline.arm(config);
    sim.spawn(count_ops(sim, ops, 10), "workload");
    sim.run_until(TimePoint(sec(2).us()));
    EXPECT_TRUE(pipeline.armed());
    EXPECT_GT(pipeline.sampler()->scrapes(), 50);
    EXPECT_NE(pipeline.sampler()->series("ops_total"), nullptr);
    // The workload stops at 500ms; the stall rule must notice.
    EXPECT_TRUE(pipeline.alerts().fired("availability-gap"));
    *json = pipeline.sampler()->render_json();
    return sim.checker().trace_hash();
  };
  std::string json_a, json_b;
  const uint64_t a = run(&json_a);
  const uint64_t b = run(&json_b);
  EXPECT_EQ(a, b) << "armed pipeline must replay bit-identical";
  EXPECT_EQ(json_a, json_b);
}

TEST(ObsPipelineTest, FeedReplaysFiringsIntoTheOracle) {
  sim::Simulation sim(3);
  Counter* ops = sim.telemetry().registry().counter("ops_total");
  sim::ObsPipeline pipeline(sim);
  AlertRule rule;
  rule.name = "ops-stall";
  rule.clause = "availability-gap";
  rule.kind = AlertRule::Kind::kStall;
  rule.series = "ops_total";
  rule.long_window = msec(400);
  rule.short_window = msec(200);
  pipeline.add_rule(rule);
  sim::ObsPipeline::Config config;
  config.interval = msec(20);
  config.until = TimePoint::origin() + sec(2);
  pipeline.arm(config);
  sim.spawn(count_ops(sim, ops, 5), "workload");
  sim.run_until(TimePoint(sec(2).us()));
  ASSERT_TRUE(pipeline.alerts().fired("availability-gap"));

  sim::SloOracle oracle;
  EXPECT_EQ(oracle.alerts(), 0);
  pipeline.feed(oracle);
  EXPECT_EQ(oracle.alerts(),
            static_cast<int64_t>(pipeline.alerts().firings().size()));
}

// ------------------------------------------------- detection-gap contract

TEST(DetectionGapTest, GuardedClauseWithoutAlertAppendsDetectionGap) {
  sim::SloOracle oracle;
  obs::Registry reg;
  // One failed GET at t=5s trips no-failed-ops with evidence time 5s.
  oracle.record_get("app-0", "k0", "", at_ms(4900), at_ms(5000),
                    StatusCode::kUnavailable, 0);
  sim::SloContract contract;
  contract.no_failed_ops = true;
  contract.require_detection = true;
  contract.guarded_clauses = {"no-failed-ops"};
  auto violations = oracle.check(contract, reg, {"app-0"});
  bool clause = false, gap = false;
  for (const auto& v : violations) {
    if (v.check == "no-failed-ops") clause = true;
    if (v.check == "detection-gap") {
      gap = true;
      EXPECT_EQ(v.at, at_ms(5000));
    }
  }
  EXPECT_TRUE(clause);
  EXPECT_TRUE(gap);

  // An alert strictly before the evidence time satisfies the guard.
  oracle.record_alert("no-failed-ops", at_ms(4000));
  violations = oracle.check(contract, reg, {"app-0"});
  for (const auto& v : violations) {
    EXPECT_NE(v.check, "detection-gap")
        << "gap reported despite an earlier alert";
  }

  // An alert at-or-after the evidence time does not count: "strictly
  // earlier" is the contract.
  sim::SloOracle late;
  late.record_get("app-0", "k0", "", at_ms(4900), at_ms(5000),
                  StatusCode::kUnavailable, 0);
  late.record_alert("no-failed-ops", at_ms(5000));
  violations = late.check(contract, reg, {"app-0"});
  bool late_gap = false;
  for (const auto& v : violations) {
    if (v.check == "detection-gap") late_gap = true;
  }
  EXPECT_TRUE(late_gap);
}

// -------------------------------------------------------------- attribution

TEST(AttributionReportTest, RenderNamesFaultsHotKeysAlertsAndWorstSpans) {
  sim::AttributionReport report;
  report.set_window(at_ms(8000), at_ms(20000));
  report.add_violation("get-p99", "p99 over bound", at_ms(20000), 0x77);

  // One fault inside the window, one outside.
  sim::PlanEvent slow;
  slow.kind = sim::PlanEvent::Kind::kSlowNode;
  slow.node = "tiera-us-west";
  slow.slow_factor = 25.0;
  slow.at = at_ms(9000);
  slow.until = at_ms(18000);
  sim::PlanEvent stray;
  stray.kind = sim::PlanEvent::Kind::kCrash;
  stray.node = "tiera-eu-west";
  stray.at = at_ms(40000);
  stray.until = at_ms(42000);
  sim::PlanEvent drain;
  drain.kind = sim::PlanEvent::Kind::kDrainRegion;
  drain.node = "tiera-asia-east";
  drain.at = at_ms(4000);
  drain.until = at_ms(24000);
  report.set_timeline({slow, stray, drain});

  KeyStats::Config ks_config;
  ks_config.enabled = true;
  KeyStats stats(ks_config);
  for (int i = 0; i < 9; ++i) {
    stats.record_access("hot-0", "app-0", at_ms(9000 + i * 100), false);
  }
  stats.record_access("cold-1", "app-1", at_ms(9900), false);
  report.add_key_stats("tiera-us-west", stats, at_ms(10000));

  Tracer tracer(5);
  TimePoint clock = at_ms(9000);
  tracer.set_clock([&clock] { return clock; });
  const TraceContext slow_span = tracer.start_trace("client.get", "app-0");
  clock = at_ms(9400);
  tracer.end_span(slow_span);  // 400ms ok span
  const TraceContext err_span = tracer.start_trace("client.put", "app-1");
  clock = at_ms(9500);
  tracer.end_span(err_span, "UNAVAILABLE");
  report.set_tracer(tracer, /*keep=*/2);

  EXPECT_FALSE(report.empty());
  const std::string json = report.render_json();
  EXPECT_NE(json.find("\"window_us\":[8000000,20000000]"),
            std::string::npos);
  EXPECT_NE(
      json.find("\"check\":\"get-p99\",\"message\":\"p99 over bound\""),
      std::string::npos);
  // The in-window slow node is listed; the out-of-window crash is counted.
  EXPECT_NE(
      json.find("\"overlapping_faults\":[\"slow-node node=tiera-us-west"),
      std::string::npos);
  EXPECT_EQ(json.find("crash node=tiera-eu-west"), std::string::npos);
  EXPECT_NE(json.find("\"faults_outside_window\":1"), std::string::npos);
  EXPECT_NE(json.find("\"scenario_events\":[{\"at_us\":4000000,"
                      "\"event\":\"drain-region node=tiera-asia-east"),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"key\",\"id\":\"hot-0\""),
            std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"tenant\",\"id\":\"app-0\""),
            std::string::npos);
  // Error-status spans outrank longer ok spans.
  const size_t err_pos =
      json.find("\"name\":\"client.put\",\"host\":\"app-1\","
                "\"status\":\"UNAVAILABLE\"");
  const size_t ok_pos = json.find(
      "\"name\":\"client.get\",\"host\":\"app-0\",\"status\":\"ok\"");
  EXPECT_NE(err_pos, std::string::npos);
  EXPECT_NE(ok_pos, std::string::npos);
  EXPECT_LT(err_pos, ok_pos);
}

TEST(AttributionReportTest, WindowDefaultsToViolationEvidenceSpan) {
  sim::AttributionReport report;
  report.add_violation("no-failed-ops", "put failed", at_ms(10000), 0);

  sim::PlanEvent near_fault;
  near_fault.kind = sim::PlanEvent::Kind::kCrash;
  near_fault.node = "n1";
  near_fault.at = at_ms(11000);
  near_fault.until = at_ms(12000);
  sim::PlanEvent far_fault;
  far_fault.kind = sim::PlanEvent::Kind::kCrash;
  far_fault.node = "n2";
  far_fault.at = at_ms(30000);
  far_fault.until = at_ms(31000);
  report.set_timeline({near_fault, far_fault});

  // Evidence at 10s: the implied window is [8s, 12s], so the 11s crash
  // overlaps and the 30s one does not.
  const std::string json = report.render_json();
  EXPECT_NE(json.find("\"window_us\":[8000000,12000000]"),
            std::string::npos);
  EXPECT_NE(json.find("crash node=n1"), std::string::npos);
  EXPECT_EQ(json.find("crash node=n2"), std::string::npos);
}

TEST(AttributionReportTest, EmptyKeyStatsAndDisabledSketchesAreSkipped) {
  sim::AttributionReport report;
  KeyStats disabled;
  report.add_key_stats("NYC", disabled, at_ms(100));
  KeyStats::Config on;
  on.enabled = true;
  KeyStats enabled_but_empty(on);
  report.add_key_stats("LA", enabled_but_empty, at_ms(100));
  EXPECT_NE(report.render_json().find("\"hot\":[]"), std::string::npos);
}

}  // namespace
}  // namespace wiera::obs
