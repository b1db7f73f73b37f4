// Scenario suite (docs/SCENARIOS.md): seeded workload + operational-event
// plans run against a live four-region cluster (plus one spare node for
// live adds) while concurrent clients execute an oracle-recorded workload
// shaped by the engine's LoadModel. Acceptance is two-layered:
//   * sim::ConsistencyOracle — did the cluster ever lie? (eventual-mode
//     invariant + replica convergence over the final member set)
//   * sim::SloOracle — did the cluster hold its service level while the
//     scenario played out? (no failed ops, bounded shed rate, p99 bounds,
//     bounded availability gap through evacuations)
// Scenarios compose with random FaultPlans (an evacuation *while* a
// partition or crash is live) and every run folds its applied events into
// the determinism trace hash. Every run prints one RUN-REPORT line
// (docs/OBSERVABILITY.md#run-report) whose `replay` command re-runs it.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/units.h"
#include "fault_suite.h"
#include "obs/alerts.h"
#include "obs/telemetry.h"
#include "sim/scenario.h"
#include "sim/slo.h"
#include "wiera/chaos.h"
#include "wiera/client.h"
#include "wiera/scenario_host.h"

namespace wiera::geo {
namespace {

using suite::kClientNodes;
using suite::kStorageNodes;

// Spare capacity for kAddRegion: a registered Tiera server that is not a
// member until a scenario brings it up live.
const char* const kSpareNode = "tiera-spare";
constexpr int kKeyCount = 6;

enum class ComposedFault {
  kNone,
  kPartition,
  kCrash,
  // Gray classes (docs/HEALTH.md): the peer stays alive but degrades.
  kStutter,
  kFlakyLink,
  kSlowNode,
};

// The FAULT tokens of `--scenario NAME[:FAULT]`, in enum order: every
// report's replay command is rendered from this table and the replay parser
// reads it back.
const char* const kFaultTokens[] = {"none",    "partition", "crash",
                                    "stutter", "flakylink", "slownode"};

const char* fault_name(ComposedFault fault) {
  return kFaultTokens[static_cast<size_t>(fault)];
}

bool is_gray_fault(ComposedFault fault) {
  return fault == ComposedFault::kStutter ||
         fault == ComposedFault::kFlakyLink ||
         fault == ComposedFault::kSlowNode;
}

// The gray builtins (grayprimary, graylink) arm health detection and carry
// the p99-inflation contract clause.
bool is_gray_scenario(const std::string& name) {
  return name.rfind("gray", 0) == 0;
}

// The chaos suite's cluster plus the knobs scenario runs rely on: a spare
// storage server (live-add target) and a ping deadline, so the serial
// heartbeat loop keeps detecting failures while a composed fault blackholes
// a peer.
struct ScenarioCluster : suite::Cluster {
  explicit ScenarioCluster(uint64_t seed, suite::ControllerTweak tweak = {})
      : Cluster(seed,
                fault_tolerant([&tweak](WieraController::Config& config) {
                  config.ping_deadline = msec(800);
                  if (tweak) tweak(config);
                }),
                kSpareNode) {}
};

sim::ScenarioPlan::BuiltinOptions builtin_options() {
  sim::ScenarioPlan::BuiltinOptions options;
  for (const char* node : kStorageNodes) options.nodes.push_back(node);
  options.spare_nodes.push_back(kSpareNode);
  for (const char* node : kClientNodes) options.regions.push_back(node);
  options.key_count = kKeyCount;
  return options;
}

// A composed fault never targets the node a drain/add event operates on:
// the point is an evacuation riding out a fault *elsewhere*, not a fault
// plan and a scenario plan fighting over one node's lifecycle.
sim::FaultPlan composed_plan(ComposedFault fault, uint64_t seed,
                             const sim::ScenarioPlan& scenario) {
  sim::FaultPlan plan;
  if (fault == ComposedFault::kNone) return plan;
  std::set<std::string> excluded;
  for (const auto& e : scenario.events()) {
    if (e.kind == sim::ScenarioEvent::Kind::kDrainRegion ||
        e.kind == sim::ScenarioEvent::Kind::kAddRegion) {
      excluded.insert(e.target);
    }
  }
  sim::FaultPlan::RandomOptions options;
  for (const char* node : kStorageNodes) {
    if (excluded.count(node) == 0) options.nodes.push_back(node);
  }
  options.earliest = TimePoint::origin() + sec(3);
  options.latest = TimePoint::origin() + sec(18);
  if (is_gray_fault(fault)) {
    // Gray windows land inside the scenario's SLO window (the gray
    // builtins' load shapes start after a ~8s quiet head), so the
    // degradation is charged to the in-window side of the p99-inflation
    // clause, never to its out-of-window baseline.
    options.earliest = TimePoint::origin() + sec(10);
    options.latest = TimePoint::origin() + sec(24);
  }
  switch (fault) {
    case ComposedFault::kPartition:
      options.partitions = 1;
      break;
    case ComposedFault::kStutter:
      options.stutters = 1;
      break;
    case ComposedFault::kFlakyLink:
      options.flaky_links = 1;
      break;
    case ComposedFault::kSlowNode:
      options.slow_nodes = 1;
      break;
    default:
      options.crashes = 1;
      break;
  }
  return sim::FaultPlan::random(seed ^ 0x5ce9a210u, options);
}

// The window availability/shed checks run over: the plan's own span, padded
// to at least 10s (a rolling restart's window() is a single instant) and
// clamped to the workload's 30s so the post-workload quiet tail never reads
// as an availability gap.
std::pair<TimePoint, TimePoint> slo_window(const sim::ScenarioPlan& plan) {
  auto w = plan.window();
  const TimePoint cap = TimePoint::origin() + sec(30);
  TimePoint end = w.second;
  if (end < w.first + sec(10)) end = w.first + sec(10);
  if (cap < end) end = cap;
  TimePoint start = w.first;
  if (end < start) start = end;
  return {start, end};
}

bool has_operational_events(const std::string& name) {
  return name == "evacuation" || name == "addregion" || name == "rolling";
}

// What each scenario promises its clients. Every run must end each op
// kOk/kNotFound and never hand back a corrupt payload; latency bounds are
// on the served tail (histograms record successes only) with composed-fault
// headroom for attempt-timeout failovers; operational scenarios additionally
// bound the gap between successful completions — "zero availability gap"
// at the 8s grain of this workload's cadence.
sim::SloContract contract_for(const std::string& name, ComposedFault fault) {
  sim::SloContract contract;
  contract.scenario = name;
  contract.no_failed_ops = true;
  contract.no_corrupt_reads = true;
  contract.max_shed_fraction = name == "flashcrowd" ? 0.3 : 0.05;
  const Duration p99 = fault == ComposedFault::kNone ? sec(2) : sec(3);
  contract.max_put_p99 = p99;
  contract.max_get_p99 = p99;
  if (has_operational_events(name)) contract.max_availability_gap = sec(8);
  if (is_gray_scenario(name)) {
    // Gray acceptance (docs/HEALTH.md): one degraded-but-alive peer or link
    // may not inflate the in-window served GET tail beyond this factor of
    // the quiet out-of-window baseline. With ~60 in-window GETs the
    // nearest-rank p99 is the max, so the few slow ops a client serves
    // while the tracker is still converging set the in-window side; the
    // worst health-armed seed measures 9.1x, hence 12.0 here. The tighter
    // discrimination bound lives in the DisabledHealthDetection mutation
    // test, whose controlled fault separates health-on (1.0x) from
    // health-off (>12x) around 6.0.
    contract.max_get_p99_inflation = 12.0;
  }
  return contract;
}

sim::RunReport scenario_report(const std::string& name, ComposedFault fault,
                               uint64_t seed) {
  const std::string spec = name + ":" + fault_name(fault);
  sim::RunReport report("scenario", spec, seed);
  report.set_replay(
      suite::replay_command("scenario_test", seed, "--scenario " + spec));
  return report;
}

// One client: put/get rounds whose key choice, tenant class and cadence all
// come from the engine's LoadModel, so scenario load shapes actually steer
// the traffic. Class-B tenant ops are read-only. Every outcome lands in
// both oracles.
sim::Task<void> scenario_workload(sim::Simulation& sim,
                                  sim::ScenarioEngine& engine,
                                  sim::ConsistencyOracle& oracle,
                                  sim::SloOracle& slo, WieraClient& client,
                                  std::string region, uint64_t seed,
                                  int index, TimePoint end) {
  Rng rng(seed * 7919 + static_cast<uint64_t>(index) * 131 + 1);
  co_await sim.delay(msec(250) * static_cast<double>(index + 1));
  int round = 0;
  while (sim.now() < end) {
    const int key_index = engine.load().pick_key(rng, sim.now());
    const std::string key = "k" + std::to_string(key_index);
    if (engine.load().pick_tenant(rng) == 0) {
      const std::string value =
          "c" + std::to_string(index) + "r" + std::to_string(round);
      const TimePoint start = sim.now();
      const int64_t put_op = oracle.begin_put(client.id(), key, value, start);
      auto put = co_await client.put(key, Blob(value));
      oracle.set_op_trace(put_op, client.last_trace_id());
      oracle.end_put(put_op, sim.now(), put.ok(),
                     put.ok() ? put->version : 0);
      slo.record_put(client.id(), key, value, start, sim.now(),
                     put.ok() ? StatusCode::kOk : put.status().code(),
                     client.last_trace_id());
      co_await sim.delay(msec(200) + msec(30) * static_cast<double>(index));
    }

    const TimePoint start = sim.now();
    const int64_t get_op = oracle.begin_get(client.id(), key, start);
    auto got = co_await client.get(key);
    oracle.set_op_trace(get_op, client.last_trace_id());
    StatusCode code = StatusCode::kOk;
    std::string read_value;
    if (got.ok()) {
      read_value = got->value.to_string();
      oracle.end_get(get_op, sim.now(), true, read_value, got->version,
                     got->served_by);
    } else if (got.status().code() == StatusCode::kNotFound) {
      code = StatusCode::kNotFound;
      oracle.end_get(get_op, sim.now(), true, "", 0, "");
    } else {
      code = got.status().code();
      oracle.end_get(get_op, sim.now(), false, "", 0, "");
    }
    slo.record_get(client.id(), key, read_value, start, sim.now(), code,
                   client.last_trace_id());

    round++;
    // The diurnal rate multiplier stretches/compresses the inter-round gap
    // (clamped >= 0.2 by the model, so a trough never stalls the driver).
    const double mult = engine.load().rate_multiplier(region, sim.now());
    const double base = static_cast<double>(msec(600).us());
    co_await sim.delay(usec(static_cast<int64_t>(base / mult)));
  }
}

// One schedule of scenario `name` composed with `fault`; prints and returns
// its RUN-REPORT. The verdict: ops ran and completed, the driver applied
// every planned event, the SLO contract and both consistency checks held,
// and a fault-free run completed its operational events.
sim::RunReport run_scenario(const std::string& name, ComposedFault fault,
                            uint64_t seed, bool telemetry_on = true) {
  // Gray runs (gray fault class or gray builtin) arm health detection;
  // every other run keeps the seed controller config, so pre-existing
  // scenario trace hashes stay byte-identical.
  suite::ControllerTweak controller_tweak;
  if (is_gray_fault(fault) || is_gray_scenario(name)) {
    controller_tweak = [](WieraController::Config& config) {
      config.health.enabled = true;
    };
  }
  ScenarioCluster cluster(seed, std::move(controller_tweak));
  sim::RunReport report = scenario_report(name, fault, seed);
  if (!telemetry_on) cluster.sim.telemetry().set_enabled(false);
  // Timeseries runs additionally arm the per-peer hot-key sketches.
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual,
                                suite::with_key_stats(nullptr)));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return report;
  cluster.controller.start();

  auto plan = sim::ScenarioPlan::builtin(name, seed, builtin_options());
  EXPECT_TRUE(plan.ok()) << plan.status().to_string();
  if (!plan.ok()) return report;
  const auto window = slo_window(*plan);
  const int64_t plan_events = static_cast<int64_t>(plan->events().size());

  ChaosHost chaos_host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, chaos_host);
  injector.arm(composed_plan(fault, seed, *plan));

  ScenarioHost scenario_host(cluster.sim, cluster.controller, "w1");
  sim::ScenarioEngine engine(cluster.sim, scenario_host);
  engine.load().set_key_count(kKeyCount);
  engine.arm(std::move(plan).value());

  // Metrics pipeline (docs/METRICS_PIPELINE.md): timeseries runs scrape
  // until the workload horizon.
  sim::ObsPipeline pipeline(cluster.sim);
  suite::arm_timeseries(pipeline, TimePoint::origin() + sec(35));

  WieraClient::Config client_config;
  client_config.op_deadline = sec(3);
  client_config.failover_attempt_timeout = msec(400);
  client_config.retry_budget_per_sec = 5;
  client_config.retry_budget_capacity = 10;
  // Safe to wire unconditionally: a disabled tracker records nothing and
  // ranks every peer neutral (verified by the determinism replays).
  client_config.health = &cluster.controller.health();

  sim::ConsistencyOracle oracle;
  sim::SloOracle slo;
  slo.set_window(window.first, window.second);
  std::vector<std::unique_ptr<WieraClient>> clients;
  const TimePoint workload_end = TimePoint::origin() + sec(30);
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<WieraClient>(
        cluster.sim, cluster.network, cluster.registry,
        "app-" + std::to_string(i), kClientNodes[i], *peers, client_config));
    cluster.sim.spawn(scenario_workload(cluster.sim, engine, oracle, slo,
                                        *clients.back(), kClientNodes[i],
                                        seed, i, workload_end));
  }

  // Workload, scenario and fault windows are over by ~35s; 45s leaves room
  // for recovery/catch-up to settle before finals are harvested — over the
  // *current* member set: after an evacuation the retired peer no longer
  // counts, after a live add the new peer must agree too.
  cluster.sim.run_until(TimePoint(sec(45).us()));
  auto members = cluster.controller.get_instances("w1");
  cluster.harvest(members.ok() ? *members : std::vector<std::string>{},
                  kKeyCount, oracle, TimePoint(sec(50).us()));

  const auto slo_violations =
      slo.check(contract_for(name, fault), cluster.sim.telemetry().registry(),
                {"app-0", "app-1", "app-2"});
  const auto violations = oracle.check(sim::CheckMode::kEventual);
  const auto convergence = oracle.check_convergence();
  report.set_trace(cluster.sim.checker().trace_hash());
  report.set_counter("ops", slo.ops());
  report.set_counter("ok", slo.ok());
  report.set_counter("notfound", slo.not_found());
  report.set_counter("shed", slo.shed());
  report.set_counter("failed", slo.failed());
  report.set_counter("plan_events", plan_events);
  report.set_counter("events", engine.events_applied());
  report.set_counter("fault_events", injector.events_applied());
  report.set_counter("drains", cluster.controller.drains_completed());
  report.set_counter("added", cluster.controller.peers_added());
  report.set_counter("restarts",
                     cluster.controller.rolling_restarts_completed());
  // Operational events that errored out.
  report.set_counter("host_failures", scenario_host.failed_operations());
  int64_t attempt_timeouts = 0;
  int64_t client_failovers = 0;
  for (const auto& client : clients) {
    attempt_timeouts += client->attempt_timeouts();
    client_failovers += client->failovers();
  }
  report.set_counter("attempt_timeouts", attempt_timeouts);
  // Health lifecycle counters (0 unless the run armed the tracker).
  const HealthTracker& health = cluster.controller.health();
  report.set_counter("probation_entries", health.probation_entries());
  report.set_counter("probation_exits", health.probation_exits());
  report.set_counter("primary_changes", cluster.controller.primary_changes());
  report.set_counter("client_failovers", client_failovers);
  report.set_json("timeline", sim::render_events_json(engine.timeline()));

  report.expect(slo.ops() > 0, "progress", "no op ever ran");
  report.expect(slo.ok() > 0, "progress", "no op ever completed");
  report.expect(engine.events_applied() == plan_events, "events",
                "scenario driver dropped events");
  for (const auto& v : slo_violations) report.add_violation(v.check, v.message);
  for (const auto& v : violations) {
    report.add_violation("consistency", v.key + ": " + v.message);
  }
  for (const auto& v : convergence) {
    report.add_violation("convergence", v.key + ": " + v.message);
  }
  if (fault == ComposedFault::kNone) {
    // Fault-free runs must complete their operational events; composed runs
    // may legitimately abort a drain at its deadline (the peer is restored
    // to membership) — there the SLO contract is the acceptance bar.
    const int64_t drains = cluster.controller.drains_completed();
    report.expect(scenario_host.failed_operations() == 0, "operational",
                  "operational event failed");
    if (name == "evacuation" || name == "addregion") {
      report.expect(drains == 1, "operational", "drains != 1");
    }
    if (name == "addregion") {
      report.expect(cluster.controller.peers_added() == 1, "operational",
                    "added != 1");
    }
    if (name == "rolling") {
      report.expect(cluster.controller.rolling_restarts_completed() == 1,
                    "operational", "restarts != 1");
    }
  }

  // Failure attribution (docs/METRICS_PIPELINE.md): a failing run's report
  // correlates the violating window with the fault/scenario timelines,
  // alert firings, per-peer hot keys and the worst spans.
  if (!report.passed()) {
    sim::AttributionReport attribution;
    attribution.set_window(window.first, window.second);
    attribution.add_violations(slo_violations);
    for (const auto& v : violations) {
      attribution.add_violation("consistency", v.key + ": " + v.message,
                                window.second, v.trace_id);
    }
    for (const auto& v : convergence) {
      attribution.add_violation("convergence", v.key + ": " + v.message,
                                window.second, v.trace_id);
    }
    attribution.set_scenario_timeline(engine.timeline());
    suite::add_evidence(attribution, cluster, injector, &pipeline, *peers);
    report.set_json("attribution", attribution.render_json());
  }
  std::set<uint64_t> traces{oracle.sample_put_trace()};
  for (const auto& v : slo_violations) traces.insert(v.trace_id);
  for (const auto& v : violations) traces.insert(v.trace_id);
  suite::attach_dumps(report, cluster, std::move(traces), &pipeline, *peers);
  report.print();
  return report;
}

// The sweep matrix: every builtin holds its SLO contract fault-free AND
// composed with at least one fault class; the evacuation scenario — the
// acceptance bar — composes with both partitions and crashes, and the gray
// builtins with gray classes.
const std::map<std::string, std::vector<ComposedFault>> kSweeps = {
    {"diurnal", {ComposedFault::kNone, ComposedFault::kPartition}},
    {"zipfshift", {ComposedFault::kNone, ComposedFault::kCrash}},
    {"flashcrowd", {ComposedFault::kNone, ComposedFault::kPartition}},
    {"tenantmix", {ComposedFault::kNone, ComposedFault::kCrash}},
    {"evacuation",
     {ComposedFault::kNone, ComposedFault::kPartition, ComposedFault::kCrash}},
    {"addregion", {ComposedFault::kNone, ComposedFault::kPartition}},
    {"rolling", {ComposedFault::kNone, ComposedFault::kCrash}},
    {"grayprimary",
     {ComposedFault::kNone, ComposedFault::kSlowNode, ComposedFault::kStutter}},
    {"graylink", {ComposedFault::kNone, ComposedFault::kFlakyLink}}};

void sweep(const std::string& name) {
  for (ComposedFault fault : kSweeps.at(name)) {
    int64_t probation_entries = 0;
    for (int seed = 1; seed <= suite::seed_count(); ++seed) {
      const sim::RunReport r =
          run_scenario(name, fault, static_cast<uint64_t>(seed));
      EXPECT_TRUE(r.passed()) << r.describe();
      probation_entries += r.counter("probation_entries");
    }
    // A sustained slowdown must actually register with the detector
    // somewhere across the sweep; the milder gray classes may stay under
    // the probation thresholds on any given seed.
    if (fault == ComposedFault::kSlowNode) {
      EXPECT_GT(probation_entries, 0)
          << name << ": no slow-node window ever entered probation";
    }
  }
}

// ------------------------------------------------------------- seed sweeps
//
// One test per builtin, each sweeping its kSweeps row.

TEST(ScenarioSweepTest, DiurnalLoadHoldsSloAcrossSeeds) { sweep("diurnal"); }

TEST(ScenarioSweepTest, ZipfShiftHoldsSloAcrossSeeds) { sweep("zipfshift"); }

TEST(ScenarioSweepTest, FlashCrowdHoldsSloAcrossSeeds) { sweep("flashcrowd"); }

TEST(ScenarioSweepTest, TenantMixHoldsSloAcrossSeeds) { sweep("tenantmix"); }

TEST(ScenarioSweepTest, EvacuationHoldsSloUnderPartitionAndCrash) {
  sweep("evacuation");
}

TEST(ScenarioSweepTest, AddRegionHoldsSloAcrossSeeds) { sweep("addregion"); }

TEST(ScenarioSweepTest, RollingRestartHoldsSloAcrossSeeds) { sweep("rolling"); }

// Gray-failure scenarios (docs/HEALTH.md): health detection is armed, the
// contract adds the p99-inflation clause, and the degraded peer/link must
// never cost consistency, convergence or the served tail.

TEST(ScenarioSweepTest, GrayPrimaryUnderDiurnalHoldsTheInflationBound) {
  sweep("grayprimary");
}

TEST(ScenarioSweepTest, FlakyLinkDuringFlashCrowdStaysConvergent) {
  sweep("graylink");
}

// ------------------------------------------------------------ determinism

TEST(ScenarioDeterminismTest, EveryBuiltinReplaysBitIdentical) {
  for (const std::string& name : sim::ScenarioPlan::builtin_names()) {
    const sim::RunReport a = run_scenario(name, ComposedFault::kNone, 5);
    const sim::RunReport b = run_scenario(name, ComposedFault::kNone, 5);
    EXPECT_EQ(a.trace(), b.trace()) << name;
    EXPECT_EQ(a.counters(), b.counters()) << name;
    EXPECT_NE(a.trace(), run_scenario(name, ComposedFault::kNone, 6).trace())
        << name;
  }
}

TEST(ScenarioDeterminismTest, TelemetryOffLeavesScenarioHashIdentical) {
  const sim::RunReport on =
      run_scenario("evacuation", ComposedFault::kPartition, /*seed=*/7);
  const sim::RunReport off = run_scenario(
      "evacuation", ComposedFault::kPartition, /*seed=*/7,
      /*telemetry_on=*/false);
  EXPECT_EQ(on.trace(), off.trace());
  EXPECT_EQ(on.counters(), off.counters());
}

// ------------------------------------------------------------ plan basics

TEST(ScenarioPlanTest, BuiltinIsAFunctionOfNameAndSeed) {
  const auto options = builtin_options();
  for (const std::string& name : sim::ScenarioPlan::builtin_names()) {
    auto a = sim::ScenarioPlan::builtin(name, 42, options);
    auto b = sim::ScenarioPlan::builtin(name, 42, options);
    ASSERT_TRUE(a.ok()) << name;
    ASSERT_TRUE(b.ok()) << name;
    EXPECT_FALSE(a->empty()) << name;
    EXPECT_EQ(a->describe(), b->describe()) << name;
  }
  auto x = sim::ScenarioPlan::builtin("evacuation", 42, options);
  auto y = sim::ScenarioPlan::builtin("evacuation", 43, options);
  ASSERT_TRUE(x.ok());
  ASSERT_TRUE(y.ok());
  EXPECT_NE(x->describe(), y->describe());
  EXPECT_FALSE(sim::ScenarioPlan::builtin("no-such", 1, options).ok());
}

TEST(ScenarioPlanTest, EventHashesAreStableAndDistinct) {
  sim::ScenarioEvent a;
  a.kind = sim::ScenarioEvent::Kind::kDrainRegion;
  a.target = "tiera-us-west";
  a.at = TimePoint::origin() + sec(4);
  a.until = TimePoint::origin() + sec(24);
  sim::ScenarioEvent b = a;
  EXPECT_EQ(a.hash(), b.hash());
  EXPECT_NE(a.hash(), 0u);
  b.target = "tiera-eu-west";
  EXPECT_NE(a.hash(), b.hash());
  b = a;
  b.kind = sim::ScenarioEvent::Kind::kAddRegion;
  EXPECT_NE(a.hash(), b.hash());
}

TEST(ScenarioPlanTest, LoadModelShapesTraffic) {
  sim::LoadModel model;
  model.set_key_count(10);
  Rng rng(1);

  // Flash crowd with boost 1.0: every in-window pick lands in [2,3];
  // outside the window picks spread back out.
  sim::ScenarioEvent crowd;
  crowd.kind = sim::ScenarioEvent::Kind::kFlashCrowd;
  crowd.at = TimePoint::origin();
  crowd.until = TimePoint::origin() + sec(10);
  crowd.hot_lo = 2;
  crowd.hot_hi = 3;
  crowd.boost = 1.0;
  model.apply(crowd);
  for (int i = 0; i < 64; ++i) {
    const int key = model.pick_key(rng, TimePoint::origin() + sec(5));
    EXPECT_GE(key, 2);
    EXPECT_LE(key, 3);
  }
  bool outside = false;
  for (int i = 0; i < 256 && !outside; ++i) {
    const int key = model.pick_key(rng, TimePoint::origin() + sec(15));
    outside = key < 2 || key > 3;
  }
  EXPECT_TRUE(outside) << "crowd window leaked past its end";

  // Diurnal: multiplier peaks at 1 + amplitude a quarter period in, only
  // for the shaped region.
  sim::ScenarioEvent diurnal;
  diurnal.kind = sim::ScenarioEvent::Kind::kDiurnalLoad;
  diurnal.target = "client-us-west";
  diurnal.at = TimePoint::origin();
  diurnal.until = TimePoint::origin() + sec(20);
  diurnal.amplitude = 0.5;
  diurnal.period = sec(8);
  model.apply(diurnal);
  EXPECT_NEAR(
      model.rate_multiplier("client-us-west", TimePoint::origin() + sec(2)),
      1.5, 1e-6);
  EXPECT_NEAR(
      model.rate_multiplier("client-eu-west", TimePoint::origin() + sec(2)),
      1.0, 1e-6);

  // Zipf shift skews picks toward low indices; tenant mix 1.0 makes every
  // op class B.
  sim::ScenarioEvent zipf;
  zipf.kind = sim::ScenarioEvent::Kind::kZipfShift;
  zipf.exponent = 1.3;
  model.apply(zipf);
  int low = 0, high = 0;
  for (int i = 0; i < 500; ++i) {
    const int key = model.pick_key(rng, TimePoint::origin() + sec(15));
    if (key == 0) low++;
    if (key == 9) high++;
  }
  EXPECT_GT(low, high);

  sim::ScenarioEvent mix;
  mix.kind = sim::ScenarioEvent::Kind::kTenantMix;
  mix.mix_fraction = 1.0;
  model.apply(mix);
  for (int i = 0; i < 16; ++i) EXPECT_EQ(model.pick_tenant(rng), 1);
}

// -------------------------------------------------- drain hand-off mutation
//
// The SloOracle must actually catch a broken drain: with the hand-off
// disabled (Config::drain_handoff=false) a drained peer detaches with its
// replication queue unflushed, so the client's acked writes exist nowhere —
// the next read comes back empty and the session-reads clause fires. The
// control run (hand-off on) is clean under the identical schedule: the
// drain's own flush pushes the queue even though the periodic flusher
// (stretched to 10s here) never ran.

sim::Task<void> mutation_workload(sim::Simulation& sim, sim::SloOracle& slo,
                                  WieraClient& client) {
  for (int i = 1; i <= 3; ++i) {
    co_await sim.at(TimePoint::origin() + msec(1000) * static_cast<double>(i));
    const std::string value = "v" + std::to_string(i);
    const TimePoint start = sim.now();
    auto put = co_await client.put("mut-0", Blob(value));
    slo.record_put(client.id(), "mut-0", value, start, sim.now(),
                   put.ok() ? StatusCode::kOk : put.status().code(),
                   client.last_trace_id());
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  }
  co_await sim.at(TimePoint::origin() + sec(8));
  const TimePoint start = sim.now();
  auto got = co_await client.get("mut-0");
  StatusCode code = StatusCode::kOk;
  if (!got.ok()) code = got.status().code();
  slo.record_get(client.id(), "mut-0",
                 got.ok() ? got->value.to_string() : "", start, sim.now(),
                 code, client.last_trace_id());
}

struct MutationResult {
  std::vector<sim::SloViolation> violations;
  int64_t drains = 0;
  std::string timeline;
};

MutationResult run_drain_mutation(bool handoff) {
  ScenarioCluster cluster(/*seed=*/11,
                          [handoff](WieraController::Config& config) {
                            config.drain_handoff = handoff;
                          });
  auto options = cluster.options_for(ConsistencyMode::kEventual);
  options.queue_flush_interval = sec(10);
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  ScenarioHost host(cluster.sim, cluster.controller, "w1");
  sim::ScenarioEngine engine(cluster.sim, host);
  sim::ScenarioPlan plan;
  plan.drain_region("tiera-us-west", TimePoint::origin() + sec(4),
                    TimePoint::origin() + sec(24));
  engine.arm(std::move(plan));

  WieraClient::Config client_config;
  client_config.op_deadline = sec(3);
  client_config.retry_budget_per_sec = 5;
  client_config.retry_budget_capacity = 10;
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app-0",
                     "client-us-west", *peers, client_config);
  EXPECT_EQ(client.closest_peer(), "tiera-us-west");

  sim::SloOracle slo;
  slo.set_window(TimePoint::origin() + sec(1), TimePoint::origin() + sec(10));
  cluster.sim.spawn(mutation_workload(cluster.sim, slo, client));
  cluster.sim.run_until(TimePoint(sec(12).us()));

  sim::SloContract contract;
  contract.scenario = "drain-mutation";
  contract.no_failed_ops = true;
  contract.session_reads = true;
  MutationResult result;
  result.violations =
      slo.check(contract, cluster.sim.telemetry().registry(), {"app-0"});
  result.drains = cluster.controller.drains_completed();
  result.timeline = engine.render_timeline();
  return result;
}

TEST(ScenarioMutationTest, DisabledDrainHandoffTripsTheSessionReadsClause) {
  MutationResult mutated = run_drain_mutation(/*handoff=*/false);
  EXPECT_EQ(mutated.drains, 1);
  bool session_fired = false;
  for (const auto& v : mutated.violations) {
    if (v.check == "session-reads") session_fired = true;
  }
  EXPECT_TRUE(session_fired)
      << "hand-off disabled but the SLO oracle saw nothing\n"
      << sim::SloOracle::describe(mutated.violations) << mutated.timeline;

  MutationResult control = run_drain_mutation(/*handoff=*/true);
  EXPECT_EQ(control.drains, 1);
  EXPECT_TRUE(control.violations.empty())
      << sim::SloOracle::describe(control.violations) << control.timeline;
}

// ------------------------------------------- health detection mutation
//
// The p99-inflation clause must actually catch a gray peer the cluster
// fails to route around: with health detection off (the health_detection
// mutation knob, Config::health.enabled=false) a 25x-slow closest peer
// keeps serving every GET of its colocated client for the whole window, so
// the in-window GET p99 dwarfs the quiet baseline and the clause fires.
// The control run (detection on) demotes the peer after its first
// over-baseline samples and stays clean under the identical fault plan.
// The binary detector is deliberately held back (a generous ping deadline)
// so only the health layer can react — the peer is gray, not down.

sim::Task<void> gray_mutation_workload(sim::Simulation& sim,
                                       sim::SloOracle& slo,
                                       WieraClient& client, int index,
                                       TimePoint end) {
  co_await sim.delay(msec(300) + msec(100) * static_cast<double>(index));
  const std::string key = "gm-" + std::to_string(index);
  auto put = co_await client.put(key, Blob("v0"));
  EXPECT_TRUE(put.ok()) << put.status().to_string();
  while (sim.now() < end) {
    const TimePoint start = sim.now();
    auto got = co_await client.get(key);
    slo.record_get(client.id(), key,
                   got.ok() ? got->value.to_string() : "", start, sim.now(),
                   got.ok() ? StatusCode::kOk : got.status().code(),
                   client.last_trace_id());
    co_await sim.delay(msec(60));
  }
}

struct GrayMutationResult {
  std::vector<sim::SloViolation> violations;
  int64_t probation_entries = 0;
};

GrayMutationResult run_gray_mutation(bool health_on) {
  ScenarioCluster cluster(
      /*seed=*/13, [health_on](WieraController::Config& config) {
        config.health.enabled = health_on;
        // The slowed peer must stay "alive": its pings arrive late but
        // inside this deadline, so node_alive_ never flips and only the
        // health layer (when armed) can respond.
        config.ping_deadline = sec(5);
      });
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  ChaosHost chaos_host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, chaos_host);
  sim::FaultPlan plan;
  plan.slow_node("tiera-us-west", 25.0, TimePoint::origin() + sec(8),
                 TimePoint::origin() + sec(20));
  injector.arm(std::move(plan));

  WieraClient::Config client_config;
  client_config.op_deadline = sec(3);
  client_config.health = &cluster.controller.health();

  sim::SloOracle slo;
  slo.set_window(TimePoint::origin() + sec(8), TimePoint::origin() + sec(20));
  std::vector<std::unique_ptr<WieraClient>> clients;
  const TimePoint workload_end = TimePoint::origin() + sec(24);
  for (int i = 0; i < 3; ++i) {
    clients.push_back(std::make_unique<WieraClient>(
        cluster.sim, cluster.network, cluster.registry,
        "app-" + std::to_string(i), kClientNodes[i], *peers, client_config));
    cluster.sim.spawn(gray_mutation_workload(cluster.sim, slo,
                                             *clients.back(), i,
                                             workload_end));
  }
  cluster.sim.run_until(TimePoint(sec(26).us()));

  sim::SloContract contract;
  contract.scenario = "gray-mutation";
  contract.max_get_p99_inflation = 6.0;
  GrayMutationResult result;
  result.violations = slo.check(contract, cluster.sim.telemetry().registry(),
                                {"app-0", "app-1", "app-2"});
  result.probation_entries = cluster.controller.health().probation_entries();
  return result;
}

TEST(ScenarioMutationTest, DisabledHealthDetectionTripsTheInflationClause) {
  GrayMutationResult mutated = run_gray_mutation(/*health_on=*/false);
  EXPECT_EQ(mutated.probation_entries, 0);
  bool inflation_fired = false;
  for (const auto& v : mutated.violations) {
    if (v.check == "get-p99-inflation") inflation_fired = true;
  }
  EXPECT_TRUE(inflation_fired)
      << "health detection off but the SLO oracle saw nothing\n"
      << sim::SloOracle::describe(mutated.violations);

  GrayMutationResult control = run_gray_mutation(/*health_on=*/true);
  EXPECT_GE(control.probation_entries, 1);
  EXPECT_TRUE(control.violations.empty())
      << sim::SloOracle::describe(control.violations);
}

// --------------------------------------------- alert-precedes-violation

// Mutation pair for the burn-rate alert layer (docs/METRICS_PIPELINE.md):
// a latency spike pushes the colocated client's GET p99 far past the
// contract bound for the whole SLO window, so the get-p99 clause trips
// either way. The armed run scrapes the client's p99 series every 100ms and
// a value-above rule must fire *strictly before* the clause's evidence time
// — feeding the firings into the oracle satisfies its require_detection
// guard. The mutated run leaves the pipeline unarmed: same violation, no
// alert, and the oracle reports the detection-gap — proving the alert layer
// (not the fault) is what closes the guard.

sim::Task<void> alert_mutation_workload(sim::Simulation& sim,
                                        sim::SloOracle& slo,
                                        WieraClient& client, TimePoint end) {
  co_await sim.delay(msec(300));
  const std::string key = "am-0";
  auto put = co_await client.put(key, Blob("v0"));
  EXPECT_TRUE(put.ok()) << put.status().to_string();
  while (sim.now() < end) {
    const TimePoint start = sim.now();
    auto got = co_await client.get(key);
    slo.record_get(client.id(), key,
                   got.ok() ? got->value.to_string() : "", start, sim.now(),
                   got.ok() ? StatusCode::kOk : got.status().code(),
                   client.last_trace_id());
    co_await sim.delay(msec(60));
  }
}

struct AlertMutationResult {
  std::vector<sim::SloViolation> violations;
  bool alert_fired = false;
  TimePoint first_alert = TimePoint::max();
};

AlertMutationResult run_alert_mutation(bool armed) {
  ScenarioCluster cluster(
      /*seed=*/17, [](WieraController::Config& config) {
        // The spiked peer must stay "alive" (pings late but in-deadline):
        // the degradation is visible only in the latency tail the sampler
        // scrapes, never to the binary detector.
        config.ping_deadline = sec(5);
      });
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  ChaosHost chaos_host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, chaos_host);
  sim::FaultPlan plan;
  plan.latency_spike("tiera-us-west", msec(300), TimePoint::origin() + sec(8),
                     TimePoint::origin() + sec(20));
  injector.arm(std::move(plan));

  sim::ObsPipeline pipeline(cluster.sim);
  obs::AlertRule rule;
  rule.name = "get-p99-burn";
  rule.clause = "get-p99";
  rule.kind = obs::AlertRule::Kind::kValueAbove;
  rule.series = "wiera_client_get_latency_us{client=\"app-0\"}#p99_us";
  rule.budget = static_cast<double>(msec(200).us());
  rule.long_window = sec(2);
  rule.short_window = msec(500);
  pipeline.add_rule(rule);
  if (armed) {
    sim::ObsPipeline::Config obs_config;
    obs_config.interval = msec(100);
    obs_config.until = TimePoint::origin() + sec(24);
    pipeline.arm(obs_config);
  }

  WieraClient::Config client_config;
  client_config.op_deadline = sec(3);

  sim::SloOracle slo;
  slo.set_window(TimePoint::origin() + sec(8), TimePoint::origin() + sec(20));
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app-0",
                     "client-us-west", *peers, client_config);
  cluster.sim.spawn(alert_mutation_workload(cluster.sim, slo, client,
                                            TimePoint::origin() + sec(22)));
  cluster.sim.run_until(TimePoint(sec(24).us()));

  pipeline.feed(slo);
  sim::SloContract contract;
  contract.scenario = "alert-mutation";
  contract.max_get_p99 = msec(200);
  contract.require_detection = true;
  contract.guarded_clauses = {"get-p99"};
  AlertMutationResult result;
  result.violations =
      slo.check(contract, cluster.sim.telemetry().registry(), {"app-0"});
  result.alert_fired = pipeline.alerts().fired("get-p99");
  result.first_alert = pipeline.alerts().first_firing("get-p99");
  return result;
}

TEST(ScenarioMutationTest, BurnRateAlertFiresBeforeTheSloClauseTrips) {
  // Mutated: pipeline unarmed. The clause trips and — with no alert on
  // record — the guard reports the detection gap.
  AlertMutationResult mutated = run_alert_mutation(/*armed=*/false);
  EXPECT_FALSE(mutated.alert_fired);
  bool clause = false, gap = false;
  for (const auto& v : mutated.violations) {
    if (v.check == "get-p99") clause = true;
    if (v.check == "detection-gap") gap = true;
  }
  EXPECT_TRUE(clause) << "latency spike never tripped the clause\n"
                      << sim::SloOracle::describe(mutated.violations);
  EXPECT_TRUE(gap) << "unarmed pipeline but no detection-gap\n"
                   << sim::SloOracle::describe(mutated.violations);

  // Control: identical fault, pipeline armed. Same clause, no gap, and the
  // alert fired strictly before the clause's evidence time.
  AlertMutationResult control = run_alert_mutation(/*armed=*/true);
  EXPECT_TRUE(control.alert_fired) << "armed pipeline never fired";
  TimePoint clause_at = TimePoint::max();
  for (const auto& v : control.violations) {
    EXPECT_NE(v.check, "detection-gap")
        << "alert on record but the oracle still saw a gap";
    if (v.check == "get-p99") clause_at = v.at;
  }
  ASSERT_NE(clause_at, TimePoint::max())
      << "control run lost the clause violation\n"
      << sim::SloOracle::describe(control.violations);
  EXPECT_LT(control.first_alert, clause_at)
      << "alert did not precede the violation";
}

// ------------------------------------------------- attribution sweep

// Acceptance sweep for the failure-attribution path: across seeds a forced
// SLO failure (an impossible latency bound under an injected degradation of
// a hot key's home peer) must always yield a report that names the injected
// fault event and the hot key from the peer-side sketch.

sim::Task<void> hot_key_workload(sim::Simulation& sim, sim::SloOracle& slo,
                                 WieraClient& client, TimePoint end) {
  co_await sim.delay(msec(200));
  auto put = co_await client.put("hot-0", Blob("v0"));
  EXPECT_TRUE(put.ok()) << put.status().to_string();
  while (sim.now() < end) {
    const TimePoint start = sim.now();
    auto got = co_await client.get("hot-0");
    slo.record_get(client.id(), "hot-0",
                   got.ok() ? got->value.to_string() : "", start, sim.now(),
                   got.ok() ? StatusCode::kOk : got.status().code(),
                   client.last_trace_id());
    co_await sim.delay(msec(80));
  }
}

// The forced-failure probe for one seed; prints and returns its RUN-REPORT,
// whose attribution is the product under test. It passes once the bound
// tripped and the report was built.
sim::RunReport run_attribution_probe(uint64_t seed) {
  ScenarioCluster cluster(seed, [](WieraController::Config& config) {
    config.ping_deadline = sec(5);
  });
  // Alternate the injected class by seed so the sweep exercises both
  // describe() spellings in the report.
  const bool slow = (seed % 2) == 0;
  sim::RunReport report("scenario", slow ? "probe:slownode" : "probe:spike",
                        seed);
  report.set_replay(
      suite::replay_command("scenario_test", seed, "--attribution-sample"));
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual,
                                [](WieraPeer::Config& config) {
                                  config.key_stats.enabled = true;
                                }));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return report;
  cluster.controller.start();

  ChaosHost chaos_host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, chaos_host);
  sim::FaultPlan plan;
  if (slow) {
    plan.slow_node("tiera-us-west", 10.0, TimePoint::origin() + sec(3),
                   TimePoint::origin() + sec(8));
  } else {
    plan.latency_spike("tiera-us-west", msec(150),
                       TimePoint::origin() + sec(3),
                       TimePoint::origin() + sec(8));
  }
  injector.arm(std::move(plan));

  WieraClient::Config client_config;
  client_config.op_deadline = sec(3);
  sim::SloOracle slo;
  slo.set_window(TimePoint::origin() + sec(1), TimePoint::origin() + sec(10));
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app-0",
                     "client-us-west", *peers, client_config);
  cluster.sim.spawn(hot_key_workload(cluster.sim, slo, client,
                                     TimePoint::origin() + sec(12)));
  cluster.sim.run_until(TimePoint(sec(13).us()));

  // An impossible bound forces the clause: the report, not the verdict, is
  // under test here.
  sim::SloContract contract;
  contract.scenario = "attribution-probe";
  contract.max_get_p99 = usec(1);
  auto violations =
      slo.check(contract, cluster.sim.telemetry().registry(), {"app-0"});
  report.set_trace(cluster.sim.checker().trace_hash());
  report.expect(!violations.empty(), "attribution",
                "the impossible bound never tripped");

  sim::AttributionReport attribution;
  attribution.set_window(TimePoint::origin() + sec(1),
                         TimePoint::origin() + sec(10));
  attribution.add_violations(violations);
  suite::add_evidence(attribution, cluster, injector, nullptr, *peers);
  report.set_json("attribution", attribution.render_json());
  report.print();
  return report;
}

TEST(AttributionSweepTest, ReportNamesTheFaultAndTheHotKeyAcrossSeeds) {
  for (int seed = 1; seed <= suite::seed_count(); ++seed) {
    const sim::RunReport r =
        run_attribution_probe(static_cast<uint64_t>(seed));
    EXPECT_TRUE(r.passed()) << r.describe();
    const std::string& attribution = r.json("attribution");
    const char* fault_tag = (seed % 2) == 0
                                ? "[\"slow-node node=tiera-us-west"
                                : "[\"latency-spike node=tiera-us-west";
    EXPECT_NE(attribution.find(std::string("\"overlapping_faults\":") +
                               fault_tag),
              std::string::npos)
        << "seed " << seed << ": report missed the injected fault\n"
        << attribution;
    EXPECT_NE(attribution.find("\"kind\":\"key\",\"id\":\"hot-0\""),
              std::string::npos)
        << "seed " << seed << ": report missed the hot key\n"
        << attribution;
  }
}

// --------------------------------------------------- client failover paths

struct ProbeResult {
  bool ok = false;
  StatusCode code = StatusCode::kOk;
  Duration elapsed = Duration::zero();
};

sim::Task<void> draining_probe(sim::Simulation& sim,
                               WieraController& controller,
                               WieraClient& client, ProbeResult& before,
                               ProbeResult& after) {
  co_await sim.delay(sec(1));
  TimePoint start = sim.now();
  auto first = co_await client.put("k0", Blob("v0"));
  before.ok = first.ok();
  before.elapsed = sim.now() - start;

  co_await sim.delay(sec(1));
  WieraPeer* peer = controller.peer("tiera-us-west");
  EXPECT_NE(peer, nullptr);
  if (peer == nullptr) co_return;
  peer->enter_draining();

  start = sim.now();
  auto second = co_await client.put("k0", Blob("v1"));
  after.ok = second.ok();
  if (!second.ok()) after.code = second.status().code();
  after.elapsed = sim.now() - start;
}

// Regression (satellite 2): a request hitting a draining peer fails over
// within its retry budget instead of burning the full op deadline — the
// availability gate answers kUnavailable immediately, it does not sit on
// the request.
TEST(ClientFailoverTest, DrainingPeerFailsOverWithinRetryBudget) {
  ScenarioCluster cluster(/*seed=*/21);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();

  WieraClient::Config config;
  config.op_deadline = sec(3);
  config.retry_budget_per_sec = 5;
  config.retry_budget_capacity = 10;
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app-0",
                     "client-us-west", *peers, config);
  ASSERT_EQ(client.closest_peer(), "tiera-us-west");

  ProbeResult before, after;
  cluster.sim.spawn(draining_probe(cluster.sim, cluster.controller, client,
                                   before, after));
  cluster.sim.run_until(TimePoint(sec(10).us()));

  EXPECT_TRUE(before.ok);
  EXPECT_TRUE(after.ok) << status_code_name(after.code);
  EXPECT_LT(after.elapsed.us(), sec(1).us())
      << "failover from a draining peer burned " << after.elapsed.us()
      << "us";
  EXPECT_GE(client.failovers(), 1);
  EXPECT_EQ(client.attempt_timeouts(), 0);
}

sim::Task<void> stalled_probe(sim::Simulation& sim, WieraClient& client,
                              ProbeResult& result) {
  co_await sim.delay(sec(2));
  const TimePoint start = sim.now();
  auto put = co_await client.put("k0", Blob("v0"));
  result.ok = put.ok();
  if (!put.ok()) result.code = put.status().code();
  result.elapsed = sim.now() - start;
}

ProbeResult run_stalled(bool attempt_timeout, int64_t& attempt_timeouts) {
  ScenarioCluster cluster(/*seed=*/23);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kEventual));
  EXPECT_TRUE(peers.ok()) << peers.status().to_string();
  if (!peers.ok()) return {};
  cluster.controller.start();

  // A stalled region: every message touching the client's closest peer is
  // delayed far past the op deadline. Unlike a dropped message (which the
  // network surfaces as a bounded kUnavailable after its unreachable wait)
  // nothing here errors — the attempt just sits in flight, which is exactly
  // the regime the per-attempt bound exists for.
  ChaosHost host(cluster.network, cluster.controller);
  sim::FaultInjector injector(cluster.sim, host);
  sim::FaultPlan plan;
  plan.latency_spike("tiera-us-west", sec(20), TimePoint::origin() + sec(1),
                     TimePoint::origin() + sec(20));
  injector.arm(std::move(plan));

  WieraClient::Config config;
  config.op_deadline = sec(3);
  config.retry_budget_per_sec = 5;
  config.retry_budget_capacity = 10;
  if (attempt_timeout) config.failover_attempt_timeout = msec(400);
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app-0",
                     "client-us-west", *peers, config);

  ProbeResult result;
  cluster.sim.spawn(stalled_probe(cluster.sim, client, result));
  cluster.sim.run_until(TimePoint(sec(10).us()));
  attempt_timeouts = client.attempt_timeouts();
  return result;
}

// Regression (satellite 2): without the per-attempt bound, one stalled
// peer burns the whole op deadline before the client ever tries a healthy
// replica; with it, the op fails over at the attempt timeout and succeeds.
TEST(ClientFailoverTest, AttemptTimeoutRescuesOpsFromAStalledPeer) {
  int64_t with_timeouts = 0;
  ProbeResult with = run_stalled(/*attempt_timeout=*/true, with_timeouts);
  EXPECT_TRUE(with.ok) << status_code_name(with.code);
  EXPECT_LT(with.elapsed.us(), sec(2).us());
  EXPECT_GE(with_timeouts, 1);

  int64_t without_timeouts = 0;
  ProbeResult without =
      run_stalled(/*attempt_timeout=*/false, without_timeouts);
  EXPECT_FALSE(without.ok);
  EXPECT_EQ(without.code, StatusCode::kDeadlineExceeded);
  EXPECT_GE(without.elapsed.us(), msec(2500).us())
      << "seed behaviour: the op deadline is the only attempt bound";
  EXPECT_EQ(without_timeouts, 0);
}

// ----------------------------------------- strong-mode primary evacuation

sim::Task<void> strong_workload(sim::Simulation& sim, sim::SloOracle& slo,
                                WieraClient& client) {
  co_await sim.delay(sec(1));
  for (int round = 0; round < 16; ++round) {
    const std::string value = "r" + std::to_string(round);
    TimePoint start = sim.now();
    auto put = co_await client.put("k0", Blob(value));
    slo.record_put(client.id(), "k0", value, start, sim.now(),
                   put.ok() ? StatusCode::kOk : put.status().code(),
                   client.last_trace_id());

    co_await sim.delay(msec(300));
    start = sim.now();
    auto got = co_await client.get("k0");
    StatusCode code = StatusCode::kOk;
    if (!got.ok()) code = got.status().code();
    slo.record_get(client.id(), "k0",
                   got.ok() ? got->value.to_string() : "", start, sim.now(),
                   code, client.last_trace_id());
    co_await sim.delay(msec(600));
  }
}

// Draining the sync-mode primary is the hardest evacuation: primary-ship
// must move, backups must re-point their forwards, and every in-flight put
// must still resolve inside its deadline.
TEST(ScenarioOperationalTest, EvacuatingTheSyncPrimaryKeepsClientsWhole) {
  ScenarioCluster cluster(/*seed=*/31);
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(ConsistencyMode::kPrimaryBackupSync));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  cluster.controller.start();
  const std::string old_primary = cluster.controller.current_primary("w1");
  ASSERT_FALSE(old_primary.empty());

  ScenarioHost host(cluster.sim, cluster.controller, "w1");
  sim::ScenarioEngine engine(cluster.sim, host);
  sim::ScenarioPlan plan;
  plan.drain_region(old_primary, TimePoint::origin() + sec(5),
                    TimePoint::origin() + sec(25));
  engine.arm(std::move(plan));

  WieraClient::Config config;
  config.op_deadline = sec(3);
  config.failover_attempt_timeout = msec(400);
  config.retry_budget_per_sec = 5;
  config.retry_budget_capacity = 10;
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app-0",
                     "client-eu-west", *peers, config);

  sim::SloOracle slo;
  slo.set_window(TimePoint::origin() + sec(1), TimePoint::origin() + sec(16));
  cluster.sim.spawn(strong_workload(cluster.sim, slo, client));
  cluster.sim.run_until(TimePoint(sec(30).us()));

  sim::SloContract contract;
  contract.scenario = "sync-primary-evacuation";
  contract.no_failed_ops = true;
  contract.no_corrupt_reads = true;
  contract.session_reads = true;
  contract.max_availability_gap = sec(6);
  auto violations =
      slo.check(contract, cluster.sim.telemetry().registry(), {"app-0"});
  EXPECT_TRUE(violations.empty())
      << sim::SloOracle::describe(violations) << engine.render_timeline();
  EXPECT_EQ(cluster.controller.drains_completed(), 1);
  EXPECT_EQ(host.failed_operations(), 0);
  const std::string new_primary = cluster.controller.current_primary("w1");
  EXPECT_FALSE(new_primary.empty());
  EXPECT_NE(new_primary, old_primary);
  auto members = cluster.controller.get_instances("w1");
  ASSERT_TRUE(members.ok());
  for (const std::string& node : *members) EXPECT_NE(node, old_primary);
}

// ------------------------------------------------------------------ replay
//
// `scenario_test --seed N --scenario NAME[:FAULT]` (FAULT one of
// kFaultTokens; default none) replays one schedule — the `replay` command
// of every scenario RUN-REPORT — and `scenario_test --seed N
// --attribution-sample` runs the forced-failure attribution probe for one
// seed (docs/METRICS_PIPELINE.md). --dump-telemetry and --dump-timeseries
// add the metrics, span trees, time series and hot-key sketches of the
// replayed run to its report.

std::optional<sim::RunReport> replay(uint64_t seed,
                                     const std::vector<std::string>& spec) {
  if (spec.size() == 1 && spec[0] == "--attribution-sample") {
    return run_attribution_probe(seed);
  }
  std::string name = spec.size() == 2 && spec[0] == "--scenario" ? spec[1] : "";
  size_t fault = 0;
  const size_t colon = name.find(':');
  if (colon != std::string::npos) {
    while (fault < std::size(kFaultTokens) &&
           name.substr(colon + 1) != kFaultTokens[fault]) {
      fault++;
    }
    name.resize(colon);
  }
  const auto& builtins = sim::ScenarioPlan::builtin_names();
  if (fault == std::size(kFaultTokens) ||
      std::find(builtins.begin(), builtins.end(), name) == builtins.end()) {
    std::fprintf(stderr,
                 "usage: scenario_test --seed N --scenario NAME[:FAULT] | "
                 "--attribution-sample\n");
    return std::nullopt;
  }
  return run_scenario(name, static_cast<ComposedFault>(fault), seed);
}

// Seed 1 of every builtin, fault-free and with its first composed fault,
// plus the attribution probe: each run the way its sweep runs it and again
// through its report's replay command must land on the same trace.
TEST(ScenarioReplayTest, EverySweptScenarioReplaysToItsOwnTrace) {
  EXPECT_EQ(kSweeps.size(), sim::ScenarioPlan::builtin_names().size())
      << "a builtin scenario is missing from the sweep matrix";
  std::vector<sim::RunReport> swept;
  for (const auto& [name, faults] : kSweeps) {
    swept.push_back(run_scenario(name, faults[0], 1));
    swept.push_back(run_scenario(name, faults[1], 1));
  }
  swept.push_back(run_attribution_probe(1));
  for (const sim::RunReport& r : swept) {
    const std::optional<sim::RunReport> replayed =
        suite::run_replay(r.replay(), replay);
    ASSERT_TRUE(replayed.has_value()) << r.replay();
    EXPECT_EQ(replayed->name(), r.name());
    EXPECT_EQ(replayed->trace(), r.trace()) << r.replay();
  }
}

}  // namespace
}  // namespace wiera::geo

int main(int argc, char** argv) {
  return wiera::geo::suite::run_main(argc, argv, wiera::geo::replay);
}
