// Tests for the §3.1 network/workload monitors, the placement advisor, and
// §4.4 replica maintenance (replacement spawning + primary failover).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "fault_suite.h"
#include "wiera/client.h"
#include "wiera/controller.h"
#include "wiera/monitors.h"

namespace wiera::geo {
namespace {

// ------------------------------------------------------------ unit level

TEST(NetworkMonitorTest, TracksRequestAndLinkLatency) {
  NetworkMonitor monitor;
  monitor.record_request_latency("a", msec(10));
  monitor.record_request_latency("a", msec(20));
  monitor.record_request_latency("b", msec(100));
  monitor.record_link_latency("a", "b", msec(70));

  ASSERT_NE(monitor.request_latency("a"), nullptr);
  EXPECT_EQ(monitor.request_latency("a")->count(), 2);
  EXPECT_EQ(monitor.request_latency("a")->mean().us(), 15000);
  EXPECT_EQ(monitor.request_latency("zz"), nullptr);
  ASSERT_NE(monitor.link_latency("a", "b"), nullptr);
  EXPECT_EQ(monitor.link_latency("b", "a"), nullptr);  // directional
  EXPECT_EQ(monitor.slowest_instance(), "b");

  monitor.reset();
  EXPECT_EQ(monitor.slowest_instance(), "");
}

TEST(WorkloadMonitorTest, AggregatesPerInstance) {
  WorkloadMonitor monitor;
  monitor.record_request("us-west", true, 1000);
  monitor.record_request("us-west", false, 3000);
  monitor.record_request("eu-west", false, 2000);

  ASSERT_NE(monitor.counters("us-west"), nullptr);
  EXPECT_EQ(monitor.counters("us-west")->puts, 1);
  EXPECT_EQ(monitor.counters("us-west")->gets, 1);
  EXPECT_EQ(monitor.counters("us-west")->bytes, 4000);
  EXPECT_EQ(monitor.total_requests(), 3);
  EXPECT_EQ(monitor.busiest_instance(), "us-west");
  EXPECT_DOUBLE_EQ(monitor.mean_object_size(), 2000.0);

  monitor.reset();
  EXPECT_EQ(monitor.total_requests(), 0);
  EXPECT_EQ(monitor.busiest_instance(), "");
  EXPECT_DOUBLE_EQ(monitor.mean_object_size(), 0.0);
}

TEST(PlacementAdvisorTest, NeedsEnoughSignal) {
  WorkloadMonitor monitor;
  PlacementAdvisor advisor(/*min_requests=*/10);
  for (int i = 0; i < 5; ++i) monitor.record_request("asia", false, 100);
  EXPECT_EQ(advisor.recommend_primary(monitor), "");  // not enough data
  for (int i = 0; i < 10; ++i) monitor.record_request("asia", false, 100);
  EXPECT_EQ(advisor.recommend_primary(monitor), "asia");
}

// ------------------------------------------------------------ integrated

// The integrated tests run on the fault suites' four-region cluster
// (tests/fault_suite.h), most with a spare server in US East; this is their
// controller config.
WieraController::Config maintaining(int min_replicas) {
  return WieraController::Config{"wiera-controller", sec(1), min_replicas};
}

TEST(MonitorsIntegrationTest, PeersFeedControllerMonitors) {
  suite::Cluster cluster(3, maintaining(0), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  bool done = false;
  auto body = [](WieraClient& c, bool& flag,
                 sim::Simulation& s) -> sim::Task<void> {
    for (int i = 0; i < 20; ++i) {
      co_await c.put("k" + std::to_string(i), Blob::zeros(2048));
      auto r = co_await c.get("k" + std::to_string(i));
      EXPECT_TRUE(r.ok());
    }
    flag = true;
    s.stop();
  };
  cluster.sim.spawn(body(client, done, cluster.sim));
  cluster.sim.run();
  ASSERT_TRUE(done);

  // Workload monitor saw the traffic, all at the closest (US West) peer.
  EXPECT_EQ(cluster.controller.workload_monitor().busiest_instance(),
            "tiera-us-west");
  const auto* counters =
      cluster.controller.workload_monitor().counters("tiera-us-west");
  ASSERT_NE(counters, nullptr);
  EXPECT_EQ(counters->puts, 20);
  EXPECT_EQ(counters->gets, 20);
  EXPECT_DOUBLE_EQ(cluster.controller.workload_monitor().mean_object_size(),
                   2048.0);
  // Network monitor recorded request latencies there too.
  ASSERT_NE(cluster.controller.network_monitor().request_latency(
                "tiera-us-west"),
            nullptr);
  EXPECT_GE(cluster.controller.network_monitor()
                .request_latency("tiera-us-west")
                ->count(),
            40);
  // Placement advisor recommends keeping the primary near the traffic
  // (needs >= 100 samples by default; we only have 40 -> "").
  EXPECT_EQ(cluster.controller.recommend_primary("w1"), "");
}

TEST(MonitorsIntegrationTest, AdvisorRecommendsBusiestRegion) {
  suite::Cluster cluster(3, maintaining(0), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(peers.ok());
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  bool done = false;
  auto body = [](WieraClient& c, bool& flag,
                 sim::Simulation& s) -> sim::Task<void> {
    for (int i = 0; i < 120; ++i) {
      auto r = co_await c.get("missing-key");
      (void)r;  // misses still count as requests
    }
    flag = true;
    s.stop();
  };
  cluster.sim.spawn(body(client, done, cluster.sim));
  cluster.sim.run();
  ASSERT_TRUE(done);
  EXPECT_EQ(cluster.controller.recommend_primary("w1"), "tiera-us-west");
  EXPECT_EQ(cluster.controller.recommend_primary("no-such-instance"), "");
}

// ------------------------------------------------------------ §4.4

TEST(ReplicaMaintenanceTest, SpawnsReplacementOnSpareServer) {
  suite::Cluster cluster(3, maintaining(4), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(peers->size(), 4u);
  cluster.controller.start();

  // EU goes down permanently at t=3s; heartbeats detect it and the spare
  // US East server hosts the replacement.
  cluster.network.topology().inject_outage(
      "tiera-eu-west", TimePoint(sec(3).us()), TimePoint::max());
  cluster.sim.run_until(TimePoint(sec(15).us()));

  EXPECT_GE(cluster.controller.replacements_spawned(), 1);
  auto members = cluster.controller.get_instances("w1");
  ASSERT_TRUE(members.ok());
  EXPECT_NE(std::find(members->begin(), members->end(), "tiera-spare"),
            members->end());
  WieraPeer* replacement = cluster.controller.peer("tiera-spare");
  ASSERT_NE(replacement, nullptr);

  // The replacement participates in replication: a put from US West
  // reaches it after a queue flush.
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *members);
  bool done = false;
  auto body = [](WieraClient& c, bool& flag,
                 sim::Simulation& s) -> sim::Task<void> {
    auto put = co_await c.put("after-failure", Blob("v"));
    EXPECT_TRUE(put.ok());
    co_await s.delay(sec(2));
    flag = true;
    s.stop();
  };
  cluster.sim.spawn(body(client, done, cluster.sim));
  cluster.sim.run();
  ASSERT_TRUE(done);
  EXPECT_NE(replacement->local().meta().find("after-failure"), nullptr);
  cluster.controller.stop();
}

TEST(ReplicaMaintenanceTest, PrimaryFailoverPromotesLivePeer) {
  suite::Cluster cluster(3, maintaining(3), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kPrimaryBackupSync));
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(cluster.controller.current_primary("w1"), "tiera-us-west");
  cluster.controller.start();

  // Kill the primary.
  cluster.network.topology().inject_outage(
      "tiera-us-west", TimePoint(sec(3).us()), TimePoint::max());
  cluster.sim.run_until(TimePoint(sec(15).us()));

  const std::string new_primary = cluster.controller.current_primary("w1");
  EXPECT_NE(new_primary, "tiera-us-west");
  EXPECT_FALSE(new_primary.empty());
  WieraPeer* promoted = cluster.controller.peer(new_primary);
  ASSERT_NE(promoted, nullptr);
  EXPECT_TRUE(promoted->is_primary());
  cluster.controller.stop();
}

// A replacement joins like a live add: every live peer's replication set
// leaves the dead member out (sync puts must not wait out its unreachable
// timeouts), and the newcomer catches up on what was written before it
// joined.
TEST(ReplicaMaintenanceTest, ReplacementLeavesTheDeadPeerOutAndCatchesUp) {
  suite::Cluster cluster(3, maintaining(3), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kPrimaryBackupSync));
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(cluster.controller.current_primary("w1"), "tiera-us-west");
  cluster.controller.start();
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.sim.spawn([](WieraClient& c, sim::Simulation& s) -> sim::Task<void> {
    co_await s.delay(sec(1));
    auto put = co_await c.put("before", Blob("v0"));
    EXPECT_TRUE(put.ok());
  }(client, cluster.sim));

  cluster.network.topology().inject_outage(
      "tiera-eu-west", TimePoint(sec(3).us()), TimePoint::max());
  cluster.sim.run_until(TimePoint(sec(15).us()));

  // Asia East is the first registered server that is not a member.
  EXPECT_EQ(cluster.controller.replacements_spawned(), 1);
  auto members = cluster.controller.get_instances("w1");
  ASSERT_TRUE(members.ok());
  EXPECT_NE(std::find(members->begin(), members->end(), "tiera-asia-east"),
            members->end());
  WieraPeer* replacement = cluster.controller.peer("tiera-asia-east");
  ASSERT_NE(replacement, nullptr);

  bool done = false;
  auto body = [](WieraClient& c, bool& flag,
                 sim::Simulation& s) -> sim::Task<void> {
    for (int i = 0; i < 3; ++i) {
      const TimePoint start = s.now();
      auto put = co_await c.put("after" + std::to_string(i), Blob("v"));
      EXPECT_TRUE(put.ok()) << put.status().to_string();
      EXPECT_LT((s.now() - start).us(), sec(1).us());
    }
    flag = true;
    s.stop();
  };
  cluster.sim.spawn(body(client, done, cluster.sim));
  cluster.sim.run();
  ASSERT_TRUE(done);
  for (const char* key : {"before", "after0", "after1", "after2"}) {
    EXPECT_NE(replacement->local().meta().find(key), nullptr) << key;
  }
  cluster.controller.stop();
}

TEST(ReplicaMaintenanceTest, NoSpareNoReplacement) {
  // With min_replicas demanded but no spare server, maintenance is a no-op
  // (no crash, no bogus member).
  suite::Cluster cluster(3, maintaining(4));
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(peers.ok());
  cluster.controller.start();
  cluster.network.topology().inject_outage(
      "tiera-eu-west", TimePoint(sec(3).us()), TimePoint::max());
  cluster.sim.run_until(TimePoint(sec(15).us()));
  EXPECT_EQ(cluster.controller.replacements_spawned(), 0);
  EXPECT_EQ(cluster.controller.get_instances("w1")->size(), 4u);
  cluster.controller.stop();
}

}  // namespace
}  // namespace wiera::geo
