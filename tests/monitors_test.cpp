// Tests for the §3.1 monitors (each peer's registry series) and the
// placement advisor that reads them, and §4.4 replica maintenance
// (replacement spawning + primary failover).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "fault_suite.h"
#include "wiera/client.h"
#include "wiera/controller.h"

namespace wiera::geo {
namespace {

// The integrated tests run on the fault suites' four-region cluster
// (tests/fault_suite.h), most with a spare server in US East; this is their
// controller config.
WieraController::Config maintaining(int min_replicas) {
  return WieraController::Config{"wiera-controller", min_replicas};
}

// `puts` puts of fresh keys, then `gets` gets (of those keys while they
// last, then of missing ones: a miss is still a served request).
sim::Task<void> serve(WieraClient& client, std::string prefix, int puts,
                      int gets) {
  for (int i = 0; i < puts; ++i) {
    auto put = co_await client.put(prefix + std::to_string(i),
                                   Blob::zeros(2048));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  }
  for (int i = 0; i < gets; ++i) {
    auto get = co_await client.get(prefix + std::to_string(i));
    EXPECT_EQ(get.ok(), i < puts) << get.status().to_string();
  }
}

// Runs the cluster until `traffic` has finished.
void drive(suite::Cluster& cluster, sim::Task<void> traffic) {
  bool done = false;
  cluster.sim.spawn([](sim::Task<void> task, bool& flag,
                       sim::Simulation& s) -> sim::Task<void> {
    co_await std::move(task);
    flag = true;
    s.stop();
  }(std::move(traffic), done, cluster.sim));
  cluster.sim.run();
  ASSERT_TRUE(done);
}

// The §3.1 monitors are the peers' registry series: every request a peer
// serves is one latency sample, and a put counts as a direct put once, at
// the peer its client sent it to. A PrimaryBackup backup forwards its
// clients' puts to the primary, which counts them as forwarded, not direct.
TEST(MonitorsIntegrationTest, PeersFeedControllerMonitors) {
  suite::Cluster cluster(3, maintaining(0), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kPrimaryBackupSync));
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(cluster.controller.current_primary("w1"), "tiera-us-west");
  WieraClient west(cluster.sim, cluster.network, cluster.registry, "app",
                   "client-us-west", *peers);
  WieraClient europe(cluster.sim, cluster.network, cluster.registry,
                     "app-eu", "client-eu-west", *peers);
  drive(cluster, serve(west, "w", 20, 20));
  drive(cluster, serve(europe, "e", 10, 10));

  WieraPeer* primary = cluster.controller.peer("tiera-us-west");
  WieraPeer* backup = cluster.controller.peer("tiera-eu-west");
  ASSERT_NE(primary, nullptr);
  ASSERT_NE(backup, nullptr);
  EXPECT_EQ(primary->direct_puts(), 20);
  EXPECT_EQ(primary->forwarded_puts_from("tiera-eu-west"), 10);
  EXPECT_EQ(primary->get_latency().count(), 20);
  EXPECT_EQ(backup->direct_puts(), 10);
  EXPECT_EQ(backup->get_latency().count(), 10);
  EXPECT_EQ(cluster.controller.peer("tiera-us-east")->direct_puts(), 0);
  // Latency: one sample per put the primary served, the forwarded ones
  // included; a sync put waits at least for the 70 ms US West - US East
  // round trip of its copy, and a backup's put adds the forward to it.
  const obs::Registry& metrics = cluster.sim.telemetry().registry();
  const obs::Histogram* primary_puts = metrics.find_histogram(
      "wiera_put_latency_us", {{"instance", "tiera-us-west"}});
  ASSERT_NE(primary_puts, nullptr);
  EXPECT_EQ(primary_puts->count(), 30);
  EXPECT_GE(primary_puts->percentile(0.5).us(), msec(70).us());
  EXPECT_EQ(backup->put_latency().count(), 10);
  EXPECT_GT(backup->put_latency().mean(), primary_puts->mean());
  // 60 requests across the members: below the placement advisor's 100.
  EXPECT_EQ(cluster.controller.recommend_primary("w1"), "");
}

TEST(MonitorsIntegrationTest, AdvisorRecommendsBusiestRegion) {
  suite::Cluster cluster(3, maintaining(0), "tiera-spare");
  auto peers = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(peers.ok());
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  drive(cluster, serve(client, "k", 0, 120));
  EXPECT_EQ(cluster.controller.recommend_primary("w1"), "tiera-us-west");
  EXPECT_EQ(cluster.controller.recommend_primary("no-such-instance"), "");
}

// Each instance's recommendation sums only its own members' requests:
// another instance on the same controller neither fills its 100-request
// threshold nor takes its busiest peer.
TEST(MonitorsIntegrationTest, AdvisorCountsOnlyTheInstancesOwnMembers) {
  suite::Cluster cluster(3, maintaining(0), "tiera-spare");
  auto w1 = cluster.controller.start_instances(
      "w1", suite::Cluster::options_for(ConsistencyMode::kEventual));
  ASSERT_TRUE(w1.ok());
  WieraController::StartOptions solo = suite::Cluster::options_for(R"(
Wiera Solo() {
   Region1 = {name:LowLatencyInstance, region:US-East,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
}
)");
  solo.node_for_region = [](const std::string&) { return "tiera-spare"; };
  auto w2 = cluster.controller.start_instances("w2", std::move(solo));
  ASSERT_TRUE(w2.ok());
  ASSERT_EQ(*w2, std::vector<std::string>{"tiera-spare"});
  WieraClient west(cluster.sim, cluster.network, cluster.registry, "app1",
                   "client-us-west", *w1);
  WieraClient asia(cluster.sim, cluster.network, cluster.registry, "app2",
                   "client-asia-east", *w1);
  WieraClient solo_client(cluster.sim, cluster.network, cluster.registry,
                          "app3", "client-eu-west", *w2);

  // 110 requests on the controller, the most at w2's peer, but only 50 in
  // w2 and 60 in w1.
  drive(cluster, serve(west, "a", 15, 15));
  drive(cluster, serve(asia, "b", 15, 15));
  drive(cluster, serve(solo_client, "c", 25, 25));
  EXPECT_EQ(cluster.controller.recommend_primary("w1"), "");
  EXPECT_EQ(cluster.controller.recommend_primary("w2"), "");

  // w1 now has 330 requests, 300 of them at US West; w2 has 120.
  drive(cluster, serve(west, "d", 100, 170));
  drive(cluster, serve(solo_client, "e", 35, 35));
  WieraPeer* spare = cluster.controller.peer("tiera-spare");
  ASSERT_NE(spare, nullptr);
  EXPECT_EQ(spare->direct_puts() + spare->get_latency().count(), 120);
  EXPECT_EQ(cluster.controller.recommend_primary("w1"), "tiera-us-west");
  EXPECT_EQ(cluster.controller.recommend_primary("w2"), "tiera-spare");
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
