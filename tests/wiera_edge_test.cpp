// Edge-case and scenario tests for the Wiera layer:
//  * Fig. 6b SimplerConsistency end-to-end (forwarding instances)
//  * block-and-queue semantics during a consistency change
//  * get failover when the client's closest replica is down
//  * replication egress accounting (cost inputs)
//  * §3.2.2 modular instances via dynamic tier mounting
//  * shared-NIC serialization under concurrency
#include <gtest/gtest.h>

#include <memory>

#include "common/units.h"
#include "cost/cost_model.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "tiera/forward_tier.h"
#include "wiera/client.h"
#include "wiera/controller.h"

namespace wiera::geo {
namespace {

struct Cluster {
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  WieraController controller;
  std::vector<std::unique_ptr<TieraServer>> servers;

  explicit Cluster(uint64_t seed = 1)
      : sim(seed),
        network(sim, make_topology()),
        controller(sim, network, registry,
                   WieraController::Config{"wiera-controller", 0}) {
    for (const char* node :
         {"tiera-us-west", "tiera-us-east", "tiera-eu-west",
          "tiera-asia-east", "tiera-us-west-1", "tiera-us-west-2",
          "tiera-us-west-3"}) {
      servers.push_back(
          std::make_unique<TieraServer>(sim, network, registry, node));
      controller.register_server(servers.back().get());
    }
  }

  static net::Topology make_topology() {
    net::Topology topo = net::Topology::paper_default();
    topo.set_jitter_fraction(0.0);
    // Three same-region US West DCs for the Fig. 6b scenario (the paper's
    // earlier work shows multiple DCs within a region, ~2ms apart).
    topo.add_datacenter("aws-us-west-1", net::Provider::kAws, "us-west-1");
    topo.add_datacenter("aws-us-west-2", net::Provider::kAws, "us-west-2");
    topo.add_datacenter("aws-us-west-3", net::Provider::kAws, "us-west-3");
    for (const char* a : {"aws-us-west-1", "aws-us-west-2", "aws-us-west-3"}) {
      for (const char* b :
           {"aws-us-west-1", "aws-us-west-2", "aws-us-west-3"}) {
        if (std::string(a) < std::string(b)) topo.set_rtt(a, b, msec(2));
      }
      // Distance to the controller's region.
      topo.set_rtt(a, "aws-us-east", msec(70));
      topo.set_rtt(a, "aws-us-west", msec(2));
      topo.set_rtt(a, "aws-eu-west", msec(140));
      topo.set_rtt(a, "aws-asia-east", msec(110));
      topo.set_rtt(a, "azure-us-east", msec(70));
    }
    topo.add_node("wiera-controller", "aws-us-east");
    topo.add_node("tiera-us-west", "aws-us-west");
    topo.add_node("tiera-us-east", "aws-us-east");
    topo.add_node("tiera-eu-west", "aws-eu-west");
    topo.add_node("tiera-asia-east", "aws-asia-east");
    topo.add_node("tiera-us-west-1", "aws-us-west-1");
    topo.add_node("tiera-us-west-2", "aws-us-west-2");
    topo.add_node("tiera-us-west-3", "aws-us-west-3");
    topo.add_node("client-us-west", "aws-us-west");
    topo.add_node("client-us-west-2", "aws-us-west-2");
    return topo;
  }

  template <typename F>
  void run(F&& body) {
    bool done = false;
    auto wrapper = [](sim::Simulation& s, F b, bool& flag) -> sim::Task<void> {
      co_await b();
      flag = true;
      s.stop();
    };
    sim.spawn(wrapper(sim, std::forward<F>(body), done));
    sim.run();
    ASSERT_TRUE(done);
  }
};

// ------------------------------------------------------------ Fig. 6b

TEST(SimplerConsistencyTest, ForwardingInstancesFanIntoPrimary) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::simpler_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("fig6b",
                                                  std::move(options));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  ASSERT_EQ(peers->size(), 3u);
  EXPECT_EQ(cluster.controller.current_primary("fig6b"), "tiera-us-west-1");

  // A client near the US-West-2 forwarding instance: puts and gets both
  // fan into the primary's fast tiers two milliseconds away.
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west-2", *peers);
  EXPECT_EQ(client.closest_peer(), "tiera-us-west-2");

  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
    auto got = co_await client.get("k");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got->served_by, "tiera-us-west-1");  // served by the primary
    EXPECT_EQ(got->value.to_string(), "v");
  });

  // The forwarding instance stored nothing locally.
  WieraPeer* fwd = cluster.controller.peer("tiera-us-west-2");
  EXPECT_EQ(fwd->local().tier_count(), 0u);
  EXPECT_EQ(fwd->local().meta().object_count(), 0u);
  // Data lives only at the primary (single region: no consistency traffic).
  WieraPeer* primary = cluster.controller.peer("tiera-us-west-1");
  EXPECT_NE(primary->local().meta().find("k"), nullptr);
  // Forwarded put counted by the requests monitor counters.
  EXPECT_EQ(primary->forwarded_puts_from("tiera-us-west-2"), 1);
}

// ------------------------------------------------------------ block & queue

TEST(ChangeConsistencyEdgeTest, OpsIssuedDuringSwitchCompleteAfter) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::multi_primaries_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);

  int64_t put_done_us = -1;
  int64_t switch_done_us = -1;
  bool all_done = false;

  // Start a put, then immediately start a consistency change. The put that
  // arrives during the change is blocked and completes under the new mode.
  auto put_task = [](Cluster& c, WieraClient& cl,
                     int64_t& done_us) -> sim::Task<void> {
    // Delay so the change starts first at the peer.
    co_await c.sim.delay(msec(40));
    auto put = co_await cl.put("during-switch", Blob("v"));
    EXPECT_TRUE(put.ok());
    done_us = c.sim.now().us();
  };
  auto switch_task = [](Cluster& c, int64_t& done_us,
                        bool& flag) -> sim::Task<void> {
    Status st = co_await c.controller.change_consistency(
        "w", ConsistencyMode::kEventual);
    EXPECT_TRUE(st.ok());
    done_us = c.sim.now().us();
    co_await c.sim.delay(sec(2));
    flag = true;
    c.sim.stop();
  };
  cluster.sim.spawn(put_task(cluster, client, put_done_us));
  cluster.sim.spawn(switch_task(cluster, switch_done_us, all_done));
  cluster.sim.run();
  ASSERT_TRUE(all_done);

  EXPECT_GT(put_done_us, 0);
  // The blocked put finished fast once unblocked (eventual mode), without
  // MultiPrimaries' lock+broadcast cost — i.e. it ran under the new mode.
  WieraPeer* west = cluster.controller.peer("tiera-us-west");
  EXPECT_EQ(west->mode(), ConsistencyMode::kEventual);
  EXPECT_LT(west->put_latency().max().ms(), 100.0);
}

// ------------------------------------------------------------ get failover

TEST(GetFailoverTest, ClientReadsFromNextReplicaWhenClosestDown) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::eventual_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  options.queue_flush_interval = msec(50);
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok());
    co_await cluster.sim.delay(sec(2));  // replicate everywhere
  });

  // Closest replica goes dark; reads keep working via the next closest.
  cluster.network.topology().inject_outage(
      "tiera-us-west", cluster.sim.now(), TimePoint::max());
  cluster.run([&]() -> sim::Task<void> {
    auto got = co_await client.get("k");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_NE(got->served_by, "tiera-us-west");
    EXPECT_EQ(got->value.to_string(), "v");
  });
  EXPECT_GE(client.failovers(), 1);
}

// ------------------------------------------------------------ egress accounting

TEST(EgressAccountingTest, ReplicationTrafficIsBilled) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::multi_primaries_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());
  cluster.network.reset_traffic();

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  constexpr int64_t kSize = 1 * MiB;
  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("big", Blob::zeros(kSize));
    EXPECT_TRUE(put.ok());
  });

  // Synchronous broadcast shipped the payload to 3 remote regions at
  // least; egress from US West covers those replicas.
  const int64_t egress =
      cluster.network.traffic().egress_bytes_from("aws-us-west");
  EXPECT_GE(egress, 3 * kSize);
  const double bill = cost::CostModel::bill_traffic(cluster.network.traffic());
  EXPECT_GT(bill, 0.0);
  EXPECT_NEAR(bill,
              cost::kCrossDcPerGb *
                  bytes_to_gb(cluster.network.traffic().cross_dc_bytes()),
              1e-9);
}

// ------------------------------------------------------------ §3.2.2 modular

TEST(ModularInstanceTest, IntermediateDataOverRawBigData) {
  // The paper's example: RAW-BIG-DATA-INSTANCES (durable + cheap) mounted
  // read-only into INTERMEDIATE-DATA (local Memcached for intermediates).
  sim::Simulation sim;

  auto raw_doc = policy::parse_policy(R"(
Tiera RawBigData() {
   tier1: {name: S3, size: 1T};
}
)");
  tiera::TieraInstance::Config raw_config;
  raw_config.instance_id = "raw-big-data";
  raw_config.region = "us-east";
  raw_config.policy = std::move(raw_doc).value();
  tiera::TieraInstance raw(sim, std::move(raw_config));

  auto inter_doc = policy::parse_policy(R"(
Tiera IntermediateData() {
   tier1: {name: Memcached, size: 1G};
}
)");
  tiera::TieraInstance::Config inter_config;
  inter_config.instance_id = "intermediate";
  inter_config.region = "us-east";
  inter_config.policy = std::move(inter_doc).value();
  tiera::TieraInstance intermediate(sim, std::move(inter_config));

  // Mount the raw instance as a read-only second tier at run time.
  ASSERT_TRUE(intermediate
                  .mount_tier("tier2", std::make_unique<tiera::ForwardTier>(
                                           sim, "tier2", raw,
                                           /*read_only=*/true))
                  .ok());
  EXPECT_FALSE(intermediate.mount_tier("tier2", nullptr).ok());

  bool done = false;
  auto body = [&]() -> sim::Task<void> {
    // Raw inputs land in the raw instance...
    co_await raw.put("input:part-0", Blob("raw-bytes"));
    // ...intermediates in the fast local tier...
    co_await intermediate.put("intermediate:sum", Blob("42"));
    auto fast = co_await intermediate.get("intermediate:sum");
    EXPECT_TRUE(fast.ok());
    // ...and raw data is readable *through* the intermediate instance's
    // mounted tier (ForwardTier delegates whole-object reads).
    auto* tier2 = intermediate.tier_by_label("tier2");
    EXPECT_NE(tier2, nullptr);
    if (tier2 == nullptr) co_return;
    auto raw_read = co_await tier2->get("input:part-0", {});
    EXPECT_TRUE(raw_read.ok());
    EXPECT_EQ(raw_read->to_string(), "raw-bytes");
    // Read-only: writes through the mount are refused.
    auto st = co_await tier2->put("x", Blob("y"), {});
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    done = true;
    sim.stop();
  };
  sim.spawn(body());
  sim.run();
  ASSERT_TRUE(done);

  // Unmount restores the original tier set.
  EXPECT_TRUE(intermediate.unmount_tier("tier2").ok());
  EXPECT_EQ(intermediate.unmount_tier("tier2").code(),
            StatusCode::kNotFound);
  EXPECT_EQ(intermediate.tier_count(), 1u);
}

// ------------------------------------------------------------ Fig. 6a

TEST(ReducedCostPolicyTest, BuiltinLaunchesAndDemotesColdData) {
  // Launch the paper's ReducedCostPolicy exactly as printed (Fig. 6a):
  // one region, PersistentInstance ("PersistanceInstance" in the paper's
  // listing) with LocalDisk + CheapestArchival tiers, 120 h idle threshold.
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::reduced_cost_policy()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  // Map the policy's region name onto the US-West node.
  options.node_for_region = [](const std::string&) {
    return std::string("tiera-us-west");
  };
  auto peers = cluster.controller.start_instances("fig6a",
                                                  std::move(options));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();
  ASSERT_EQ(peers->size(), 1u);

  WieraPeer* peer = cluster.controller.peer("tiera-us-west");
  ASSERT_NE(peer, nullptr);
  // Region tier overrides replaced PersistentInstance's tiers with
  // LocalDisk + CheapestArchival (Glacier model).
  ASSERT_EQ(peer->local().tier_count(), 2u);
  EXPECT_EQ(peer->local().tier_by_label("tier2")->spec().kind,
            store::TierKind::kGlacier);

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("report.pdf", Blob::zeros(4096));
    EXPECT_TRUE(put.ok());
  });
  // PersistentInstance's cold rule came from the *global* doc's event
  // (object.lastAccessedTime > 120 hours): after 130 idle hours the object
  // moved to the archival tier.
  cluster.sim.run_until(TimePoint(hoursd(130).us()));
  const auto* meta = peer->local().meta().find("report.pdf");
  ASSERT_NE(meta, nullptr);
  EXPECT_EQ(meta->latest()->tier, "tier2");
  EXPECT_GE(peer->local().cold_moves(), 1);
}

// ------------------------------------------------------------ Table 2 API

TEST(VersioningApiTest, VersionListAndRemovePropagate) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::multi_primaries_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    // Three versions, replicated synchronously everywhere.
    co_await client.put("k", Blob("v1"));
    co_await client.put("k", Blob("v2"));
    co_await client.put("k", Blob("v3"));

    auto versions = co_await client.get_version_list("k");
    EXPECT_TRUE(versions.ok());
    EXPECT_EQ(*versions, (std::vector<int64_t>{1, 2, 3}));

    // Old versions retrievable by number.
    auto v1 = co_await client.get_version("k", 1);
    EXPECT_TRUE(v1.ok());
    EXPECT_EQ(v1->value.to_string(), "v1");

    // removeVersion drops one version on every replica.
    Status st = co_await client.remove_version("k", 2);
    EXPECT_TRUE(st.ok()) << st.to_string();
    versions = co_await client.get_version_list("k");
    EXPECT_EQ(*versions, (std::vector<int64_t>{1, 3}));
  });
  for (const std::string& id : *peers) {
    EXPECT_EQ(cluster.controller.peer(id)->version_list("k"),
              (std::vector<int64_t>{1, 3}))
        << id;
  }

  // remove drops the whole object everywhere.
  cluster.run([&]() -> sim::Task<void> {
    Status st = co_await client.remove("k");
    EXPECT_TRUE(st.ok()) << st.to_string();
    auto gone = co_await client.get("k");
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  });
  for (const std::string& id : *peers) {
    EXPECT_EQ(cluster.controller.peer(id)->local().meta().find("k"), nullptr)
        << id;
  }
}

TEST(VersioningApiTest, UpdateWritesExplicitVersionEverywhere) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::multi_primaries_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    co_await client.put("k", Blob("v1"));
    // Rewrite version 1 in place (Table 2 update semantics).
    auto updated = co_await client.update("k", 1, Blob("v1-fixed"));
    EXPECT_TRUE(updated.ok());
    EXPECT_EQ(updated->version, 1);
    auto got = co_await client.get_version("k", 1);
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got->value.to_string(), "v1-fixed");
    // Writing a far-future version works too and becomes latest.
    auto v9 = co_await client.update("k", 9, Blob("v9"));
    EXPECT_TRUE(v9.ok());
    auto latest = co_await client.get("k");
    EXPECT_EQ(latest->version, 9);
  });
  // Synchronous replication carried the explicit versions everywhere.
  for (const std::string& id : *peers) {
    EXPECT_EQ(cluster.controller.peer(id)->version_list("k"),
              (std::vector<int64_t>{1, 9}))
        << id;
  }
}

TEST(VersioningApiTest, RemoveMissingKeyIsNotFound) {
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::eventual_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    Status st = co_await client.remove("never-existed");
    EXPECT_EQ(st.code(), StatusCode::kNotFound);
    auto versions = co_await client.get_version_list("never-existed");
    EXPECT_TRUE(versions.ok());
    EXPECT_TRUE(versions->empty());
  });
}

// ------------------------------------------------------------ queue retry

TEST(QueueRetryTest, QueuedUpdatesSurviveReplicaOutage) {
  // Eventual consistency: a replica is down during the flush window. The
  // queued update must be retried until the replica recovers — dropping it
  // would diverge that replica forever.
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::eventual_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  options.queue_flush_interval = msec(200);
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());

  // EU is dark from the start until t=10s.
  cluster.network.topology().inject_outage("tiera-eu-west", TimePoint(0),
                                           TimePoint(sec(10).us()));

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  bool put_done = false;
  auto writer = [](WieraClient& c, bool& flag) -> sim::Task<void> {
    auto put = co_await c.put("k", Blob("v"));
    EXPECT_TRUE(put.ok());
    flag = true;
  };
  cluster.sim.spawn(writer(client, put_done));

  // While EU is down, the healthy replicas converge but EU does not.
  cluster.sim.run_until(TimePoint(sec(5).us()));
  ASSERT_TRUE(put_done);
  EXPECT_NE(cluster.controller.peer("tiera-us-east")->local().meta().find("k"),
            nullptr);
  EXPECT_EQ(cluster.controller.peer("tiera-eu-west")->local().meta().find("k"),
            nullptr);

  // After recovery, the retried queue delivers the update.
  cluster.sim.run_until(TimePoint(sec(15).us()));
  EXPECT_NE(cluster.controller.peer("tiera-eu-west")->local().meta().find("k"),
            nullptr);
  // The writer's queue eventually drained.
  EXPECT_EQ(cluster.controller.peer("tiera-us-west")->queue_depth(), 0);
}

TEST(QueueRetryTest, OneDarkReplicaDoesNotStallTheOthers) {
  // A flush round sends each update once per target and requeues what
  // failed, so one dark replica costs each round one failed send and never
  // holds back later updates bound for the healthy replicas.
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::eventual_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  options.queue_flush_interval = msec(200);
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());

  cluster.network.topology().inject_outage("tiera-eu-west", TimePoint(0),
                                           TimePoint(sec(10).us()));

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  bool puts_done = false;
  auto writer = [](sim::Simulation& s, WieraClient& c,
                   bool& flag) -> sim::Task<void> {
    auto k1 = co_await c.put("k1", Blob("v1"));
    EXPECT_TRUE(k1.ok());
    co_await s.delay(TimePoint(sec(3).us()) - s.now());
    auto k2 = co_await c.put("k2", Blob("v2"));
    EXPECT_TRUE(k2.ok());
    flag = true;
  };
  cluster.sim.spawn(writer(cluster.sim, client, puts_done));

  // k1 keeps failing towards EU, yet k2 reaches US East within two seconds
  // of its ack.
  cluster.sim.run_until(TimePoint(sec(5).us()));
  ASSERT_TRUE(puts_done);
  EXPECT_NE(cluster.controller.peer("tiera-us-east")->local().meta().find("k2"),
            nullptr);
  EXPECT_EQ(cluster.controller.peer("tiera-eu-west")->local().meta().find("k2"),
            nullptr);

  cluster.sim.run_until(TimePoint(sec(12).us()));
  EXPECT_NE(cluster.controller.peer("tiera-eu-west")->local().meta().find("k2"),
            nullptr);
}

// ------------------------------------------------------ deadline vs migration

TEST(MigrationDeadlineTest, GetDuringPrimaryMigrationCompletesOrExpires) {
  // Regression: a GET issued while the primary is migrating used to be able
  // to wait on the moving forward target indefinitely. With an op deadline
  // every such GET must resolve — success or kDeadlineExceeded — within the
  // deadline, and the simulation must fully drain (no hung coroutine).
  Cluster cluster;
  WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::primary_backup_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient::Config client_config;
  client_config.op_deadline = sec(2);
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers, client_config);

  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  });

  // Fire a burst of GETs bracketing the migration; every one must resolve
  // within its deadline (plus scheduling slack) and never hang.
  int resolved = 0;
  int failed_late = 0;
  auto reader = [](Cluster& c, WieraClient& cl, Duration delay_before,
                   int& done, int& late) -> sim::Task<void> {
    co_await c.sim.delay(delay_before);
    const TimePoint issued = c.sim.now();
    auto got = co_await cl.get("k");
    const Duration took = c.sim.now() - issued;
    if (!got.ok()) {
      EXPECT_TRUE(got.status().code() == StatusCode::kDeadlineExceeded ||
                  got.status().code() == StatusCode::kUnavailable)
          << got.status().to_string();
    }
    // op_deadline 2s + one cross-region RTT of slack.
    if (took > sec(2) + msec(200)) late++;
    done++;
  };
  auto migrator = [](Cluster& c) -> sim::Task<void> {
    co_await c.sim.delay(msec(30));
    Status st = co_await c.controller.change_primary("w", "tiera-us-east");
    EXPECT_TRUE(st.ok()) << st.to_string();
  };
  constexpr int kReaders = 8;
  for (int i = 0; i < kReaders; ++i) {
    cluster.sim.spawn(
        reader(cluster, client, msec(10 * i), resolved, failed_late));
  }
  cluster.sim.spawn(migrator(cluster));
  // 30 virtual seconds is 15x the op deadline: if any GET coroutine hangs
  // past its deadline, `resolved` stays short. (run_until, because the
  // controller heartbeat and queue flushers never drain on their own.)
  cluster.sim.run_until(cluster.sim.now() + sec(30));
  EXPECT_EQ(resolved, kReaders);
  EXPECT_EQ(failed_late, 0);
}

// ------------------------------------------------------------ NIC sharing

TEST(NicSharingTest, ConcurrentTransfersSerializeOnOneNic) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_datacenter("dc-a", net::Provider::kAws, "us-east");
  topo.add_datacenter("dc-b", net::Provider::kAws, "us-west");
  topo.set_rtt("dc-a", "dc-b", msec(10));
  topo.set_jitter_fraction(0.0);
  topo.add_node("sender", "dc-a", net::VmType{"tiny", 10.0});  // 10 MB/s
  topo.add_node("rx1", "dc-b", net::VmType{"big", 1000.0});
  topo.add_node("rx2", "dc-b", net::VmType{"big", 1000.0});
  net::Network network(sim, std::move(topo));

  // Two concurrent 10 MB transfers from one 10 MB/s sender: aggregate must
  // take ~2 s, not ~1 s (the NIC is shared, not per-message).
  int completed = 0;
  auto xfer = [](net::Network& net, std::string to,
                 int& count) -> sim::Task<void> {
    Status st = co_await net.transfer("sender", std::move(to), 10 * 1000000);
    EXPECT_TRUE(st.ok());
    count++;
  };
  sim.spawn(xfer(network, "rx1", completed));
  sim.spawn(xfer(network, "rx2", completed));
  sim.run();
  EXPECT_EQ(completed, 2);
  EXPECT_GE(sim.now().seconds(), 1.99);
  EXPECT_LE(sim.now().seconds(), 2.2);
}

}  // namespace
}  // namespace wiera::geo
