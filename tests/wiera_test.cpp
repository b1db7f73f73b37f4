// Integration tests for the Wiera layer: consistency protocols, dynamic
// policy switching, primary migration, failover, remote tiers, and the
// centralized cold-data policy.
#include <gtest/gtest.h>

#include <memory>

#include "common/units.h"
#include "fault_suite.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "wiera/client.h"
#include "wiera/controller.h"
#include "wiera/health.h"

namespace wiera::geo {
namespace {

// The shared four-region deployment (fault_suite.h) with the plain
// controller config: no leased locks, no serve leases.
struct Cluster : suite::Cluster {
  explicit Cluster(uint64_t seed = 1) : suite::Cluster(seed, {}) {}

  // Run `body` then stop the loop (timers would otherwise spin forever).
  template <typename F>
  void run(F&& body) {
    bool done = false;
    auto wrapper = [](sim::Simulation& s, F body, bool& flag) -> sim::Task<void> {
      co_await body();
      flag = true;
      s.stop();
    };
    sim.spawn(wrapper(sim, std::forward<F>(body), done));
    sim.run();
    ASSERT_TRUE(done);
  }
};

// ------------------------------------------------------------ mode derivation

TEST(ConsistencyModeTest, DerivedFromBuiltinPolicies) {
  auto mp = policy::parse_policy(policy::builtin::multi_primaries_consistency());
  EXPECT_EQ(derive_consistency_mode(*mp).value(),
            ConsistencyMode::kMultiPrimaries);
  auto pb = policy::parse_policy(policy::builtin::primary_backup_consistency());
  EXPECT_EQ(derive_consistency_mode(*pb).value(),
            ConsistencyMode::kPrimaryBackupSync);
  auto ev = policy::parse_policy(policy::builtin::eventual_consistency());
  EXPECT_EQ(derive_consistency_mode(*ev).value(),
            ConsistencyMode::kEventual);
  auto sc = policy::parse_policy(policy::builtin::simpler_consistency());
  EXPECT_EQ(derive_consistency_mode(*sc).value(),
            ConsistencyMode::kPrimaryBackupSync);
}

TEST(ConsistencyModeTest, NamesRoundTrip) {
  for (ConsistencyMode mode :
       {ConsistencyMode::kMultiPrimaries, ConsistencyMode::kPrimaryBackupSync,
        ConsistencyMode::kPrimaryBackupAsync, ConsistencyMode::kEventual}) {
    auto parsed = consistency_mode_from_name(consistency_mode_name(mode));
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(*parsed, mode);
  }
  EXPECT_FALSE(consistency_mode_from_name("Quantum").ok());
}

// ------------------------------------------------------------ WUI

TEST(WieraControllerTest, StartStopGetInstances) {
  Cluster cluster;
  auto result = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::multi_primaries_consistency()));
  ASSERT_TRUE(result.ok()) << result.status().to_string();
  EXPECT_EQ(result->size(), 4u);

  auto listed = cluster.controller.get_instances("w1");
  ASSERT_TRUE(listed.ok());
  EXPECT_EQ(*listed, *result);

  // Duplicate id rejected.
  auto dup = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::multi_primaries_consistency()));
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);

  EXPECT_TRUE(cluster.controller.stop_instances("w1").ok());
  EXPECT_FALSE(cluster.controller.get_instances("w1").ok());
  EXPECT_EQ(cluster.controller.stop_instances("w1").code(),
            StatusCode::kNotFound);
}

// ------------------------------------------------------------ MultiPrimaries

TEST(MultiPrimariesTest, PutReplicatesEverywhereUnderGlobalLock) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::multi_primaries_consistency()));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry,
                     "app-1", "client-us-west", *peers);
  EXPECT_EQ(client.closest_peer(), "tiera-us-west");

  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
    EXPECT_EQ(put->version, 1);
  });

  // Every peer holds the object locally.
  for (const std::string& id : *peers) {
    WieraPeer* peer = cluster.controller.peer(id);
    ASSERT_NE(peer, nullptr);
    EXPECT_NE(peer->local().meta().find("k"), nullptr) << id;
  }
  // Put latency includes the lock round trip (US-West <-> US-East = 70ms)
  // plus the synchronous broadcast; the paper reports ~400ms from US West.
  const auto put_ms = cluster.controller.peer("tiera-us-west")
                          ->put_latency().mean().ms();
  EXPECT_GT(put_ms, 200.0);
  EXPECT_LT(put_ms, 800.0);
}

TEST(MultiPrimariesTest, ConcurrentWritersSerializedByLock) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::multi_primaries_consistency()));
  ASSERT_TRUE(peers.ok());

  WieraClient west(cluster.sim, cluster.network, cluster.registry, "app-w",
                   "client-us-west", *peers);
  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app-e",
                 "client-eu-west", *peers);

  int completed = 0;
  auto writer = [](WieraClient& c, int n, int& done) -> sim::Task<void> {
    for (int i = 0; i < n; ++i) {
      auto r = co_await c.put("shared", Blob("x"));
      EXPECT_TRUE(r.ok());
    }
    done++;
  };
  cluster.sim.spawn(writer(west, 3, completed));
  cluster.sim.spawn(writer(eu, 3, completed));
  cluster.sim.run_until(TimePoint(sec(30).us()));
  EXPECT_EQ(completed, 2);

  // All six writes serialized: every peer converged to version 6.
  for (const std::string& id : *peers) {
    WieraPeer* peer = cluster.controller.peer(id);
    EXPECT_EQ(peer->local().meta().find("shared")->latest_version(), 6) << id;
  }
}

// ------------------------------------------------------------ PrimaryBackup

TEST(PrimaryBackupTest, NonPrimaryForwardsToPrimary) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::primary_backup_consistency()));
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ(cluster.controller.current_primary("w1"), "tiera-us-west");

  // Client near EU-West: its put lands on the EU peer and is forwarded.
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-eu-west", *peers);
  EXPECT_EQ(client.closest_peer(), "tiera-eu-west");

  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  });

  WieraPeer* primary = cluster.controller.peer("tiera-us-west");
  EXPECT_EQ(primary->forwarded_puts_from("tiera-eu-west"), 1);
  // Synchronous copy: replicas hold the data.
  EXPECT_NE(cluster.controller.peer("tiera-us-east")->local().meta().find("k"),
            nullptr);
}

TEST(PrimaryBackupTest, ReplicaServesConsistentRead) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::primary_backup_consistency()));
  ASSERT_TRUE(peers.ok());

  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app",
                 "client-eu-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    co_await eu.put("k", Blob("v1"));
    auto got = co_await eu.get("k");
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got->value.to_string(), "v1");
    // Served by the local (EU) replica, not the primary.
    EXPECT_EQ(got->served_by, "tiera-eu-west");
  });
}

// ------------------------------------------------------------ Eventual

TEST(EventualTest, LocalPutIsFastAndConverges) {
  Cluster cluster;
  auto options =
      cluster.options_for(policy::builtin::eventual_consistency());
  options.queue_flush_interval = msec(50);
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-asia-east", *peers);
  int64_t put_done_us = 0;
  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok());
    put_done_us = cluster.sim.now().us();
  });
  // Client-perceived latency: same-DC RTT + local memory write, well under
  // 10 ms (paper: <10ms for eventual).
  EXPECT_LT(put_done_us, 10000);

  // Asia peer has it; far peers not yet.
  EXPECT_NE(
      cluster.controller.peer("tiera-asia-east")->local().meta().find("k"),
      nullptr);

  // After a flush interval plus WAN latency, everyone converged.
  cluster.sim.run_until(TimePoint(sec(2).us()));
  for (const std::string& id : *peers) {
    EXPECT_NE(cluster.controller.peer(id)->local().meta().find("k"), nullptr)
        << id;
  }
}

TEST(EventualTest, ConcurrentWritesConvergeLww) {
  Cluster cluster;
  auto options =
      cluster.options_for(policy::builtin::eventual_consistency());
  options.queue_flush_interval = msec(50);
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient west(cluster.sim, cluster.network, cluster.registry, "a",
                   "client-us-west", *peers);
  WieraClient asia(cluster.sim, cluster.network, cluster.registry, "b",
                   "client-asia-east", *peers);

  // Both write the same key concurrently (same version number at both
  // replicas), then the system must converge to a single winner.
  auto writer = [](WieraClient& c, std::string v) -> sim::Task<void> {
    auto r = co_await c.put("conflict", Blob(std::move(v)));
    EXPECT_TRUE(r.ok());
  };
  cluster.sim.spawn(writer(west, "from-west"));
  cluster.sim.spawn(writer(asia, "from-asia"));
  cluster.sim.run_until(TimePoint(sec(5).us()));

  std::string winner;
  for (const std::string& id : *peers) {
    const auto* meta =
        cluster.controller.peer(id)->local().meta().find("conflict");
    ASSERT_NE(meta, nullptr) << id;
    const auto* latest = meta->latest();
    if (winner.empty()) winner = latest->origin;
    EXPECT_EQ(latest->origin, winner) << id;  // same winner everywhere
  }
}

// ------------------------------------------------------------ change consistency

TEST(ChangeConsistencyTest, SwitchesAllPeersAndCountsChanges) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::multi_primaries_consistency()));
  ASSERT_TRUE(peers.ok());
  EXPECT_EQ(cluster.controller.current_mode("w1"),
            ConsistencyMode::kMultiPrimaries);

  cluster.run([&]() -> sim::Task<void> {
    Status st = co_await cluster.controller.change_consistency(
        "w1", ConsistencyMode::kEventual);
    EXPECT_TRUE(st.ok()) << st.to_string();
  });
  EXPECT_EQ(cluster.controller.current_mode("w1"),
            ConsistencyMode::kEventual);
  EXPECT_EQ(cluster.controller.consistency_changes(), 1);
  for (const std::string& id : *peers) {
    EXPECT_EQ(cluster.controller.peer(id)->mode(),
              ConsistencyMode::kEventual);
  }
  // Idempotent: switching to the current mode is a no-op.
  cluster.run([&]() -> sim::Task<void> {
    Status st = co_await cluster.controller.change_consistency(
        "w1", ConsistencyMode::kEventual);
    EXPECT_TRUE(st.ok());
  });
  EXPECT_EQ(cluster.controller.consistency_changes(), 1);
}

TEST(ChangeConsistencyTest, DynamicPolicySwitchesOnSustainedViolation) {
  // Fig. 5a / Fig. 7: inject a delay at one replica; after the latency
  // threshold (800ms) is violated for >30s, Wiera switches to Eventual.
  Cluster cluster;
  auto options =
      cluster.options_for(policy::builtin::multi_primaries_consistency());
  auto dyn = policy::parse_policy(policy::builtin::dynamic_consistency());
  ASSERT_TRUE(dyn.ok());
  options.dynamic_consistency = std::move(dyn).value();
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());

  // A 600ms extra delay at the EU peer pushes the put path (lock + sync
  // broadcast) past 800ms.
  cluster.network.topology().inject_node_delay(
      "tiera-eu-west", msec(600), TimePoint(sec(5).us()),
      TimePoint(sec(120).us()));

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  bool stop_writer = false;
  auto writer = [](WieraClient& c, bool& stop,
                   sim::Simulation& s) -> sim::Task<void> {
    int i = 0;
    while (!stop) {
      auto r = co_await c.put("k" + std::to_string(i++ % 8), Blob("v"));
      EXPECT_TRUE(r.ok());
      co_await s.delay(msec(500));
    }
  };
  cluster.sim.spawn(writer(client, stop_writer, cluster.sim));
  cluster.sim.run_until(TimePoint(sec(60).us()));
  stop_writer = true;
  EXPECT_EQ(cluster.controller.current_mode("w1"),
            ConsistencyMode::kEventual);
  EXPECT_GE(cluster.controller.consistency_changes(), 1);
}

// ------------------------------------------------------------ change primary

TEST(ChangePrimaryTest, ManualMigration) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1",
      cluster.options_for(policy::builtin::primary_backup_consistency()));
  ASSERT_TRUE(peers.ok());
  cluster.run([&]() -> sim::Task<void> {
    Status st = co_await cluster.controller.change_primary(
        "w1", "tiera-eu-west");
    EXPECT_TRUE(st.ok()) << st.to_string();
  });
  EXPECT_EQ(cluster.controller.current_primary("w1"), "tiera-eu-west");
  EXPECT_TRUE(cluster.controller.peer("tiera-eu-west")->is_primary());
  EXPECT_FALSE(cluster.controller.peer("tiera-us-west")->is_primary());

  cluster.run([&]() -> sim::Task<void> {
    Status st = co_await cluster.controller.change_primary("w1", "nope");
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  });
}

TEST(ChangePrimaryTest, RequestsMonitorMigratesPrimaryTowardLoad) {
  // Fig. 5b / §5.2: most traffic arrives at EU; the primary (US-West)
  // notices it forwards more than it serves directly, and Wiera migrates
  // the primary to the EU instance.
  Cluster cluster;
  auto options =
      cluster.options_for(policy::builtin::primary_backup_consistency());
  auto cp = policy::parse_policy(policy::builtin::change_primary());
  ASSERT_TRUE(cp.ok());
  options.change_primary = std::move(cp).value();
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());
  ASSERT_EQ(cluster.controller.current_primary("w1"), "tiera-us-west");

  WieraClient eu(cluster.sim, cluster.network, cluster.registry, "app",
                 "client-eu-west", *peers);
  bool stop_writer = false;
  auto writer = [](WieraClient& c, bool& stop,
                   sim::Simulation& s) -> sim::Task<void> {
    int i = 0;
    while (!stop) {
      auto r = co_await c.put("k" + std::to_string(i++ % 4), Blob("v"));
      EXPECT_TRUE(r.ok());
      co_await s.delay(msec(800));
    }
  };
  cluster.sim.spawn(writer(eu, stop_writer, cluster.sim));
  cluster.sim.run_until(TimePoint(sec(90).us()));
  stop_writer = true;
  EXPECT_EQ(cluster.controller.current_primary("w1"), "tiera-eu-west");
  EXPECT_GE(cluster.controller.primary_changes(), 1);
}

// ------------------------------------------------------------ failover

TEST(FailoverTest, ClientRetriesNextClosestOnOutage) {
  Cluster cluster;
  auto options =
      cluster.options_for(policy::builtin::eventual_consistency());
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());

  // The client's closest peer (US-West) is down for the first 10 seconds.
  cluster.network.topology().inject_outage("tiera-us-west", TimePoint(0),
                                           TimePoint(sec(10).us()));
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await client.put("k", Blob("v"));
    EXPECT_TRUE(put.ok()) << put.status().to_string();
  });
  EXPECT_GE(client.failovers(), 1);
}

TEST(FailoverTest, HeartbeatMarksDownNodes) {
  Cluster cluster;
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(policy::builtin::eventual_consistency()));
  ASSERT_TRUE(peers.ok());
  cluster.controller.start();
  cluster.network.topology().inject_outage(
      "tiera-eu-west", TimePoint(sec(2).us()), TimePoint(sec(60).us()));
  cluster.sim.run_until(TimePoint(sec(10).us()));
  EXPECT_FALSE(cluster.controller.server_alive("tiera-eu-west"));
  EXPECT_TRUE(cluster.controller.server_alive("tiera-us-west"));
  auto down = cluster.controller.down_instances("w1");
  ASSERT_EQ(down.size(), 1u);
  EXPECT_EQ(down[0], "tiera-eu-west");
  cluster.controller.stop();
}

// ------------------------------------------------------------ remote tiers

TEST(RemoteTierTest, GetForwardingServesFromRemoteInstance) {
  // §5.4 pattern: gets at US-East are forwarded to a designated instance.
  Cluster cluster;
  auto options =
      cluster.options_for(policy::builtin::primary_backup_consistency());
  options.customize = [](WieraPeer::Config& config) {
    config.local.tier_tweak = [](const std::string&, store::TierSpec& spec) {
      spec.jitter_fraction = 0;
    };
    if (config.instance_id == "tiera-us-east") {
      config.get_forward_target = "tiera-us-west";
    }
  };
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());

  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    co_await client.put("k", Blob("v"));
    // Issue a get against the US-East peer directly.
    GetRequest req;
    req.key = "k";
    req.client = "app";
    auto got = co_await cluster.controller.peer("tiera-us-east")
                   ->client_get(std::move(req));
    EXPECT_TRUE(got.ok());
    EXPECT_EQ(got->served_by, "tiera-us-west");  // forwarded
  });
}

// ------------------------------------------------------------ centralized cold

TEST(ColdDataTest, CentralizedColdTierHoldsSingleReplica) {
  // §5.3: cold objects are shipped to the US-East peer's S3-IA tier; other
  // regions drop their replicas and fetch remotely on access.
  Cluster cluster;
  auto options = cluster.options_for(R"(
Wiera CentralColdPolicy() {
   Region1 = {name:ColdInstance, region:US-West,
      tier1 = {name:LocalDisk, size=10G},
      tier2 = {name:S3-IA, size=100G} }
   Region2 = {name:ColdInstance, region:US-East,
      tier1 = {name:LocalDisk, size=10G},
      tier2 = {name:S3-IA, size=100G} }

   event(insert.into) : response {
      store(what:insert.object, to:local_instance)
      queue(what:insert.object, to:all_regions)
   }
}
)");
  options.resolve_local = [](const std::string& name)
      -> Result<policy::PolicyDoc> {
    if (name != "ColdInstance") return not_found(name);
    return policy::parse_policy(R"(
Tiera ColdInstance() {
   tier1: {name: LocalDisk, size: 10G};
   tier2: {name: S3-IA, size: 100G};
   event(object.lastAccessedTime > 120 hours) : response {
      move(what:object.location == tier1, to:tier2);
   }
}
)");
  };
  options.customize = [](WieraPeer::Config& config) {
    config.local.tier_tweak = [](const std::string&, store::TierSpec& spec) {
      spec.jitter_fraction = 0;
    };
    config.cold_tier_label = "tier2";
    if (config.instance_id != "tiera-us-east") {
      config.centralized_cold_target = "tiera-us-east";
    }
  };
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();

  WieraClient west(cluster.sim, cluster.network, cluster.registry, "app",
                   "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    auto put = co_await west.put("cold-key", Blob(Bytes(4096, 7)));
    EXPECT_TRUE(put.ok());
  });
  // Let 130 hours pass with no access: the cold scan ships the west replica
  // to US-East and drops the local copy.
  cluster.sim.run_until(TimePoint(hoursd(130).us()));

  WieraPeer* west_peer = cluster.controller.peer("tiera-us-west");
  WieraPeer* east_peer = cluster.controller.peer("tiera-us-east");
  EXPECT_EQ(west_peer->local().meta().find("cold-key"), nullptr);
  ASSERT_NE(east_peer->local().meta().find("cold-key"), nullptr);

  // Reading from the west still works — served by the centralized replica,
  // paying the cross-country latency.
  cluster.run([&]() -> sim::Task<void> {
    auto got = co_await west.get("cold-key");
    EXPECT_TRUE(got.ok()) << got.status().to_string();
    EXPECT_EQ(got->served_by, "tiera-us-east");
    EXPECT_EQ(got->value.size(), 4096u);
  });
}

// ------------------------------------------------------------ health ranking

// Sparse data must stay NEUTRAL (health.h Config::min_samples): a peer with
// fewer than min_samples observations ranks exactly like one never observed,
// so early samples can neither promote nor demote it past proximity order.
TEST(ClientHealthRanking, SparseSamplesRankNeutral) {
  obs::Registry registry;
  HealthTracker::Config config;
  config.enabled = true;
  HealthTracker health(registry, config);
  TimePoint now = TimePoint::origin();

  // Two brutally slow latency samples — still below min_samples (3).
  health.record_latency("tiera-us-west", msec(900), now);
  now = now + sec(1);
  health.record_latency("tiera-us-west", msec(900), now);
  EXPECT_EQ(health.latency_ratio("tiera-us-west"), 1.0);
  EXPECT_EQ(health.rank_penalty("tiera-us-west"), 0);
  EXPECT_EQ(health.rank_penalty("tiera-never-observed"), 0);
  EXPECT_FALSE(health.in_probation("tiera-us-west"));

  // Two prompt pings then a long silence — φ stays 0 below min_samples, so
  // the silence cannot push the peer into probation either.
  health.record_ping("tiera-eu-west", true, now);
  health.record_ping("tiera-eu-west", true, now + sec(1));
  EXPECT_EQ(health.phi("tiera-eu-west", now + sec(30)), 0.0);
  EXPECT_EQ(health.rank_penalty("tiera-eu-west"), 0);
}

// Once the baseline exists, a sustained latency spike walks the peer through
// degraded (penalty 1) into probation (penalty 2), and the dwell plus
// hysteresis hold it there until the EWMA genuinely recovers.
TEST(ClientHealthRanking, SustainedDegradationRanksPeerLast) {
  obs::Registry registry;
  HealthTracker::Config config;
  config.enabled = true;
  HealthTracker health(registry, config);
  TimePoint now = TimePoint::origin();

  for (int i = 0; i < 3; ++i) {  // establish a ~10ms baseline
    health.record_latency("tiera-us-west", msec(10), now);
    now = now + sec(1);
  }
  EXPECT_EQ(health.rank_penalty("tiera-us-west"), 0);

  // One 25x sample lifts the EWMA past degraded_factor (4x): probation.
  health.record_latency("tiera-us-west", msec(250), now);
  EXPECT_TRUE(health.in_probation("tiera-us-west"));
  EXPECT_EQ(health.rank_penalty("tiera-us-west"), 2);
  EXPECT_EQ(health.probation_entries(), 1);

  // Recovery: fast samples decay the EWMA, but the exit waits for the
  // minimum dwell and the ratio to drop under degraded_factor/2.
  for (int i = 0; i < 12; ++i) {
    now = now + sec(1);
    health.record_latency("tiera-us-west", msec(10), now);
  }
  EXPECT_FALSE(health.in_probation("tiera-us-west"));
  EXPECT_EQ(health.rank_penalty("tiera-us-west"), 0);
  EXPECT_EQ(health.probation_exits(), 1);
}

// ------------------------------------------------------------ property sweep

// All protocols agree on basic read-your-writes at the writing site.
class ProtocolReadYourWrites
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ProtocolReadYourWrites, WriterSeesOwnWrite) {
  Cluster cluster;
  std::string_view src;
  const std::string name = GetParam();
  if (name == "multi") src = policy::builtin::multi_primaries_consistency();
  if (name == "pb") src = policy::builtin::primary_backup_consistency();
  if (name == "eventual") src = policy::builtin::eventual_consistency();
  auto peers = cluster.controller.start_instances(
      "w1", cluster.options_for(src));
  ASSERT_TRUE(peers.ok());
  WieraClient client(cluster.sim, cluster.network, cluster.registry, "app",
                     "client-us-west", *peers);
  cluster.run([&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      const std::string key = "k" + std::to_string(i);
      const std::string value = "v" + std::to_string(i);
      auto put = co_await client.put(key, Blob(value));
      EXPECT_TRUE(put.ok());
      auto got = co_await client.get(key);
      EXPECT_TRUE(got.ok());
      EXPECT_EQ(got->value.to_string(), value);
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Protocols, ProtocolReadYourWrites,
                         ::testing::Values("multi", "pb", "eventual"));

}  // namespace
}  // namespace wiera::geo
