// Tests for the YCSB workload generator and client driver.
#include <gtest/gtest.h>

#include <map>

#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "wiera/controller.h"
#include "ycsb/ycsb.h"

namespace wiera::ycsb {
namespace {

// ------------------------------------------------------------ generators

TEST(ZipfianTest, InRangeAndSkewed) {
  ZipfianGenerator gen(1000);
  Rng rng(1);
  std::map<uint64_t, int> counts;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = gen.next(rng);
    ASSERT_LT(v, 1000u);
    counts[v]++;
  }
  // Rank 0 should dominate: YCSB zipfian(0.99) gives item 0 roughly 10%+.
  EXPECT_GT(counts[0], n / 20);
  // And far more than a mid-rank item.
  EXPECT_GT(counts[0], counts[500] * 10);
}

TEST(ZipfianTest, Deterministic) {
  ZipfianGenerator gen1(100), gen2(100);
  Rng a(5), b(5);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(gen1.next(a), gen2.next(b));
}

TEST(ScrambledZipfianTest, SpreadsHotKeys) {
  ScrambledZipfianGenerator gen(1000);
  Rng rng(1);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; ++i) counts[gen.next(rng)]++;
  // The hottest key should not be key 0 systematically (it's scrambled) —
  // just check there IS a dominant key and values stay in range.
  int max_count = 0;
  uint64_t max_key = 0;
  for (auto& [k, c] : counts) {
    ASSERT_LT(k, 1000u);
    if (c > max_count) {
      max_count = c;
      max_key = k;
    }
  }
  EXPECT_GT(max_count, 5000);
  // With FNV scrambling the hot key is essentially arbitrary.
  (void)max_key;
}

TEST(LatestTest, PrefersRecentKeys) {
  LatestGenerator gen(1000);
  Rng rng(1);
  int high = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    const uint64_t v = gen.next(rng);
    ASSERT_LT(v, 1000u);
    if (v >= 900) high++;
  }
  EXPECT_GT(high, n / 2);  // most picks land in the newest 10%
  // After inserts, the newest keys shift.
  gen.observe_insert(2000);
  bool saw_new = false;
  for (int i = 0; i < 1000; ++i) {
    if (gen.next(rng) >= 1000) saw_new = true;
  }
  EXPECT_TRUE(saw_new);
}

// ------------------------------------------------------------ workloads

TEST(WorkloadSpecTest, CoreMixes) {
  EXPECT_DOUBLE_EQ(WorkloadSpec::a().read_proportion, 0.5);
  EXPECT_DOUBLE_EQ(WorkloadSpec::a().update_proportion, 0.5);
  EXPECT_DOUBLE_EQ(WorkloadSpec::b().read_proportion, 0.95);
  EXPECT_DOUBLE_EQ(WorkloadSpec::c().read_proportion, 1.0);
  EXPECT_EQ(WorkloadSpec::d().distribution, Distribution::kLatest);
  EXPECT_DOUBLE_EQ(WorkloadSpec::e().scan_proportion, 0.95);
  EXPECT_DOUBLE_EQ(WorkloadSpec::f().rmw_proportion, 0.5);
}

TEST(WorkloadGeneratorTest, MixMatchesProportions) {
  WorkloadSpec spec = WorkloadSpec::a();
  spec.record_count = 100;
  WorkloadGenerator gen(spec, 42);
  int reads = 0, updates = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    auto op = gen.next();
    if (op.type == OpType::kRead) reads++;
    if (op.type == OpType::kUpdate) updates++;
  }
  EXPECT_NEAR(static_cast<double>(reads) / n, 0.5, 0.02);
  EXPECT_NEAR(static_cast<double>(updates) / n, 0.5, 0.02);
}

TEST(WorkloadGeneratorTest, InsertsExtendKeyspace) {
  WorkloadSpec spec = WorkloadSpec::d();
  spec.record_count = 100;
  WorkloadGenerator gen(spec, 42);
  bool saw_new_key = false;
  for (int i = 0; i < 2000; ++i) {
    auto op = gen.next();
    if (op.type == OpType::kInsert) {
      EXPECT_EQ(op.key.rfind("user", 0), 0u);
      const int64_t id = std::stoll(op.key.substr(4));
      if (id >= 100) saw_new_key = true;
    }
  }
  EXPECT_TRUE(saw_new_key);
}

// ------------------------------------------------------------ driver

struct Cluster {
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  geo::WieraController controller;
  std::vector<std::unique_ptr<geo::TieraServer>> servers;

  Cluster()
      : sim(1),
        network(sim, make_topology()),
        controller(sim, network, registry,
                   {"wiera-controller", 0}) {
    for (const char* node : {"tiera-us-west", "tiera-us-east"}) {
      servers.push_back(std::make_unique<geo::TieraServer>(
          sim, network, registry, node));
      controller.register_server(servers.back().get());
    }
  }

  static net::Topology make_topology() {
    net::Topology topo;
    topo.add_datacenter("aws-us-east", net::Provider::kAws, "us-east");
    topo.add_datacenter("aws-us-west", net::Provider::kAws, "us-west");
    topo.set_rtt("aws-us-east", "aws-us-west", msec(70));
    topo.set_jitter_fraction(0.0);
    topo.add_node("wiera-controller", "aws-us-east");
    topo.add_node("tiera-us-west", "aws-us-west");
    topo.add_node("tiera-us-east", "aws-us-east");
    topo.add_node("client", "aws-us-west");
    return topo;
  }
};

TEST(ClientDriverTest, LoadAndRunAgainstWiera) {
  Cluster cluster;
  geo::WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(R"(
Wiera TwoRegionEventual() {
   Region1 = {name:LowLatencyInstance, region:US-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region2 = {name:LowLatencyInstance, region:US-East,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   event(insert.into) : response {
      store(what:insert.object, to:local_instance)
      queue(what:insert.object, to:all_regions)
   }
}
)")).value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok()) << peers.status().to_string();

  geo::WieraClient client(cluster.sim, cluster.network, cluster.registry,
                            "ycsb", "client", *peers);
  WorkloadSpec spec = WorkloadSpec::a();
  spec.record_count = 50;
  spec.value_size = 512;
  ClientDriver driver(cluster.sim, client, spec, 7);

  int64_t writes_seen = 0, reads_seen = 0;
  bool done = false;
  auto body = [](ClientDriver& d, int64_t& w, int64_t& r,
                 bool& flag) -> sim::Task<void> {
    Status st = co_await d.load();
    EXPECT_TRUE(st.ok()) << st.to_string();
    ClientDriver::Options opts;
    opts.operations = 200;
    opts.on_write = [&w](const std::string&, int64_t) { w++; };
    opts.on_read = [&r](const std::string&, int64_t) { r++; };
    st = co_await d.run(opts);
    EXPECT_TRUE(st.ok());
    flag = true;
  };
  cluster.sim.spawn(body(driver, writes_seen, reads_seen, done));
  cluster.sim.run_until(TimePoint(minutes(30).us()));
  ASSERT_TRUE(done);

  EXPECT_EQ(driver.ops_completed(), 200);
  EXPECT_EQ(driver.errors(), 0);
  EXPECT_GT(reads_seen, 50);
  EXPECT_GT(writes_seen, 50);
  // Eventual consistency at the local replica: ops are fast.
  EXPECT_LT(driver.read_latency().p95().ms(), 10.0);
  EXPECT_LT(driver.update_latency().p95().ms(), 10.0);
}

TEST(ClientDriverTest, ShouldStopAborts) {
  Cluster cluster;
  geo::WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(R"(
Wiera OneRegion() {
   Region1 = {name:LowLatencyInstance, region:US-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   event(insert.into) : response {
      store(what:insert.object, to:local_instance)
      queue(what:insert.object, to:all_regions)
   }
}
)")).value();
  options.local_params["t"] = policy::Value::duration_of(sec(60));
  auto peers = cluster.controller.start_instances("w1", std::move(options));
  ASSERT_TRUE(peers.ok());
  geo::WieraClient client(cluster.sim, cluster.network, cluster.registry,
                            "ycsb", "client", *peers);
  WorkloadSpec spec = WorkloadSpec::c();
  spec.record_count = 10;
  ClientDriver driver(cluster.sim, client, spec, 7);
  bool done = false;
  auto body = [](ClientDriver& d, bool& flag) -> sim::Task<void> {
    Status st = co_await d.load();
    EXPECT_TRUE(st.ok());
    ClientDriver::Options opts;
    opts.operations = 1000000;
    int count = 0;
    opts.should_stop = [&count]() mutable { return ++count > 50; };
    st = co_await d.run(opts);
    EXPECT_TRUE(st.ok());
    flag = true;
  };
  cluster.sim.spawn(body(driver, done));
  cluster.sim.run_until(TimePoint(minutes(30).us()));
  ASSERT_TRUE(done);
  EXPECT_LE(driver.ops_completed(), 51);
}

}  // namespace
}  // namespace wiera::ycsb
