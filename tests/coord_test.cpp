// Tests for the global lock service (ZooKeeper stand-in).
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "coord/lock_service.h"
#include "net/network.h"
#include "sim/simulation.h"

namespace wiera::coord {
namespace {

struct Fixture {
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  rpc::Endpoint zk_endpoint;
  LockService service;

  Fixture()
      : network(sim, make_topology()),
        zk_endpoint(network, registry, "zk"),
        service(sim, zk_endpoint) {}

  static net::Topology make_topology() {
    net::Topology topo;
    // Lock service in US East (as the paper deploys ZooKeeper); clients in
    // US East and US West.
    topo.add_datacenter("us-east", net::Provider::kAws, "us-east");
    topo.add_datacenter("us-west", net::Provider::kAws, "us-west");
    topo.set_rtt("us-east", "us-west", msec(70));
    topo.set_jitter_fraction(0.0);
    topo.add_node("zk", "us-east");
    topo.add_node("client-east", "us-east");
    topo.add_node("client-west", "us-west");
    return topo;
  }
};

sim::Task<void> hold_lock(LockClient client, sim::Simulation& sim,
                          std::string name, Duration hold,
                          std::vector<std::pair<int64_t, int64_t>>& spans) {
  Status st = co_await client.acquire(name);
  EXPECT_TRUE(st.ok()) << st.to_string();
  const int64_t start = sim.now().us();
  co_await sim.delay(hold);
  spans.emplace_back(start, sim.now().us());
  st = co_await client.release(name);
  EXPECT_TRUE(st.ok()) << st.to_string();
}

TEST(LockServiceTest, AcquireFromRemoteRegionPaysWanRtt) {
  Fixture f;
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient client(west, "zk");
  std::vector<std::pair<int64_t, int64_t>> spans;
  f.sim.spawn(hold_lock(client, f.sim, "key1", Duration::zero(), spans));
  f.sim.run();
  ASSERT_EQ(spans.size(), 1u);
  // Grant arrives after ~70ms round trip to US East.
  EXPECT_NEAR(spans[0].first, 70000, 500);
  EXPECT_EQ(f.service.holder("key1"), "");  // released at the end
}

TEST(LockServiceTest, MutualExclusionAcrossClients) {
  Fixture f;
  rpc::Endpoint east(f.network, f.registry, "client-east");
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient c_east(east, "zk");
  LockClient c_west(west, "zk");
  std::vector<std::pair<int64_t, int64_t>> spans;
  f.sim.spawn(hold_lock(c_east, f.sim, "key", msec(50), spans));
  f.sim.spawn(hold_lock(c_west, f.sim, "key", msec(50), spans));
  f.sim.run();
  ASSERT_EQ(spans.size(), 2u);
  // Spans must not overlap.
  const auto& a = spans[0];
  const auto& b = spans[1];
  EXPECT_TRUE(a.second <= b.first || b.second <= a.first);
  EXPECT_EQ(f.service.acquires_served(), 2);
}

TEST(LockServiceTest, IndependentLocksDontBlock) {
  Fixture f;
  rpc::Endpoint east(f.network, f.registry, "client-east");
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient c_east(east, "zk");
  LockClient c_west(west, "zk");
  std::vector<std::pair<int64_t, int64_t>> spans_a, spans_b;
  f.sim.spawn(hold_lock(c_east, f.sim, "a", msec(100), spans_a));
  f.sim.spawn(hold_lock(c_west, f.sim, "b", msec(100), spans_b));
  f.sim.run();
  ASSERT_EQ(spans_a.size(), 1u);
  ASSERT_EQ(spans_b.size(), 1u);
  // Both held their locks concurrently (b started before a finished).
  EXPECT_LT(spans_b[0].first, spans_a[0].second);
}

sim::Task<void> expect_status(sim::Task<Status> op, StatusCode expected) {
  Status st = co_await std::move(op);
  EXPECT_EQ(st.code(), expected) << st.to_string();
}

TEST(LockServiceTest, ReleaseWithoutHoldingFails) {
  Fixture f;
  rpc::Endpoint east(f.network, f.registry, "client-east");
  LockClient client(east, "zk");
  f.sim.spawn(expect_status(client.release("never-held"),
                            StatusCode::kFailedPrecondition));
  f.sim.run();
}

TEST(LockServiceTest, ReleaseByNonHolderFails) {
  Fixture f;
  rpc::Endpoint east(f.network, f.registry, "client-east");
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient c_east(east, "zk");
  LockClient c_west(west, "zk");

  auto scenario = [](LockClient a, LockClient b) -> sim::Task<void> {
    Status st = co_await a.acquire("k");
    EXPECT_TRUE(st.ok());
    st = co_await b.release("k");
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    st = co_await a.release("k");
    EXPECT_TRUE(st.ok());
  };
  f.sim.spawn(scenario(c_east, c_west));
  f.sim.run();
}

TEST(LockServiceTest, DoubleAcquireBySameNodeRejected) {
  Fixture f;
  rpc::Endpoint east(f.network, f.registry, "client-east");
  LockClient client(east, "zk");
  auto scenario = [](LockClient c) -> sim::Task<void> {
    Status st = co_await c.acquire("k");
    EXPECT_TRUE(st.ok());
    st = co_await c.acquire("k");  // not reentrant
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    st = co_await c.release("k");
    EXPECT_TRUE(st.ok());
  };
  f.sim.spawn(scenario(client));
  f.sim.run();
}

TEST(LockServiceTest, HolderAndWaitingIntrospection) {
  Fixture f;
  rpc::Endpoint east(f.network, f.registry, "client-east");
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient c_east(east, "zk");
  LockClient c_west(west, "zk");
  std::vector<std::pair<int64_t, int64_t>> spans;
  f.sim.spawn(hold_lock(c_east, f.sim, "k", msec(200), spans));
  f.sim.spawn(hold_lock(c_west, f.sim, "k", msec(200), spans));
  // After both acquire RPCs have arrived (>35ms) but before the first
  // release (~200ms), east holds and west waits.
  f.sim.run_until(TimePoint(100000));
  EXPECT_EQ(f.service.holder("k"), "client-east");
  EXPECT_EQ(f.service.waiting("k"), 1);
  f.sim.run();
  EXPECT_EQ(f.service.holder("k"), "");
  EXPECT_EQ(f.service.waiting("k"), 0);
}

TEST(LockServiceTest, ManyContendersAllServed) {
  Fixture f;
  std::vector<std::unique_ptr<rpc::Endpoint>> endpoints;
  std::vector<std::pair<int64_t, int64_t>> spans;
  for (int i = 0; i < 8; ++i) {
    const std::string node = "n" + std::to_string(i);
    f.network.topology().add_node(node, i % 2 == 0 ? "us-east" : "us-west");
    endpoints.push_back(
        std::make_unique<rpc::Endpoint>(f.network, f.registry, node));
    LockClient c(*endpoints.back(), "zk");
    f.sim.spawn(hold_lock(c, f.sim, "hot", msec(10), spans));
  }
  f.sim.run();
  ASSERT_EQ(spans.size(), 8u);
  for (size_t i = 1; i < spans.size(); ++i) {
    EXPECT_GE(spans[i].first, spans[i - 1].second);  // strictly serialized
  }
  EXPECT_EQ(f.service.acquires_served(), 8);
}

// ------------------------------------------------------------ leases

TEST(LockServiceTest, LeaseExpiryEvictsCrashedHolder) {
  Fixture f;
  f.service.start_lease_reaper(sec(1));

  rpc::Endpoint east(f.network, f.registry, "client-east");
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient c_east(east, "zk");
  LockClient c_west(west, "zk");

  // East acquires and then "crashes" (never releases). West queues behind.
  bool west_got_lock = false;
  auto crasher = [](LockClient c) -> sim::Task<void> {
    Status st = co_await c.acquire("k");
    EXPECT_TRUE(st.ok());
    // ... crash: no release ...
  };
  auto waiter_task = [](LockClient c, bool& flag) -> sim::Task<void> {
    Status st = co_await c.acquire("k");
    EXPECT_TRUE(st.ok());
    flag = true;
    st = co_await c.release("k");
    EXPECT_TRUE(st.ok());
  };
  f.sim.spawn(crasher(c_east));
  f.sim.spawn(waiter_task(c_west, west_got_lock));

  // Before the lease expires, west is still blocked.
  const TimePoint expiry = TimePoint::origin() + LockService::kLease;
  f.sim.run_until(expiry - sec(1));
  EXPECT_FALSE(west_got_lock);
  EXPECT_EQ(f.service.holder("k"), "client-east");
  // After expiry, the reaper evicts east and west proceeds.
  f.sim.run_until(expiry + sec(5));
  EXPECT_TRUE(west_got_lock);
  EXPECT_GE(f.service.leases_expired(), 1);

  // The crashed holder's late release fails like an expired ZK session.
  bool checked = false;
  auto late_release = [](LockClient c, bool& flag) -> sim::Task<void> {
    Status st = co_await c.release("k");
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    flag = true;
  };
  f.sim.spawn(late_release(c_east, checked));
  f.sim.run_until(f.sim.now() + sec(2));
  EXPECT_TRUE(checked);
  f.service.stop_lease_reaper();
}

TEST(LockServiceTest, HealthyHolderUnaffectedByReaper) {
  Fixture f;
  f.service.start_lease_reaper(sec(1));
  rpc::Endpoint east(f.network, f.registry, "client-east");
  LockClient client(east, "zk");
  std::vector<std::pair<int64_t, int64_t>> spans;
  // Hold for 2 s (well inside the lease), release normally.
  f.sim.spawn(hold_lock(client, f.sim, "k", sec(2), spans));
  f.sim.run_until(TimePoint(sec(10).us()));
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_EQ(f.service.leases_expired(), 0);
  f.service.stop_lease_reaper();
}

TEST(LockServiceTest, LocksExpiringInOnePassAreGrantedInNameOrder) {
  Fixture f;
  f.service.start_lease_reaper(sec(1));
  rpc::Endpoint east(f.network, f.registry, "client-east");
  rpc::Endpoint west(f.network, f.registry, "client-west");
  LockClient c_east(east, "zk");
  LockClient c_west(west, "zk");

  // East takes "b" and then "a" and crashes holding both; their leases run
  // out in the same reaper pass. West queues on "b" first.
  auto crasher = [](LockClient c) -> sim::Task<void> {
    EXPECT_TRUE((co_await c.acquire("b")).ok());
    EXPECT_TRUE((co_await c.acquire("a")).ok());
  };
  std::vector<std::string> granted;
  auto waiter = [](LockClient c, std::string name,
                   std::vector<std::string>& order) -> sim::Task<void> {
    EXPECT_TRUE((co_await c.acquire(name)).ok());
    order.push_back(name);
  };
  f.sim.spawn(crasher(c_east));
  f.sim.run_until(TimePoint(sec(1).us()));
  f.sim.spawn(waiter(c_west, "b", granted));
  f.sim.spawn(waiter(c_west, "a", granted));
  f.sim.run_until(TimePoint::origin() + LockService::kLease + sec(5));

  EXPECT_EQ(f.service.leases_expired(), 2);
  // Both grants go out in the pass that evicts the crasher, in name order,
  // and reach west in that order.
  EXPECT_EQ(granted, (std::vector<std::string>{"a", "b"}));
  EXPECT_EQ(f.service.holder("a"), "client-west");
  EXPECT_EQ(f.service.holder("b"), "client-west");
  f.service.stop_lease_reaper();
}

// Lease-reaper passes between 2.5 s and 10.5 s, with a 1 s interval: an
// idle service runs no other event. With `bounce`, the reaper is stopped at
// 0.2 s and started again at 0.4 s, inside its first interval.
int64_t reaper_passes_from_2_5s_to_10_5s(bool bounce) {
  Fixture f;
  f.service.start_lease_reaper(sec(1));
  if (bounce) {
    f.sim.run_until(TimePoint(msec(200).us()));
    f.service.stop_lease_reaper();
    f.sim.run_until(TimePoint(msec(400).us()));
    f.service.start_lease_reaper(sec(1));
  }
  f.sim.run_until(TimePoint(msec(2500).us()));
  const uint64_t before = f.sim.events_executed();
  f.sim.run_until(TimePoint(msec(10500).us()));
  const auto passes = static_cast<int64_t>(f.sim.events_executed() - before);
  f.service.stop_lease_reaper();
  return passes;
}

TEST(LockServiceTest, BounceInsideAnIntervalLeavesOneLeaseReaper) {
  EXPECT_EQ(reaper_passes_from_2_5s_to_10_5s(/*bounce=*/false), 8);
  EXPECT_EQ(reaper_passes_from_2_5s_to_10_5s(/*bounce=*/true), 8);
}

}  // namespace
}  // namespace wiera::coord
