// Tests for the WAN topology and network transport model.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/units.h"
#include "net/network.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "sim/sync.h"

namespace wiera::net {
namespace {

Topology two_dc_topology() {
  Topology topo;
  topo.add_datacenter("dc-a", Provider::kAws, "us-east");
  topo.add_datacenter("dc-b", Provider::kAws, "us-west");
  topo.set_rtt("dc-a", "dc-b", msec(70));
  topo.add_node("n1", "dc-a");
  topo.add_node("n2", "dc-b");
  topo.add_node("n3", "dc-a");
  return topo;
}

TEST(TopologyTest, NodeAndDatacenterLookup) {
  Topology topo = two_dc_topology();
  EXPECT_TRUE(topo.has_node("n1"));
  EXPECT_FALSE(topo.has_node("nx"));
  EXPECT_EQ(topo.node("n1").datacenter, "dc-a");
  EXPECT_EQ(topo.datacenter_of("n2").region, "us-west");
  EXPECT_EQ(topo.node_names().size(), 3u);
}

TEST(TopologyTest, RttSymmetricAndSameDcDefault) {
  Topology topo = two_dc_topology();
  EXPECT_EQ(topo.base_rtt("dc-a", "dc-b").us(), 70000);
  EXPECT_EQ(topo.base_rtt("dc-b", "dc-a").us(), 70000);
  EXPECT_EQ(topo.base_rtt("dc-a", "dc-a").us(),
            calibration::kSameDcRttUs);
}

TEST(TopologyTest, BaseOneWayIsHalfRtt) {
  Topology topo = two_dc_topology();
  EXPECT_EQ(topo.base_one_way("n1", "n2").us(), 35000);
  EXPECT_EQ(topo.base_one_way("n1", "n3").us(),
            calibration::kSameDcRttUs / 2);
}

TEST(TopologyTest, SampleLatencyJitterIsBounded) {
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.05);
  const NodeId n1 = topo.node_id("n1");
  const NodeId n2 = topo.node_id("n2");
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    Duration d = topo.sample_latency(n1, n2, TimePoint::origin(), rng);
    EXPECT_GT(d.us(), 35000 / 2);   // never below 50% of base
    EXPECT_LT(d.us(), 35000 * 2);   // 5% jitter can't double latency
  }
}

TEST(TopologyTest, ZeroJitterIsExact) {
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.0);
  Rng rng(3);
  EXPECT_EQ(topo.sample_latency(topo.node_id("n1"), topo.node_id("n2"),
                                TimePoint::origin(), rng)
                .us(),
            35000);
}

TEST(TopologyTest, InjectedDelayAppliesOnlyInWindow) {
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.0);
  topo.inject_node_delay("n2", msec(500), TimePoint(1000000),
                         TimePoint(2000000));
  const NodeId n1 = topo.node_id("n1");
  const NodeId n2 = topo.node_id("n2");
  Rng rng(1);
  EXPECT_EQ(topo.sample_latency(n1, n2, TimePoint(0), rng).us(), 35000);
  EXPECT_EQ(topo.sample_latency(n1, n2, TimePoint(1500000), rng).us(),
            535000);
  EXPECT_EQ(topo.sample_latency(n1, n2, TimePoint(2000000), rng).us(),
            35000);
}

TEST(TopologyTest, OutageWindow) {
  Topology topo = two_dc_topology();
  topo.inject_outage("n1", TimePoint(100), TimePoint(200));
  EXPECT_FALSE(topo.node_down("n1", TimePoint(99)));
  EXPECT_TRUE(topo.node_down("n1", TimePoint(100)));
  EXPECT_TRUE(topo.node_down("n1", TimePoint(199)));
  EXPECT_FALSE(topo.node_down("n1", TimePoint(200)));
  topo.clear_faults();
  EXPECT_FALSE(topo.node_down("n1", TimePoint(150)));
}

TEST(TopologyTest, PaperDefaultHasAllRegions) {
  Topology topo = Topology::paper_default();
  EXPECT_EQ(topo.base_rtt("aws-us-east", "aws-us-west").us(), 70000);
  EXPECT_EQ(topo.base_rtt("aws-eu-west", "aws-asia-east").us(), 240000);
  EXPECT_EQ(topo.base_rtt("azure-us-east", "aws-us-east").us(), 2000);
  // Azure US East inherits AWS US East distances.
  EXPECT_EQ(topo.base_rtt("azure-us-east", "aws-us-west").us(), 70000);
}

TEST(TopologyTest, IdsAreDenseInAddOrderAndSurviveReAdding) {
  Topology topo = two_dc_topology();
  EXPECT_EQ(topo.datacenter_count(), 2u);
  EXPECT_EQ(topo.datacenter_id("dc-a"), 0u);
  EXPECT_EQ(topo.datacenter_id("dc-b"), 1u);
  ASSERT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.node_id("n1"), 0u);
  EXPECT_EQ(topo.node_id("n2"), 1u);
  EXPECT_EQ(topo.node_id("n3"), 2u);
  for (NodeId id = 0; id < topo.node_count(); ++id) {
    EXPECT_EQ(topo.node_id(topo.node(id).name), id);
    EXPECT_EQ(topo.node(id).dc, topo.datacenter_id(topo.node(id).datacenter));
  }

  // Re-adding replaces what the name describes, never its id.
  topo.add_node("n2", "dc-a", VmType::standard_d2());
  topo.add_datacenter("dc-b", Provider::kAzure, "us-west-2");
  EXPECT_EQ(topo.node_id("n2"), 1u);
  EXPECT_EQ(topo.node(1).datacenter, "dc-a");
  EXPECT_EQ(topo.node(1).dc, 0u);
  EXPECT_EQ(topo.node(1).vm.name, "Standard D2");
  EXPECT_EQ(topo.datacenter_id("dc-b"), 1u);
  EXPECT_EQ(topo.datacenter(1).region, "us-west-2");
  EXPECT_EQ(topo.base_rtt("dc-a", "dc-b").us(), 70000);
  EXPECT_EQ(topo.node_count(), 3u);
  EXPECT_EQ(topo.datacenter_count(), 2u);

  // New names take the next ids; node_names() stays in name order.
  topo.add_datacenter("dc-0", Provider::kAws, "eu-west");
  topo.add_node("m0", "dc-0");
  EXPECT_EQ(topo.datacenter_id("dc-0"), 2u);
  EXPECT_EQ(topo.node_id("m0"), 3u);
  EXPECT_EQ(topo.node_names(),
            (std::vector<std::string>{"m0", "n1", "n2", "n3"}));
}

TEST(TopologyTest, RttMatrixIsSymmetricWithTheSameDcDefault) {
  Topology topo = Topology::paper_default();
  // Growing the matrix keeps every RTT set before.
  topo.add_datacenter("aws-sa-east", Provider::kAws, "sa-east");
  topo.set_rtt("aws-sa-east", "aws-us-east", msec(120));
  const DcId n = static_cast<DcId>(topo.datacenter_count());
  ASSERT_EQ(n, 6u);
  for (DcId a = 0; a < n; ++a) {
    EXPECT_EQ(topo.base_rtt(a, a).us(), calibration::kSameDcRttUs);
  }
  // paper_default() sets every pair of its five datacenters.
  for (DcId a = 0; a < 5; ++a) {
    for (DcId b = 0; b < 5; ++b) {
      EXPECT_EQ(topo.base_rtt(a, b).us(), topo.base_rtt(b, a).us());
    }
  }
  EXPECT_EQ(topo.base_rtt("aws-us-east", "aws-us-west").us(), 70000);
  EXPECT_EQ(topo.base_rtt("aws-asia-east", "aws-eu-west").us(), 240000);
  EXPECT_EQ(topo.base_rtt("aws-us-east", "aws-sa-east").us(), 120000);
  EXPECT_EQ(topo.base_rtt("aws-sa-east", "aws-us-east").us(), 120000);
}

// ------------------------------------------------------------ Network

struct TransferResult {
  Status status = ok_status();
  int64_t completed_at_us = -1;
};

sim::Task<void> do_transfer(Network& net, std::string from, std::string to,
                            int64_t bytes, TransferResult& out) {
  out.status = co_await net.transfer(std::move(from), std::move(to), bytes);
  out.completed_at_us = net.sim().now().us();
}

TEST(NetworkTest, TransferTakesOneWayLatency) {
  sim::Simulation sim;
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.0);
  Network net(sim, std::move(topo));
  TransferResult r;
  sim.spawn(do_transfer(net, "n1", "n2", 0, r));
  sim.run();
  EXPECT_TRUE(r.status.ok());
  EXPECT_EQ(r.completed_at_us, 35000);
}

TEST(NetworkTest, TransferTimeScalesWithBytesAndThrottle) {
  sim::Simulation sim;
  Topology topo;
  topo.add_datacenter("dc", Provider::kAzure, "us-east");
  topo.add_node("small", "dc", VmType::basic_a2());
  topo.add_node("large", "dc", VmType::standard_d3());
  topo.add_node("large2", "dc", VmType::standard_d3());
  topo.set_jitter_fraction(0.0);
  Network net(sim, std::move(topo));
  const double small_mbps = VmType::basic_a2().net_mbps;
  const double large_mbps = VmType::standard_d3().net_mbps;
  const int64_t payload = 12 * 1000 * 1000;
  // Bottleneck is the slower endpoint's NIC.
  TransferResult r;
  sim.spawn(do_transfer(net, "small", "large", payload, r));
  sim.run();
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR(r.completed_at_us / 1e6, payload / (small_mbps * 1e6), 0.01);
  const int64_t start_us = sim.now().us();
  sim.spawn(do_transfer(net, "large", "large2", payload, r));
  sim.run();
  ASSERT_TRUE(r.status.ok());
  EXPECT_NEAR((r.completed_at_us - start_us) / 1e6,
              payload / (large_mbps * 1e6), 0.01);
}

TEST(NetworkTest, TrafficAccounting) {
  sim::Simulation sim;
  Network net(sim, two_dc_topology());
  TransferResult r1, r2, r3;
  sim.spawn(do_transfer(net, "n1", "n2", 1000, r1));  // cross-DC
  sim.spawn(do_transfer(net, "n1", "n3", 500, r2));   // intra-DC
  sim.spawn(do_transfer(net, "n2", "n1", 200, r3));   // cross-DC reverse
  sim.run();
  const TrafficStats& t = net.traffic();
  EXPECT_EQ(t.total_messages, 3);
  EXPECT_EQ(t.total_bytes, 1700);
  EXPECT_EQ(t.cross_dc_bytes(), 1200);
  EXPECT_EQ(t.egress_bytes_from("dc-a"), 1000);
  EXPECT_EQ(t.egress_bytes_from("dc-b"), 200);
}

TEST(NetworkTest, TransferToDownNodeFails) {
  sim::Simulation sim;
  Topology topo = two_dc_topology();
  topo.inject_outage("n2", TimePoint(0), TimePoint(10000000));
  Network net(sim, std::move(topo));
  TransferResult r;
  sim.spawn(do_transfer(net, "n1", "n2", 100, r));
  sim.run();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(r.completed_at_us, Network::kUnreachableDelay.us());
  EXPECT_EQ(net.traffic().total_messages, 0);  // failed sends not billed
}

TEST(NetworkTest, NodeGoingDownMidFlightFailsTransfer) {
  sim::Simulation sim;
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.0);
  // n2 goes down at 10ms; one-way latency is 35ms, so the message is lost.
  topo.inject_outage("n2", TimePoint(10000), TimePoint(10000000));
  Network net(sim, std::move(topo));
  TransferResult r;
  sim.spawn(do_transfer(net, "n1", "n2", 0, r));
  sim.run();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
}

TEST(TopologyTest, OutageEdgeCatchesMessagesInFlightAcrossReboot) {
  Topology topo = two_dc_topology();
  // Outage [10ms, 20ms): a message whose flight time overlaps any instant
  // of the window is lost, even when the node is back up at arrival time.
  topo.inject_outage("n2", TimePoint(10000), TimePoint(20000));
  EXPECT_TRUE(topo.node_down_during("n2", TimePoint(0), TimePoint(35000)));
  EXPECT_TRUE(topo.node_down_during("n2", TimePoint(15000), TimePoint(16000)));
  EXPECT_FALSE(topo.node_down_during("n2", TimePoint(20000), TimePoint(55000)));
  EXPECT_FALSE(topo.node_down_during("n2", TimePoint(0), TimePoint(9999)));
}

TEST(NetworkTest, TransferInFlightAcrossRebootFails) {
  sim::Simulation sim;
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.0);
  // One-way latency n1->n2 is 35ms; the outage covers [10ms, 20ms), fully
  // inside the flight window, so the message dies mid-flight.
  topo.inject_outage("n2", TimePoint(10000), TimePoint(20000));
  Network net(sim, std::move(topo));
  TransferResult r;
  sim.spawn(do_transfer(net, "n1", "n2", 0, r));
  sim.run();
  EXPECT_EQ(r.status.code(), StatusCode::kUnavailable);
}

TEST(TopologyTest, AsymmetricPartitionCutsOneDirection) {
  Topology topo = two_dc_topology();
  topo.inject_partition("n1", "n2", TimePoint(100), TimePoint(200),
                        /*bidirectional=*/false);
  EXPECT_TRUE(topo.partitioned("n1", "n2", TimePoint(150)));
  EXPECT_FALSE(topo.partitioned("n2", "n1", TimePoint(150)));
  EXPECT_FALSE(topo.partitioned("n1", "n2", TimePoint(99)));
  EXPECT_FALSE(topo.partitioned("n1", "n2", TimePoint(200)));  // window end
}

TEST(TopologyTest, BidirectionalPartitionCutsBothDirections) {
  Topology topo = two_dc_topology();
  topo.inject_partition("n1", "n2", TimePoint(100), TimePoint(200),
                        /*bidirectional=*/true);
  EXPECT_TRUE(topo.partitioned("n1", "n2", TimePoint(150)));
  EXPECT_TRUE(topo.partitioned("n2", "n1", TimePoint(150)));
  // Unrelated pairs are unaffected.
  EXPECT_FALSE(topo.partitioned("n1", "n3", TimePoint(150)));
  topo.clear_faults();
  EXPECT_FALSE(topo.partitioned("n1", "n2", TimePoint(150)));
}

TEST(NetworkTest, ResetTrafficClearsCounters) {
  sim::Simulation sim;
  Network net(sim, two_dc_topology());
  TransferResult r1;
  sim.spawn(do_transfer(net, "n1", "n2", 1000, r1));
  sim.run();
  ASSERT_EQ(net.traffic().total_messages, 1);
  ASSERT_EQ(net.traffic().total_bytes, 1000);
  net.reset_traffic();
  EXPECT_EQ(net.traffic().total_messages, 0);
  EXPECT_EQ(net.traffic().total_bytes, 0);
  EXPECT_EQ(net.traffic().dc_pair_bytes.size(), 0u);
  // Counting resumes from zero after the reset.
  TransferResult r2;
  sim.spawn(do_transfer(net, "n2", "n1", 200, r2));
  sim.run();
  EXPECT_EQ(net.traffic().total_messages, 1);
  EXPECT_EQ(net.traffic().total_bytes, 200);
}

// The dense per-pair counters against a recount keyed by datacenter name,
// over a mixed run: every direction between three datacenters, intra-DC
// and 0-byte messages, a pair that carried only 0-byte messages, transfers
// to and from a down node (not billed), and a reset_traffic() between two
// rounds.
TEST(NetworkTest, DcPairBytesMatchANameKeyedRecount) {
  sim::Simulation sim(7);
  Topology topo = two_dc_topology();
  topo.add_datacenter("dc-c", Provider::kAzure, "us-east");
  topo.set_rtt("dc-a", "dc-c", msec(2));
  topo.set_rtt("dc-b", "dc-c", msec(70));
  topo.add_node("n4", "dc-c");
  topo.add_node("down", "dc-c");
  topo.inject_outage("down", TimePoint(0), TimePoint(sec(1000).us()));
  Network net(sim, std::move(topo));
  const std::vector<std::string> nodes = {"n1", "n2", "n3", "down"};

  for (int round = 0; round < 2; ++round) {
    if (round == 1) {
      net.reset_traffic();
      EXPECT_TRUE(net.traffic().dc_pair_bytes.empty());
      EXPECT_EQ(net.traffic().total_messages, 0);
      EXPECT_EQ(net.traffic().total_bytes, 0);
    }
    // n4 sends only empty messages: dc-c -> dc-a must show up with 0 bytes.
    std::vector<std::pair<std::string, std::string>> sent = {{"n4", "n1"}};
    std::vector<int64_t> sizes = {0};
    std::vector<TransferResult> results(61);
    for (size_t i = 1; i < results.size(); ++i) {
      const auto pick = [&] {
        return nodes[static_cast<size_t>(sim.rng().uniform_int(0, 3))];
      };
      const std::string from = pick();
      const std::string to = pick();
      // Every fourth message carries no payload at all.
      sent.emplace_back(from, to);
      sizes.push_back(i % 4 == 0 ? 0 : sim.rng().uniform_int(1, 5000));
    }
    for (size_t i = 0; i < results.size(); ++i) {
      sim.spawn(do_transfer(net, sent[i].first, sent[i].second, sizes[i],
                            results[i]));
    }
    sim.run();

    std::map<std::pair<std::string, std::string>, int64_t> recount;
    int64_t messages = 0;
    int64_t total = 0;
    for (size_t i = 0; i < results.size(); ++i) {
      if (!results[i].status.ok()) continue;
      const Topology& t = net.topology();
      recount[{t.node(sent[i].first).datacenter,
               t.node(sent[i].second).datacenter}] += sizes[i];
      messages++;
      total += sizes[i];
    }
    ASSERT_EQ(recount.count({"dc-c", "dc-a"}), 1u);
    EXPECT_EQ(recount.at({"dc-c", "dc-a"}), 0);
    const TrafficStats traffic = net.traffic();
    EXPECT_EQ(traffic.dc_pair_bytes, recount) << "round " << round;
    EXPECT_EQ(traffic.total_messages, messages);
    EXPECT_EQ(traffic.total_bytes, total);
    EXPECT_GT(messages, 0);
    EXPECT_LT(messages, static_cast<int64_t>(results.size()));
  }
}

TEST(NetworkTest, ChaosDropWindowLosesEveryMessageInside) {
  sim::Simulation sim(5);
  Topology topo = two_dc_topology();
  topo.set_jitter_fraction(0.0);
  Network net(sim, std::move(topo));
  ChaosWindow window;
  window.node = "n2";
  window.from = TimePoint(0);
  window.until = TimePoint(sec(1).us());
  window.drop_prob = 1.0;
  net.inject_chaos(window);

  TransferResult in_window, other_pair;
  sim.spawn(do_transfer(net, "n1", "n2", 100, in_window));
  sim.spawn(do_transfer(net, "n1", "n3", 100, other_pair));
  sim.run();
  EXPECT_EQ(in_window.status.code(), StatusCode::kUnavailable);
  EXPECT_TRUE(other_pair.status.ok());  // window scoped to n2 only
  EXPECT_EQ(net.chaos_stats().dropped, 1);

  // After the window (and after clear_chaos) messages flow again.
  net.clear_chaos();
  TransferResult after;
  sim.spawn(do_transfer(net, "n1", "n2", 100, after));
  sim.run();
  EXPECT_TRUE(after.status.ok());
}

TEST(NetworkTest, VmTypesHaveExpectedOrdering) {
  // Calibration sanity: bigger Azure VMs get more network throughput.
  EXPECT_LT(VmType::basic_a2().net_mbps, VmType::standard_d1().net_mbps);
  EXPECT_LT(VmType::standard_d1().net_mbps, VmType::standard_d2().net_mbps);
  EXPECT_LE(VmType::standard_d2().net_mbps, VmType::standard_d3().net_mbps);
}

}  // namespace
}  // namespace wiera::net
