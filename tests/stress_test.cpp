// Stress and determinism tests: large fan-outs on the DES kernel, Glacier
// semantics, RPC concurrency, and bit-reproducibility of a full Wiera
// deployment under load.
#include <gtest/gtest.h>

#include <memory>

#include "common/units.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "store/tier.h"
#include "wiera/client.h"
#include "wiera/controller.h"

namespace wiera {
namespace {

// ------------------------------------------------------------ DES stress

sim::Task<void> chatter(sim::Simulation& sim, int rounds, int64_t& ops) {
  for (int i = 0; i < rounds; ++i) {
    co_await sim.delay(usec(static_cast<int64_t>(sim.rng().uniform(1, 100))));
    ops++;
  }
}

TEST(StressTest, TenThousandConcurrentTasks) {
  sim::Simulation sim(99);
  int64_t ops = 0;
  for (int i = 0; i < 10000; ++i) sim.spawn(chatter(sim, 10, ops));
  sim.run();
  EXPECT_EQ(ops, 100000);
}

TEST(StressTest, DeepChannelPipeline) {
  // 64 stages connected by channels; 100 items flow through all of them.
  sim::Simulation sim;
  constexpr int kStages = 64;
  std::vector<std::unique_ptr<sim::Channel<int>>> channels;
  for (int i = 0; i <= kStages; ++i) {
    channels.push_back(std::make_unique<sim::Channel<int>>(sim));
  }
  auto stage = [](sim::Simulation& s, sim::Channel<int>& in,
                  sim::Channel<int>& out) -> sim::Task<void> {
    while (true) {
      auto item = co_await in.recv();
      if (!item) break;
      co_await s.delay(usec(10));
      out.send(*item + 1);
    }
    out.close();
  };
  for (int i = 0; i < kStages; ++i) {
    sim.spawn(stage(sim, *channels[static_cast<size_t>(i)],
                    *channels[static_cast<size_t>(i) + 1]));
  }
  for (int i = 0; i < 100; ++i) channels[0]->send(0);
  channels[0]->close();

  std::vector<int> results;
  auto sink = [](sim::Channel<int>& in,
                 std::vector<int>& out) -> sim::Task<void> {
    while (true) {
      auto item = co_await in.recv();
      if (!item) break;
      out.push_back(*item);
    }
  };
  sim.spawn(sink(*channels[kStages], results));
  sim.run();
  ASSERT_EQ(results.size(), 100u);
  for (int v : results) EXPECT_EQ(v, kStages);
}

// ------------------------------------------------------------ Glacier

TEST(GlacierTest, ArchivalRetrievalTakesHours) {
  sim::Simulation sim;
  store::TierSpec spec;
  spec.name = "glacier";
  spec.kind = store::TierKind::kGlacier;
  spec.jitter_fraction = 0;
  auto tier = store::make_tier(sim, spec);
  bool done = false;
  int64_t put_us = 0, get_us = 0;
  auto body = [&]() -> sim::Task<void> {
    co_await tier->put("archive", Blob(Bytes(1 * MiB, 0)));
    put_us = sim.now().us();
    co_await tier->get("archive");
    get_us = sim.now().us() - put_us;
    done = true;
  };
  sim.spawn(body());
  sim.run();
  ASSERT_TRUE(done);
  EXPECT_LT(put_us, sec(2).us());          // archiving is quick-ish
  EXPECT_GE(get_us, hoursd(0.9).us());     // retrieval takes ~hours
}

// ------------------------------------------------------------ RPC concurrency

TEST(StressTest, ManyConcurrentRpcCalls) {
  sim::Simulation sim;
  net::Topology topo;
  topo.add_datacenter("a", net::Provider::kAws, "us-east");
  topo.add_datacenter("b", net::Provider::kAws, "us-west");
  topo.set_rtt("a", "b", msec(70));
  topo.set_jitter_fraction(0.0);
  topo.add_node("server", "a", net::VmType{"fat", 1000.0});
  topo.add_node("client", "b", net::VmType{"fat", 1000.0});
  net::Network network(sim, std::move(topo));
  rpc::Registry registry;
  rpc::Endpoint server(network, registry, "server");
  rpc::Endpoint client(network, registry, "client");
  server.register_handler(
      "echo", [](rpc::Message m) -> sim::Task<Result<rpc::Message>> {
        co_return m;
      });

  int completed = 0;
  auto caller = [](rpc::Endpoint& ep, int& count) -> sim::Task<void> {
    rpc::WireWriter w;
    w.put_string("x");
    rpc::Message msg{w.take()};
    auto resp = co_await ep.call("server", "echo", std::move(msg));
    EXPECT_TRUE(resp.ok());
    count++;
  };
  for (int i = 0; i < 500; ++i) sim.spawn(caller(client, completed));
  sim.run();
  EXPECT_EQ(completed, 500);
  // All calls overlapped: wall time stays near one RTT (payloads are tiny).
  EXPECT_LT(sim.now().seconds(), 0.2);
}

// ------------------------------------------------------------ determinism

struct Fingerprint {
  int64_t events;
  int64_t now_us;
  int64_t versions;
  bool operator==(const Fingerprint& o) const {
    return events == o.events && now_us == o.now_us && versions == o.versions;
  }
};

Fingerprint run_wiera_load(uint64_t seed) {
  sim::Simulation sim(seed);
  net::Topology topo = net::Topology::paper_default();
  topo.add_node("wiera-controller", "aws-us-east");
  topo.add_node("tiera-us-west", "aws-us-west");
  topo.add_node("tiera-us-east", "aws-us-east");
  topo.add_node("tiera-eu-west", "aws-eu-west");
  topo.add_node("tiera-asia-east", "aws-asia-east");
  topo.add_node("client-1", "aws-us-west");
  topo.add_node("client-2", "aws-eu-west");
  net::Network network(sim, std::move(topo));
  rpc::Registry registry;
  geo::WieraController controller(sim, network, registry,
                                  {"wiera-controller", 0});
  std::vector<std::unique_ptr<geo::TieraServer>> servers;
  for (const char* node : {"tiera-us-west", "tiera-us-east", "tiera-eu-west",
                           "tiera-asia-east"}) {
    servers.push_back(std::make_unique<geo::TieraServer>(sim, network,
                                                         registry, node));
    controller.register_server(servers.back().get());
  }
  geo::WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::eventual_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(30));
  auto peers = controller.start_instances("w", std::move(options));
  EXPECT_TRUE(peers.ok());

  geo::WieraClient c1(sim, network, registry, "c1", "client-1", *peers);
  geo::WieraClient c2(sim, network, registry, "c2", "client-2", *peers);
  auto load = [](geo::WieraClient& c, sim::Simulation& s,
                 int ops) -> sim::Task<void> {
    Rng rng(fnv1a64(c.id()));
    for (int i = 0; i < ops; ++i) {
      const std::string key = "k" + std::to_string(rng.uniform_int(0, 15));
      if (rng.bernoulli(0.4)) {
        auto r = co_await c.put(key, Blob::zeros(1024));
        (void)r;
      } else {
        auto r = co_await c.get(key);
        (void)r;
      }
      co_await s.delay(msec(static_cast<double>(rng.uniform(10, 100))));
    }
  };
  sim.spawn(load(c1, sim, 100));
  sim.spawn(load(c2, sim, 100));
  sim.run_until(TimePoint(sec(60).us()));

  Fingerprint fp;
  fp.events = static_cast<int64_t>(sim.events_executed());
  fp.now_us = sim.now().us();
  fp.versions = 0;
  for (const char* node : {"tiera-us-west", "tiera-us-east", "tiera-eu-west",
                           "tiera-asia-east"}) {
    fp.versions += controller.peer(node)->local().meta().version_count();
  }
  return fp;
}

TEST(DeterminismTest, FullDeploymentIsBitReproducible) {
  Fingerprint a = run_wiera_load(1234);
  Fingerprint b = run_wiera_load(1234);
  EXPECT_EQ(a.events, b.events);
  EXPECT_EQ(a.now_us, b.now_us);
  EXPECT_EQ(a.versions, b.versions);
  Fingerprint c = run_wiera_load(5678);
  EXPECT_NE(a.events, c.events);  // different seed, different trace
}

}  // namespace
}  // namespace wiera
