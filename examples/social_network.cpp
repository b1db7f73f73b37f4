// Scenario: a social-network backend (the paper's motivating example for
// EventualConsistency — "e.g., for social network services like Facebook
// and Twitter").
//
// A Wiera instance spans four regions under eventual consistency: posts
// commit locally in under a millisecond and propagate in the background.
// We then demonstrate the run-time flexibility claim: the operator flips
// the SAME deployment to MultiPrimaries (say, for a payment feature) with
// one call, and put latency changes accordingly — no application changes.
#include <cstdio>
#include <memory>

#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "wiera/client.h"
#include "wiera/controller.h"

using namespace wiera;
namespace geo = wiera::geo;

namespace {

net::Topology make_topology() {
  net::Topology topo = net::Topology::paper_default();
  for (const char* region : {"us-west", "us-east", "eu-west", "asia-east"}) {
    topo.add_node(std::string("tiera-") + region, std::string("aws-") + region);
  }
  topo.add_node("wiera-controller", "aws-us-east");
  topo.add_node("phone-in-tokyo", "aws-asia-east");
  return topo;
}

sim::Task<void> demo(geo::WieraController& controller,
                     geo::WieraClient& client, sim::Simulation& sim) {
  // Post an update: commits at the Tokyo replica, fast.
  TimePoint start = sim.now();
  auto post = co_await client.put("timeline:alice", Blob("having ramen"));
  std::printf("[eventual]   post committed in %.2f ms (version %lld)\n",
              (sim.now() - start).ms(), static_cast<long long>(post->version));

  // Read-your-writes at the closest replica.
  auto read = co_await client.get("timeline:alice");
  std::printf("[eventual]   read \"%s\" from %s in %.2f ms\n",
              read->value.to_string().c_str(), read->served_by.c_str(),
              (sim.now() - start).ms());

  // Give background propagation a moment, then check a far replica.
  co_await sim.delay(sec(2));
  auto* eu = controller.peer("tiera-eu-west");
  std::printf("[eventual]   EU replica converged: %s\n",
              eu->local().meta().find("timeline:alice") != nullptr ? "yes"
                                                                   : "no");

  // Strong consistency for checkout: one management call, same deployment,
  // unmodified application.
  Status st = co_await controller.change_consistency(
      "social", geo::ConsistencyMode::kMultiPrimaries);
  std::printf("[switch]     change_consistency -> MultiPrimaries: %s\n",
              st.to_string().c_str());

  start = sim.now();
  auto payment = co_await client.put("order:alice:42", Blob("paid"));
  std::printf("[strong]     payment committed in %.2f ms "
              "(global lock + synchronous broadcast)\n",
              (sim.now() - start).ms());
  (void)payment;

  // Every replica has it before the put returned.
  for (const char* region : {"us-west", "us-east", "eu-west"}) {
    auto* peer = controller.peer(std::string("tiera-") + region);
    std::printf("[strong]     %s has the payment: %s\n", region,
                peer->local().meta().find("order:alice:42") != nullptr
                    ? "yes"
                    : "no");
  }
  sim.stop();
}

}  // namespace

int main() {
  sim::Simulation sim;
  net::Network network(sim, make_topology());
  rpc::Registry registry;
  geo::WieraController controller(
      sim, network, registry, {"wiera-controller", 0});
  std::vector<std::unique_ptr<geo::TieraServer>> servers;
  for (const char* region : {"us-west", "us-east", "eu-west", "asia-east"}) {
    servers.push_back(std::make_unique<geo::TieraServer>(
        sim, network, registry, std::string("tiera-") + region));
    controller.register_server(servers.back().get());
  }

  geo::WieraController::StartOptions options;
  options.global = std::move(policy::parse_policy(
                                 policy::builtin::eventual_consistency()))
                       .value();
  options.local_params["t"] = policy::Value::duration_of(sec(30));
  options.queue_flush_interval = msec(200);
  auto peers = controller.start_instances("social", std::move(options));
  if (!peers.ok()) {
    std::fprintf(stderr, "start: %s\n", peers.status().to_string().c_str());
    return 1;
  }
  std::printf("launched %zu replicas: ", peers->size());
  for (const auto& id : *peers) std::printf("%s ", id.c_str());
  std::printf("\n");

  geo::WieraClient client(sim, network, registry, "alice-app",
                          "phone-in-tokyo", *peers);
  std::printf("closest replica to Tokyo: %s\n", client.closest_peer().c_str());

  sim.spawn(demo(controller, client, sim));
  sim.run();
  return 0;
}
