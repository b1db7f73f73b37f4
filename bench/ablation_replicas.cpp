// Ablation: replica count vs read latency vs monthly cost (§3.3.3).
//
// The paper argues fewer replicas cut storage + update-traffic cost while
// nearby DCs' fast tiers keep latency acceptable. This sweep places 1..4
// replicas (always starting from US East) under eventual consistency,
// measures get latency from every region, and bills storage + cross-DC
// replication traffic with the Table 4 cost model.
#include "harness.h"
#include "common/units.h"
#include "cost/cost_model.h"

using namespace wiera::bench;
namespace geo = wiera::geo;
using namespace wiera;

namespace {

std::string policy_for_replicas(int replicas) {
  static const char* kRegions[] = {"US-East", "US-West", "EU-West",
                                   "Asia-East"};
  std::string out = "Wiera ReplicaSweep() {\n";
  for (int r = 0; r < replicas; ++r) {
    out += str_format(
        "   Region%d = {name:LowLatencyInstance, region:%s,\n"
        "      tier1 = {name:LocalMemory, size=5G},\n"
        "      tier2 = {name:LocalDisk, size=5G} }\n",
        r + 1, kRegions[r]);
  }
  out +=
      "   event(insert.into) : response {\n"
      "      store(what:insert.object, to:local_instance)\n"
      "      queue(what:insert.object, to:all_regions)\n"
      "   }\n}\n";
  return out;
}

}  // namespace

int main() {
  constexpr int kObjects = 64;
  constexpr int64_t kObjectSize = 64 * KiB;

  print_header("Ablation: replica count vs get latency vs monthly cost "
               "(64 KiB objects, eventual consistency)");
  print_row({"replicas", "useast_ms", "uswest_ms", "euwest_ms", "asia_ms",
             "storage_$/mo", "egress_$"},
            13);

  for (int replicas = 1; replicas <= 4; ++replicas) {
    PaperCluster cluster(13);
    auto options = cluster.options_for(policy_for_replicas(replicas));
    options.queue_flush_interval = msec(100);
    auto peers = cluster.controller.start_instances("sweep",
                                                    std::move(options));
    if (!peers.ok()) {
      std::fprintf(stderr, "%s\n", peers.status().to_string().c_str());
      return 1;
    }

    // Load from US East, wait for propagation. The loader's endpoint is
    // gone before the US East reader registers on the same node.
    {
      geo::WieraClient loader(cluster.sim, cluster.network, cluster.registry,
                              "loader", "client-us-east", *peers);
      cluster.run([&]() -> sim::Task<void> {
        for (int i = 0; i < kObjects; ++i) {
          auto put = co_await loader.put("obj" + std::to_string(i),
                                         Blob::zeros(kObjectSize));
          if (!put.ok()) std::abort();
        }
        co_await cluster.sim.delay(sec(10));  // drain queues
      });
    }

    // Get latency per client region (clients always read their closest
    // replica; with fewer replicas that replica is farther away).
    std::vector<std::string> cells{str_format("%d", replicas)};
    for (const std::string& region : paper_regions()) {
      // paper_regions() order: us-west, us-east, eu-west, asia-east; print
      // in table order us-east first.
      (void)region;
    }
    const std::vector<std::string> table_order = {"us-east", "us-west",
                                                  "eu-west", "asia-east"};
    for (const std::string& region : table_order) {
      geo::WieraClient reader(cluster.sim, cluster.network, cluster.registry,
                              "reader-" + region, "client-" + region, *peers);
      LatencyHistogram hist;
      cluster.run([&]() -> sim::Task<void> {
        for (int i = 0; i < kObjects; ++i) {
          const TimePoint start = cluster.sim.now();
          auto got = co_await reader.get("obj" + std::to_string(i));
          if (got.ok()) hist.record(cluster.sim.now() - start);
        }
      });
      cells.push_back(fmt_ms(hist.mean()));
    }

    // Cost: storage across replicas (memory tier treated as cache — bill
    // the disk copies) + replication egress observed on the wire.
    double storage = 0;
    for (const std::string& id : *peers) {
      auto* peer = cluster.controller.peer(id);
      if (auto* tier = peer->local().tier_by_label("tier2")) {
        storage += cost::CostModel::bill_tier(*tier, 1.0);
      }
    }
    const double egress =
        cost::CostModel::bill_traffic(cluster.network.traffic());
    cells.push_back(str_format("%.4f", storage));
    cells.push_back(str_format("%.4f", egress));
    print_row(cells, 13);
    print_metrics(cluster.sim,
                  str_format("%d replica(s)", replicas),
                  {"wiera_replications_", "wiera_client_get_latency_us"});
  }
  std::printf(
      "\nreading: each added replica cuts far-region read latency but "
      "multiplies storage cost and adds cross-DC update egress "
      "(the §3.3.3 tradeoff).\n");
  return 0;
}
