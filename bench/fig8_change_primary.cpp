// Figure 8 + Table 3 — "Changing primary instance" (§5.2).
//
// Setup (paper): instances in US West, EU West and Asia East under
// primary-backup consistency with asynchronous (queued) update propagation,
// as Tuba does. 10 clients per region; each region's active-client count
// follows a normal curve (mean 7.5 min, variance 5 min) peaking in the
// order Asia East -> EU West -> US West. Clients run a read-mostly workload
// (95% get / 5% put). The primary starts in Asia East.
//
// Two runs: Static (primary never moves) and Changing (the Fig. 5b
// ChangePrimary policy migrates the primary toward the most active region;
// 30 s put history, 15 s period threshold).
//
// Output:
//   Figure 8  — % of gets that saw the latest data (Strong) vs outdated
//               (Eventual), static vs changing. Paper: 69% outdated static,
//               39% outdated changing.
//   Table 3   — average put latency per region and overall.
//               Paper (static): EU 216.61, USW 105.26, Asia <5, overall 105.18
//               Paper (changing): EU 95.19, USW 72.20, Asia 40.60, overall 68.13
#include <cmath>
#include <cstring>
#include <map>

#include "harness.h"
#include "ycsb/ycsb.h"

using namespace wiera::bench;
namespace geo = wiera::geo;
namespace ycsb = wiera::ycsb;
using namespace wiera;

namespace {

constexpr int kClientsPerRegion = 10;
const std::vector<std::string> kRegions = {"us-west", "eu-west", "asia-east"};

struct RunResult {
  int64_t fresh_reads = 0;
  int64_t stale_reads = 0;
  std::map<std::string, LatencyHistogram> put_latency_by_region;
  int64_t primary_changes = 0;

  double stale_fraction() const {
    const int64_t total = fresh_reads + stale_reads;
    return total == 0 ? 0 : static_cast<double>(stale_reads) / total;
  }
};

// Gaussian activity level for a region at time t, with a floor so
// off-peak regions still generate background traffic (users exist
// everywhere; the bell curve models the *busy* population).
double activity(double t_minutes, double peak_minutes) {
  const double sigma = std::sqrt(5.0);  // variance 5 min
  const double d = (t_minutes - peak_minutes) / sigma;
  return 0.45 + 0.55 * std::exp(-0.5 * d * d);
}

RunResult run_experiment(bool changing_primary, uint64_t seed) {
  PaperCluster cluster(seed);

  auto options = cluster.options_for(R"(
Wiera Fig8PrimaryBackup() {
   Region1 = {name:LowLatencyInstance, region:US-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region2 = {name:LowLatencyInstance, region:EU-West,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }
   Region3 = {name:LowLatencyInstance, region:Asia-East, primary:True,
      tier1 = {name:LocalMemory, size=5G},
      tier2 = {name:LocalDisk, size=5G} }

   % async propagation via queue response (as Tuba does)
   event(insert.into) : response {
      if(local_instance.isPrimary == True)
         store(what:insert.object, to:local_instance)
         queue(what:insert.object, to:all_regions)
      else
         forward(what:insert.object, to:primary_instance)
   }
}
)");
  options.queue_flush_interval = sec(30);
  options.customize = [](geo::WieraPeer::Config& config) {
    // Evaluate the migration condition on the paper's cadence rather than
    // every few seconds (avoids primary ping-pong between regions).
    config.requests_monitor_check = sec(30);
  };
  if (changing_primary) {
    auto cp = policy::parse_policy(policy::builtin::change_primary());
    options.change_primary = std::move(cp).value();
  }
  auto peers = cluster.controller.start_instances("fig8", std::move(options));
  if (!peers.ok()) {
    std::fprintf(stderr, "start: %s\n", peers.status().to_string().c_str());
    std::abort();
  }

  RunResult result;
  // Staleness oracle: every put embeds a globally increasing sequence
  // number in the value; a read is fresh iff the sequence it returns is at
  // least the newest committed sequence for that key when the read started.
  // (Comparing version numbers would be confounded by the version-number
  // collisions that primary migration plus LWW can produce.)
  int64_t global_seq = 0;
  std::map<std::string, int64_t> latest_committed;

  auto encode_seq = [](int64_t seq) {
    Bytes data(1024, 0);
    std::memcpy(data.data(), &seq, sizeof(seq));
    return Blob(std::move(data));
  };
  auto decode_seq = [](const Blob& value) {
    int64_t seq = 0;
    if (value.size() >= sizeof(seq)) {
      std::memcpy(&seq, value.data(), sizeof(seq));
    }
    return seq;
  };

  // Region activity peaks in order Asia -> EU -> US over a 45 min run.
  const std::map<std::string, double> peaks = {
      {"asia-east", 7.5}, {"eu-west", 22.5}, {"us-west", 37.5}};
  const Duration kRunTime = minutes(45);

  bool stop = false;
  std::vector<std::unique_ptr<geo::WieraClient>> clients;

  auto client_loop = [&](geo::WieraClient* client, std::string region,
                         uint64_t client_seed) -> sim::Task<void> {
    Rng rng(client_seed);
    ycsb::WorkloadGenerator generator(
        [] {
          auto spec = ycsb::WorkloadSpec::read_mostly();  // 95/5 get/put
          spec.record_count = 4;
          spec.value_size = 1024;
          return spec;
        }(),
        client_seed);
    while (!stop) {
      // Activity gating: a client is active with probability equal to its
      // region's current activity level.
      const double level =
          activity(cluster.sim.now().seconds() / 60.0, peaks.at(region));
      if (!rng.bernoulli(level)) {
        co_await cluster.sim.delay(sec(5));
        continue;
      }
      auto op = generator.next();
      if (op.type == ycsb::OpType::kRead) {
        auto it = latest_committed.find(op.key);
        const int64_t latest = it == latest_committed.end() ? 0 : it->second;
        auto got = co_await client->get(op.key);
        if (got.ok()) {
          if (decode_seq(got->value) >= latest) {
            result.fresh_reads++;
          } else {
            result.stale_reads++;
          }
        }
      } else {
        const int64_t seq = ++global_seq;
        const TimePoint start = cluster.sim.now();
        Blob value = encode_seq(seq);
        auto put = co_await client->put(op.key, std::move(value));
        if (put.ok()) {
          result.put_latency_by_region[region].record(cluster.sim.now() -
                                                      start);
          auto& latest = latest_committed[op.key];
          latest = std::max(latest, seq);
        }
      }
      co_await cluster.sim.delay(msec(400));
    }
  };

  for (const std::string& region : kRegions) {
    for (int c = 0; c < kClientsPerRegion; ++c) {
      clients.push_back(std::make_unique<geo::WieraClient>(
          cluster.sim, cluster.network, cluster.registry,
          region + "-app-" + std::to_string(c), "client-" + region, *peers));
      cluster.sim.spawn(client_loop(clients.back().get(), region,
                                    seed * 1000 + clients.size()));
    }
  }

  cluster.sim.run_until(TimePoint(kRunTime.us()));
  stop = true;
  result.primary_changes = cluster.controller.primary_changes();
  print_metrics(cluster.sim,
                changing_primary ? "fig8 changing primary"
                                 : "fig8 static primary",
                {"wiera_client_put_latency_us", "wiera_forwarded_",
                 "wiera_replications_"});
  return result;
}

}  // namespace

int main() {
  RunResult r_static = run_experiment(/*changing_primary=*/false, 7);
  RunResult r_changing = run_experiment(/*changing_primary=*/true, 7);

  print_header("Figure 8: % of gets returning latest (Strong) vs outdated "
               "(Eventual) data");
  print_row({"config", "strong", "eventual", "paper_eventual"});
  print_row({"Static", fmt_pct(1 - r_static.stale_fraction()),
             fmt_pct(r_static.stale_fraction()), "69%"});
  print_row({"Changing", fmt_pct(1 - r_changing.stale_fraction()),
             fmt_pct(r_changing.stale_fraction()), "39%"});
  std::printf("primary migrations during changing run: %lld\n",
              static_cast<long long>(r_changing.primary_changes));

  print_header("Table 3: average put operation latency (ms)");
  print_row({"config", "EU-West", "US-West", "Asia-East", "Overall"});
  auto row = [](const char* label, RunResult& r) {
    LatencyHistogram overall;
    for (auto& [_, hist] : r.put_latency_by_region) overall.merge(hist);
    print_row({label, fmt_ms(r.put_latency_by_region["eu-west"].mean()),
               fmt_ms(r.put_latency_by_region["us-west"].mean()),
               fmt_ms(r.put_latency_by_region["asia-east"].mean()),
               fmt_ms(overall.mean())});
  };
  row("Static", r_static);
  row("Changing", r_changing);
  print_row({"paper-static", "216.61", "105.26", "<5", "105.18"});
  print_row({"paper-changing", "95.19", "72.20", "40.60", "68.13"});
  return 0;
}
