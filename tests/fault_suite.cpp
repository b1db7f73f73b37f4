#include "fault_suite.h"

#include <gtest/gtest.h>

#include <cstdlib>

#include "common/strings.h"
#include "common/units.h"
#include "obs/telemetry.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"

namespace wiera::geo::suite {
namespace {

std::string_view policy_for(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kMultiPrimaries:
      return policy::builtin::multi_primaries_consistency();
    case ConsistencyMode::kEventual:
      return policy::builtin::eventual_consistency();
    default:
      return policy::builtin::primary_backup_consistency();
  }
}

net::Topology make_topology(const char* spare) {
  net::Topology topo = net::Topology::paper_default();
  topo.set_jitter_fraction(0.0);
  topo.add_node("wiera-controller", "aws-us-east");
  topo.add_node("tiera-us-west", "aws-us-west");
  topo.add_node("tiera-us-east", "aws-us-east");
  topo.add_node("tiera-eu-west", "aws-eu-west");
  topo.add_node("tiera-asia-east", "aws-asia-east");
  if (spare != nullptr) topo.add_node(spare, "aws-us-east");
  topo.add_node("client-us-west", "aws-us-west");
  topo.add_node("client-eu-west", "aws-eu-west");
  topo.add_node("client-asia-east", "aws-asia-east");
  return topo;
}

// Final replica state for the convergence check: the latest committed
// version's metadata — copied before the payload read suspends, since the
// version row may change under it — plus the payload as actually served
// from local tiers (an unreadable payload records as "" and shows up as
// divergence: losing a committed payload is a consistency bug).
sim::Task<void> harvest_finals(WieraController& controller,
                               std::vector<std::string> nodes, int key_count,
                               sim::ConsistencyOracle& oracle, bool& done) {
  for (const std::string& node : nodes) {
    WieraPeer* peer = controller.peer(node);
    if (peer == nullptr) continue;
    for (int k = 0; k < key_count; ++k) {
      const std::string key = "k" + std::to_string(k);
      const metadb::ObjectMeta* obj = peer->local().meta().find(key);
      const metadb::VersionMeta* vm =
          obj == nullptr ? nullptr : obj->latest_committed();
      if (vm == nullptr) {
        oracle.record_replica_value(node, key, 0, TimePoint(), "", "");
        continue;
      }
      const int64_t version = vm->version;
      const TimePoint last_modified = vm->last_modified;
      const std::string origin = vm->origin;
      auto value = co_await peer->local().get_version(key, version);
      oracle.record_replica_value(node, key, version, last_modified, origin,
                                  value.ok() ? value->value.to_string() : "");
    }
  }
  done = true;
}

bool env_on(const char* name) {
  const char* env = std::getenv(name);
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

bool dump_telemetry() { return env_on("WIERA_DUMP_TELEMETRY"); }
bool dump_timeseries() { return env_on("WIERA_DUMP_TIMESERIES"); }

std::string hex_trace(uint64_t hash) {
  return str_format("0x%016llx", static_cast<unsigned long long>(hash));
}

struct Invocation {
  uint64_t seed = 1;
  std::vector<std::string> spec;
};

// Splits --seed and the dump switches (which set their env var) off the
// replay spec.
Invocation parse(const std::vector<std::string>& args) {
  Invocation out;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--seed" && i + 1 < args.size()) {
      out.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--dump-telemetry") {
      setenv("WIERA_DUMP_TELEMETRY", "1", 1);
    } else if (args[i] == "--dump-timeseries") {
      setenv("WIERA_DUMP_TIMESERIES", "1", 1);
    } else {
      out.spec.push_back(args[i]);
    }
  }
  return out;
}

}  // namespace

std::vector<std::string> storage_nodes() {
  return {std::begin(kStorageNodes), std::end(kStorageNodes)};
}

int seed_count() {
  const char* env = std::getenv("WIERA_SEED_COUNT");
  const int n = env == nullptr ? 0 : std::atoi(env);
  return n > 0 ? n : 20;
}

Cluster::Cluster(uint64_t seed, WieraController::Config config,
                 const char* spare)
    : sim(seed),
      network(sim, make_topology(spare)),
      controller(sim, network, registry, std::move(config)) {
  for (const char* node : kStorageNodes) {
    servers.push_back(
        std::make_unique<TieraServer>(sim, network, registry, node));
    controller.register_server(servers.back().get());
  }
  if (spare != nullptr) {
    servers.push_back(
        std::make_unique<TieraServer>(sim, network, registry, spare));
    controller.register_server(servers.back().get());
  }
}

WieraController::Config Cluster::fault_tolerant(ControllerTweak tweak) {
  WieraController::Config config;
  config.lock_lease = sec(20);
  config.serve_lease = msec(1500);
  if (tweak) tweak(config);
  return config;
}

WieraController::StartOptions Cluster::options_for(
    std::string_view policy_src, PeerTweak peer_tweak) {
  WieraController::StartOptions options;
  auto doc = policy::parse_policy(policy_src);
  EXPECT_TRUE(doc.ok()) << doc.status().to_string();
  options.global = std::move(doc).value();
  options.local_params["t"] = policy::Value::duration_of(sec(10));
  options.customize = [peer_tweak =
                           std::move(peer_tweak)](WieraPeer::Config& config) {
    config.local.tier_tweak = [](const std::string&, store::TierSpec& spec) {
      spec.jitter_fraction = 0;
    };
    if (peer_tweak) peer_tweak(config);
  };
  return options;
}

WieraController::StartOptions Cluster::options_for(ConsistencyMode mode,
                                                   PeerTweak peer_tweak) {
  return options_for(policy_for(mode), [peer_tweak = std::move(peer_tweak)](
                                           WieraPeer::Config& config) {
    config.replicate_retries = 8;
    config.replicate_backoff = msec(50);
    if (peer_tweak) peer_tweak(config);
  });
}

void Cluster::harvest(const std::vector<std::string>& nodes, int key_count,
                      sim::ConsistencyOracle& oracle, TimePoint until) {
  bool done = false;
  sim.spawn(harvest_finals(controller, nodes, key_count, oracle, done));
  sim.run_until(until);
  EXPECT_TRUE(done);
}

PeerTweak with_key_stats(PeerTweak tweak) {
  if (!dump_timeseries()) return tweak;
  return [inner = std::move(tweak)](WieraPeer::Config& config) {
    config.key_stats.enabled = true;
    if (inner) inner(config);
  };
}

void arm_timeseries(sim::ObsPipeline& pipeline, TimePoint until) {
  if (!dump_timeseries()) return;
  sim::ObsPipeline::Config config;
  config.interval = msec(100);
  config.until = until;
  pipeline.arm(config);
}

void add_evidence(sim::AttributionReport& report, Cluster& cluster,
                  const sim::FaultInjector& injector,
                  const sim::ObsPipeline* pipeline,
                  const std::vector<std::string>& nodes) {
  report.set_fault_timeline(injector.timeline());
  if (pipeline != nullptr) report.set_alerts(pipeline->alerts());
  const TimePoint now = cluster.sim.now();
  for (const std::string& node : nodes) {
    const WieraPeer* peer = cluster.controller.peer(node);
    if (peer != nullptr) report.add_key_stats(node, peer->key_stats(), now);
  }
  report.set_tracer(cluster.sim.telemetry().tracer());
}

void attach_dumps(sim::RunReport& report, Cluster& cluster,
                  std::set<uint64_t> traces, const sim::ObsPipeline* pipeline,
                  const std::vector<std::string>& nodes) {
  if (dump_telemetry()) {
    const obs::Telemetry& telemetry = cluster.sim.telemetry();
    report.set_json("metrics", telemetry.registry().render_json());
    traces.erase(0);
    std::string trees;
    for (uint64_t id : traces) {
      obs::TraceView view(telemetry.tracer(), id);
      if (view.empty()) continue;
      trees += trees.empty() ? "" : ",";
      trees += "{\"trace\":\"" + hex_trace(id) + "\",\"tree\":\"" +
               json_escape(view.render()) + "\"}";
    }
    report.set_json("traces", "[" + trees + "]");
  }
  if (dump_timeseries() && pipeline != nullptr &&
      pipeline->sampler() != nullptr) {
    report.set_json("timeseries", pipeline->sampler()->render_json());
    std::string sketches;
    for (const std::string& node : nodes) {
      const WieraPeer* peer = cluster.controller.peer(node);
      if (peer == nullptr || peer->key_stats().total_accesses() == 0) continue;
      sketches += sketches.empty() ? "" : ",";
      sketches += "\"" + json_escape(node) +
                  "\":" + peer->key_stats().render_json(cluster.sim.now());
    }
    report.set_json("keystats", "{" + sketches + "}");
  }
}

std::string replay_command(std::string_view binary, uint64_t seed,
                           std::string_view spec) {
  return str_format("tests/%.*s --seed %llu %.*s",
                    static_cast<int>(binary.size()), binary.data(),
                    static_cast<unsigned long long>(seed),
                    static_cast<int>(spec.size()), spec.data());
}

std::optional<sim::RunReport> run_replay(std::string_view command,
                                         const Replay& replay) {
  std::vector<std::string> args = split(command, ' ');
  args.erase(args.begin());  // the binary
  const Invocation invocation = parse(args);
  return replay(invocation.seed, invocation.spec);
}

int run_main(int argc, char** argv, const Replay& replay) {
  ::testing::InitGoogleTest(&argc, argv);
  const Invocation invocation =
      parse(std::vector<std::string>(argv + 1, argv + argc));
  if (invocation.spec.empty()) return RUN_ALL_TESTS();
  const std::optional<sim::RunReport> report =
      replay(invocation.seed, invocation.spec);
  if (!report) return 2;
  return report->passed() ? 0 : 1;
}

}  // namespace wiera::geo::suite
