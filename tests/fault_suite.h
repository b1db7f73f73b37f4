// Shared harness of the fault suites, chaos_test and scenario_test
// (docs/FAULTS.md, docs/SCENARIOS.md): the paper's four-region cluster and
// its fault-tolerance arming, the finals harvest, the --dump-* switches, the
// seed count, and the main() that replays one schedule. Every run, swept or
// replayed, prints one RUN-REPORT line (docs/OBSERVABILITY.md#run-report).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "sim/attribution.h"
#include "sim/events.h"
#include "sim/obs_pipeline.h"
#include "sim/oracle.h"
#include "wiera/controller.h"

namespace wiera::geo::suite {

inline constexpr const char* kStorageNodes[] = {
    "tiera-us-west", "tiera-us-east", "tiera-eu-west", "tiera-asia-east"};
inline constexpr const char* kClientNodes[] = {
    "client-us-west", "client-eu-west", "client-asia-east"};

using PeerTweak = std::function<void(WieraPeer::Config&)>;
using ControllerTweak = std::function<void(WieraController::Config&)>;

std::vector<std::string> storage_nodes();

// Seeds per seed-scaled sweep: WIERA_SEED_COUNT, default 20.
int seed_count();

// The paper's four-region AWS deployment (§5): the Wiera controller and its
// lock service in US East, a Tiera server in each region, and a client node
// in every region but US East. `spare` adds one more registered server in
// US East that is not a member until a scenario adds it live.
struct Cluster {
  Cluster(uint64_t seed, WieraController::Config config,
          const char* spare = nullptr);

  // What the fault suites arm on the controller: serve leases (an isolated
  // replica refuses strong-mode reads); `tweak` last.
  static WieraController::Config fault_tolerant(ControllerTweak tweak = {});

  // Start options for `policy_src` with tier jitter off; `peer_tweak` last.
  static WieraController::StartOptions options_for(
      std::string_view policy_src, PeerTweak peer_tweak = {});
  // The builtin policy of `mode`.
  static WieraController::StartOptions options_for(ConsistencyMode mode,
                                                   PeerTweak peer_tweak = {});

  // Records each node's final state of keys k0..k<key_count-1> into
  // `oracle` for the convergence check, running the simulation to `until`.
  void harvest(const std::vector<std::string>& nodes, int key_count,
               sim::ConsistencyOracle& oracle, TimePoint until);

  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  WieraController controller;
  std::vector<std::unique_ptr<TieraServer>> servers;
};

// `--dump-telemetry` (or WIERA_DUMP_TELEMETRY=1) and `--dump-timeseries`
// (or WIERA_DUMP_TIMESERIES=1). The time-series switch arms the ObsPipeline
// scraper and the per-peer hot-key sketches, which add timer events: replay
// hashes from a timeseries run only compare against other timeseries runs.

// Under --dump-timeseries: `tweak` plus the per-peer hot-key sketches.
PeerTweak with_key_stats(PeerTweak tweak);
// Under --dump-timeseries: arms `pipeline` to scrape every 100ms until
// `until`. Unarmed it spawns nothing and the schedule stays byte-identical.
void arm_timeseries(sim::ObsPipeline& pipeline, TimePoint until);

// What a failing run's attribution correlates its violations with: the
// injector's timeline, the alert firings, each node's hot keys and the
// worst spans.
void add_evidence(sim::AttributionReport& report, Cluster& cluster,
                  const sim::Injector& injector,
                  const sim::ObsPipeline* pipeline,
                  const std::vector<std::string>& nodes);

// What the --dump-* switches add to a run's report: the registry snapshot
// and the span trees of `traces` (`metrics`, `traces`); the sampler's
// series and each node's hot-key sketch (`timeseries`, `keystats`).
void attach_dumps(sim::RunReport& report, Cluster& cluster,
                  std::set<uint64_t> traces, const sim::ObsPipeline* pipeline,
                  const std::vector<std::string>& nodes);

// A suite binary's replay of the spec arguments left after --seed and the
// dump switches, e.g. {"--plan", "EventualConsistency:crash"}; nullopt
// (after a message on stderr) for a spec the suite does not know.
using Replay = std::function<std::optional<sim::RunReport>(
    uint64_t seed, const std::vector<std::string>& spec)>;

// A run's `replay` field: "tests/<binary> --seed N <spec>", relative to the
// build directory.
std::string replay_command(std::string_view binary, uint64_t seed,
                           std::string_view spec);

// Runs a report's replay command in-process, exactly as main() would.
std::optional<sim::RunReport> run_replay(std::string_view command,
                                         const Replay& replay);

// The fault suites' main(): `--seed N`, `--dump-telemetry` and
// `--dump-timeseries`; any other argument is the replay spec. A replay exits
// 0 iff its run passed (2 on a spec the suite does not know); without a
// spec the gtest suite runs.
int run_main(int argc, char** argv, const Replay& replay);

}  // namespace wiera::geo::suite
