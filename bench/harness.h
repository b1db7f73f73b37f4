// Shared setup for the paper-reproduction benches: the §5 deployment
// (Wiera controller + ZooKeeper in US East; Tiera servers in US East,
// US West, EU West, Asia East; clients co-located with instances) and
// small table-printing helpers.
#pragma once

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/strings.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "wiera/client.h"
#include "wiera/controller.h"

namespace wiera::bench {

// The four paper regions, in the order the paper lists them.
inline const std::vector<std::string>& paper_regions() {
  static const std::vector<std::string> kRegions = {
      "us-west", "us-east", "eu-west", "asia-east"};
  return kRegions;
}

struct PaperCluster {
  sim::Simulation sim;
  net::Network network;
  rpc::Registry registry;
  geo::WieraController controller;
  std::vector<std::unique_ptr<geo::TieraServer>> servers;

  explicit PaperCluster(uint64_t seed = 1, double jitter = 0.05)
      : sim(seed),
        network(sim, make_topology(jitter)),
        controller(sim, network, registry,
                   geo::WieraController::Config{"wiera-controller", 0}) {
    for (const std::string& region : paper_regions()) {
      const std::string node = "tiera-" + region;
      servers.push_back(std::make_unique<geo::TieraServer>(
          sim, network, registry, node));
      controller.register_server(servers.back().get());
    }
  }

  static net::Topology make_topology(double jitter) {
    net::Topology topo = net::Topology::paper_default();
    topo.set_jitter_fraction(jitter);
    topo.add_node("wiera-controller", "aws-us-east");
    for (const std::string& region : paper_regions()) {
      topo.add_node("tiera-" + region, "aws-" + region);
      topo.add_node("client-" + region, "aws-" + region);
    }
    return topo;
  }

  geo::WieraController::StartOptions options_for(
      std::string_view policy_src, Duration timer_param = sec(10)) {
    geo::WieraController::StartOptions options;
    auto doc = policy::parse_policy(policy_src);
    if (!doc.ok()) {
      std::fprintf(stderr, "policy parse error: %s\n",
                   doc.status().to_string().c_str());
      std::abort();
    }
    options.global = std::move(doc).value();
    options.local_params["t"] = policy::Value::duration_of(timer_param);
    return options;
  }

  // Run `body` then stop (instances keep timers alive forever otherwise).
  template <typename F>
  void run(F&& body) {
    bool done = false;
    auto wrapper = [](sim::Simulation& s, F b, bool& flag) -> sim::Task<void> {
      co_await b();
      flag = true;
      s.stop();
    };
    sim.spawn(wrapper(sim, std::forward<F>(body), done));
    sim.run();
    if (!done) {
      std::fprintf(stderr, "bench body did not complete\n");
      std::abort();
    }
  }
};

// ---- wall-clock measurement (bench trajectory, docs/PERFORMANCE.md) ----
//
// Real (host) time spent executing the simulation — the "how fast does the
// simulator itself run" axis tracked in BENCH_micro.json. Contract: run all
// warm-up work (populating tiers, first-touch allocations, arena fill)
// BEFORE start(), so warm-up never counts against the measured wall-clock;
// folding it in understates steady-state throughput on short runs. Host
// time never feeds back into simulated behavior, so reading it here is
// determinism-safe (and bench/ is outside the lint's sim-reachable set).
class WallTimer {
 public:
  void start() { begin_ = std::chrono::steady_clock::now(); }
  double elapsed_us() const {
    return std::chrono::duration<double, std::micro>(
               std::chrono::steady_clock::now() - begin_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point begin_{};
};

// ---- output helpers ----

inline void print_header(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Per-figure registry snapshot (docs/OBSERVABILITY.md): every bench reports
// its counters through Registry::render_text, so all figures share one
// metric vocabulary instead of ad-hoc printf fields. `prefixes` filters to
// the families a figure cares about ("tiera_", "wiera_client_", ...); empty
// prints everything. WIERA_BENCH_METRICS=0 silences the snapshots.
inline void print_metrics(sim::Simulation& sim, const std::string& title,
                          std::initializer_list<const char*> prefixes = {}) {
  const char* env = std::getenv("WIERA_BENCH_METRICS");
  if (env != nullptr && std::strcmp(env, "0") == 0) return;
  std::printf("\n--- metrics: %s ---\n", title.c_str());
  const std::string text = sim.telemetry().registry().render_text();
  size_t pos = 0;
  while (pos < text.size()) {
    size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) eol = text.size();
    const std::string_view line(text.data() + pos, eol - pos);
    pos = eol + 1;
    // "# TYPE <name> <kind>" headers carry the family name at offset 7.
    const std::string_view probe =
        line.rfind("# TYPE ", 0) == 0 ? line.substr(7) : line;
    bool keep = prefixes.size() == 0;
    for (const char* prefix : prefixes) {
      if (probe.rfind(prefix, 0) == 0) keep = true;
    }
    if (keep) std::printf("%.*s\n", static_cast<int>(line.size()),
                          line.data());
  }
}

inline void print_row(const std::vector<std::string>& cells, int width = 14) {
  for (const auto& cell : cells) std::printf("%-*s", width, cell.c_str());
  std::printf("\n");
}

inline std::string fmt_ms(Duration d) { return str_format("%.2f", d.ms()); }
inline std::string fmt_pct(double f) { return str_format("%.0f%%", f * 100); }

}  // namespace wiera::bench
