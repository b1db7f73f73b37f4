// Google-benchmark micro-benchmarks for the substrates: DES kernel event
// throughput, task fan-out, RNG/zipfian generation, wire serialization,
// policy parsing/evaluation, lock-service cycles, storage-tier ops, sampler
// scrapes — plus a host-speed calibration loop the regression gate divides
// by. End-to-end numbers live in perfbench/ (perfbench/run.py).
//
// Custom driver (replaces BENCHMARK_MAIN):
//   micro_bench [--quick] [--json PATH] [gbench flags...]
// --quick caps per-benchmark measuring time (CI gate); --json writes the
// machine-readable trajectory file (BENCH_micro.json schema, compared by
// scripts/bench_check.sh — see docs/PERFORMANCE.md).
#include <benchmark/benchmark.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "coord/lock_service.h"
#include "obs/sampler.h"
#include "policy/builtin_policies.h"
#include "policy/eval.h"
#include "policy/parser.h"
#include "rpc/wire.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "store/tier.h"
#include "wiera/messages.h"
#include "ycsb/ycsb.h"

namespace wiera {
namespace {

// ------------------------------------------------------------ calibration

// Host-speed yardstick for the regression gate (scripts/bench_check.sh):
// a fixed mix of what the gated micros spend their time on — a heap-sized
// string build, a byte-wise hash, and a small ordered-map lookup. Each
// micro is gated on its ops/s divided by this loop's ops/s from the same
// process, so a uniformly faster or slower host cancels out.
constexpr char kCalibration[] = "BM_Calibration";

void BM_Calibration(benchmark::State& state) {
  std::map<std::string, int> table;
  for (int i = 0; i < 16; ++i) {
    table.emplace("calibration-key-" + std::to_string(i), i);
  }
  uint64_t i = 0;
  for (auto _ : state) {
    const std::string key = "calibration-key-" + std::to_string(i++ % 16);
    uint64_t h = 1469598103934665603ull;
    for (unsigned char c : key) {
      h ^= c;
      h *= 1099511628211ull;
    }
    auto it = table.find(key);
    benchmark::DoNotOptimize(h + static_cast<uint64_t>(it->second));
  }
}
BENCHMARK(BM_Calibration);

// ------------------------------------------------------------ sim kernel

sim::Task<void> tick_loop(sim::Simulation& sim, int64_t n) {
  for (int64_t i = 0; i < n; ++i) {
    co_await sim.delay(usec(1));
  }
}

void BM_SimDelayEvents(benchmark::State& state) {
  for (auto _ : state) {
    sim::Simulation sim;
    sim.spawn(tick_loop(sim, state.range(0)));
    sim.run();
    benchmark::DoNotOptimize(sim.events_executed());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimDelayEvents)->Arg(1000)->Arg(10000);

sim::Task<int> small_task(sim::Simulation& sim) {
  co_await sim.delay(usec(1));
  co_return 1;
}

void BM_WhenAllFanout(benchmark::State& state) {
  const int width = static_cast<int>(state.range(0));
  for (auto _ : state) {
    sim::Simulation sim;
    int total = 0;
    auto driver = [](sim::Simulation& s, int n, int& out) -> sim::Task<void> {
      std::vector<sim::Task<int>> tasks;
      tasks.reserve(static_cast<size_t>(n));
      for (int i = 0; i < n; ++i) tasks.push_back(small_task(s));
      auto results = co_await sim::when_all(s, std::move(tasks));
      for (int v : results) out += v;
    };
    sim.spawn(driver(sim, width, total));
    sim.run();
    benchmark::DoNotOptimize(total);
  }
  state.SetItemsProcessed(state.iterations() * width);
}
BENCHMARK(BM_WhenAllFanout)->Arg(8)->Arg(64)->Arg(512);

// ------------------------------------------------------------ rng / ycsb

void BM_RngNextU64(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(rng.next_u64());
}
BENCHMARK(BM_RngNextU64);

void BM_ZipfianNext(benchmark::State& state) {
  ycsb::ZipfianGenerator gen(static_cast<uint64_t>(state.range(0)));
  Rng rng(1);
  for (auto _ : state) benchmark::DoNotOptimize(gen.next(rng));
}
BENCHMARK(BM_ZipfianNext)->Arg(1000)->Arg(1000000);

void BM_WorkloadGeneratorNext(benchmark::State& state) {
  auto spec = ycsb::WorkloadSpec::a();
  spec.record_count = 100000;
  ycsb::WorkloadGenerator gen(spec, 7);
  for (auto _ : state) {
    auto op = gen.next();
    benchmark::DoNotOptimize(op.key.size());
  }
}
BENCHMARK(BM_WorkloadGeneratorNext);

// ------------------------------------------------------------ wire format

// The RPC hot path as rpc::Endpoint actually runs it: encode into a
// segmented BodyView (payload appended as a shared segment, no memcpy) and
// decode a Blob that aliases the body's storage. Per-iteration cost is
// header scratch + refcount traffic, independent of payload size.
void BM_WireRoundTrip(benchmark::State& state) {
  const Blob payload = Blob::zeros(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rpc::WireWriter w;
    w.put_string("some-object-key");
    w.put_i64(42);
    w.put_blob(payload);
    rpc::Message msg{w.take_body()};
    rpc::WireReader r(msg.body);
    benchmark::DoNotOptimize(r.get_string());
    benchmark::DoNotOptimize(r.get_i64());
    benchmark::DoNotOptimize(r.get_blob().size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireRoundTrip)->Arg(128)->Arg(4096)->Arg(65536);

// The pre-zero-copy path kept for comparison: flatten the body into one
// contiguous byte vector and copy the payload back out on decode. The gap
// between this and BM_WireRoundTrip is the copy cost the BodyView design
// removes (docs/PERFORMANCE.md).
void BM_WireRoundTripFlat(benchmark::State& state) {
  const Blob payload = Blob::zeros(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    rpc::WireWriter w;
    w.put_string("some-object-key");
    w.put_i64(42);
    w.put_blob(payload);
    Bytes data = w.take();
    rpc::WireReader r(data);
    benchmark::DoNotOptimize(r.get_string());
    benchmark::DoNotOptimize(r.get_i64());
    benchmark::DoNotOptimize(r.get_blob().size());
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_WireRoundTripFlat)->Arg(128)->Arg(4096)->Arg(65536);

// Replication fan-out: one payload encoded and decoded once per replica
// target. With shared segments all four decoded blobs alias the same
// storage — the payload is never duplicated per target.
void BM_ReplicateFanout(benchmark::State& state) {
  geo::ReplicateRequest req;
  req.key = "some-object-key";
  req.version = 3;
  req.value = Blob::zeros(static_cast<size_t>(state.range(0)));
  req.origin = "tiera-us-east";
  constexpr int kTargets = 4;
  for (auto _ : state) {
    size_t total = 0;
    for (int t = 0; t < kTargets; ++t) {
      rpc::Message msg = geo::encode(req);
      auto decoded = geo::decode_replicate_request(msg);
      total += decoded.value().value.size();
    }
    benchmark::DoNotOptimize(total);
  }
  state.SetBytesProcessed(state.iterations() * state.range(0) * kTargets);
}
BENCHMARK(BM_ReplicateFanout)->Arg(4096)->Arg(65536);

// ------------------------------------------------------------ policy

void BM_PolicyParse(benchmark::State& state) {
  const std::string_view src = policy::builtin::multi_primaries_consistency();
  for (auto _ : state) {
    auto doc = policy::parse_policy(src);
    benchmark::DoNotOptimize(doc.ok());
  }
}
BENCHMARK(BM_PolicyParse);

void BM_PolicyEvaluateCondition(benchmark::State& state) {
  using namespace policy;
  auto expr = make_binary(
      BinaryOp::kAnd,
      make_binary(BinaryOp::kGt, make_path({"threshold", "latency"}),
                  make_literal(Value::duration_of(msec(800)))),
      make_binary(BinaryOp::kGt, make_path({"threshold", "period"}),
                  make_literal(Value::duration_of(sec(30)))));
  MapContext ctx;
  ctx.set("threshold.latency", Value::duration_of(msec(900)));
  ctx.set("threshold.period", Value::duration_of(sec(45)));
  for (auto _ : state) {
    auto v = evaluate_condition(*expr, ctx);
    benchmark::DoNotOptimize(v.ok());
  }
}
BENCHMARK(BM_PolicyEvaluateCondition);

// ------------------------------------------------------------ lock service

void BM_LockAcquireReleaseCycle(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    net::Topology topo;
    topo.add_datacenter("dc", net::Provider::kAws, "us-east");
    topo.set_jitter_fraction(0);
    topo.add_node("zk", "dc");
    topo.add_node("client", "dc");
    net::Network network(sim, std::move(topo));
    rpc::Registry registry;
    rpc::Endpoint zk_ep(network, registry, "zk");
    coord::LockService service(sim, zk_ep);
    rpc::Endpoint client_ep(network, registry, "client");
    coord::LockClient client(client_ep, "zk");
    state.ResumeTiming();

    auto body = [](coord::LockClient c, int64_t n) -> sim::Task<void> {
      for (int64_t i = 0; i < n; ++i) {
        co_await c.acquire("k");
        co_await c.release("k");
      }
    };
    sim.spawn(body(client, state.range(0)));
    sim.run();
    benchmark::DoNotOptimize(service.acquires_served());
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LockAcquireReleaseCycle)->Arg(100);

// ------------------------------------------------------------ storage tiers

void BM_MemoryTierPutGet(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    sim::Simulation sim;
    store::TierSpec spec;
    spec.name = "mem";
    spec.kind = store::TierKind::kMemory;
    spec.capacity_bytes = 1 * GiB;
    spec.jitter_fraction = 0;
    auto tier = store::make_tier(sim, spec);
    state.ResumeTiming();

    auto body = [](store::StorageTier* t, int64_t n) -> sim::Task<void> {
      for (int64_t i = 0; i < n; ++i) {
        co_await t->put("k" + std::to_string(i % 32), Blob::zeros(4096), {});
        auto r = co_await t->get("k" + std::to_string(i % 32), {});
        (void)r;
      }
    };
    sim.spawn(body(tier.get(), state.range(0)));
    sim.run();
    benchmark::DoNotOptimize(tier->stats().gets);
  }
  state.SetItemsProcessed(state.iterations() * state.range(0) * 2);
}
BENCHMARK(BM_MemoryTierPutGet)->Arg(256);

// ------------------------------------------------------------ obs sampler

// Pure scrape cost: one Sampler pass over a registry with `range` counter
// and histogram families (the per-tick work an armed ObsPipeline adds).
void BM_SamplerScrape(benchmark::State& state) {
  obs::Registry reg;
  const int families = static_cast<int>(state.range(0));
  std::vector<obs::Counter*> counters;
  for (int i = 0; i < families; ++i) {
    counters.push_back(reg.counter("bench_c" + std::to_string(i) + "_total",
                                   {{"instance", "NYC"}}));
    reg.histogram("bench_h" + std::to_string(i) + "_us")->record(msec(i + 1));
  }
  obs::Sampler sampler;
  int64_t t_us = 0;
  for (auto _ : state) {
    for (auto* c : counters) c->inc();
    t_us += 10'000;
    sampler.scrape(reg, TimePoint(t_us));
    benchmark::DoNotOptimize(sampler.scrapes());
  }
  state.SetItemsProcessed(state.iterations() * families);
}
BENCHMARK(BM_SamplerScrape)->Arg(16)->Arg(128);

// ------------------------------------------------- trajectory driver

// Console output as usual, plus a machine-readable record of every run
// (per-iteration time and throughput) for BENCH_micro.json.
class RecordingReporter : public benchmark::ConsoleReporter {
 public:
  struct Row {
    std::string name;
    double ns_per_iter = 0;
    double ops_per_sec = 0;
    double bytes_per_sec = 0;
  };
  std::vector<Row> rows;

  bool ReportContext(const Context& context) override {
    return ConsoleReporter::ReportContext(context);
  }
  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      Row r;
      r.name = run.benchmark_name();
      const double secs = run.real_accumulated_time;
      const double iters = static_cast<double>(run.iterations);
      if (secs > 0 && iters > 0) {
        r.ns_per_iter = secs * 1e9 / iters;
        r.ops_per_sec = iters / secs;
      }
      // SetItemsProcessed/SetBytesProcessed land in user counters; prefer
      // items/sec as the benchmark's own throughput notion when present.
      auto it = run.counters.find("items_per_second");
      if (it != run.counters.end()) r.ops_per_sec = it->second.value;
      auto bt = run.counters.find("bytes_per_second");
      if (bt != run.counters.end()) r.bytes_per_sec = bt->second.value;
      rows.push_back(std::move(r));
    }
    ConsoleReporter::ReportRuns(reports);
  }
};

void write_json(const std::string& path, bool quick,
                const std::vector<RecordingReporter::Row>& rows) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::abort();
  }
  double calibration = 0;
  for (const auto& r : rows) {
    if (r.name == kCalibration) calibration = r.ops_per_sec;
  }
  std::fprintf(f, "{\n  \"schema\": \"wiera-bench-micro/2\",\n");
  std::fprintf(f, "  \"mode\": \"%s\",\n", quick ? "quick" : "full");
  std::fprintf(f, "  \"calibration\": \"%s\",\n", kCalibration);
  std::fprintf(f, "  \"micro\": [\n");
  for (size_t i = 0; i < rows.size(); ++i) {
    const auto& r = rows[i];
    // `relative` (ops/s over the calibration's ops/s) is what the gate
    // compares; the absolute numbers are a record of this host only.
    const double relative = calibration > 0 ? r.ops_per_sec / calibration : 0;
    std::fprintf(f,
                 "    {\"name\": \"%s\", \"ns_per_iter\": %.2f, "
                 "\"ops_per_sec\": %.2f, \"bytes_per_sec\": %.2f, "
                 "\"relative\": %.6g}%s\n",
                 r.name.c_str(), r.ns_per_iter, r.ops_per_sec,
                 r.bytes_per_sec, relative, i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

}  // namespace
}  // namespace wiera

int main(int argc, char** argv) {
  bool quick = false;
  std::string json_path;
  std::vector<char*> gb_args;
  gb_args.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) {
      quick = true;
    } else if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      gb_args.push_back(argv[i]);
    }
  }
  static char min_time_flag[] = "--benchmark_min_time=0.05";
  if (quick) gb_args.push_back(min_time_flag);
  int gb_argc = static_cast<int>(gb_args.size());
  benchmark::Initialize(&gb_argc, gb_args.data());
  if (benchmark::ReportUnrecognizedArguments(gb_argc, gb_args.data())) {
    return 1;
  }

  wiera::RecordingReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);

  if (!json_path.empty()) {
    wiera::write_json(json_path, quick, reporter.rows);
    std::printf("wrote %s\n", json_path.c_str());
  }
  benchmark::Shutdown();
  return 0;
}
