// wiera_bench: end-to-end benchmark of one Wiera instance.
//
// Runs one workload -- a consistency mode plus a traffic mix, see kWorkloads
// -- on the paper's four-region deployment and prints one JSON line of
// results as the last line of stdout. A run repeats identical rounds (same
// seed, same simulated length) until --seconds of wall time have passed.
// Host-time metrics are medians over all rounds; simulated metrics come from
// the first round, which every later round must reproduce exactly (same
// determinism trace hash). README.md in this directory lists
// the workloads, the metrics and the layer each one belongs to.
//
//   wiera_bench --workload NAME --seed N --seconds S --trace 0|1
//               [--scale F] [--min-rounds N] [--spans PATH]
//
// --trace 0 prints the end-to-end metrics. --trace 1 prints the per-layer
// metrics: counters read from the program's registry and network, the
// critical-path split of every client call over the program's own spans,
// and isolated unit costs of each layer's public functions.
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <queue>
#include <set>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/checksum.h"
#include "common/units.h"
#include "coord/lock_service.h"
#include "harness.h"
#include "sim/obs_pipeline.h"
#include "store/tier.h"
#include "wiera/messages.h"
#include "ycsb/ycsb.h"

namespace wiera::perf {
namespace {

using geo::ConsistencyMode;
using HostClock = std::chrono::steady_clock;

double seconds_since(HostClock::time_point t0) {
  return std::chrono::duration<double>(HostClock::now() - t0).count();
}

// Host-speed probe. The benchmark host's speed drifts by tens of percent
// within seconds when neighbouring tenants load the machine, and raw wall
// times inherit that drift. Short slices of fixed work that does not use
// the code under test run between simulation steps; a phase's host time is
// its wall time minus the slices, scaled by (reference slice time / mean
// slice time during that phase) raised to the workload's host elasticity
// (Workload::host_elasticity). Each slice mixes the two kinds of work the
// simulator's host time goes to: event-queue bookkeeping with small
// allocations (about three quarters of a slice), and byte hashing. Times are
// reported at the reference speed.
class SpeedProbe {
 public:
  // Mean slice time on the machine the reference results were taken on.
  static constexpr double kReferenceSliceS = 1.0e-3;

  // Fills every table to its steady-state size, so the probe's memory does
  // not grow while a round runs.
  SpeedProbe() : buffer_(MiB) {
    for (size_t i = 0; i < buffer_.size(); ++i) {
      buffer_[i] = static_cast<uint8_t>(i * 131);
    }
    for (uint64_t i = 0; i < kRetired; ++i) {
      retired_[i] = std::make_shared<std::string>(164, 'x');
    }
    for (uint64_t i = 0; i < kTable; ++i) table_[i].assign(44, 'x');
    while (events_.size() < kEvents) slice();
  }
  SpeedProbe(const SpeedProbe&) = delete;
  SpeedProbe& operator=(const SpeedProbe&) = delete;

  double slice() {
    const auto t0 = HostClock::now();
    for (int i = 0; i < 600; ++i) {
      x_ ^= x_ << 13;
      x_ ^= x_ >> 7;
      x_ ^= x_ << 17;
      events_.emplace(now_ + x_ % 5000,
                      std::make_shared<std::string>(64 + x_ % 200, 'x'));
      if (events_.size() > kEvents) {
        now_ = events_.top().first;
        retired_[x_ % kRetired] = events_.top().second;
        events_.pop();
      }
      table_[x_ % kTable].assign(24 + x_ % 40,
                                 static_cast<char>('a' + x_ % 26));
      sink_ = sink_ + fnv1a64(buffer_.data() + x_ % (buffer_.size() - 256),
                              256);
    }
    return seconds_since(t0);
  }

 private:
  static constexpr size_t kEvents = 20000;
  static constexpr uint64_t kRetired = 100003;
  static constexpr uint64_t kTable = 50021;
  using Event = std::pair<uint64_t, std::shared_ptr<std::string>>;
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.first > b.first;
    }
  };

  std::vector<uint8_t> buffer_;
  std::priority_queue<Event, std::vector<Event>, Later> events_;
  std::unordered_map<uint64_t, std::shared_ptr<std::string>> retired_;
  std::unordered_map<uint64_t, std::string> table_;
  uint64_t now_ = 0;
  uint64_t x_ = 88172645463325252ull;
  volatile uint64_t sink_ = 0;  // keeps the hashing from being optimized out
};

// Host time of one phase at the probe's reference speed. tick() between
// simulation steps runs a probe slice once 6 ms have passed since the last.
class HostTimer {
 public:
  HostTimer(SpeedProbe& probe, double elasticity)
      : probe_(&probe),
        elasticity_(elasticity),
        start_(HostClock::now()),
        last_(start_) {}

  void tick() {
    if (HostClock::now() - last_ >= std::chrono::milliseconds(6)) sample();
  }

  double wall_s() const { return seconds_since(start_); }

  double scaled_s() {
    if (slices_ == 0) sample();
    const double work = wall_s() - probe_s_;
    return work * std::pow(SpeedProbe::kReferenceSliceS /
                               (probe_s_ / static_cast<double>(slices_)),
                           elasticity_);
  }

 private:
  void sample() {
    probe_s_ += probe_->slice();
    slices_++;
    last_ = HostClock::now();
  }

  SpeedProbe* probe_;
  double elasticity_;
  HostClock::time_point start_;
  HostClock::time_point last_;
  double probe_s_ = 0;
  int64_t slices_ = 0;
};

// ------------------------------------------------------------ workloads

struct Workload {
  std::string_view name;
  ConsistencyMode mode;
  int loops_per_client;     // closed loop: concurrent callers per client
  double arrivals_per_sec;  // open loop (loops_per_client == 0), all clients
  double read_fraction;
  int64_t records;
  int64_t value_size;
  double sim_seconds;  // measured window of one round, simulated
  Duration put_limit;  // latency limits for slo_frac, simulated
  Duration get_limit;
  // PersistentInstance (write-through to disk) with a 1 MiB memory tier
  // instead of the LowLatencyInstance write-back pair.
  bool persistent_tiers;
  // How far this workload's host time moves, in log terms, per unit move of
  // the speed probe's slice time when neighbours load the host: fitted over
  // about 100 rounds per workload on the reference host (README.md, "Host
  // noise"). Event-bound workloads slow down more than the probe,
  // hashing-bound ones less.
  double host_elasticity;
};

// Each workload puts its cost on a different layer (README.md, "Workloads").
constexpr Workload kWorkloads[] = {
    // Global lock + synchronous broadcast; the write-back timer scans 10k
    // dirty objects.
    {"mp_hot_1k", ConsistencyMode::kMultiPrimaries, 8, 0, 0.50, 10000, KiB,
     120, msec(800), msec(10), false, 1.4},
    // Small messages: per-event cost of sim/rpc/net/obs dominates, and the
    // async replication queue grows for the whole run.
    {"ev_small_256", ConsistencyMode::kEventual, 4, 0, 0.95, 5000, 256, 5,
     msec(10), msec(10), false, 1.6},
    // Bytes dominate: 64 KiB checksums and NIC serialization.
    {"pbsync_large_64k", ConsistencyMode::kPrimaryBackupSync, 4, 0, 0.50, 500,
     64 * KiB, 20, msec(400), msec(150), false, 0.6},
    // Working set (5 MiB per replica) larger than the memory tier; open loop
    // below replication capacity, so the queue stays flat.
    {"pbasync_tiered_open", ConsistencyMode::kPrimaryBackupAsync, 0, 10, 0.50,
     20000, 256, 4000, msec(200), msec(150), true, 1.6},
};

std::string_view global_policy(ConsistencyMode mode) {
  switch (mode) {
    case ConsistencyMode::kMultiPrimaries:
      return policy::builtin::multi_primaries_consistency();
    case ConsistencyMode::kEventual:
      return policy::builtin::eventual_consistency();
    case ConsistencyMode::kPrimaryBackupSync:
    case ConsistencyMode::kPrimaryBackupAsync:
      return policy::builtin::primary_backup_consistency();
  }
  return {};
}

// The call sequence of one caller. Read and write shares are exact in every
// block of 20 calls (positions shuffled), so a short window does not drift
// from the nominal mix with the seed.
class MixStream {
 public:
  MixStream(uint64_t seed, double read_fraction)
      : rng_(seed),
        reads_(static_cast<int>(std::lround(read_fraction * kBlock))) {}

  Rng& rng() { return rng_; }

  bool next_is_get() {
    if (pos_ == kBlock) {
      for (int i = 0; i < kBlock; ++i) block_[i] = i < reads_;
      for (int i = kBlock - 1; i > 0; --i) {
        std::swap(block_[i], block_[rng_.uniform_int(0, i)]);
      }
      pos_ = 0;
    }
    return block_[pos_++];
  }

 private:
  static constexpr int kBlock = 20;
  Rng rng_;
  int reads_;
  std::array<bool, kBlock> block_{};
  int pos_ = kBlock;
};

// ------------------------------------------------------------ statistics

double percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t idx = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, idx == 0 ? 0 : idx - 1)];
}

double mean(const std::vector<double>& v) {
  double sum = 0;
  for (double x : v) sum += x;
  return v.empty() ? 0 : sum / static_cast<double>(v.size());
}

double median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ------------------------------------------------------------ trace folding

// Layers a client call's simulated latency splits into, by span name. The
// lock service's RPCs carry no trace context, so the global lock's round
// trip and queueing show up as the put handler's own (wiera) time.
enum Layer { kClient, kNet, kWiera, kTiera, kLayerCount };
constexpr const char* kLayerNames[kLayerCount] = {"client", "net", "wiera",
                                                  "tiera"};

Layer layer_of(const std::string& span_name) {
  auto starts = [&](std::string_view p) { return span_name.rfind(p, 0) == 0; };
  if (starts("client.")) return kClient;
  if (starts("rpc.call ")) return kNet;  // request + response on the wire
  if (starts("tiera.")) return kTiera;
  return kWiera;  // peer handlers, lock waits, forwarding, replication
}

struct OpRecord {
  uint64_t root_span = 0;  // id of the client.* span the call opened
  TimePoint start;
  TimePoint end;
  bool put = false;
  bool ok = false;
  int client = 0;
  std::string key;
};

// Critical-path distributions and layer totals over the traced round.
struct TraceStats {
  int64_t ops = 0;
  int64_t covered = 0;  // layer self times sum to the call's latency (1%)
  std::array<double, kLayerCount> layer_us{};
  double latency_us = 0;
  std::vector<double> client_rpc_ms, handler_self_ms, replicate_ms,
      tiera_put_ms, tiera_get_ms;
};

// Folds the program's own spans (client.*, rpc.call/rpc.server, tiera.*,
// peer.replicate) into per-layer critical-path self times, before the
// tracer's bounded ring drops them. Each client call is also written as one
// JSON line (the benchmark's own span around the call) when a sink is set.
class TraceFolder {
 public:
  TraceFolder(const obs::Tracer& tracer, std::FILE* sink,
              const std::vector<std::string>* client_ids)
      : tracer_(&tracer), sink_(sink), client_ids_(client_ids) {}

  // Id the next span will get: every span is retained while telemetry is
  // enabled, so ids run 1..dropped+retained.
  uint64_t next_span_id() const { return retained_total() + 1; }

  void add(OpRecord op) {
    pending_.push_back(std::move(op));
    // Fold well before the 16384-span ring wraps past a pending call.
    if (retained_total() - folded_mark_ >= 4096) fold();
  }

  void fold() {
    std::unordered_map<uint64_t, size_t> want;  // trace id -> pending index
    for (size_t i = 0; i < pending_.size(); ++i) {
      const obs::Span* root = tracer_->find_span(pending_[i].root_span);
      if (root == nullptr || root->parent_span_id != 0 ||
          root->name.rfind("client.", 0) != 0) {
        stats_.ops++;  // lost: counted as not covered
        continue;
      }
      want.emplace(root->trace_id, i);
    }
    std::unordered_map<uint64_t, std::vector<const obs::Span*>> spans;
    tracer_->for_each_span([&](const obs::Span& s) {
      if (want.count(s.trace_id) > 0) spans[s.trace_id].push_back(&s);
    });
    for (const auto& [trace_id, idx] : want) {
      analyze(pending_[idx], trace_id, spans[trace_id]);
    }
    pending_.clear();
    folded_mark_ = retained_total();
  }

  const TraceStats& stats() const { return stats_; }

 private:
  uint64_t retained_total() const {
    return static_cast<uint64_t>(tracer_->dropped()) + tracer_->span_count();
  }

  struct Walk {
    std::unordered_map<uint64_t, std::vector<const obs::Span*>> children;
    std::unordered_map<uint64_t, int64_t> self_us;
    std::array<int64_t, kLayerCount> layer_us{};
  };

  // Critical-path self time: walk back from `hi`, descending into the child
  // that finished last before the current point; the gaps between those
  // children are the span's own time.
  static void walk(Walk& w, const obs::Span* span, TimePoint hi) {
    TimePoint t = span->open() ? hi : std::min(hi, span->end);
    int64_t self = 0;
    auto it = w.children.find(span->span_id);
    if (it != w.children.end()) {
      for (const obs::Span* kid : it->second) {  // sorted by end, latest first
        if (kid->start >= t) continue;
        const TimePoint kid_end = kid->open() ? t : std::min(kid->end, t);
        self += (t - kid_end).us();
        walk(w, kid, kid_end);
        t = kid->start;
        if (t <= span->start) break;
      }
    }
    if (t > span->start) self += (t - span->start).us();
    w.self_us[span->span_id] += self;
    w.layer_us[layer_of(span->name)] += self;
  }

  void analyze(const OpRecord& op, uint64_t trace_id,
               const std::vector<const obs::Span*>& spans) {
    Walk w;
    const obs::Span* root = nullptr;
    for (const obs::Span* s : spans) {
      if (s->span_id == op.root_span) root = s;
      if (s->parent_span_id != 0) w.children[s->parent_span_id].push_back(s);
    }
    for (auto& [parent, kids] : w.children) {
      std::sort(kids.begin(), kids.end(),
                [](const obs::Span* a, const obs::Span* b) {
                  if (a->end != b->end) return a->end > b->end;
                  return a->span_id > b->span_id;
                });
    }
    walk(w, root, op.end);

    const int64_t latency = (op.end - op.start).us();
    int64_t sum = 0;
    for (int l = 0; l < kLayerCount; ++l) {
      sum += w.layer_us[l];
      stats_.layer_us[l] += static_cast<double>(w.layer_us[l]);
    }
    stats_.latency_us += static_cast<double>(latency);
    stats_.ops++;
    if (std::llabs(sum - latency) <= latency / 100) stats_.covered++;

    auto ms = [](int64_t us) { return static_cast<double>(us) / 1e3; };
    const obs::Span* last_replicate = nullptr;
    for (const obs::Span* s : spans) {
      if (s->open()) continue;
      const std::string& n = s->name;
      if (n.rfind("rpc.call peer.client_", 0) == 0) {
        stats_.client_rpc_ms.push_back(ms(w.self_us[s->span_id]));
      } else if (n.rfind("rpc.server peer.client_", 0) == 0) {
        stats_.handler_self_ms.push_back(ms(w.self_us[s->span_id]));
      } else if (n.rfind("peer.replicate ", 0) == 0) {
        if (last_replicate == nullptr || s->end > last_replicate->end) {
          last_replicate = s;
        }
      } else if (n == "tiera.put") {
        stats_.tiera_put_ms.push_back(ms(s->duration().us()));
      } else if (n == "tiera.get") {
        stats_.tiera_get_ms.push_back(ms(s->duration().us()));
      }
    }
    if (last_replicate != nullptr) {
      stats_.replicate_ms.push_back(ms(last_replicate->duration().us()));
    }

    if (sink_ != nullptr) {
      std::fprintf(sink_,
                   "{\"span\":\"bench.%s\",\"client\":\"%s\",\"key\":\"%s\","
                   "\"start_us\":%" PRId64 ",\"end_us\":%" PRId64
                   ",\"ok\":%s,\"trace_id\":\"%016" PRIx64 "\",\"self_us\":{",
                   op.put ? "put" : "get",
                   (*client_ids_)[static_cast<size_t>(op.client)].c_str(),
                   op.key.c_str(), op.start.us(), op.end.us(),
                   op.ok ? "true" : "false", trace_id);
      for (int l = 0; l < kLayerCount; ++l) {
        std::fprintf(sink_, "%s\"%s\":%" PRId64, l == 0 ? "" : ",",
                     kLayerNames[l], w.layer_us[l]);
      }
      std::fprintf(sink_, "}}\n");
    }
  }

  const obs::Tracer* tracer_;
  std::FILE* sink_;
  const std::vector<std::string>* client_ids_;
  std::vector<OpRecord> pending_;
  uint64_t folded_mark_ = 0;
  TraceStats stats_;
};

// ------------------------------------------------------------ one round

struct RoundOptions {
  bool check = false;      // drain after the window and check convergence
  bool traced = false;     // fold spans per call (TraceFolder)
  bool telemetry = true;   // obs::Telemetry enabled (the program's default)
  bool sampler = false;    // sim::ObsPipeline armed, 10 ms scrapes
  std::FILE* span_sink = nullptr;
};

struct RoundResult {
  double setup_s = 0;
  double setup_wall_s = 0;
  double window_s = 0;  // at the probe's reference speed, like setup_s
  double window_wall_s = 0;
  double sim_s = 0;
  uint64_t trace_hash = 0;
  int64_t attempted = 0;  // calls that finished inside the window
  int64_t failed = 0;     // of those, not OK
  int64_t puts = 0, gets = 0, puts_ok = 0, gets_ok = 0;
  int64_t slo_met = 0, stale_gets = 0, lock_failures = 0;
  std::vector<double> put_ms, get_ms;
  // Counter deltas over the window.
  int64_t events = 0, rpc_calls = 0, messages = 0, bytes = 0, egress = 0;
  int64_t lock_acquires = 0, repl_sends = 0, spans = 0;
  int64_t tier_ops = 0, tier_gets = 0, mem_tier_gets = 0, evictions = 0;
  int64_t queue_max = 0, queue_end = 0;
  double space_amp = 0, versions_per_key = 0;
  std::vector<std::string> errors;
  TraceStats trace;
};

// Per-key history of acknowledged writes: what a read may return and what
// the replicas must converge on.
struct KeyState {
  int64_t max_version = 0;
  std::vector<std::pair<int64_t, uint64_t>> acked;  // (version, writer tag)
};

class Round {
 public:
  Round(const Workload& w, uint64_t seed, double scale, RoundOptions opt,
        SpeedProbe& probe)
      : w_(w), seed_(seed), scale_(scale), opt_(opt), probe_(&probe) {}

  RoundResult run() {
    setup();
    if (out_.errors.empty()) measure();
    if (out_.errors.empty()) finish_tail();
    if (opt_.check && out_.errors.empty()) check_convergence();
    return std::move(out_);
  }

 private:
  sim::Simulation& sim() { return cluster_->sim; }

  // Run the simulation to `t` in sub-steps of about 2 ms of host time, so
  // probe slices interleave finely with the work. Where a run stops does
  // not change the schedule; the benchmark only acts (spawns, checks a
  // condition) at fixed simulated times.
  void advance_to(TimePoint t) {
    while (sim().now() < t) {
      const auto t0 = HostClock::now();
      sim().run_until(std::min(t, sim().now() + substep_));
      const auto host = HostClock::now() - t0;
      if (host < std::chrono::microseconds(1000)) {
        substep_ = std::min(sec(1), substep_ * 2.0);
      } else if (host > std::chrono::microseconds(4000)) {
        substep_ = std::max(usec(1), substep_ / 2);
      }
      if (timer_ != nullptr) timer_->tick();
    }
  }

  // Step virtual time in 100 ms increments until pred() holds; false if
  // `budget` runs out first.
  template <typename Pred>
  bool step_until(Pred pred, Duration budget) {
    const TimePoint limit = sim().now() + budget;
    while (!pred()) {
      if (sim().now() >= limit) return false;
      advance_to(std::min(sim().now() + msec(100), limit));
    }
    return true;
  }

  int64_t queue_depth() {
    int64_t sum = 0;
    for (geo::WieraPeer* p : peers_) sum += p->queue_depth();
    return sum;
  }

  // Queue empty, then long enough for the last popped update's fan-out
  // (one flush tick plus the widest round trip) to land.
  bool drain(Duration budget) {
    if (!step_until([&] { return queue_depth() == 0; }, budget)) return false;
    advance_to(sim().now() + sec(3));
    return queue_depth() == 0;
  }

  void error(std::string msg) {
    if (out_.errors.size() < 8) out_.errors.push_back(std::move(msg));
  }

  // A failed call is counted, not a wrong output; the first few are logged.
  void note_failure(const std::string& msg, bool counted) {
    if (counted) out_.failed++;
    if (failures_seen_++ < 5) {
      std::fprintf(stderr, "wiera_bench: call failed: %s\n", msg.c_str());
    }
  }

  // Modes whose reads must see every write acknowledged before they began.
  bool strong() const {
    return w_.mode == ConsistencyMode::kMultiPrimaries ||
           w_.mode == ConsistencyMode::kPrimaryBackupSync;
  }

  // ---- setup: cluster, instance, clients, load, drain ----

  void setup() {
    HostTimer timer(*probe_, w_.host_elasticity);
    timer_ = &timer;
    setup_phases();
    timer_ = nullptr;
    out_.setup_s = timer.scaled_s();
    out_.setup_wall_s = timer.wall_s();
  }

  void setup_phases() {
    cluster_ = std::make_unique<bench::PaperCluster>(seed_);
    cluster_->sim.telemetry().set_enabled(opt_.telemetry);
    auto options = cluster_->options_for(global_policy(w_.mode));
    if (w_.persistent_tiers) {
      options.resolve_local = [](const std::string&) {
        return policy::parse_policy(policy::builtin::persistent_instance());
      };
      options.customize = [](geo::WieraPeer::Config& config) {
        config.local.tier_tweak = [](const std::string& label,
                                     store::TierSpec& spec) {
          if (label == "tier1") spec.capacity_bytes = MiB;
        };
      };
    }
    auto ids = cluster_->controller.start_instances("bench",
                                                     std::move(options));
    if (!ids.ok()) {
      error("start_instances: " + ids.status().to_string());
      return;
    }
    for (const std::string& id : *ids) {
      peers_.push_back(cluster_->controller.peer(id));
    }
    if (w_.mode == ConsistencyMode::kPrimaryBackupAsync) {
      bool done = false;
      sim().spawn(switch_mode(&done), "bench/switch-mode");
      if (!step_until([&] { return done; }, sec(60))) {
        error("change_consistency did not finish");
        return;
      }
    }
    for (const std::string& region : bench::paper_regions()) {
      client_ids_.push_back("app-" + region);
      clients_.push_back(std::make_unique<geo::WieraClient>(
          sim(), cluster_->network, cluster_->registry, client_ids_.back(),
          "client-" + region, *ids));
    }
    inflight_puts_.resize(clients_.size());
    zipf_ = std::make_unique<ycsb::ScrambledZipfianGenerator>(
        static_cast<uint64_t>(w_.records));
    if (opt_.sampler) {
      pipeline_ = std::make_unique<sim::ObsPipeline>(sim());
      sim::ObsPipeline::Config config;
      config.interval = msec(10);
      config.until = TimePoint::max();
      pipeline_->arm(config);
    }

    // Load: every record once, split over the clients, 4 writers each.
    constexpr int kLoaders = 4;
    const int n_clients = static_cast<int>(clients_.size());
    for (int c = 0; c < n_clients; ++c) {
      for (int l = 0; l < kLoaders; ++l) {
        std::vector<int64_t> key_ids;
        for (int64_t k = c * kLoaders + l; k < w_.records;
             k += n_clients * kLoaders) {
          key_ids.push_back(k);
        }
        active_++;
        sim().spawn(load_loop(c, std::move(key_ids)), "bench/load");
      }
    }
    if (!step_until([&] { return active_ == 0; }, sec(100000))) {
      error("load did not finish");
      return;
    }
    if (!drain(sec(100000))) {
      error("replication queue did not drain after load");
    }
  }

  sim::Task<void> switch_mode(bool* done) {
    Status st = co_await cluster_->controller.change_consistency(
        "bench", ConsistencyMode::kPrimaryBackupAsync);
    if (!st.ok()) error("change_consistency: " + st.to_string());
    *done = true;
  }

  sim::Task<void> load_loop(int c, std::vector<int64_t> key_ids) {
    for (int64_t id : key_ids) co_await put_op(c, id, false);
    active_--;
  }

  // ---- measured window ----

  struct Counters {
    int64_t events, rpc_calls, messages, bytes, egress, lock_acquires,
        repl_sends, spans, tier_ops, tier_gets, mem_tier_gets, evictions;
  };

  Counters read_counters() {
    Counters c{};
    const obs::Registry& reg = sim().telemetry().registry();
    const net::TrafficStats& traffic = cluster_->network.traffic();
    const obs::Tracer& tracer = sim().telemetry().tracer();
    c.events = static_cast<int64_t>(sim().events_executed());
    c.rpc_calls = reg.counter_sum("rpc_calls_sent_total");
    c.messages = traffic.total_messages;
    c.bytes = traffic.total_bytes;
    c.egress = traffic.cross_dc_bytes();
    c.lock_acquires = cluster_->controller.lock_service().acquires_served();
    c.repl_sends = reg.counter_sum("wiera_replications_sent_total");
    c.spans = tracer.dropped() + static_cast<int64_t>(tracer.span_count());
    for (geo::WieraPeer* p : peers_) {
      for (const std::string& label : p->local().tier_labels()) {
        store::StorageTier* tier = p->local().tier_by_label(label);
        const store::TierStats& s = tier->stats();
        c.tier_ops += s.puts + s.gets;
        c.tier_gets += s.gets;
        if (tier->spec().kind == store::TierKind::kMemory) {
          c.mem_tier_gets += s.gets;
        }
        c.evictions += s.evictions;
      }
    }
    return c;
  }

  void measure() {
    const Counters before = read_counters();
    if (opt_.traced) {
      folder_ = std::make_unique<TraceFolder>(sim().telemetry().tracer(),
                                              opt_.span_sink, &client_ids_);
    }
    const TimePoint start = sim().now();
    window_end_ = start + sec(w_.sim_seconds * scale_);
    measuring_ = true;
    Rng streams(seed_ ^ 0x5745495241424eull);  // workload streams, not sim's
    for (size_t c = 0; c < clients_.size(); ++c) {
      const int ci = static_cast<int>(c);
      if (w_.loops_per_client == 0) {
        active_++;
        sim().spawn(open_arrivals(ci, streams.next_u64()), "bench/arrivals");
      }
      for (int l = 0; l < w_.loops_per_client; ++l) {
        active_++;
        sim().spawn(closed_loop(ci, streams.next_u64()), "bench/loop");
      }
    }
    // The replication queue is sampled every simulated second.
    HostTimer timer(*probe_, w_.host_elasticity);
    timer_ = &timer;
    while (sim().now() < window_end_) {
      advance_to(std::min(sim().now() + sec(1), window_end_));
      const int64_t depth = queue_depth();
      out_.queue_max = std::max(out_.queue_max, depth);
      out_.queue_end = depth;
    }
    timer_ = nullptr;
    out_.window_s = timer.scaled_s();
    out_.window_wall_s = timer.wall_s();
    measuring_ = false;
    out_.sim_s = (sim().now() - start).seconds();
    out_.trace_hash = sim().checker().trace_hash();

    const Counters after = read_counters();
    out_.events = after.events - before.events;
    out_.rpc_calls = after.rpc_calls - before.rpc_calls;
    out_.messages = after.messages - before.messages;
    out_.bytes = after.bytes - before.bytes;
    out_.egress = after.egress - before.egress;
    out_.lock_acquires = after.lock_acquires - before.lock_acquires;
    out_.repl_sends = after.repl_sends - before.repl_sends;
    out_.spans = after.spans - before.spans;
    out_.tier_ops = after.tier_ops - before.tier_ops;
    out_.tier_gets = after.tier_gets - before.tier_gets;
    out_.mem_tier_gets = after.mem_tier_gets - before.mem_tier_gets;
    out_.evictions = after.evictions - before.evictions;

    int64_t used = 0, objects = 0, versions = 0;
    for (geo::WieraPeer* p : peers_) {
      for (const std::string& label : p->local().tier_labels()) {
        used += p->local().tier_by_label(label)->used_bytes();
      }
      objects += static_cast<int64_t>(p->local().meta().object_count());
      versions += p->local().meta().version_count();
    }
    out_.space_amp = ratio(static_cast<double>(used),
                           static_cast<double>(w_.records * w_.value_size *
                                               std::ssize(peers_)));
    out_.versions_per_key = ratio(static_cast<double>(versions),
                                  static_cast<double>(objects));
  }

  // Calls still in flight at the window's end complete (and are checked)
  // but do not count toward the window's metrics.
  void finish_tail() {
    if (!step_until([&] { return active_ == 0; }, sec(3600))) {
      error("calls still in flight an hour after the window");
    }
    if (folder_ != nullptr) {
      folder_->fold();
      out_.trace = folder_->stats();
    }
  }

  int64_t pick_key(int c, Rng& rng, bool is_put) {
    int64_t id = static_cast<int64_t>(zipf_->next(rng));
    // A peer cannot hold two global locks on one key: MultiPrimaries fails
    // the second concurrent put from the same peer with FAILED_PRECONDITION.
    // Callers of one client therefore never race on a key.
    if (is_put && w_.mode == ConsistencyMode::kMultiPrimaries) {
      while (inflight_puts_[static_cast<size_t>(c)].count(id) > 0) {
        id = static_cast<int64_t>(zipf_->next(rng));
      }
    }
    return id;
  }

  sim::Task<void> closed_loop(int c, uint64_t stream) {
    MixStream mix(stream, w_.read_fraction);
    while (sim().now() < window_end_) {
      const bool is_get = mix.next_is_get();
      const int64_t id = pick_key(c, mix.rng(), !is_get);
      if (is_get) {
        co_await get_op(c, id, false);
      } else {
        co_await put_op(c, id, false);
      }
    }
    active_--;
  }

  // Poisson arrivals; each call runs detached, so a slow call never delays
  // the next arrival.
  sim::Task<void> open_arrivals(int c, uint64_t stream) {
    MixStream mix(stream, w_.read_fraction);
    const double mean_gap_s =
        static_cast<double>(clients_.size()) / w_.arrivals_per_sec;
    while (true) {
      co_await sim().delay(sec(mix.rng().exponential(mean_gap_s)));
      if (sim().now() >= window_end_) break;
      const bool is_get = mix.next_is_get();
      const int64_t id = pick_key(c, mix.rng(), !is_get);
      active_++;
      if (is_get) {
        sim().spawn(get_op(c, id, true), "bench/get");
      } else {
        sim().spawn(put_op(c, id, true), "bench/put");
      }
    }
    active_--;
  }

  // Value layout: bytes 0-7 tag the key, bytes 8-15 the writer's sequence.
  Blob make_value(const std::string& key, uint64_t tag) const {
    Bytes bytes(static_cast<size_t>(w_.value_size), 0);
    const uint64_t key_tag = fnv1a64(key);
    std::memcpy(bytes.data(), &key_tag, 8);
    std::memcpy(bytes.data() + 8, &tag, 8);
    return Blob(std::move(bytes));
  }

  bool in_window(TimePoint end) const {
    return measuring_ && end <= window_end_;
  }

  sim::Task<void> put_op(int c, int64_t id, bool detached) {
    const std::string key = ycsb::WorkloadGenerator::key_name(id);
    const uint64_t tag =
        (static_cast<uint64_t>(c + 1) << 56) | ++writer_seq_[c & 3];
    auto& inflight = inflight_puts_[static_cast<size_t>(c)];
    inflight.insert(id);
    const uint64_t root = folder_ != nullptr ? folder_->next_span_id() : 0;
    const TimePoint start = sim().now();
    Result<geo::PutResponse> r =
        co_await clients_[static_cast<size_t>(c)]->put(key,
                                                        make_value(key, tag));
    const TimePoint end = sim().now();
    inflight.erase(id);
    const bool counted = in_window(end);
    if (counted) {
      out_.attempted++;
      out_.puts++;
    }
    if (!r.ok()) {
      note_failure("put " + key + ": " + r.status().to_string(), counted);
      if (counted && r.status().message().find("lock") != std::string::npos) {
        out_.lock_failures++;
      }
    } else {
      KeyState& ks = keys_[key];
      ks.acked.emplace_back(r->version, tag);
      ks.max_version = std::max(ks.max_version, r->version);
      if (counted) {
        out_.puts_ok++;
        const Duration lat = end - start;
        out_.put_ms.push_back(lat.ms());
        if (lat <= w_.put_limit) out_.slo_met++;
      }
    }
    if (folder_ != nullptr && counted) {
      folder_->add(OpRecord{root, start, end, true, r.ok(), c, key});
    }
    if (detached) active_--;
  }

  sim::Task<void> get_op(int c, int64_t id, bool detached) {
    const std::string key = ycsb::WorkloadGenerator::key_name(id);
    const int64_t newest_acked = keys_[key].max_version;
    const uint64_t root = folder_ != nullptr ? folder_->next_span_id() : 0;
    const TimePoint start = sim().now();
    Result<geo::GetResponse> r =
        co_await clients_[static_cast<size_t>(c)]->get(key);
    const TimePoint end = sim().now();
    const bool counted = in_window(end);
    if (counted) {
      out_.attempted++;
      out_.gets++;
    }
    if (!r.ok()) {
      note_failure("get " + key + ": " + r.status().to_string(), counted);
    } else {
      check_read(key, *r);
      if (r->version < newest_acked && strong()) {
        error("get " + key + " returned v" + std::to_string(r->version) +
              " after v" + std::to_string(newest_acked) + " was acknowledged");
      }
      if (counted) {
        out_.gets_ok++;
        const Duration lat = end - start;
        out_.get_ms.push_back(lat.ms());
        if (lat <= w_.get_limit) out_.slo_met++;
        if (r->version < newest_acked) out_.stale_gets++;
      }
    }
    if (folder_ != nullptr && counted) {
      folder_->add(OpRecord{root, start, end, false, r.ok(), c, key});
    }
    if (detached) active_--;
  }

  // Every value read back carries its key's tag; where one replica
  // allocates versions (all modes but Eventual), an acknowledged version
  // must also carry the tag of the write that was acknowledged with it.
  void check_read(const std::string& key, const geo::GetResponse& r) {
    const Blob& v = r.value;
    const uint64_t key_tag = fnv1a64(key);
    if (static_cast<int64_t>(v.size()) != w_.value_size ||
        std::memcmp(v.data(), &key_tag, 8) != 0) {
      error("get " + key + ": value does not carry the key's tag");
      return;
    }
    if (w_.mode == ConsistencyMode::kEventual) return;
    uint64_t tag = 0;
    std::memcpy(&tag, v.data() + 8, 8);
    const KeyState& ks = keys_[key];
    for (auto it = ks.acked.rbegin(); it != ks.acked.rend(); ++it) {
      if (it->first != r.version) continue;
      if (it->second != tag) {
        error("get " + key + " v" + std::to_string(r.version) +
              ": value is not the write acknowledged with that version");
      }
      return;
    }
  }

  // After the queues drain, every replica holds the newest acknowledged
  // version of every key, with the payload of a write acknowledged at it.
  void check_convergence() {
    if (!drain(sec(1000000))) {
      error("replication queue did not drain after the window");
      return;
    }
    for (const auto& [key, ks] : keys_) {
      if (ks.acked.empty()) continue;
      std::set<uint64_t> expected;
      for (const auto& [version, tag] : ks.acked) {
        if (version == ks.max_version) {
          expected.insert(object_checksum(key, version, make_value(key, tag)));
        }
      }
      for (geo::WieraPeer* p : peers_) {
        const metadb::ObjectMeta* obj = p->local().meta().find(key);
        const metadb::VersionMeta* vm =
            obj == nullptr ? nullptr : obj->latest_committed();
        if (vm == nullptr || vm->version != ks.max_version ||
            expected.count(vm->checksum) == 0) {
          error("replica " + p->id() + " did not converge on " + key +
                " v" + std::to_string(ks.max_version));
          return;
        }
      }
    }
  }

  const Workload& w_;
  uint64_t seed_;
  double scale_;
  RoundOptions opt_;
  SpeedProbe* probe_;
  HostTimer* timer_ = nullptr;  // set while setup or the window runs
  Duration substep_ = msec(1);
  RoundResult out_;

  // Declared before the clients: clients unregister their endpoints from
  // the cluster's registry when destroyed.
  std::unique_ptr<bench::PaperCluster> cluster_;
  std::unique_ptr<sim::ObsPipeline> pipeline_;
  std::vector<geo::WieraPeer*> peers_;
  std::vector<std::string> client_ids_;
  std::vector<std::unique_ptr<geo::WieraClient>> clients_;
  std::unique_ptr<ycsb::ScrambledZipfianGenerator> zipf_;
  std::unique_ptr<TraceFolder> folder_;
  std::unordered_map<std::string, KeyState> keys_;
  std::vector<std::set<int64_t>> inflight_puts_;
  uint64_t writer_seq_[4] = {0, 0, 0, 0};
  int64_t active_ = 0;
  int64_t failures_seen_ = 0;  // any call, load and tail included
  bool measuring_ = false;
  TimePoint window_end_;
};

// ------------------------------------------------------------ reports

// What one round (or the unit-cost loops) reports back: named values,
// failed checks, and the determinism hash at the end of the window.
struct Report {
  std::map<std::string, double> v;
  std::vector<std::string> errors;
  uint64_t trace_hash = 0;

  double at(const std::string& name) const {
    auto it = v.find(name);
    return it == v.end() ? 0 : it->second;
  }
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

double current_rss_mb() {
  long pages = 0;
  if (std::FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%*s %ld", &pages) != 1) pages = 0;
    std::fclose(f);
  }
  return static_cast<double>(pages) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Runs `fn` in a forked child, so every round starts on a fresh heap: in
// one long-lived process, later rounds of the same work run measurably
// slower than the first as the heap ages. The child sends its report back
// as text lines ("v name value", "e message", "h hash").
template <typename F>
Report in_child(F&& fn) {
  std::fflush(nullptr);
  int fds[2];
  if (pipe(fds) != 0) return Report{{}, {"pipe failed"}, 0};
  const pid_t pid = fork();
  if (pid < 0) return Report{{}, {"fork failed"}, 0};
  if (pid == 0) {
    close(fds[0]);
    const Report r = fn();
    std::string out;
    char line[512];
    for (const auto& [name, value] : r.v) {
      std::snprintf(line, sizeof line, "v %s %.17g\n", name.c_str(), value);
      out += line;
    }
    for (const std::string& e : r.errors) out += "e " + e + "\n";
    std::snprintf(line, sizeof line, "h %" PRIx64 "\n", r.trace_hash);
    out += line;
    for (size_t done = 0; done < out.size();) {
      const ssize_t n = write(fds[1], out.data() + done, out.size() - done);
      if (n <= 0) break;
      done += static_cast<size_t>(n);
    }
    std::fflush(nullptr);
    _exit(0);
  }
  close(fds[1]);
  std::string in;
  char buf[4096];
  ssize_t n = 0;
  while ((n = read(fds[0], buf, sizeof buf)) > 0) in.append(buf, buf + n);
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  Report r;
  bool hashed = false;
  for (size_t pos = 0; pos < in.size();) {
    size_t eol = in.find('\n', pos);
    if (eol == std::string::npos) eol = in.size();
    const std::string line = in.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.rfind("v ", 0) == 0) {
      const size_t space = line.find(' ', 2);
      r.v[line.substr(2, space - 2)] =
          std::strtod(line.c_str() + space + 1, nullptr);
    } else if (line.rfind("e ", 0) == 0) {
      r.errors.push_back(line.substr(2));
    } else if (line.rfind("h ", 0) == 0) {
      r.trace_hash = std::strtoull(line.c_str() + 2, nullptr, 16);
      hashed = true;
    }
  }
  if (!hashed || !WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    r.errors.push_back("round process did not finish");
  }
  return r;
}

// Everything a round measured, per call in its window where a rate.
// `base_rss_mb` is the process's footprint before the round started.
Report report_round(const RoundResult& r, double base_rss_mb) {
  Report out;
  out.errors = r.errors;
  out.trace_hash = r.trace_hash;
  const double ops = static_cast<double>(std::max<int64_t>(1, r.attempted));
  const double puts = static_cast<double>(std::max<int64_t>(1, r.puts));
  auto per_op = [&](int64_t n) { return static_cast<double>(n) / ops; };
  out.v = {
      {"_setup_s", r.setup_s},
      {"_setup_wall_s", r.setup_wall_s},
      {"_window_s", r.window_s},
      {"_window_wall_s", r.window_wall_s},
      {"_sim_s", r.sim_s},
      {"_attempted", static_cast<double>(r.attempted)},
      {"_failed", static_cast<double>(r.failed)},
      {"_events", static_cast<double>(r.events)},
      {"peak_rss_mb", peak_rss_mb() - base_rss_mb},
      {"put_mean_ms", mean(r.put_ms)},
      {"put_p99_ms", percentile(r.put_ms, 0.99)},
      {"get_mean_ms", mean(r.get_ms)},
      {"get_p99_ms", percentile(r.get_ms, 0.99)},
      {"slo_frac", per_op(r.slo_met)},
      {"egress_bytes_per_op", per_op(r.egress)},
      {"put_n", static_cast<double>(r.puts_ok)},
      {"get_n", static_cast<double>(r.gets_ok)},
      {"put_p50_ms", percentile(r.put_ms, 0.50)},
      {"get_p50_ms", percentile(r.get_ms, 0.50)},
      {"fail_frac", per_op(r.failed)},
      {"stale_get_frac", ratio(static_cast<double>(r.stale_gets),
                               static_cast<double>(r.gets_ok))},
      {"sim.events_per_op", per_op(r.events)},
      {"rpc.calls_per_op", per_op(r.rpc_calls)},
      {"net.msgs_per_op", per_op(r.messages)},
      {"net.bytes_per_op", per_op(r.bytes)},
      {"coord.acquires_per_put", static_cast<double>(r.lock_acquires) / puts},
      {"coord.lock_fail_frac", static_cast<double>(r.lock_failures) / puts},
      {"wiera.repl_sends_per_put", static_cast<double>(r.repl_sends) / puts},
      {"wiera.repl_queue_max", static_cast<double>(r.queue_max)},
      {"wiera.repl_queue_end", static_cast<double>(r.queue_end)},
      {"store.tier_ops_per_op", per_op(r.tier_ops)},
      {"store.mem_hit_frac", ratio(static_cast<double>(r.mem_tier_gets),
                                   static_cast<double>(r.tier_gets))},
      {"store.evictions_per_op", per_op(r.evictions)},
      {"store.space_amp", r.space_amp},
      {"metadb.versions_per_key", r.versions_per_key},
      {"obs.spans_per_op", per_op(r.spans)},
  };
  const TraceStats& t = r.trace;
  if (t.ops > 0) {
    auto share = [&](Layer l) { return ratio(t.layer_us[l], t.latency_us); };
    out.v.insert({
        {"net.client_rpc_p50_ms", percentile(t.client_rpc_ms, 0.50)},
        {"net.client_rpc_p99_ms", percentile(t.client_rpc_ms, 0.99)},
        {"wiera.handler_self_p50_ms", percentile(t.handler_self_ms, 0.50)},
        {"wiera.handler_self_p99_ms", percentile(t.handler_self_ms, 0.99)},
        {"wiera.replicate_p50_ms", percentile(t.replicate_ms, 0.50)},
        {"wiera.replicate_p99_ms", percentile(t.replicate_ms, 0.99)},
        {"tiera.put_p50_ms", percentile(t.tiera_put_ms, 0.50)},
        {"tiera.put_p99_ms", percentile(t.tiera_put_ms, 0.99)},
        {"tiera.get_p50_ms", percentile(t.tiera_get_ms, 0.50)},
        {"tiera.get_p99_ms", percentile(t.tiera_get_ms, 0.99)},
        {"cp.client_share", share(kClient)},
        {"cp.net_share", share(kNet)},
        {"cp.wiera_share", share(kWiera)},
        {"cp.tiera_share", share(kTiera)},
        {"trace.covered_frac", ratio(static_cast<double>(t.covered),
                                     static_cast<double>(t.ops))},
    });
  }
  return out;
}

// ------------------------------------------------------------ unit costs

// Host seconds `body` takes at the probe's reference speed, with probe
// slices taken right before and after it. Scaled linearly: a loop runs one
// layer's function, not a workload's mix, so no workload's elasticity fits.
template <typename F>
double scaled_s(SpeedProbe& probe, F&& body) {
  double probe_s = 0;
  for (int i = 0; i < 3; ++i) probe_s += probe.slice();
  const auto t0 = HostClock::now();
  body();
  const double wall = seconds_since(t0);
  for (int i = 0; i < 3; ++i) probe_s += probe.slice();
  return wall * SpeedProbe::kReferenceSliceS / (probe_s / 6);
}

template <typename F>
double ns_per(SpeedProbe& probe, int64_t n, F&& body) {
  return scaled_s(probe, body) * 1e9 / static_cast<double>(n);
}

sim::Task<void> tick_loop(sim::Simulation& sim, int64_t n, int64_t step_us) {
  for (int64_t i = 0; i < n; ++i) co_await sim.delay(usec(step_us));
}

// Isolated host cost of each layer's public functions at the workload's
// value size and concurrency, in nanoseconds per call.
Report measure_unit_costs(const Workload& w) {
  SpeedProbe probe;
  Report out;
  const int concurrency =
      w.loops_per_client > 0 ? 4 * w.loops_per_client : 4;
  {
    sim::Simulation sim;
    constexpr int64_t kTicks = 50000;
    for (int i = 0; i < concurrency; ++i) {
      sim.spawn(tick_loop(sim, kTicks, 1 + i % 7));
    }
    out.v["sim.kernel_ns_per_event"] =
        scaled_s(probe, [&] { sim.run(); }) * 1e9 /
        static_cast<double>(sim.events_executed());
  }
  const Blob value = Blob::zeros(static_cast<size_t>(w.value_size));
  {
    geo::PutRequest req;
    req.key = "user12345";
    req.value = value;
    req.client = "app-us-east";
    constexpr int64_t kN = 200000;
    int64_t bytes = 0;
    out.v["rpc.codec_ns"] = ns_per(probe, kN, [&] {
      for (int64_t i = 0; i < kN; ++i) {
        auto decoded = geo::decode_put_request(geo::encode(req));
        bytes += static_cast<int64_t>(decoded.value().value.size());
      }
    });
    if (bytes != kN * w.value_size) out.errors.push_back("codec round trip");
  }
  {
    volatile uint64_t sink = 0;
    const int64_t n = std::max<int64_t>(1000, 200000 * 256 / w.value_size);
    out.v["tiera.checksum_ns"] = ns_per(probe, n, [&] {
      for (int64_t i = 0; i < n; ++i) {
        sink = sink + object_checksum("user12345", i, value);
      }
    });
  }
  {
    sim::Simulation sim;
    net::Network network(sim, bench::PaperCluster::make_topology(0.05));
    constexpr int64_t kN = 100000;
    int64_t failures = 0;
    auto body = [](net::Network& net, int64_t n, int64_t bytes,
                   int64_t& failed) -> sim::Task<void> {
      for (int64_t i = 0; i < n; ++i) {
        Status st = co_await net.transfer("tiera-us-east", "tiera-us-west",
                                          bytes);
        if (!st.ok()) failed++;
      }
    };
    sim.spawn(body(network, kN, w.value_size + 64, failures));
    out.v["net.transfer_ns"] = ns_per(probe, kN, [&] { sim.run(); });
    if (failures > 0) out.errors.push_back("network transfer failed");
  }
  {
    sim::Simulation sim;
    net::Network network(sim, bench::PaperCluster::make_topology(0.05));
    rpc::Registry registry;
    rpc::Endpoint zk_ep(network, registry, "wiera-controller");
    coord::LockService service(sim, zk_ep);
    rpc::Endpoint client_ep(network, registry, "tiera-us-east");
    coord::LockClient client(client_ep, "wiera-controller");
    constexpr int64_t kN = 20000;
    int64_t failures = 0;
    auto body = [](coord::LockClient c, int64_t n,
                   int64_t& failed) -> sim::Task<void> {
      for (int64_t i = 0; i < n; ++i) {
        Status a = co_await c.acquire("key:user1");
        Status r = co_await c.release("key:user1");
        if (!a.ok() || !r.ok()) failed++;
      }
    };
    sim.spawn(body(client, kN, failures));
    out.v["coord.cycle_ns"] = ns_per(probe, kN, [&] { sim.run(); });
    if (failures > 0) out.errors.push_back("lock cycle failed");
  }
  {
    sim::Simulation sim;
    tiera::TieraInstance::Config config;
    config.instance_id = "tiera-us-east";
    config.region = "US-East";
    auto global = policy::parse_policy(global_policy(w.mode));
    auto local = policy::parse_policy(
        w.persistent_tiers ? policy::builtin::persistent_instance()
                           : policy::builtin::low_latency_instance());
    config.policy = std::move(local).value();
    config.policy.tiers = global.value().regions.front().tiers;
    config.params["t"] = policy::Value::duration_of(sec(10));
    if (w.persistent_tiers) {
      config.tier_tweak = [](const std::string& label, store::TierSpec& spec) {
        if (label == "tier1") spec.capacity_bytes = MiB;
      };
    }
    tiera::TieraInstance instance(sim, std::move(config));
    const int64_t n = std::min<int64_t>(20000, w.records);
    int64_t failures = 0;
    auto puts = [](tiera::TieraInstance& t, int64_t n, Blob v,
                   int64_t& failed) -> sim::Task<void> {
      for (int64_t i = 0; i < n; ++i) {
        auto r = co_await t.put(ycsb::WorkloadGenerator::key_name(i), v);
        if (!r.ok()) failed++;
      }
    };
    auto gets = [](tiera::TieraInstance& t, int64_t n,
                   int64_t& failed) -> sim::Task<void> {
      for (int64_t i = 0; i < n; ++i) {
        auto r = co_await t.get(ycsb::WorkloadGenerator::key_name(i));
        if (!r.ok()) failed++;
      }
    };
    sim.spawn(puts(instance, n, value, failures));
    out.v["tiera.put_ns"] = ns_per(probe, n, [&] { sim.run(); });
    sim.spawn(gets(instance, n, failures));
    out.v["tiera.get_ns"] = ns_per(probe, n, [&] { sim.run(); });
    if (failures > 0) out.errors.push_back("tiera put/get failed");
  }
  return out;
}

// ------------------------------------------------------------ output

struct MetricDef {
  const char* name;
  const char* unit;
};

// The order and units of BENCHMARK.json.
constexpr MetricDef kEndToEnd[] = {
    {"host_us_per_op", "us"},      {"host_us_per_sim_s", "us"},
    {"setup_s", "s"},              {"peak_rss_mb", "MB"},
    {"put_mean_ms", "ms"},         {"put_p99_ms", "ms"},
    {"get_mean_ms", "ms"},         {"get_p99_ms", "ms"},
    {"slo_frac", "fraction"},      {"egress_bytes_per_op", "B"},
};

constexpr MetricDef kPerLayer[] = {
    {"put_n", "count"},
    {"get_n", "count"},
    {"put_p50_ms", "ms"},
    {"get_p50_ms", "ms"},
    {"fail_frac", "fraction"},
    {"stale_get_frac", "fraction"},
    {"sim.events_per_op", "count"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.kernel_ns_per_event", "ns"},
    {"rpc.calls_per_op", "count"},
    {"rpc.codec_ns", "ns"},
    {"net.msgs_per_op", "count"},
    {"net.bytes_per_op", "B"},
    {"net.transfer_ns", "ns"},
    {"net.client_rpc_p50_ms", "ms"},
    {"net.client_rpc_p99_ms", "ms"},
    {"coord.acquires_per_put", "count"},
    {"coord.lock_fail_frac", "fraction"},
    {"coord.cycle_ns", "ns"},
    {"wiera.handler_self_p50_ms", "ms"},
    {"wiera.handler_self_p99_ms", "ms"},
    {"wiera.replicate_p50_ms", "ms"},
    {"wiera.replicate_p99_ms", "ms"},
    {"wiera.repl_sends_per_put", "count"},
    {"wiera.repl_queue_max", "count"},
    {"wiera.repl_queue_end", "count"},
    {"tiera.put_p50_ms", "ms"},
    {"tiera.put_p99_ms", "ms"},
    {"tiera.get_p50_ms", "ms"},
    {"tiera.get_p99_ms", "ms"},
    {"tiera.checksum_ns", "ns"},
    {"tiera.put_ns", "ns"},
    {"tiera.get_ns", "ns"},
    {"store.tier_ops_per_op", "count"},
    {"store.mem_hit_frac", "fraction"},
    {"store.evictions_per_op", "count"},
    {"store.space_amp", "ratio"},
    {"metadb.versions_per_key", "count"},
    {"obs.spans_per_op", "count"},
    {"obs.retention_overhead_pct", "%"},
    {"obs.sampler_overhead_pct", "%"},
    {"host.unattributed_pct", "%"},
    {"cp.client_share", "fraction"},
    {"cp.net_share", "fraction"},
    {"cp.wiera_share", "fraction"},
    {"cp.tiera_share", "fraction"},
    {"trace.covered_frac", "fraction"},
};

int run(const Workload& w, uint64_t seed, double budget_s, bool trace,
        double scale, int min_rounds, const std::string& spans_path) {
  const auto t0 = HostClock::now();
  bool correct = true;
  auto fail = [&](const std::string& what) {
    correct = false;
    std::fprintf(stderr, "wiera_bench: %s\n", what.c_str());
  };
  std::vector<Report> rounds;
  auto round = [&](RoundOptions opt, const char* label) {
    Report r = in_child([&] {
      SpeedProbe probe;
      const double base_rss = current_rss_mb();
      return report_round(Round(w, seed, scale, opt, probe).run(), base_rss);
    });
    for (const std::string& e : r.errors) fail(std::string(label) + ": " + e);
    if (!rounds.empty() && r.trace_hash != rounds.front().trace_hash &&
        !opt.sampler) {
      fail(std::string(label) + ": trace hash differs from the first round");
    }
    std::fprintf(stderr,
                 "wiera_bench: %s setup %.3fs (wall %.3fs) window %.3fs "
                 "(wall %.3fs) %.0f calls\n",
                 label, r.at("_setup_s"), r.at("_setup_wall_s"),
                 r.at("_window_s"), r.at("_window_wall_s"),
                 r.at("_attempted"));
    return r;
  };

  // Round 0 also drains and checks convergence; later rounds repeat the
  // same simulated work to time it.
  while (correct) {
    RoundOptions opt;
    opt.check = rounds.empty();
    rounds.push_back(round(opt, "round"));
    if (static_cast<int>(rounds.size()) >= min_rounds &&
        seconds_since(t0) >= budget_s) {
      break;
    }
  }

  const Report& first = rounds.front();
  auto median_of = [&](const char* name) {
    std::vector<double> v;
    for (const Report& r : rounds) v.push_back(r.at(name));
    return median(v);
  };
  const double window = median_of("_window_s");
  const double ops = std::max(1.0, first.at("_attempted"));
  std::map<std::string, double> values = first.v;
  values["host_us_per_op"] = window * 1e6 / ops;
  values["host_us_per_sim_s"] = window * 1e6 / first.at("_sim_s");
  values["setup_s"] = median_of("_setup_s");
  values["peak_rss_mb"] = median_of("peak_rss_mb");

  if (trace && correct) {
    // The traced round, the same round with span retention off and with
    // the metrics sampler armed, and the isolated unit costs. Tracing and
    // retention must not change the trace hash; the sampler schedules its
    // own scrape task, so its hash differs by design.
    std::FILE* sink = nullptr;
    if (!spans_path.empty()) {
      sink = std::fopen(spans_path.c_str(), "w");
      if (sink == nullptr) fail("cannot write " + spans_path);
    }
    RoundOptions traced_opt;
    traced_opt.traced = true;
    traced_opt.span_sink = sink;
    const Report traced = round(traced_opt, "traced round");
    if (sink != nullptr) std::fclose(sink);
    RoundOptions quiet_opt;
    quiet_opt.telemetry = false;
    const Report quiet = round(quiet_opt, "telemetry-off round");
    RoundOptions sampled_opt;
    sampled_opt.sampler = true;
    const Report sampled = round(sampled_opt, "sampled round");
    const Report units = in_child([&] { return measure_unit_costs(w); });
    for (const std::string& e : units.errors) fail("unit costs: " + e);

    // Plain and traced rounds share every other value (same hash).
    for (const auto& [name, value] : traced.v) values.emplace(name, value);
    for (const auto& [name, value] : units.v) values[name] = value;
    const double host_ns_per_op = window * 1e9 / ops;
    values["sim.host_ns_per_event"] =
        window * 1e9 / std::max(1.0, first.at("_events"));
    values["obs.retention_overhead_pct"] =
        (window / quiet.at("_window_s") - 1) * 100;
    values["obs.sampler_overhead_pct"] =
        (sampled.at("_window_s") / window - 1) * 100;
    // First-order estimate: events x kernel cost + RPC calls x codec cost
    // + payload hops x checksum cost.
    const double explained =
        first.at("sim.events_per_op") * values["sim.kernel_ns_per_event"] +
        first.at("rpc.calls_per_op") * values["rpc.codec_ns"] +
        first.at("net.bytes_per_op") / static_cast<double>(w.value_size) *
            values["tiera.checksum_ns"];
    values["host.unattributed_pct"] =
        (1 - ratio(explained, host_ns_per_op)) * 100;
  }

  double attempted = 0, failed = 0;
  for (const Report& r : rounds) {
    attempted += r.at("_attempted");
    failed += r.at("_failed");
  }
  std::fprintf(stderr,
               "wiera_bench: %s seed=%" PRIu64 " rounds=%zu sim_s=%.1f "
               "calls/round=%.0f trace_hash=%016" PRIx64 " wall=%.1fs\n",
               std::string(w.name).c_str(), seed, rounds.size(),
               first.at("_sim_s"), first.at("_attempted"), first.trace_hash,
               seconds_since(t0));
  std::printf("{\"correct\": %s, \"attempted\": %.0f, \"failed\": %.0f, "
              "\"metrics\": {",
              correct ? "true" : "false", attempted, failed);
  const char* sep = "";
  auto emit = [&](const MetricDef& m) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", sep,
                m.name, values[m.name], m.unit);
    sep = ", ";
  };
  if (trace) {
    for (const MetricDef& m : kPerLayer) emit(m);
  } else {
    for (const MetricDef& m : kEndToEnd) emit(m);
  }
  std::printf("}}\n");
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: wiera_bench --workload NAME --seed N --seconds S "
               "--trace 0|1 [--scale F] [--min-rounds N] [--spans PATH]\n"
               "workloads:");
  for (const Workload& w : kWorkloads) {
    std::fprintf(stderr, " %s", std::string(w.name).c_str());
  }
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace
}  // namespace wiera::perf

int main(int argc, char** argv) {
  using namespace wiera::perf;
  std::string workload, spans_path;
  uint64_t seed = 1;
  double seconds = 10, scale = 1;
  int trace = 0, min_rounds = 3;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::strtod(value, nullptr);
    } else if (flag == "--trace") {
      trace = std::atoi(value);
    } else if (flag == "--scale") {
      scale = std::strtod(value, nullptr);
    } else if (flag == "--min-rounds") {
      min_rounds = std::max(1, std::atoi(value));
    } else if (flag == "--spans") {
      spans_path = value;
    } else {
      return usage();
    }
  }
  if (argc % 2 == 0) return usage();
  for (const Workload& w : kWorkloads) {
    if (w.name == workload) {
      return run(w, seed, seconds, trace != 0, scale, min_rounds, spans_path);
    }
  }
  return usage();
}
