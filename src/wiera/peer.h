// WieraPeer: one geo-replicated member of a Wiera instance.
//
// A peer couples a local TieraInstance (multi-tier storage + local policy)
// with the global protocol machinery of §3.3/§4:
//   * consistency protocols — MultiPrimaries (global lock + synchronous
//     broadcast), PrimaryBackup (sync `copy` or async `queue`), Eventual
//     (local write + queued background propagation, LWW on conflict);
//   * request forwarding (non-primary puts, ForwardingInstance regions,
//     get-forwarding to a remote fast tier as in §5.4);
//   * monitoring events — LatencyMonitoring drives DynamicConsistency
//     (Fig. 5a), RequestsMonitoring drives ChangePrimary (Fig. 5b); both
//     evaluate the *parsed policy rules* at run time;
//   * centralized cold data (§5.3) via the InstanceHooks interception.
//
// Consistency changes block-and-queue (§3.3.2): while a switch is in
// progress new client operations wait; in-flight operations and queued
// updates drain first.
#pragma once

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/breaker.h"
#include "common/context.h"
#include "obs/keystats.h"
#include "obs/metrics.h"
#include "coord/lock_service.h"
#include "sim/sync.h"
#include "tiera/instance.h"
#include "wiera/health.h"
#include "wiera/messages.h"
#include "wiera/monitors.h"
#include "wiera/types.h"

namespace wiera::geo {

class WieraPeer : public tiera::InstanceHooks {
 public:
  struct Config {
    std::string instance_id;  // globally unique; equals the topology node
    std::string region;
    // Local Tiera policy (instance_id/region fields are overwritten).
    tiera::TieraInstance::Config local;
    ConsistencyMode mode = ConsistencyMode::kEventual;
    bool is_primary = false;
    std::string primary_instance;            // current primary's id
    std::string lock_service_node;           // ZooKeeper stand-in location
    Duration queue_flush_interval = msec(100);
    // ---- replication coalescing (docs/PERFORMANCE.md) ----
    // Max queued updates per chunk of a flush round. A chunk of one travels
    // as a kReplicate message, a larger chunk as one kReplicateBatch per
    // target. 1 = no coalescing (seed behaviour: one kReplicate message per
    // update per target). With coalescing on, a flush also triggers as soon
    // as the queue reaches this size — batches flush on size or deadline,
    // whichever comes first. Every chunk, sync puts included, rides the
    // same pipeline (breaker, retry budget, per-op trace spans); op
    // outcomes are returned per-op so a failed op is requeued without
    // re-sending its accepted batch-mates.
    int replicate_batch_max = 1;
    // ---- fault recovery (chaos harness) ----
    // Retry budget for replication sends that fail kUnavailable (dropped
    // messages, transient partitions). 0 = fail fast (seed behaviour).
    int replicate_retries = 0;
    Duration replicate_backoff = msec(100);  // doubles per attempt
    // Serve lease: when nonzero, the peer pings the lease authority every
    // serve_lease/3 and — in the strong consistency modes — refuses client
    // operations once the lease lapses, so a partitioned replica cannot
    // serve stale data. Zero disables the lease (seed behaviour).
    Duration serve_lease = Duration::zero();
    // Node pinged to refresh the serve lease (the controller's node).
    // Empty = fall back to lock_service_node.
    std::string lease_authority;
    // §5.4: forward all gets to this instance (remote fast tier). Empty =
    // serve locally.
    std::string get_forward_target;
    // Fig. 6b: instance with no tiers that forwards everything.
    bool forwarding_only = false;
    // §5.3 centralized cold data: when set (to another peer's id), cold
    // objects are shipped there instead of being demoted locally.
    std::string centralized_cold_target;
    std::string cold_tier_label;  // tier that receives kColdStore objects
    // Aggregation sinks for the §3.1 network/workload monitors (owned by
    // the controller; null disables recording).
    NetworkMonitor* network_monitor = nullptr;
    WorkloadMonitor* workload_monitor = nullptr;
    // Health-scored failure detection (docs/HEALTH.md; owned by the
    // controller, wired like the monitors). When set and enabled,
    // replication fan-outs order probation targets last and successful
    // replication acks feed the per-target latency EWMA. Null = disabled.
    HealthTracker* health = nullptr;
    // Hot-key / workload analytics (docs/METRICS_PIPELINE.md): a space-
    // saving top-K sketch over client accesses, windowed on the virtual
    // clock. Default-off: a disabled sketch records nothing and registers
    // no metrics, so default telemetry dumps stay byte-identical.
    obs::KeyStats::Config key_stats;
    // Optional parsed dynamic policies evaluated by the monitors.
    std::optional<policy::PolicyDoc> dynamic_consistency_policy;  // Fig. 5a
    std::optional<policy::PolicyDoc> change_primary_policy;       // Fig. 5b
    Duration requests_monitor_window = sec(30);  // put history (§5.2)
    Duration requests_monitor_check = sec(5);
    // ---- overload robustness (docs/OVERLOAD.md) ----
    // Admission control on this peer's endpoint: at most max_inflight
    // handlers run concurrently, max_queue wait behind them (LIFO service,
    // oldest-waiter shedding). 0 = unlimited (seed behaviour).
    int max_inflight = 0;
    int max_queue = 0;
    // Per-target circuit breaker on replication / forwarding sends: after
    // breaker_failures consecutive failures the target is failed fast for
    // breaker_open_for, then probed (half-open). 0 = disabled.
    int breaker_failures = 0;
    Duration breaker_open_for = sec(1);
    // Token-bucket budget for replication *retries* (the PR-2 backoff
    // loop): refills at retry_budget_per_sec up to retry_budget_capacity;
    // a denied retry fails the send with its last error instead of piling
    // more traffic onto a browned-out peer. 0 = unlimited.
    double retry_budget_per_sec = 0;
    double retry_budget_capacity = 10;
    // Bounded-staleness escape hatch: a parsed BoundedStaleness policy
    // (policy::builtin::bounded_staleness()). When set, a replica whose
    // serve lease lapsed — or whose forward target is unreachable — may
    // answer GETs from its local copy, flagged `stale`, while its last
    // authority contact is younger than the policy's staleness bound.
    std::optional<policy::PolicyDoc> degradation_policy;
    // ---- data integrity (docs/INTEGRITY.md) ----
    // Periodic self-healing scrub: verify every local copy against its
    // recorded checksum, exchange per-key digest summaries with the storage
    // peers, and repair divergence through kRepairFetch + LWW merge.
    // Zero disables the scrubber (seed behaviour).
    Duration scrub_interval = Duration::zero();
    // Wire/tier checksum verification on this peer is gated by
    // local.verify_checksums (the mutation test flips it on one replica).
  };

  // Callbacks to the controller (wired by WieraController; RPC is used for
  // data-plane paths, these are issued as controller RPCs by the caller).
  struct ControlPlane {
    // Ask Wiera to change the global consistency model.
    std::function<void(const std::string& to_policy)> request_policy_change;
    // Ask Wiera to migrate the primary.
    std::function<void(const std::string& new_primary)> request_primary_change;
  };

  WieraPeer(sim::Simulation& sim, net::Network& network,
            rpc::Registry& registry, Config config);
  ~WieraPeer() override;

  const std::string& id() const { return config_.instance_id; }
  const std::string& region() const { return config_.region; }
  ConsistencyMode mode() const { return config_.mode; }
  bool is_primary() const { return config_.is_primary; }
  const std::string& primary_instance() const {
    return config_.primary_instance;
  }
  tiera::TieraInstance& local() { return *local_; }
  rpc::Endpoint& endpoint() { return *endpoint_; }

  // Wire up sibling peers (ids include this peer; it is skipped on sends).
  // Replication defaults to all siblings; set_storage_peers narrows it to
  // the peers that can actually store (Fig. 6b's forwarding instances hold
  // no tiers and receive no update traffic).
  void set_peers(std::vector<std::string> peer_ids);
  void set_storage_peers(std::vector<std::string> storage_peer_ids);
  void set_control_plane(ControlPlane control) { control_ = std::move(control); }

  // Start background tasks (queue flusher, monitors, local policy timers).
  void start();
  void stop();

  // ---- data plane (also reachable via RPC) ----
  sim::Task<Result<PutResponse>> client_put(PutRequest request);
  sim::Task<Result<GetResponse>> client_get(GetRequest request);

  // Table 2 versioning surface (local list; removes propagate to the
  // storage peers so all replicas drop the object).
  std::vector<int64_t> version_list(const std::string& key) const;
  sim::Task<Status> remove_key(RemoveRequest request);

  // ---- management (invoked via RPC from the controller) ----
  // Block new ops, drain in-flight + queued updates, switch mode.
  sim::Task<Status> apply_consistency_change(ConsistencyMode mode);
  void apply_primary_change(const std::string& new_primary);

  // ---- crash / recovery (chaos harness) ----
  // Crash semantics at the instant of failure: volatile tier contents are
  // lost, the outbound replication queue is dropped, and the peer restarts
  // in recovering state (client ops refused in strong modes until catch-up
  // completes).
  void on_crash();
  bool recovering() const { return recovering_; }
  // True after a crash until catch-up completes: volatile tiers may have
  // lost committed data, so this peer can neither serve stale reads nor act
  // as a catch-up source of truth.
  bool data_suspect() const { return data_suspect_; }
  // Mark the peer recovering without a crash (controller-driven, e.g. when
  // the serve lease lapsed during a partition).
  void begin_recovery() { recovering_ = true; }
  // Pull every key's latest committed version from the first reachable
  // source and LWW-merge it, then enqueue our own latest committed versions
  // so the flusher pushes back out whatever durable writes the outage kept
  // local (bidirectional anti-entropy).
  sim::Task<Status> catch_up(std::vector<std::string> sources);
  // Clear recovering state and refresh the serve lease.
  void finish_recovery();

  // ---- cooperative drain (controller-driven; docs/SCENARIOS.md) ----
  // While draining, the availability gate refuses new client ops in every
  // mode (clients fail over within their retry budget) but replication and
  // sync handlers keep answering so the hand-off can finish.
  void enter_draining();
  // Abort path: resume serving after a failed hand-off.
  void exit_draining();
  bool draining() const { return draining_; }
  // Hand this peer's data off to the remaining replicas: flush the outbound
  // queue to empty, then (unless flush_only) enqueue the latest committed
  // version of every local key — catch_up's push-back half — and flush
  // again, so nothing this peer acked exists only here. Flush failures back
  // off and retry until `deadline`, riding the replication path's breaker /
  // retry-budget machinery underneath.
  sim::Task<Status> drain(TimePoint deadline, bool flush_only = false);
  // All remaining counter accessors are thin views over the sim-wide
  // metrics registry (wiera_*_total{instance=<id>}; docs/OBSERVABILITY.md).
  int64_t catch_ups_completed() const { return catch_ups_completed_->value(); }
  int64_t replication_retries() const {
    return replication_retries_->value();
  }

  // ---- data-integrity state (read by tests/benches) ----
  // Wire-level checksum rejections (put / replicate / repair payloads that
  // arrived corrupt). Tier-level failures live on the TieraInstance.
  int64_t wire_checksum_failures() const {
    return wire_checksum_failures_->value();
  }
  // Read-repairs served inline after a local kDataLoss.
  int64_t repairs() const { return repairs_->value(); }
  // Repairs applied by the periodic scrubber (local re-verify + digest
  // exchange), and completed scrub rounds.
  int64_t scrub_repairs() const { return scrub_repairs_->value(); }
  int64_t scrub_rounds() const { return scrub_rounds_->value(); }

  // ---- overload-robustness state (read by tests/benches) ----
  int64_t stale_serves() const { return stale_serves_->value(); }
  int64_t breaker_fast_fails() const { return breaker_fast_fails_->value(); }
  int64_t retry_budget_denials() const { return retry_budget_.denied(); }
  // nullptr when breakers are disabled or no traffic went to `target` yet.
  const CircuitBreaker* breaker(const std::string& target) const;

  // ---- hot-key analytics (docs/METRICS_PIPELINE.md) ----
  // Disabled unless config_.key_stats.enabled; fed by client_put/client_get
  // with the request's key and originating client (tenant).
  const obs::KeyStats& key_stats() const { return key_stats_; }

  // ---- monitor state (read by tests/benches) ----
  const LatencyHistogram& put_latency() const { return put_hist_->latency(); }
  const LatencyHistogram& get_latency() const { return get_hist_->latency(); }
  int64_t direct_puts() const { return direct_puts_->value(); }
  int64_t forwarded_puts_from(const std::string& origin) const;
  int64_t queue_depth() const { return static_cast<int64_t>(queue_->size()); }
  int64_t replications_sent() const { return replications_sent_->value(); }
  // Zero (not registered) unless config_.replicate_batch_max > 1.
  int64_t replication_batches() const {
    return replication_batches_ ? replication_batches_->value() : 0;
  }
  int64_t replication_batched_ops() const {
    return replication_batched_ops_ ? replication_batched_ops_->value() : 0;
  }
  int64_t replications_accepted() const {
    return replications_accepted_->value();
  }

  // InstanceHooks (§5.3 centralized cold data).
  sim::Task<bool> on_cold_object(const std::string& key) override;

 private:
  void register_handlers();

  sim::Task<Result<PutResponse>> put_multi_primaries(PutRequest& request);
  sim::Task<Result<PutResponse>> put_primary_backup(PutRequest& request);
  sim::Task<Result<PutResponse>> put_eventual(PutRequest& request);
  sim::Task<Result<PutResponse>> put_local_and_replicate(PutRequest& request,
                                                         bool synchronous);

  // ---- the replication pipeline (docs/PERFORMANCE.md) ----
  // One chunk to every storage peer: a sync put is a chunk of one, a flush
  // round a chunk of up to replicate_batch_max queued updates. Membership
  // may widen mid-flight; the fan-out stops early once every op has failed.
  // Element i is the first failure of ops[i] across targets (ok if none).
  sim::Task<std::vector<Status>> replicate_to_all(
      const std::vector<ReplicateRequest>& ops, TimePoint deadline,
      TraceContext parent);
  // The chunk to one target, every attempt (retry budget, backoff, breaker,
  // network monitor, health EWMA) inside one span per op; returns per-op
  // status (size == ops.size()).
  sim::Task<std::vector<Status>> send_replicate(
      std::string target, const std::vector<ReplicateRequest>& ops,
      TimePoint deadline, TraceContext parent);
  // Verify a received update's wire checksum (per local.verify_checksums,
  // or always when `require_checksum`), then LWW-merge it; true when
  // applied. A corrupt payload is counted and refused with kDataLoss.
  sim::Task<Result<bool>> apply_update(const ReplicateRequest& op,
                                       std::string_view what,
                                       bool require_checksum = false);
  // Each local key's latest committed version as a ReplicateRequest, handed
  // to `visit` as soon as it is read (versions whose payload is gone are
  // skipped): the kSyncPull snapshot and the catch-up/drain push-back.
  sim::Task<void> for_each_latest(std::function<void(ReplicateRequest)> visit);

  // Telemetry shorthands (sim-wide tracer / event journal).
  obs::Tracer& tracer() { return sim_->telemetry().tracer(); }
  obs::Journal& journal() { return sim_->telemetry().journal(); }

  // Overload robustness helpers.
  // Breaker for a send target; nullptr when breakers are disabled.
  CircuitBreaker* breaker_for(const std::string& target);
  // The per-target breaker around one call (replication attempt, put- or
  // get-forward): while it is open breaker_gate fails fast (counted, `note`
  // annotated on `trace`); breaker_record feeds the call's outcome back.
  Status breaker_gate(const std::string& target, std::string_view what,
                      TraceContext trace, const std::string& note);
  void breaker_record(const std::string& target, const Status& outcome);
  // Probation-last fan-out ordering (docs/HEALTH.md): stable-partition
  // healthy targets first so a slow peer's sends queue behind the healthy
  // acks on the shared NIC instead of ahead of them. No-op when health
  // detection is off.
  void order_targets_by_health(std::vector<std::string>& targets) const;
  // Context carrying `deadline` plus the current trace identity.
  static Context ctx_for(TimePoint deadline, TraceContext trace = {});
  // Whether a stale local read may substitute for an unreachable
  // primary/forward-target right now (degradation policy present, local
  // data not wiped by a crash, authority contact within the bound).
  bool stale_read_allowed() const;
  // Local get / get_version of the request, as this peer's GetResponse.
  sim::Task<Result<GetResponse>> local_get(const GetRequest& request);
  // Local read for the bounded-staleness path; flags the response stale.
  sim::Task<Result<GetResponse>> stale_local_get(const GetRequest& request);
  sim::Task<void> queue_flusher();
  // One flush round: drains the updates queued when it starts, in chunks
  // of replicate_batch_max; failed ops are requeued individually.
  sim::Task<Status> flush_queue();
  // Flush rounds, pausing after a failed one, until the queue is empty;
  // kDeadlineExceeded naming `phase` if `deadline` passes first.
  sim::Task<Status> flush_until_empty(TimePoint deadline,
                                      std::string_view phase);
  // Size-based flush trigger: when coalescing is on and the queue reached
  // replicate_batch_max, flush now instead of waiting for the timer.
  void maybe_trigger_size_flush();
  sim::Task<void> size_triggered_flush();

  // ---- integrity: read-repair and scrub (docs/INTEGRITY.md) ----
  // Inline read-repair: every local copy of the requested object failed its
  // checksum (and was quarantined), so re-fetch from a healthy replica,
  // LWW-merge it back, and serve the repaired payload.
  sim::Task<Result<GetResponse>> repair_get(GetRequest request);
  // Fetch (key, version; 0 = latest) from `source`, verify the payload
  // checksum, and LWW-merge it locally. ok = merged or already newer.
  sim::Task<Status> fetch_and_merge(std::string source, std::string key,
                                    int64_t version, bool from_scrub,
                                    TraceContext trace = {});
  sim::Task<void> scrub_loop();
  sim::Task<void> run_scrub();

  // Block-and-queue support.
  sim::Task<void> wait_if_blocked();
  void op_started() { in_flight_++; }
  void op_finished();

  // Serve-lease enforcement: non-ok when this peer must refuse client
  // operations (recovering, or the lease lapsed in a strong mode).
  Status availability_gate();
  sim::Task<void> availability_loop();

  // Monitors.
  void observe_put_latency(Duration latency);
  void record_put_source(const std::string& origin, bool forwarded);
  sim::Task<void> requests_monitor_loop();
  void evaluate_requests_monitor();

  sim::Simulation* sim_;
  net::Network* network_;
  Config config_;
  std::unique_ptr<rpc::Endpoint> endpoint_;
  std::unique_ptr<tiera::TieraInstance> local_;
  std::unique_ptr<coord::LockClient> lock_client_;
  std::vector<std::string> peer_ids_;          // excludes self
  std::vector<std::string> storage_peer_ids_;  // replication targets
  ControlPlane control_;

  std::unique_ptr<sim::Channel<ReplicateRequest>> queue_;
  bool started_ = false;
  bool stopping_ = false;

  // Crash/recovery state.
  bool recovering_ = false;
  TimePoint last_contact_;  // last successful lease-authority round trip

  // Cooperative-drain state: gate refuses client ops while set.
  bool draining_ = false;

  // Registry-backed counters/histograms (set once in the constructor; the
  // instruments live in the sim's obs::Registry and outlive this peer).
  obs::Registry* metrics_ = nullptr;
  obs::Counter* catch_ups_completed_ = nullptr;
  obs::Counter* replication_retries_ = nullptr;

  // Overload-robustness state (docs/OVERLOAD.md).
  std::map<std::string, CircuitBreaker> breakers_;  // per send target
  RetryBudget retry_budget_;
  Duration stale_bound_ = Duration::zero();  // from degradation_policy
  bool allow_stale_ = false;
  // Set on crash, cleared when recovery finishes: a crashed peer lost its
  // volatile tiers, so its local copy must not be served as merely stale.
  bool data_suspect_ = false;
  obs::Counter* stale_serves_ = nullptr;
  obs::Counter* breaker_fast_fails_ = nullptr;
  obs::Counter* breaker_transitions_ = nullptr;

  // Data-integrity state (docs/INTEGRITY.md).
  obs::Counter* wire_checksum_failures_ = nullptr;
  obs::Counter* repairs_ = nullptr;
  obs::Counter* scrub_repairs_ = nullptr;
  obs::Counter* scrub_rounds_ = nullptr;

  // Block-and-queue state for consistency changes.
  bool blocking_ = false;
  int64_t in_flight_ = 0;
  std::unique_ptr<sim::Event> unblocked_;
  std::unique_ptr<sim::Event> drained_;

  // Latency monitor (Fig. 5a) state.
  Duration latency_threshold_ = Duration::max();
  TimePoint streak_start_;
  bool streak_violating_ = false;
  bool streak_valid_ = false;

  // Requests monitor (Fig. 5b) state: put history over a sliding window.
  struct PutEvent {
    TimePoint time;
    std::string origin;
    bool forwarded;
  };
  std::deque<PutEvent> put_history_;
  TimePoint requests_condition_start_;
  bool requests_condition_active_ = false;

  // §5.3 cold index: keys shipped to the centralized cold peer.
  std::set<std::string> cold_remote_keys_;

  // Hot-key analytics sketch (docs/METRICS_PIPELINE.md); no-op when the
  // config leaves it disabled.
  obs::KeyStats key_stats_;

  obs::Histogram* put_hist_ = nullptr;
  obs::Histogram* get_hist_ = nullptr;
  obs::Counter* direct_puts_ = nullptr;
  obs::Counter* replications_sent_ = nullptr;
  obs::Counter* replications_accepted_ = nullptr;
  // Coalescing: wire messages sent / logical ops carried in them.
  obs::Counter* replication_batches_ = nullptr;
  obs::Counter* replication_batched_ops_ = nullptr;
  bool size_flush_inflight_ = false;
};

}  // namespace wiera::geo
