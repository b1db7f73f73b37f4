// WieraClient: the application-side handle.
//
// An application connects to the closest Tiera instance (the controller
// returns the instance list with the closest first, §4.1 step 8) and issues
// PUT/GET. If the closest instance is down it retries against the next
// closest, and so on (§4.4). Latency is recorded as the application
// perceives it: from issuing the request to receiving the response.
//
// Request lifecycle (docs/OVERLOAD.md): every operation may carry an
// absolute deadline covering the whole attempt sequence — failovers do not
// restart the clock — and failover retries spend a token-bucket budget so a
// browned-out cluster is not hammered by retry storms. GETs can optionally
// be hedged: when the primary attempt is slower than the observed latency
// percentile, one backup request is sent to the second-closest replica and
// whichever answers first wins.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/context.h"
#include "common/histogram.h"
#include "sim/simulation.h"
#include "wiera/health.h"
#include "wiera/messages.h"

namespace wiera::geo {

class WieraClient {
 public:
  struct Config {
    // Absolute budget for one client operation including failovers.
    // Zero = no deadline (seed behaviour).
    Duration op_deadline = Duration::zero();
    // Hedged GETs: after hedge_min_samples observed gets, a get that is
    // still pending past the p95 get latency (never sooner than 10 ms)
    // sends one backup request to the second peer.
    bool hedge_gets = false;
    int hedge_min_samples = 20;
    // Per-attempt bound inside the failover loop: an attempt still silent
    // after this long fails over to the next replica (spending a retry-
    // budget token) instead of letting one black-holed or draining peer
    // burn the whole op deadline before the client ever tries a healthy
    // one (docs/SCENARIOS.md). Zero = off (seed behaviour: only the op
    // deadline cuts an attempt short).
    Duration failover_attempt_timeout = Duration::zero();
    // Health-scored replica ranking (docs/HEALTH.md): when set, each
    // operation stable-sorts the replica preference order by the tracker's
    // rank penalty (probation last), successful attempt latencies feed the
    // per-target EWMA, and hedged GETs fire at the 10 ms floor — skipping
    // the percentile wait — when the preferred replica is not clean.
    // Null = seed behaviour.
    HealthTracker* health = nullptr;
  };

  // `peer_ids` is sorted by proximity automatically (base one-way latency
  // from the client's node).
  WieraClient(sim::Simulation& sim, net::Network& network,
              rpc::Registry& registry, std::string client_id,
              std::string node, std::vector<std::string> peer_ids,
              Config config);
  WieraClient(sim::Simulation& sim, net::Network& network,
              rpc::Registry& registry, std::string client_id,
              std::string node, std::vector<std::string> peer_ids)
      : WieraClient(sim, network, registry, std::move(client_id),
                    std::move(node), std::move(peer_ids), Config()) {}

  const std::string& id() const { return client_id_; }
  const std::string& closest_peer() const { return peer_ids_.front(); }

  sim::Task<Result<PutResponse>> put(std::string key, Blob value);
  sim::Task<Result<GetResponse>> get(std::string key);
  sim::Task<Result<GetResponse>> get_version(std::string key,
                                             int64_t version);
  // Table 2: update(key, version, object) — write an explicit version.
  sim::Task<Result<PutResponse>> update(std::string key, int64_t version,
                                        Blob value);
  // Table 2: getVersionList / remove / removeVersion. Removes propagate to
  // every replica through the contacted instance.
  sim::Task<Result<std::vector<int64_t>>> get_version_list(std::string key);
  sim::Task<Status> remove(std::string key);
  sim::Task<Status> remove_version(std::string key, int64_t version);

  // Thin views over the sim-wide metrics registry
  // (wiera_client_*{client=...}; docs/OBSERVABILITY.md).
  const LatencyHistogram& put_latency() const { return put_hist_->latency(); }
  const LatencyHistogram& get_latency() const { return get_hist_->latency(); }
  int64_t failovers() const { return failovers_->value(); }
  // Failovers forced by failover_attempt_timeout (subset of failovers()).
  int64_t attempt_timeouts() const { return attempt_timeouts_->value(); }
  int64_t hedged_gets() const { return hedged_gets_->value(); }
  int64_t hedged_wins() const { return hedged_wins_->value(); }
  int64_t retry_budget_denials() const { return retry_budget_.denied(); }
  // Responses the client rejected because their checksum did not match the
  // delivered bytes (corrupted on the response leg).
  int64_t checksum_failures() const { return checksum_failures_->value(); }
  // Trace id of the most recently *started* operation (the consistency
  // oracle stamps it onto the op it records, so a violation names the trace
  // that can be reassembled with obs::TraceView).
  uint64_t last_trace_id() const { return last_trace_id_; }

 private:
  // Call `method` on the preferred peer; on kUnavailable (peer down) or
  // kResourceExhausted (peer shedding load) demote that peer to the back of
  // the preference order (counting one failover) and try the next, so a
  // crashed primary costs exactly one failover instead of one per
  // subsequent operation (§4.4). Each failover spends a retry-budget token;
  // kDeadlineExceeded is final — the deadline covers all attempts — but the
  // peer that burned it is still demoted for future operations. An in-band
  // ack is a peer's answer, never a reason to fail over.
  template <class Req, class Resp>
  sim::Task<Result<Resp>> call_any(const rpc::Method<Req, Resp>& method,
                                   const Req& request, Context ctx);
  // Hedged GET: race the normal failover path against one delayed backup
  // request to the second-closest peer.
  sim::Task<Result<GetResponse>> call_hedged(GetRequest request,
                                             TraceContext trace);
  bool hedge_ready() const;
  // Stable-sort peer_ids_ by health rank penalty (docs/HEALTH.md): probation
  // peers sink to the back, degraded peers behind clean ones, and peers with
  // insufficient samples keep their existing (proximity / rotation) slot —
  // health never reorders equally-ranked replicas. No-op without a tracker.
  void rank_peers_by_health();
  Context make_ctx(TraceContext trace = {}) const;

  // Root-span bracket around one client operation: begin_op starts a fresh
  // trace (recorded in last_trace_id_), finish_op closes it with the final
  // status and journals failed operations with their trace identity.
  TraceContext begin_op(const char* name);
  void finish_op(std::string_view op_kind, const TraceContext& span,
                 const Status& st);
  // Op bodies minus the root-span bracket.
  sim::Task<Result<PutResponse>> update_impl(std::string key, int64_t version,
                                             Blob value, TraceContext op);
  sim::Task<Result<GetResponse>> get_version_impl(std::string key,
                                                  int64_t version,
                                                  TraceContext op);
  sim::Task<Status> remove_version_impl(std::string key, int64_t version,
                                        TraceContext op);

  obs::Tracer& tracer() { return sim_->telemetry().tracer(); }
  obs::Journal& journal() { return sim_->telemetry().journal(); }

  sim::Simulation* sim_;
  std::string client_id_;
  Config config_;
  std::unique_ptr<rpc::Endpoint> endpoint_;
  std::vector<std::string> peer_ids_;
  // Registry-backed instruments (created in the constructor).
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* put_hist_ = nullptr;
  obs::Histogram* get_hist_ = nullptr;
  obs::Counter* failovers_ = nullptr;
  obs::Counter* attempt_timeouts_ = nullptr;
  obs::Counter* hedged_gets_ = nullptr;
  obs::Counter* hedged_wins_ = nullptr;
  obs::Counter* checksum_failures_ = nullptr;
  RetryBudget retry_budget_;
  uint64_t last_trace_id_ = 0;
};

}  // namespace wiera::geo
