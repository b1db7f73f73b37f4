#include "wiera/client.h"

#include <algorithm>

#include "common/checksum.h"
#include "sim/sync.h"

namespace wiera::geo {

namespace {
// A hedged get waits for this percentile of observed get latency before
// sending its backup request, and never less than kHedgeMinDelay.
constexpr double kHedgePercentile = 0.95;
constexpr Duration kHedgeMinDelay = msec(10);
}  // namespace

WieraClient::WieraClient(sim::Simulation& sim, net::Network& network,
                         rpc::Registry& registry, std::string client_id,
                         std::string node, std::vector<std::string> peer_ids,
                         Config config)
    : sim_(&sim), client_id_(std::move(client_id)), config_(config),
      peer_ids_(std::move(peer_ids)) {
  endpoint_ = std::make_unique<rpc::Endpoint>(network, registry, node);
  metrics_ = &sim.telemetry().registry();
  const obs::LabelSet labels{{"client", client_id_}};
  put_hist_ = metrics_->histogram("wiera_client_put_latency_us", labels);
  get_hist_ = metrics_->histogram("wiera_client_get_latency_us", labels);
  failovers_ = metrics_->counter("wiera_client_failovers_total", labels);
  attempt_timeouts_ =
      metrics_->counter("wiera_client_attempt_timeouts_total", labels);
  hedged_gets_ = metrics_->counter("wiera_client_hedged_gets_total", labels);
  hedged_wins_ = metrics_->counter("wiera_client_hedged_wins_total", labels);
  checksum_failures_ =
      metrics_->counter("wiera_client_checksum_failures_total", labels);
  // Client-side hot-key sketch (docs/METRICS_PIPELINE.md): series register
  // lazily on the first recorded access, so the default (disabled) config
  // leaves telemetry dumps unchanged.
  key_stats_.configure(config_.key_stats);
  key_stats_.bind(metrics_, client_id_);
  // Closest instance first (§4.1 places it at the head of the list).
  std::stable_sort(peer_ids_.begin(), peer_ids_.end(),
                   [&](const std::string& a, const std::string& b) {
                     return network.topology().base_one_way(node, a) <
                            network.topology().base_one_way(node, b);
                   });
}

Context WieraClient::make_ctx(TraceContext trace) const {
  Context ctx;
  if (config_.op_deadline > Duration::zero()) {
    ctx = Context::with_deadline(sim_->now() + config_.op_deadline);
  }
  ctx.trace = trace;
  return ctx;
}

TraceContext WieraClient::begin_op(const char* name) {
  const TraceContext op = tracer().start_trace(name, client_id_);
  last_trace_id_ = op.trace_id;
  return op;
}

void WieraClient::finish_op(std::string_view op_kind, const TraceContext& span,
                            const Status& st) {
  tracer().end_span(span, st.ok() ? "ok" : status_code_name(st.code()));
  if (!st.ok()) {
    // Failed client operations always reach the journal with their trace
    // identity (CI asserts this linkage; docs/OBSERVABILITY.md).
    journal()
        .event("client", "op_failed")
        .str("client", client_id_)
        .str("op", op_kind)
        .str("status", status_code_name(st.code()))
        .trace(span);
  }
}

sim::Task<Result<rpc::Message>> WieraClient::call_any(
    std::string rpc_method, std::function<rpc::Message()> make_request,
    TraceContext trace) {
  co_return co_await call_any_ctx(std::move(rpc_method),
                                  std::move(make_request), make_ctx(trace));
}

void WieraClient::rank_peers_by_health() {
  if (config_.health == nullptr || !config_.health->enabled() ||
      peer_ids_.size() < 2) {
    return;
  }
  std::stable_sort(peer_ids_.begin(), peer_ids_.end(),
                   [this](const std::string& a, const std::string& b) {
                     return config_.health->rank_penalty(a) <
                            config_.health->rank_penalty(b);
                   });
}

sim::Task<Result<rpc::Message>> WieraClient::call_any_ctx(
    std::string rpc_method, std::function<rpc::Message()> make_request,
    Context ctx) {
  rank_peers_by_health();
  Result<rpc::Message> resp = internal_error("no peers");
  const size_t attempts = peer_ids_.size();
  for (size_t i = 0; i < attempts; ++i) {
    const std::string peer = peer_ids_.front();
    const TimePoint attempt_start = sim_->now();
    rpc::Message msg = make_request();
    // With failover_attempt_timeout set (and another replica to try), bound
    // this attempt tighter than the op deadline: a black-holed or draining
    // peer then costs one attempt window, not the whole op budget.
    Context attempt = ctx;
    bool attempt_bounded = false;
    if (config_.failover_attempt_timeout > Duration::zero() &&
        peer_ids_.size() > 1) {
      const TimePoint cut = sim_->now() + config_.failover_attempt_timeout;
      if (!ctx.has_deadline() || cut < ctx.deadline()) {
        attempt = Context::with_deadline(cut);
        attempt.trace = ctx.trace;
        attempt_bounded = true;
      }
    }
    resp = co_await endpoint_->call(peer, rpc_method, std::move(msg),
                                    attempt);
    if (resp.ok()) {
      // Successful exchanges feed the per-target latency EWMA; failures are
      // liveness signals and must not pollute the baseline.
      if (config_.health != nullptr) {
        config_.health->record_latency(peer, sim_->now() - attempt_start,
                                       sim_->now());
      }
      co_return resp;
    }
    const StatusCode code = resp.status().code();
    if (code == StatusCode::kDeadlineExceeded) {
      if (attempt_bounded) {
        // The *attempt* timer fired, not the op deadline (the attempt cut
        // was strictly earlier): the op still has time, so treat the silent
        // peer like an unreachable one and fail over within the budget.
        attempt_timeouts_->inc();
        tracer().annotate(ctx.trace, "attempt_timeout=" + peer);
      } else {
        // kDeadlineExceeded is final: the deadline covers the whole
        // operation, so another replica cannot answer in time either. But a
        // peer slow enough to burn the whole deadline is still demoted —
        // subsequent operations should prefer replicas that answer.
        if (peer_ids_.size() > 1) {
          std::rotate(peer_ids_.begin(), peer_ids_.begin() + 1,
                      peer_ids_.end());
        }
        co_return resp;
      }
    } else if (code != StatusCode::kUnavailable &&
               code != StatusCode::kResourceExhausted) {
      // Any other non-retriable error is the peer's verdict, not a liveness
      // problem.
      co_return resp;
    }
    if (i + 1 == attempts) break;
    // Failovers spend the retry budget: when the bucket is dry the last
    // error stands instead of amplifying an overload (docs/OVERLOAD.md).
    if (!retry_budget_.try_spend(sim_->now())) co_return resp;
    // Preferred instance unreachable (§4.4): one failover, then demote it
    // so subsequent operations go straight to the next-closest peer.
    failovers_->inc();
    tracer().annotate(ctx.trace, "failover_from=" + peer);
    std::rotate(peer_ids_.begin(), peer_ids_.begin() + 1, peer_ids_.end());
  }
  co_return resp;
}

bool WieraClient::hedge_ready() const {
  return config_.hedge_gets && peer_ids_.size() >= 2 &&
         get_hist_->count() >= config_.hedge_min_samples;
}

sim::Task<Result<rpc::Message>> WieraClient::call_hedged(GetRequest request,
                                                         TraceContext trace) {
  // Rank before choosing the trigger so peer_ids_.front() / [1] reflect
  // health: the backup request targets the best non-preferred replica, and
  // a non-clean preferred replica hedges at kHedgeMinDelay instead of
  // waiting out the latency percentile (docs/HEALTH.md).
  rank_peers_by_health();
  Duration trigger =
      std::max(get_hist_->percentile(kHedgePercentile), kHedgeMinDelay);
  if (config_.health != nullptr && config_.health->enabled() &&
      config_.health->rank_penalty(peer_ids_.front()) > 0) {
    trigger = kHedgeMinDelay;
  }
  auto promise = std::make_shared<sim::Promise<Result<rpc::Message>>>(
      *sim_, "client.hedged-get");
  Context ctx = make_ctx(trace);

  // Primary path: the normal failover sequence; it always reports its
  // outcome (first writer wins — the promise ignores late arrivals).
  sim_->spawn(
      [](WieraClient* self, GetRequest req, Context c,
         std::shared_ptr<sim::Promise<Result<rpc::Message>>> p)
          -> sim::Task<void> {
        auto resp = co_await self->call_any_ctx(
            method::kClientGet, [&] { return encode(req); }, c);
        if (!p->fulfilled()) p->set_value(std::move(resp));
      }(this, request, ctx, promise),
      client_id_ + "/hedge-primary");

  // Backup path: wait for the latency-percentile trigger, then send one
  // request to the second-closest replica. Only a success may win the race
  // — a failed hedge must not mask a primary still in flight.
  sim_->spawn(
      [](WieraClient* self, GetRequest req, Context c, Duration delay,
         std::shared_ptr<sim::Promise<Result<rpc::Message>>> p)
          -> sim::Task<void> {
        co_await self->sim_->delay(delay);
        if (p->fulfilled() || c.cancelled()) co_return;
        self->hedged_gets_->inc();
        self->tracer().annotate(c.trace, "hedged=true");
        const std::string backup = self->peer_ids_[1];
        auto resp = co_await self->endpoint_->call(
            backup, method::kClientGet, encode(req), c);
        if (resp.ok() && !p->fulfilled()) {
          self->hedged_wins_->inc();
          self->tracer().annotate(c.trace, "hedge_won=true");
          p->set_value(std::move(resp));
        }
      }(this, request, ctx, trigger, promise),
      client_id_ + "/hedge-backup");

  Result<rpc::Message> winner = co_await promise->future();
  // The loser keeps running until its own RPC resolves (or the deadline
  // cancels it); it holds the promise alive, so no dangling completion.
  co_return winner;
}

sim::Task<Result<PutResponse>> WieraClient::put(std::string key, Blob value) {
  co_return co_await update(std::move(key), 0, std::move(value));
}

sim::Task<Result<PutResponse>> WieraClient::update(std::string key,
                                                   int64_t version,
                                                   Blob value) {
  const TraceContext op = begin_op("client.put");
  Result<PutResponse> r =
      co_await update_impl(std::move(key), version, std::move(value), op);
  finish_op("put", op, r.ok() ? ok_status() : r.status());
  co_return r;
}

sim::Task<Result<PutResponse>> WieraClient::update_impl(std::string key,
                                                        int64_t version,
                                                        Blob value,
                                                        TraceContext op) {
  const TimePoint start = sim_->now();
  PutRequest req;
  req.key = std::move(key);
  req.value = std::move(value);
  req.client = client_id_;
  req.version = version;
  // Checksum the payload before it leaves the application: every hop to the
  // storing replica re-verifies it (docs/INTEGRITY.md).
  req.checksum = object_checksum(req.key, req.version, req.value);
  key_stats_.record_access(req.key, client_id_, start, /*is_put=*/true);

  Result<rpc::Message> resp =
      co_await call_any(method::kClientPut, [&] { return encode(req); }, op);
  if (!resp.ok()) co_return resp.status();
  auto decoded = decode<PutResponse>(*resp);
  if (!decoded.ok()) co_return decoded.status();
  // The serving peer echoed a checksum bound to (key, allocated version,
  // payload). Recomputing it over the bytes we sent proves the ack — and in
  // particular the version number in it — survived the return leg intact.
  if (decoded->checksum != 0 &&
      object_checksum(req.key, decoded->version, req.value) !=
          decoded->checksum) {
    checksum_failures_->inc();
    co_return data_loss("put " + req.key +
                        ": response corrupted in transit (checksum mismatch)");
  }
  put_hist_->record(sim_->now() - start);
  co_return std::move(decoded).value();
}

sim::Task<Result<GetResponse>> WieraClient::get(std::string key) {
  co_return co_await get_version(std::move(key), 0);
}

sim::Task<Result<GetResponse>> WieraClient::get_version(std::string key,
                                                        int64_t version) {
  const TraceContext op = begin_op("client.get");
  Result<GetResponse> r =
      co_await get_version_impl(std::move(key), version, op);
  finish_op("get", op, r.ok() ? ok_status() : r.status());
  co_return r;
}

sim::Task<Result<GetResponse>> WieraClient::get_version_impl(std::string key,
                                                             int64_t version,
                                                             TraceContext op) {
  const TimePoint start = sim_->now();
  GetRequest req;
  req.key = std::move(key);
  req.version = version;
  req.client = client_id_;
  // Request integrity: binds (key, version, client) so a request garbled in
  // transit is rejected by the peer instead of answered as a clean miss.
  req.checksum = object_checksum(req.key, req.version, req.client);
  key_stats_.record_access(req.key, client_id_, start, /*is_put=*/false);

  // NOTE: no ternary around co_await — GCC 12 miscompiles conditional
  // operators whose branches both await (frame-slot corruption).
  Result<rpc::Message> resp = internal_error("unset");
  if (hedge_ready()) {
    resp = co_await call_hedged(req, op);
  } else {
    resp = co_await call_any(method::kClientGet, [&] { return encode(req); },
                             op);
  }
  if (!resp.ok()) co_return resp.status();
  auto decoded = decode<GetResponse>(*resp);
  if (!decoded.ok()) co_return decoded.status();
  // The serving peer checksummed the payload it sent; a mismatch over the
  // delivered bytes means the response leg corrupted them in transit. The
  // operation fails kDataLoss rather than handing the application a
  // silently-corrupt payload.
  if (decoded->checksum != 0 &&
      object_checksum(req.key, decoded->version, decoded->value) !=
          decoded->checksum) {
    checksum_failures_->inc();
    co_return data_loss("get " + req.key +
                        ": payload corrupted in transit (checksum mismatch)");
  }
  get_hist_->record(sim_->now() - start);
  co_return std::move(decoded).value();
}

sim::Task<Result<std::vector<int64_t>>> WieraClient::get_version_list(
    std::string key) {
  const TraceContext op = begin_op("client.version_list");
  GetRequest req;
  req.key = std::move(key);
  req.client = client_id_;
  Result<rpc::Message> resp = co_await call_any(
      method::kVersionList, [&] { return encode(req); }, op);
  if (!resp.ok()) {
    finish_op("version_list", op, resp.status());
    co_return resp.status();
  }
  auto decoded = decode<VersionListResponse>(*resp);
  finish_op("version_list", op,
            decoded.ok() ? ok_status() : decoded.status());
  if (!decoded.ok()) co_return decoded.status();
  co_return std::move(decoded).value().versions;
}

sim::Task<Status> WieraClient::remove(std::string key) {
  co_return co_await remove_version(std::move(key), 0);
}

sim::Task<Status> WieraClient::remove_version(std::string key,
                                              int64_t version) {
  const TraceContext op = begin_op("client.remove");
  Status st = co_await remove_version_impl(std::move(key), version, op);
  finish_op("remove", op, st);
  co_return st;
}

sim::Task<Status> WieraClient::remove_version_impl(std::string key,
                                                   int64_t version,
                                                   TraceContext op) {
  RemoveRequest req;
  req.key = std::move(key);
  req.version = version;
  req.propagate = true;
  Result<rpc::Message> resp = co_await call_any(
      method::kRemove, [&] { return encode(req); }, op);
  if (!resp.ok()) co_return resp.status();
  co_return rpc::decode_status(*resp);
}

}  // namespace wiera::geo
