#include "wiera/peer.h"

#include <algorithm>
#include <cassert>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/small_vec.h"

namespace wiera::geo {

namespace {
constexpr char kComponent[] = "peer";

// Every duration literal a policy's event rules compare `path` against
// (`threshold.latency > 800 ms`), in rule order.
std::vector<Duration> threshold_literals(const policy::PolicyDoc& doc,
                                         std::string_view path) {
  std::vector<Duration> out;
  std::function<void(const policy::Expr&)> scan = [&](const policy::Expr& e) {
    if (!e.is_binary()) return;
    const auto& bin = e.binary();
    if (bin.lhs->is_path() && bin.lhs->path().dotted() == path &&
        bin.rhs->is_literal() &&
        bin.rhs->literal().value.kind == policy::Value::Kind::kDuration) {
      out.push_back(bin.rhs->literal().value.duration);
      return;
    }
    scan(*bin.lhs);
    scan(*bin.rhs);
  };
  for (const auto& rule : doc.events) {
    for (const auto& stmt : rule.response) {
      if (!stmt.is_if()) continue;
      for (const auto& branch : stmt.if_stmt().branches) {
        if (branch.condition != nullptr) scan(*branch.condition);
      }
    }
  }
  return out;
}

// Extract the latency threshold a DynamicConsistency policy compares
// against (`threshold.latency > 800 ms`), so the monitor knows when a
// violation streak starts without hard-coding the number.
Duration extract_latency_threshold(const policy::PolicyDoc& doc) {
  Duration threshold = Duration::max();
  for (Duration d : threshold_literals(doc, "threshold.latency")) {
    threshold = std::min(threshold, d);
  }
  return threshold;
}

// Extract the staleness bound a BoundedStaleness degradation policy allows
// (`threshold.staleness <= 10 seconds`). Duration::zero() when the policy
// names no bound — stale serving stays disabled rather than unbounded.
Duration extract_staleness_threshold(const policy::PolicyDoc& doc) {
  Duration bound = Duration::zero();
  for (Duration d : threshold_literals(doc, "threshold.staleness")) {
    bound = std::max(bound, d);
  }
  return bound;
}

// Find the first change_policy action in a statement list whose condition
// (already checked by the caller) matched; returns its what/to words.
struct ChangeAction {
  std::string what;
  std::string to;
};

std::optional<ChangeAction> find_change_action(
    const std::vector<policy::Stmt>& stmts) {
  for (const auto& stmt : stmts) {
    if (!stmt.is_action()) continue;
    const auto& action = stmt.action();
    if (action.name != "change_policy" && action.name != "change_consistency") {
      continue;
    }
    ChangeAction out;
    if (const policy::Expr* what = action.arg("what");
        what != nullptr && what->is_path()) {
      out.what = what->path().dotted();
    }
    if (const policy::Expr* to = action.arg("to");
        to != nullptr && to->is_path()) {
      out.to = to->path().dotted();
    }
    return out;
  }
  return std::nullopt;
}

// The status a finished span reports: "ok" or the status-code name.
std::string_view span_status(const Status& st) {
  return st.ok() ? "ok" : status_code_name(st.code());
}

// Walk a monitoring policy's rules under `ctx` and hand `act` the
// change_policy action of each rule that fires: per rule, the first branch
// of its first if-statement whose condition holds.
template <typename Act>
void for_each_fired_change(const policy::PolicyDoc& doc,
                           const policy::MapContext& ctx, Act&& act) {
  for (const auto& rule : doc.events) {
    for (const auto& stmt : rule.response) {
      if (!stmt.is_if()) continue;
      for (const auto& branch : stmt.if_stmt().branches) {
        bool matched = branch.condition == nullptr;
        if (!matched) {
          auto eval = policy::evaluate_condition(*branch.condition, ctx);
          matched = eval.ok() && *eval;
        }
        if (!matched) continue;
        if (auto change = find_change_action(branch.body)) act(*change);
        break;  // first matching branch only
      }
      break;  // one if-statement per monitoring rule
    }
  }
}

}  // namespace

WieraPeer::WieraPeer(sim::Simulation& sim, net::Network& network,
                     rpc::Registry& registry, Config config)
    : sim_(&sim), network_(&network), config_(std::move(config)) {
  endpoint_ = std::make_unique<rpc::Endpoint>(network, registry,
                                              config_.instance_id);
  // Every legacy counter/histogram is an instrument in the sim-wide metrics
  // registry, labeled by instance; accessors are thin views over these.
  metrics_ = &sim.telemetry().registry();
  const obs::LabelSet inst{{"instance", config_.instance_id}};
  catch_ups_completed_ = metrics_->counter("wiera_catch_ups_total", inst);
  replication_retries_ =
      metrics_->counter("wiera_replication_retries_total", inst);
  stale_serves_ = metrics_->counter("wiera_stale_serves_total", inst);
  breaker_fast_fails_ =
      metrics_->counter("wiera_breaker_fast_fails_total", inst);
  wire_checksum_failures_ =
      metrics_->counter("wiera_wire_checksum_failures_total", inst);
  repairs_ = metrics_->counter("wiera_repairs_total", inst);
  scrub_repairs_ = metrics_->counter("wiera_scrub_repairs_total", inst);
  scrub_rounds_ = metrics_->counter("wiera_scrub_rounds_total", inst);
  direct_puts_ = metrics_->counter("wiera_direct_puts_total", inst);
  replications_sent_ =
      metrics_->counter("wiera_replications_sent_total", inst);
  replications_accepted_ =
      metrics_->counter("wiera_replications_accepted_total", inst);
  // Registered only when batching is on: a counter family's mere presence
  // shows up in telemetry dumps, and batching-off deployments must produce
  // byte-identical dumps to the pre-batching code.
  if (config_.replicate_batch_max > 1) {
    replication_batches_ =
        metrics_->counter("wiera_replication_batches_total", inst);
    replication_batched_ops_ =
        metrics_->counter("wiera_replication_batched_ops_total", inst);
  }
  put_hist_ = metrics_->histogram("wiera_put_latency_us", inst);
  get_hist_ = metrics_->histogram("wiera_get_latency_us", inst);
  // Hot-key analytics (docs/METRICS_PIPELINE.md): bound eagerly but the
  // sketch registers its series lazily on first recorded access, so a
  // disabled (default) config adds nothing to telemetry dumps.
  key_stats_.configure(config_.key_stats);
  key_stats_.bind(metrics_, config_.instance_id);
  config_.local.instance_id = config_.instance_id;
  config_.local.region = config_.region;
  local_ = std::make_unique<tiera::TieraInstance>(sim, config_.local);
  local_->set_hooks(this);
  if (!config_.lock_service_node.empty()) {
    lock_client_ = std::make_unique<coord::LockClient>(
        *endpoint_, config_.lock_service_node);
  }
  queue_ = std::make_unique<sim::Channel<ReplicateRequest>>(
      sim, "peer.update-queue");
  unblocked_ = std::make_unique<sim::Event>(sim, "peer.unblocked");
  drained_ = std::make_unique<sim::Event>(sim, "peer.drained");
  unblocked_->set();
  if (config_.dynamic_consistency_policy.has_value()) {
    latency_threshold_ =
        extract_latency_threshold(*config_.dynamic_consistency_policy);
  }
  if (config_.max_inflight > 0) {
    endpoint_->set_admission(config_.max_inflight, config_.max_queue);
  }
  retry_budget_ = RetryBudget(config_.retry_budget_per_sec,
                              config_.retry_budget_capacity);
  if (config_.degradation_policy.has_value()) {
    stale_bound_ = extract_staleness_threshold(*config_.degradation_policy);
    allow_stale_ = stale_bound_ > Duration::zero();
  }
  register_handlers();
}

WieraPeer::~WieraPeer() { stop(); }

void WieraPeer::set_peers(std::vector<std::string> peer_ids) {
  peer_ids_.clear();
  for (auto& id : peer_ids) {
    if (id != config_.instance_id) peer_ids_.push_back(std::move(id));
  }
  storage_peer_ids_ = peer_ids_;
}

void WieraPeer::set_storage_peers(std::vector<std::string> storage_peer_ids) {
  storage_peer_ids_.clear();
  for (auto& id : storage_peer_ids) {
    if (id != config_.instance_id) {
      storage_peer_ids_.push_back(std::move(id));
    }
  }
}

void WieraPeer::start() {
  if (started_) return;
  started_ = true;
  stopping_ = false;
  local_->start();
  last_contact_ = sim_->now();
  sim_->spawn(queue_flusher(), config_.instance_id + "/queue-flusher");
  if (config_.scrub_interval > Duration::zero()) {
    sim_->spawn(scrub_loop(), config_.instance_id + "/scrubber");
  }
  if (config_.serve_lease > Duration::zero()) {
    sim_->spawn(availability_loop(),
                config_.instance_id + "/availability-loop");
  }
  if (config_.change_primary_policy.has_value()) {
    sim_->spawn(requests_monitor_loop(),
                config_.instance_id + "/requests-monitor");
  }
}

void WieraPeer::stop() {
  stopping_ = true;
  started_ = false;
  local_->stop();
}

int64_t WieraPeer::forwarded_puts_from(const std::string& origin) const {
  return metrics_->counter_value(
      "wiera_forwarded_puts_total",
      {{"instance", config_.instance_id}, {"origin", origin}});
}

void WieraPeer::register_handlers() {
  endpoint_->register_handler(
      method::kClientPut,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_put_request(msg);
        if (!req.ok()) co_return req.status();
        PutRequest request = std::move(req).value();
        request.deadline = msg.deadline;  // frame metadata -> request
        request.trace = msg.trace();
        auto resp = co_await client_put(std::move(request));
        if (!resp.ok()) co_return resp.status();
        co_return encode(*resp);
      });
  endpoint_->register_handler(
      method::kClientGet,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_get_request(msg);
        if (!req.ok()) co_return req.status();
        GetRequest request = std::move(req).value();
        request.deadline = msg.deadline;
        request.trace = msg.trace();
        auto resp = co_await client_get(std::move(request));
        if (!resp.ok()) co_return resp.status();
        co_return encode(*resp);
      });
  endpoint_->register_handler(
      method::kForwardPut,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_put_request(msg);
        if (!req.ok()) co_return req.status();
        PutRequest request = std::move(req).value();
        request.forwarded = true;
        request.deadline = msg.deadline;
        request.trace = msg.trace();
        auto resp = co_await client_put(std::move(request));
        if (!resp.ok()) co_return resp.status();
        co_return encode(*resp);
      });
  endpoint_->register_handler(
      method::kForwardGet,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_get_request(msg);
        if (!req.ok()) co_return req.status();
        // Serve locally; do not re-forward (avoids loops).
        GetRequest request = std::move(req).value();
        request.deadline = msg.deadline;
        auto out = co_await local_get(request);
        if (!out.ok()) co_return out.status();
        co_return encode(*out);
      });
  endpoint_->register_handler(
      method::kReplicate,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_replicate_request(msg);
        if (!req.ok()) co_return req.status();
        // Verify before applying: a payload bit-flipped in transit must
        // never land in a replica. The sender sees the error, keeps the
        // update queued, and retries on the next flush tick.
        auto accepted = co_await apply_update(*req, "replicate");
        if (!accepted.ok()) co_return accepted.status();
        co_return encode(ReplicateResponse{*accepted});
      });
  endpoint_->register_handler(
      method::kReplicateBatch,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_replicate_batch_request(msg);
        if (!req.ok()) co_return req.status();
        // Each op is verified and applied independently: a corrupt or
        // rejected op reports its own status without poisoning batch-mates
        // the sender would otherwise have to re-send.
        ReplicateBatchResponse out;
        out.results.reserve(req->ops.size());
        for (const ReplicateRequest& op : req->ops) {
          ReplicateBatchResult res;
          auto accepted = co_await apply_update(op, "replicate");
          if (!accepted.ok()) {
            res.code = accepted.status().code();
          } else {
            res.accepted = *accepted;
          }
          out.results.push_back(res);
        }
        co_return encode(out);
      });
  endpoint_->register_handler(
      method::kSetConsistency,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_set_consistency(msg);
        if (!req.ok()) co_return req.status();
        Status st = co_await apply_consistency_change(req->mode);
        co_return encode_status(st);
      });
  endpoint_->register_handler(
      method::kSetPrimary,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_set_primary(msg);
        if (!req.ok()) co_return req.status();
        apply_primary_change(req->primary_instance);
        co_return encode_status(ok_status());
      });
  endpoint_->register_handler(
      method::kPing,
      [](rpc::Message) -> sim::Task<Result<rpc::Message>> {
        co_return encode_status(ok_status());
      });
  endpoint_->register_handler(
      method::kVersionList,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_get_request(msg);
        if (!req.ok()) co_return req.status();
        VersionListResponse out;
        out.versions = local_->get_version_list(req->key);
        co_return encode(out);
      });
  endpoint_->register_handler(
      method::kRemove,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_remove_request(msg);
        if (!req.ok()) co_return req.status();
        RemoveRequest request = std::move(req).value();
        request.deadline = msg.deadline;
        request.trace = msg.trace();
        Status st = co_await remove_key(std::move(request));
        co_return encode_status(st);
      });
  endpoint_->register_handler(
      method::kSyncPull,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_sync_pull_request(msg);
        if (!req.ok()) co_return req.status();
        SyncPullResponse out;
        co_await for_each_latest([&out](ReplicateRequest entry) {
          out.entries.push_back(std::move(entry));
        });
        co_return encode(out);
      });
  endpoint_->register_handler(
      method::kScrubDigest,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_scrub_digest_request(msg);
        if (!req.ok()) co_return req.status();
        // Metadata-only: the recorded checksum of each key's latest
        // committed version. No payload reads — the digest exchange stays
        // cheap even over large objects.
        ScrubDigestResponse out;
        for (const std::string& key : local_->meta().keys()) {
          const metadb::ObjectMeta* obj = local_->meta().find(key);
          if (obj == nullptr) continue;
          const metadb::VersionMeta* vm = obj->latest_committed();
          if (vm == nullptr) continue;
          out.entries.push_back(ScrubDigest{key, vm->version, vm->checksum});
        }
        co_return encode(out);
      });
  endpoint_->register_handler(
      method::kRepairFetch,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_repair_fetch_request(msg);
        if (!req.ok()) co_return req.status();
        int64_t version = req->version;
        if (version == 0) {
          const metadb::ObjectMeta* obj = local_->meta().find(req->key);
          const metadb::VersionMeta* latest =
              obj == nullptr ? nullptr : obj->latest_committed();
          if (latest == nullptr) {
            co_return not_found("repair fetch: no committed version of " +
                                req->key + " on " + config_.instance_id);
          }
          version = latest->version;
        }
        // The read path verifies the payload against the recorded checksum,
        // so a replica whose own copy rotted answers kDataLoss here and the
        // requester moves on to the next replica.
        auto value = co_await local_->get_version(req->key, version);
        if (!value.ok()) co_return value.status();
        const metadb::VersionMeta* vm =
            local_->meta().find_version(req->key, version);
        ReplicateRequest entry;
        entry.key = req->key;
        entry.version = version;
        entry.value = std::move(value->value);
        entry.last_modified =
            vm != nullptr ? vm->last_modified : sim_->now();
        entry.origin = vm != nullptr ? vm->origin : config_.instance_id;
        entry.checksum = object_checksum(entry.key, entry.version,
                                         entry.value);
        co_return encode(entry);
      });
  endpoint_->register_handler(
      method::kColdStore,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_replicate_request(msg);
        if (!req.ok()) co_return req.status();
        if (config_.local.verify_checksums && req->checksum != 0 &&
            object_checksum(req->key, req->version, req->value) !=
                req->checksum) {
          wire_checksum_failures_->inc();
          co_return data_loss("cold store of " + req->key + " on " +
                              config_.instance_id +
                              ": payload arrived corrupt");
        }
        store::StorageTier* tier =
            local_->tier_by_label(config_.cold_tier_label);
        if (tier == nullptr) {
          co_return failed_precondition("no cold tier configured on " +
                                        config_.instance_id);
        }
        std::string vkey =
            tiera::TieraInstance::versioned_key(req->key, req->version);
        Status st = co_await tier->put(std::move(vkey), req->value, {});
        if (!st.ok()) co_return st;
        metadb::VersionMeta& vm =
            local_->meta_mutable().upsert_version(req->key, req->version);
        vm.size = static_cast<int64_t>(req->value.size());
        vm.last_modified = req->last_modified;
        vm.origin = req->origin;
        vm.tier = config_.cold_tier_label;
        vm.committed = true;
        // Recomputed locally — never trusted from the wire.
        vm.checksum = object_checksum(req->key, req->version, req->value);
        co_return encode_status(ok_status());
      });
  endpoint_->register_handler(
      method::kColdFetch,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        auto req = decode_get_request(msg);
        if (!req.ok()) co_return req.status();
        auto local = co_await local_->get(req->key);
        if (!local.ok()) co_return local.status();
        GetResponse out;
        out.value = std::move(local->value);
        out.version = local->version;
        out.served_by = config_.instance_id;
        out.checksum = object_checksum(req->key, out.version, out.value);
        co_return encode(out);
      });
}

// ---------------------------------------------------------------- data plane

sim::Task<Result<PutResponse>> WieraPeer::client_put(PutRequest request) {
  // End-to-end write integrity: the client checksummed (key, version,
  // payload) before the bytes left it; reject rather than durably store a
  // payload that was corrupted in transit. Covers the forwarded-put hop
  // too (the checksum travels with the re-encoded request).
  if (config_.local.verify_checksums && request.checksum != 0 &&
      object_checksum(request.key, request.version, request.value) !=
          request.checksum) {
    wire_checksum_failures_->inc();
    co_return data_loss("put " + request.key + " on " + config_.instance_id +
                        ": payload arrived corrupt (checksum mismatch)");
  }
  if (Status gate = availability_gate(); !gate.ok()) co_return gate;
  co_await wait_if_blocked();
  op_started();
  const TimePoint start = sim_->now();
  tracer().annotate(request.trace,
                    std::string("mode=")
                        .append(consistency_mode_name(config_.mode)));

  record_put_source(request.client, request.forwarded);
  key_stats_.record_access(request.key, request.client, sim_->now(),
                           /*is_put=*/true);

  Result<PutResponse> result = internal_error("unreached");
  switch (config_.mode) {
    case ConsistencyMode::kMultiPrimaries:
      result = co_await put_multi_primaries(request);
      break;
    case ConsistencyMode::kPrimaryBackupSync:
    case ConsistencyMode::kPrimaryBackupAsync:
      result = co_await put_primary_backup(request);
      break;
    case ConsistencyMode::kEventual:
      result = co_await put_eventual(request);
      break;
  }

  const Duration latency = sim_->now() - start;
  put_hist_->record(latency);
  if (config_.network_monitor != nullptr) {
    config_.network_monitor->record_request_latency(config_.instance_id,
                                                    latency);
  }
  if (config_.workload_monitor != nullptr && !request.forwarded) {
    config_.workload_monitor->record_request(
        config_.instance_id, /*is_put=*/true,
        static_cast<int64_t>(request.value.size()));
  }
  // In strong modes the client-perceived put latency is the monitoring
  // signal; in eventual mode the flusher feeds replication latencies.
  if (config_.mode != ConsistencyMode::kEventual) {
    observe_put_latency(latency);
  }
  op_finished();
  co_return result;
}

sim::Task<Result<PutResponse>> WieraPeer::put_multi_primaries(
    PutRequest& request) {
  if (lock_client_ == nullptr) {
    co_return failed_precondition(
        "MultiPrimaries requires a lock service (none configured)");
  }
  const std::string lock_name = "key:" + request.key;
  Status st = co_await lock_client_->acquire(lock_name);
  if (!st.ok()) co_return st;

  Result<PutResponse> result = co_await put_local_and_replicate(
      request, /*synchronous=*/true);

  Status release_st = co_await lock_client_->release(lock_name);
  if (!release_st.ok()) {
    WLOG_WARN(kComponent) << id() << " lock release failed: "
                          << release_st.to_string();
  }
  co_return result;
}

sim::Task<Result<PutResponse>> WieraPeer::put_primary_backup(
    PutRequest& request) {
  if (!config_.is_primary) {
    // Forward to the primary (Fig. 3b else-branch). The forward is gated by
    // the per-peer breaker: once the primary has burned a few deadlines the
    // backup fails fast instead of parking every put until its deadline.
    const std::string primary = config_.primary_instance;
    Status open = breaker_gate(primary, "forward to", request.trace,
                               "breaker=open target=" + primary);
    if (!open.ok()) co_return open;
    PutRequest forwarded = request;
    forwarded.client = config_.instance_id;
    forwarded.forwarded = true;
    rpc::Message msg = encode(forwarded);
    auto resp = co_await endpoint_->call(
        primary, method::kForwardPut, std::move(msg),
        ctx_for(request.deadline, request.trace));
    breaker_record(primary, resp.status());
    if (!resp.ok()) co_return resp.status();
    co_return decode_put_response(*resp);
  }
  co_return co_await put_local_and_replicate(
      request, config_.mode == ConsistencyMode::kPrimaryBackupSync);
}

sim::Task<Result<PutResponse>> WieraPeer::put_eventual(PutRequest& request) {
  co_return co_await put_local_and_replicate(request, /*synchronous=*/false);
}

sim::Task<Result<PutResponse>> WieraPeer::put_local_and_replicate(
    PutRequest& request, bool synchronous) {
  if (config_.forwarding_only || local_->tier_count() == 0) {
    co_return failed_precondition("forwarding-only instance cannot store");
  }
  int64_t version = request.version;
  // Tier-access hop of the trace: how much of the put was the local write.
  const TraceContext tier_span =
      tracer().start_span("tiera.put", config_.instance_id, request.trace);
  Status tier_status = ok_status();
  if (version == 0) {
    auto put_result = co_await local_->put(
        request.key, request.value,
        {.direct = request.direct, .deadline = request.deadline});
    if (!put_result.ok()) {
      tier_status = put_result.status();
    } else {
      version = put_result->version;
    }
  } else {
    // Table 2 update(): the application names the version explicitly.
    tier_status = co_await local_->update(
        request.key, version, request.value,
        {.direct = request.direct, .deadline = request.deadline});
  }
  tracer().end_span(tier_span, span_status(tier_status));
  if (!tier_status.ok()) co_return tier_status;

  ReplicateRequest update;
  update.key = request.key;
  update.version = version;
  update.value = request.value;
  // Carry the exact timestamp the local metadata recorded — replicas must
  // all compare the same value or LWW diverges.
  const metadb::VersionMeta* vm =
      local_->meta().find_version(request.key, version);
  update.last_modified = vm != nullptr ? vm->last_modified : sim_->now();
  update.origin = config_.instance_id;
  // The recorded checksum now binds the allocated version; replicas verify
  // it on receipt and recompute it locally when they apply the update.
  update.checksum = vm != nullptr
                        ? vm->checksum
                        : object_checksum(request.key, version, request.value);

  // The response carries the same checksum so the client can prove the
  // (version, ack) it receives wasn't garbled on the return leg.
  const uint64_t response_checksum = update.checksum;

  if (synchronous) {
    // A synchronous copy is a replication chunk of one.
    std::vector<ReplicateRequest> chunk;
    chunk.push_back(std::move(update));
    std::vector<Status> op_status =
        co_await replicate_to_all(chunk, request.deadline, request.trace);
    if (!op_status.front().ok()) co_return op_status.front();
  } else if (!storage_peer_ids_.empty()) {
    queue_->send(std::move(update));
    maybe_trigger_size_flush();
  }
  co_return PutResponse{version, response_checksum};
}

sim::Task<Result<GetResponse>> WieraPeer::client_get(GetRequest request) {
  // Request integrity: a GET whose key was garbled in transit must fail
  // loudly, not be answered as a clean miss (or with another object's
  // bytes). Clients checksum (key, version, client); internal forwards
  // leave it 0.
  if (config_.local.verify_checksums && request.checksum != 0 &&
      object_checksum(request.key, request.version, request.client) !=
          request.checksum) {
    wire_checksum_failures_->inc();
    co_return data_loss("get " + request.key + " on " + config_.instance_id +
                        ": request arrived corrupt (checksum mismatch)");
  }
  if (Status gate = availability_gate(); !gate.ok()) {
    // Graceful degradation (docs/OVERLOAD.md): a lease-lapsed replica may
    // answer from its local copy, flagged stale, while the BoundedStaleness
    // bound still covers it. Consumers treating the flag as a failure keep
    // strong semantics; the oracle records stale reads as unverified.
    if (stale_read_allowed()) {
      auto stale = co_await stale_local_get(request);
      if (stale.ok()) co_return stale;
    }
    co_return gate;
  }
  co_await wait_if_blocked();
  op_started();
  const TimePoint start = sim_->now();
  key_stats_.record_access(request.key, request.client, start,
                           /*is_put=*/false);
  Result<GetResponse> result = internal_error("unreached");

  // §5.4 get-forwarding / Fig. 6b forwarding instances.
  std::string forward_target;
  if (!config_.get_forward_target.empty() &&
      config_.get_forward_target != config_.instance_id) {
    forward_target = config_.get_forward_target;
  } else if (config_.forwarding_only) {
    forward_target = config_.primary_instance;
  }

  if (!forward_target.empty()) {
    Status open = breaker_gate(forward_target, "forward to", request.trace,
                               "breaker=open target=" + forward_target);
    if (!open.ok()) {
      result = open;
    } else {
      rpc::Message msg = encode(request);
      auto resp = co_await endpoint_->call(
          forward_target, method::kForwardGet, std::move(msg),
          ctx_for(request.deadline, request.trace));
      breaker_record(forward_target, resp.status());
      if (!resp.ok()) {
        result = resp.status();
      } else {
        result = decode_get_response(*resp);
      }
    }
    // Forward target unreachable or too slow: fall back to the local copy,
    // flagged stale, when the degradation policy covers it.
    if (!result.ok() &&
        (result.status().code() == StatusCode::kUnavailable ||
         result.status().code() == StatusCode::kDeadlineExceeded) &&
        stale_read_allowed()) {
      auto stale = co_await stale_local_get(request);
      if (stale.ok()) result = std::move(stale);
    }
  } else if (cold_remote_keys_.count(request.key) > 0 &&
             !config_.centralized_cold_target.empty()) {
    // §5.3: the only replica of this (cold) key lives at the centralized
    // cold-storage peer.
    rpc::Message msg = encode(request);
    auto resp = co_await endpoint_->call(
        config_.centralized_cold_target, method::kColdFetch, std::move(msg),
        ctx_for(request.deadline, request.trace));
    if (!resp.ok()) {
      result = resp.status();
    } else {
      result = decode_get_response(*resp);
    }
  } else {
    const TraceContext tier_span =
        tracer().start_span("tiera.get", config_.instance_id, request.trace);
    Result<GetResponse> local = co_await local_get(request);
    tracer().end_span(tier_span, span_status(local.status()));
    if (local.ok()) {
      result = std::move(local);
    } else if (local.status().code() == StatusCode::kDataLoss &&
               !storage_peer_ids_.empty()) {
      // Every local copy failed its checksum and was quarantined: read-
      // repair from a healthy replica and serve the repaired payload
      // (docs/INTEGRITY.md).
      tracer().annotate(request.trace, "read_repair=true");
      result = co_await repair_get(request);
    } else if (local.status().code() == StatusCode::kNotFound &&
               !config_.is_primary && !config_.primary_instance.empty() &&
               config_.primary_instance != config_.instance_id) {
      // Replica miss: ask the primary.
      rpc::Message msg = encode(request);
      auto resp = co_await endpoint_->call(
          config_.primary_instance, method::kForwardGet, std::move(msg),
          ctx_for(request.deadline, request.trace));
      if (!resp.ok()) {
        result = resp.status();
      } else {
        result = decode_get_response(*resp);
      }
    } else {
      result = local.status();
    }
  }

  const Duration get_latency = sim_->now() - start;
  get_hist_->record(get_latency);
  if (config_.network_monitor != nullptr) {
    config_.network_monitor->record_request_latency(config_.instance_id,
                                                    get_latency);
  }
  if (config_.workload_monitor != nullptr) {
    const int64_t bytes =
        result.ok() ? static_cast<int64_t>(result->value.size()) : 0;
    config_.workload_monitor->record_request(config_.instance_id,
                                             /*is_put=*/false, bytes);
  }
  op_finished();
  co_return result;
}

std::vector<int64_t> WieraPeer::version_list(const std::string& key) const {
  return local_->get_version_list(key);
}

sim::Task<Status> WieraPeer::remove_key(RemoveRequest request) {
  if (Status gate = availability_gate(); !gate.ok()) co_return gate;
  co_await wait_if_blocked();
  op_started();
  Status local_status;
  if (request.version == 0) {
    local_status = co_await local_->remove(request.key);
  } else {
    local_status = co_await local_->remove_version(request.key,
                                                   request.version);
  }

  // Propagate the removal to every storage replica (fire-and-collect,
  // like a synchronous copy). Replicas that never had the key report
  // not-found, which is fine.
  if (request.propagate && !storage_peer_ids_.empty()) {
    RemoveRequest fanout = request;
    fanout.propagate = false;
    std::vector<sim::Task<Status>> tasks;
    for (const std::string& peer_id : storage_peer_ids_) {
      tasks.push_back([](rpc::Endpoint* ep, std::string target, rpc::Message m,
                         Context ctx) -> sim::Task<Status> {
        auto resp = co_await ep->call(std::move(target), method::kRemove,
                                      std::move(m), ctx);
        if (!resp.ok()) co_return resp.status();
        co_return decode_status(*resp);
      }(endpoint_.get(), peer_id, encode(fanout),
        ctx_for(request.deadline, request.trace)));
    }
    std::vector<Status> results =
        co_await sim::when_all(*sim_, std::move(tasks));
    for (const Status& st : results) {
      if (!st.ok() && st.code() != StatusCode::kNotFound) {
        op_finished();
        co_return st;
      }
    }
  }
  op_finished();
  co_return local_status;
}

// ---------------------------------------------------------------- replication
//
// One pipeline serves every consistency mode (§3.3): a synchronous copy is
// a chunk of one, and a flush round drains the queue in chunks of up to
// replicate_batch_max. The chunk size picks the wire format: one op rides a
// kReplicate message, more ride one kReplicateBatch per target.

sim::Task<std::vector<Status>> WieraPeer::replicate_to_all(
    const std::vector<ReplicateRequest>& ops, TimePoint deadline,
    TraceContext parent) {
  // Membership can widen while the fan-out is in flight (a recovered peer
  // rejoining). Keep sending until the acknowledged set covers the current
  // membership: a put must never report success while excluding a peer that
  // became a replication target again mid-flight — its catch-up snapshot may
  // predate this update, which would leave it permanently stale.
  std::vector<Status> op_status(ops.size());
  FlatSet<std::string, 4> acked;
  while (true) {
    std::vector<std::string> targets;
    for (const std::string& peer_id : storage_peer_ids_) {
      if (acked.insert(peer_id).second) targets.push_back(peer_id);
    }
    if (targets.empty()) co_return op_status;
    order_targets_by_health(targets);
    std::vector<sim::Task<std::vector<Status>>> tasks;
    tasks.reserve(targets.size());
    for (const std::string& peer_id : targets) {
      tasks.push_back(send_replicate(peer_id, ops, deadline, parent));
    }
    std::vector<std::vector<Status>> per_target =
        co_await sim::when_all(*sim_, std::move(tasks));
    for (const std::vector<Status>& statuses : per_target) {
      for (size_t i = 0; i < ops.size(); ++i) {
        if (!statuses[i].ok() && op_status[i].ok()) op_status[i] = statuses[i];
      }
    }
    // A round that failed every op ends the fan-out: the put fails, or the
    // flush requeues the whole chunk, without waiting on new members.
    if (std::none_of(op_status.begin(), op_status.end(),
                     [](const Status& st) { return st.ok(); })) {
      co_return op_status;
    }
  }
}

sim::Task<std::vector<Status>> WieraPeer::send_replicate(
    std::string target, const std::vector<ReplicateRequest>& ops,
    TimePoint deadline, TraceContext parent) {
  const bool batched = ops.size() > 1;
  const std::string batched_note =
      batched ? "batched=" + std::to_string(ops.size()) : std::string();
  // One replication span per op per target covering every retry attempt,
  // so a retried send shows up as one annotated span, not duplicate spans.
  // A coalesced send must not make replication lag invisible per update:
  // its op spans are annotated batched=N and the wire-level batch gets its
  // own span. The op spans close with their op's outcome.
  SmallVec<TraceContext, 1> op_spans;
  op_spans.reserve(ops.size());
  for (const ReplicateRequest& op : ops) {
    TraceContext span = tracer().start_span("peer.replicate " + target,
                                            config_.instance_id, parent);
    if (batched) {
      tracer().annotate(span, batched_note);
      tracer().annotate(span, "key=" + op.key);
    }
    op_spans.push_back(span);
  }
  // Retry, budget and breaker annotations land on the span of the wire
  // message: the op's own span when it travels alone.
  TraceContext wire_span = op_spans.front();
  if (batched) {
    wire_span = tracer().start_span("peer.replicate_batch " + target,
                                    config_.instance_id, parent);
    tracer().annotate(wire_span, batched_note);
  }

  Status last = unavailable("replicate: no attempt made");
  std::optional<rpc::Message> reply;
  for (int attempt = 0; attempt <= config_.replicate_retries; ++attempt) {
    if (attempt > 0) {
      // Retries spend the budget: under a sustained brownout the token
      // bucket drains and the send fails with its last error instead of
      // amplifying the overload (docs/OVERLOAD.md).
      if (!retry_budget_.try_spend(sim_->now())) {
        tracer().annotate(wire_span, "retry_budget=denied");
        break;
      }
      replication_retries_->inc();
      tracer().annotate(wire_span, "retry=" + std::to_string(attempt));
      co_await sim_->delay(config_.replicate_backoff *
                           static_cast<double>(int64_t{1} << (attempt - 1)));
      if (stopping_) break;
    }
    if (deadline != TimePoint::max() && sim_->now() >= deadline) {
      last = deadline_exceeded("replicate to " + target +
                               ": deadline exceeded");
      break;
    }
    // Fail fast; the backoff loop above still paces any retry attempts.
    Status open = breaker_gate(target, "replicate to", wire_span,
                               "breaker=open");
    if (!open.ok()) {
      last = open;
      continue;
    }
    // Payload blobs are ref-counted: rebuilding the request per attempt
    // shares the bytes, it does not copy them.
    rpc::Message msg;
    if (batched) {
      ReplicateBatchRequest req;
      req.origin = config_.instance_id;
      req.ops = ops;
      msg = encode(req);
      replication_batches_->inc();
      replication_batched_ops_->inc(static_cast<int64_t>(ops.size()));
    } else {
      msg = encode(ops.front());
    }
    // One send per op per target, whichever wire format carries it.
    replications_sent_->inc(static_cast<int64_t>(ops.size()));
    const TimePoint start = sim_->now();
    auto resp = co_await endpoint_->call(
        target, batched ? method::kReplicateBatch : method::kReplicate,
        std::move(msg), ctx_for(deadline, wire_span));
    if (config_.network_monitor != nullptr) {
      config_.network_monitor->record_link_latency(config_.instance_id, target,
                                                   sim_->now() - start);
    }
    if (config_.health != nullptr && resp.ok()) {
      // Successful acks only: timeouts would pollute the EWMA with the
      // deadline value instead of the peer's actual service time.
      config_.health->record_latency(target, sim_->now() - start, sim_->now());
    }
    breaker_record(target, resp.status());
    if (!resp.ok()) {
      last = resp.status();
      // Only unreachability is worth retrying; other errors are permanent.
      if (last.code() == StatusCode::kUnavailable) continue;
      break;
    }
    reply = std::move(*resp);
    break;
  }

  // Per-op outcomes; a lone op's response is its one result.
  SmallVec<ReplicateBatchResult, 1> results;
  bool delivered = false;
  if (reply.has_value() && batched) {
    auto decoded = decode_replicate_batch_response(*reply);
    if (decoded.ok()) {
      delivered = true;
      for (const ReplicateBatchResult& res : decoded->results) {
        results.push_back(res);
      }
    } else {
      last = decoded.status();
    }
  } else if (reply.has_value()) {
    auto decoded = decode_replicate_response(*reply);
    if (decoded.ok()) {
      delivered = true;
      results.push_back({StatusCode::kOk, decoded->accepted});
    } else {
      last = decoded.status();
    }
  }
  std::vector<Status> out;
  out.reserve(ops.size());
  for (size_t i = 0; i < ops.size(); ++i) {
    if (!delivered) {
      out.push_back(last);
    } else if (i >= results.size()) {
      out.push_back(invalid_argument("batched replicate to " + target +
                                     ": short response"));
    } else if (results[i].code != StatusCode::kOk) {
      out.push_back(Status(results[i].code,
                           "batched replicate to " + target + ": op rejected"));
    } else {
      if (results[i].accepted) replications_accepted_->inc();
      out.push_back(ok_status());
    }
  }
  if (batched) {
    tracer().end_span(wire_span, delivered ? "ok" : span_status(last));
  }
  for (size_t i = 0; i < ops.size(); ++i) {
    tracer().end_span(op_spans[i], span_status(out[i]));
  }
  co_return out;
}

sim::Task<void> WieraPeer::queue_flusher() {
  while (!stopping_) {
    co_await sim_->delay(config_.queue_flush_interval);
    if (stopping_) break;
    Status st = co_await flush_queue();
    if (!st.ok()) {
      WLOG_WARN(kComponent) << id() << " queue flush: " << st.to_string();
    }
  }
}

sim::Task<Status> WieraPeer::flush_queue() {
  // Bound this round to the items queued when it started; requeued
  // failures are retried on the *next* flush tick rather than spinning.
  size_t budget = queue_->size();
  // Async replication is its own root trace: the originating put returned
  // long ago, so the flush round cannot ride its span tree. One root per
  // non-empty round keeps the span volume proportional to actual work.
  TraceContext flush_trace;
  if (budget > 0) {
    flush_trace = tracer().start_trace("peer.flush", config_.instance_id);
  }
  // Chunks of up to replicate_batch_max queued updates, one wire message
  // per target per chunk (docs/PERFORMANCE.md).
  const auto max_ops =
      static_cast<size_t>(std::max(1, config_.replicate_batch_max));
  Status first_error;
  while (budget > 0 && !queue_->empty()) {
    std::vector<ReplicateRequest> chunk;
    while (chunk.size() < max_ops && budget > 0) {
      std::optional<ReplicateRequest> item = queue_->try_recv();
      if (!item.has_value()) break;
      budget--;
      chunk.push_back(std::move(*item));
    }
    if (chunk.empty()) break;
    const TimePoint start = sim_->now();
    std::vector<Status> op_status =
        co_await replicate_to_all(chunk, TimePoint::max(), flush_trace);
    // In eventual mode, background replication latency is the monitoring
    // signal for switching back to strong consistency (Fig. 7 points 1, 2).
    if (config_.mode == ConsistencyMode::kEventual) {
      observe_put_latency(sim_->now() - start);
    }
    // A replica was unreachable: requeue exactly the ops that failed
    // somewhere and retry them next tick. Replicas that already accepted
    // an update reject the duplicate via LWW, so the retry is idempotent,
    // and accepted batch-mates are not re-sent at all.
    for (size_t i = 0; i < chunk.size(); ++i) {
      if (op_status[i].ok()) continue;
      queue_->send(std::move(chunk[i]));
      if (first_error.ok()) first_error = op_status[i];
    }
  }
  tracer().end_span(flush_trace, span_status(first_error));
  co_return first_error;
}

void WieraPeer::maybe_trigger_size_flush() {
  if (config_.replicate_batch_max <= 1 || size_flush_inflight_ || stopping_) {
    return;
  }
  if (queue_->size() < static_cast<size_t>(config_.replicate_batch_max)) {
    return;
  }
  size_flush_inflight_ = true;
  sim_->spawn(size_triggered_flush(), config_.instance_id + "/size-flush");
}

sim::Task<void> WieraPeer::size_triggered_flush() {
  Status st = co_await flush_queue();
  size_flush_inflight_ = false;
  if (!st.ok()) {
    WLOG_WARN(kComponent) << id() << " size-triggered flush: "
                          << st.to_string();
  }
}

// ---------------------------------------------------------------- blocking

sim::Task<void> WieraPeer::wait_if_blocked() {
  while (blocking_) {
    co_await unblocked_->wait();
  }
}

void WieraPeer::op_finished() {
  in_flight_--;
  assert(in_flight_ >= 0);
  if (in_flight_ == 0) drained_->set();
}

sim::Task<Status> WieraPeer::apply_consistency_change(ConsistencyMode mode) {
  if (mode == config_.mode) co_return ok_status();
  // Block new requests; let in-flight operations and queued updates finish
  // first (§3.3.2).
  blocking_ = true;
  unblocked_->reset();
  while (in_flight_ > 0) {
    drained_->reset();
    co_await drained_->wait();
  }
  Status st = co_await flush_queue();
  if (!st.ok()) {
    WLOG_WARN(kComponent) << id() << " drain during change: " << st.to_string();
  }
  config_.mode = mode;
  streak_valid_ = false;  // restart monitor streaks under the new mode
  blocking_ = false;
  unblocked_->set();
  WLOG_INFO(kComponent) << id() << " consistency changed to "
                        << consistency_mode_name(mode);
  co_return ok_status();
}

void WieraPeer::apply_primary_change(const std::string& new_primary) {
  config_.primary_instance = new_primary;
  config_.is_primary = (new_primary == config_.instance_id);
  // Reset the requests monitor so the new primary starts a fresh window.
  put_history_.clear();
  requests_condition_active_ = false;
}

// ---------------------------------------------------------------- recovery

Status WieraPeer::availability_gate() {
  // A draining peer refuses new client work in *every* mode — the point of
  // the cooperative drain is that clients fail over to the remaining
  // replicas before this peer detaches, so nothing new lands between its
  // final hand-off flush and the detach (docs/SCENARIOS.md).
  if (draining_) {
    return unavailable(config_.instance_id + " is draining");
  }
  // Eventual mode keeps serving through faults (that is its contract; the
  // oracle only demands convergence after quiescence). The strong modes
  // must not serve stale data from an isolated or freshly-restarted node.
  if (config_.mode == ConsistencyMode::kEventual) return ok_status();
  if (config_.serve_lease > Duration::zero() &&
      sim_->now() - last_contact_ > config_.serve_lease) {
    if (!recovering_) {
      WLOG_INFO(kComponent) << id() << " serve lease lapsed; recovering";
    }
    recovering_ = true;
  }
  if (recovering_) {
    return unavailable(config_.instance_id + " is recovering");
  }
  return ok_status();
}

sim::Task<void> WieraPeer::availability_loop() {
  const std::string authority = config_.lease_authority.empty()
                                    ? config_.lock_service_node
                                    : config_.lease_authority;
  if (authority.empty()) co_return;
  const Duration interval = config_.serve_lease / 3;
  while (!stopping_) {
    co_await sim_->delay(interval);
    if (stopping_) break;
    rpc::WireWriter w;
    w.put_string(config_.instance_id);
    rpc::Message renew{w.take()};
    auto resp = co_await endpoint_->call(authority, method::kLeaseRenew,
                                         std::move(renew));
    if (resp.ok()) last_contact_ = sim_->now();
  }
}

void WieraPeer::on_crash() {
  local_->wipe_volatile();
  // The outbound replication queue lived in memory: it dies with the node.
  while (queue_->try_recv().has_value()) {
  }
  recovering_ = true;
  // A crashed peer lost its volatile tiers: its local copy is not merely
  // stale, it may be gone or torn, so the degradation path stays closed
  // until catch-up completes.
  data_suspect_ = true;
  journal().event("peer", "crash").str("instance", config_.instance_id);
  WLOG_INFO(kComponent) << id() << " crashed: volatile state lost";
}

sim::Task<Result<bool>> WieraPeer::apply_update(const ReplicateRequest& op,
                                                std::string_view what,
                                                bool require_checksum) {
  const bool check = require_checksum ||
                     (config_.local.verify_checksums && op.checksum != 0);
  if (check && (op.checksum == 0 ||
                object_checksum(op.key, op.version, op.value) != op.checksum)) {
    wire_checksum_failures_->inc();
    co_return data_loss(std::string(what) + " of " + op.key + " to " +
                        config_.instance_id + ": payload arrived corrupt");
  }
  tiera::TieraInstance::RemoteUpdate update;
  update.key = op.key;
  update.version = op.version;
  update.value = op.value;
  update.last_modified = op.last_modified;
  update.origin = op.origin;
  co_return co_await local_->apply_remote_update(std::move(update));
}

sim::Task<void> WieraPeer::for_each_latest(
    std::function<void(ReplicateRequest)> visit) {
  for (const std::string& key : local_->meta().keys()) {
    const metadb::ObjectMeta* obj = local_->meta().find(key);
    if (obj == nullptr) continue;
    const metadb::VersionMeta* vm = obj->latest_committed();
    if (vm == nullptr) continue;
    // Copy before suspending: a concurrent put/GC during get_version can
    // erase this version's metadata out from under vm.
    const int64_t version = vm->version;
    const TimePoint last_modified = vm->last_modified;
    const std::string origin = vm->origin;
    auto value = co_await local_->get_version(key, version);
    if (!value.ok()) continue;  // payload lost (volatile-only copy)
    ReplicateRequest entry;
    entry.key = key;
    entry.version = version;
    entry.value = std::move(value->value);
    entry.last_modified = last_modified;
    entry.origin = origin;
    entry.checksum = object_checksum(entry.key, entry.version, entry.value);
    visit(std::move(entry));
  }
}

sim::Task<Status> WieraPeer::catch_up(std::vector<std::string> sources) {
  Status last = unavailable("catch-up: no source available");
  for (const std::string& source : sources) {
    if (source == config_.instance_id) continue;
    SyncPullRequest pull{config_.instance_id};
    rpc::Message msg = encode(pull);
    auto resp = co_await endpoint_->call(source, method::kSyncPull,
                                         std::move(msg));
    if (!resp.ok()) {
      last = resp.status();
      continue;
    }
    auto decoded = decode_sync_pull_response(*resp);
    if (!decoded.ok()) {
      last = decoded.status();
      continue;
    }
    for (const ReplicateRequest& entry : decoded->entries) {
      // A snapshot entry corrupted in transit must not be merged: skip it
      // (the scrubber's digest exchange repairs the gap later).
      auto accepted = co_await apply_update(entry, "catch-up");
      if (!accepted.ok()) {
        WLOG_WARN(kComponent) << id() << " catch-up merge of " << entry.key
                              << " failed: " << accepted.status().to_string();
      }
    }
    // Push survivors the other way: any durable local write the outage kept
    // from replicating goes back on the queue for the flusher.
    co_await for_each_latest([this](ReplicateRequest entry) {
      queue_->send(std::move(entry));
    });
    catch_ups_completed_->inc();
    journal()
        .event("peer", "catch_up")
        .str("instance", config_.instance_id)
        .str("source", source);
    WLOG_INFO(kComponent) << id() << " caught up from " << source;
    co_return ok_status();
  }
  co_return last;
}

void WieraPeer::finish_recovery() {
  recovering_ = false;
  data_suspect_ = false;
  last_contact_ = sim_->now();
}

// ------------------------------------------------------- cooperative drain

void WieraPeer::enter_draining() {
  if (draining_) return;
  draining_ = true;
  journal().event("peer", "drain_begin").str("instance", config_.instance_id);
  WLOG_INFO(kComponent) << id() << " draining: refusing new client ops";
}

void WieraPeer::exit_draining() {
  if (!draining_) return;
  draining_ = false;
  journal().event("peer", "drain_abort").str("instance", config_.instance_id);
  WLOG_INFO(kComponent) << id() << " drain aborted: serving again";
}

sim::Task<Status> WieraPeer::drain(TimePoint deadline, bool flush_only) {
  // Phase 1: push everything already queued. flush_queue rides the normal
  // replication path (breakers, retry budget, batching) and re-queues what
  // it could not deliver, so we loop with a pause until the queue is empty
  // or the deadline passes.
  Status flushed = co_await flush_until_empty(deadline, "drain");
  if (!flushed.ok() || flush_only) co_return flushed;
  // Phase 2: enqueue the latest committed version of every local key —
  // catch_up's push-back half — so replicas that missed an update (or that
  // LWW-lost one we hold) converge before this peer detaches. Replicas drop
  // duplicates by version, so re-sending the already-replicated majority is
  // idle work, not corruption.
  co_await for_each_latest([this](ReplicateRequest entry) {
    queue_->send(std::move(entry));
  });
  flushed = co_await flush_until_empty(deadline, "drain hand-off");
  if (!flushed.ok()) co_return flushed;
  journal()
      .event("peer", "drain_complete")
      .str("instance", config_.instance_id);
  WLOG_INFO(kComponent) << id() << " drain hand-off complete";
  co_return ok_status();
}

sim::Task<Status> WieraPeer::flush_until_empty(TimePoint deadline,
                                               std::string_view phase) {
  while (queue_->size() > 0) {
    if (sim_->now() >= deadline) {
      co_return deadline_exceeded(config_.instance_id + " " +
                                  std::string(phase) + ": " +
                                  std::to_string(queue_->size()) +
                                  " updates still queued at the deadline");
    }
    const Status flushed = co_await flush_queue();
    if (!flushed.ok() && queue_->size() > 0) {
      co_await sim_->delay(msec(200));
    }
  }
  co_return ok_status();
}

// ------------------------------------------------------- overload robustness

void WieraPeer::order_targets_by_health(
    std::vector<std::string>& targets) const {
  if (config_.health == nullptr || !config_.health->enabled()) return;
  std::stable_partition(targets.begin(), targets.end(),
                        [this](const std::string& t) {
                          return !config_.health->in_probation(t);
                        });
}

CircuitBreaker* WieraPeer::breaker_for(const std::string& target) {
  if (config_.breaker_failures <= 0) return nullptr;
  auto it = breakers_.find(target);
  if (it == breakers_.end()) {
    CircuitBreaker::Options options;
    options.failure_threshold = config_.breaker_failures;
    options.open_for = config_.breaker_open_for;
    it = breakers_.emplace(target, CircuitBreaker(options)).first;
    // Fold every transition into the determinism trace: a replayed chaos
    // run must trip the same breakers in the same order.
    it->second.set_transition_hook(
        [this, target](CircuitBreaker::State, CircuitBreaker::State to) {
          sim_->checker().fold_trace(
              fnv1a64(config_.instance_id + "|" + target + "|" +
                    CircuitBreaker::state_name(to)));
          metrics_
              ->counter("wiera_breaker_transitions_total",
                        {{"instance", config_.instance_id},
                         {"target", target},
                         {"state", CircuitBreaker::state_name(to)}})
              ->inc();
          journal()
              .event("peer", "breaker_transition")
              .str("instance", config_.instance_id)
              .str("target", target)
              .str("state", CircuitBreaker::state_name(to));
        });
  }
  return &it->second;
}

const CircuitBreaker* WieraPeer::breaker(const std::string& target) const {
  auto it = breakers_.find(target);
  return it == breakers_.end() ? nullptr : &it->second;
}

Status WieraPeer::breaker_gate(const std::string& target,
                               std::string_view what, TraceContext trace,
                               const std::string& note) {
  CircuitBreaker* brk = breaker_for(target);
  if (brk == nullptr || brk->allow(sim_->now())) return ok_status();
  breaker_fast_fails_->inc();
  tracer().annotate(trace, note);
  return unavailable(std::string(what) + " " + target + ": circuit open");
}

void WieraPeer::breaker_record(const std::string& target,
                               const Status& outcome) {
  CircuitBreaker* brk = breaker_for(target);
  if (brk == nullptr) return;
  // Unreachability and timeouts mark the target unhealthy; any decoded
  // response (even an application error) proves it is alive.
  if (outcome.code() == StatusCode::kUnavailable ||
      outcome.code() == StatusCode::kDeadlineExceeded) {
    brk->record_failure(sim_->now());
  } else {
    brk->record_success();
  }
}

Context WieraPeer::ctx_for(TimePoint deadline, TraceContext trace) {
  Context ctx;
  if (deadline != TimePoint::max()) ctx = Context::with_deadline(deadline);
  ctx.trace = trace;
  return ctx;
}

bool WieraPeer::stale_read_allowed() const {
  if (!allow_stale_ || data_suspect_) return false;
  return sim_->now() - last_contact_ <= stale_bound_;
}

sim::Task<Result<GetResponse>> WieraPeer::local_get(const GetRequest& request) {
  // NOTE: no ternary around co_await — GCC 12 miscompiles conditional
  // operators whose branches both await (frame-slot corruption).
  Result<tiera::GetResult> local = not_found("unset");
  if (request.version == 0) {
    local = co_await local_->get(
        request.key, {.direct = request.direct, .deadline = request.deadline});
  } else {
    local = co_await local_->get_version(
        request.key, request.version,
        {.direct = request.direct, .deadline = request.deadline});
  }
  if (!local.ok()) co_return local.status();
  GetResponse out;
  out.value = std::move(local->value);
  out.version = local->version;
  out.served_by = config_.instance_id;
  out.checksum = object_checksum(request.key, out.version, out.value);
  co_return out;
}

sim::Task<Result<GetResponse>> WieraPeer::stale_local_get(
    const GetRequest& request) {
  Result<GetResponse> out = co_await local_get(request);
  if (!out.ok()) co_return out;
  out->stale = true;
  stale_serves_->inc();
  tracer().annotate(request.trace, "stale=true");
  journal()
      .event("peer", "stale_serve")
      .str("instance", config_.instance_id)
      .str("key", request.key)
      .trace(request.trace);
  WLOG_INFO(kComponent) << id() << " served " << request.key
                        << " stale (degradation)";
  co_return out;
}

// ------------------------------------------------- integrity: repair / scrub

sim::Task<Status> WieraPeer::fetch_and_merge(std::string source,
                                             std::string key, int64_t version,
                                             bool from_scrub,
                                             TraceContext trace) {
  RepairFetchRequest fetch{key, version};
  auto resp = co_await endpoint_->call(source, method::kRepairFetch,
                                       encode(fetch),
                                       ctx_for(TimePoint::max(), trace));
  if (!resp.ok()) co_return resp.status();
  auto entry = decode_replicate_request(*resp);
  if (!entry.ok()) co_return entry.status();
  // A repair payload must prove itself unconditionally (not gated by
  // verify_checksums): installing an unverified "repair" would spread
  // corruption instead of healing it.
  auto accepted = co_await apply_update(*entry, "repair fetch",
                                        /*require_checksum=*/true);
  if (!accepted.ok()) co_return accepted.status();
  if (*accepted) {
    if (from_scrub) {
      scrub_repairs_->inc();
    } else {
      repairs_->inc();
    }
    // Fold every applied repair into the determinism trace: a replayed
    // corruption run must heal the same objects in the same order.
    sim_->checker().fold_trace(
        fnv1a64(config_.instance_id + "|repair|" + entry->key + "#" +
              std::to_string(entry->version)));
    journal()
        .event("peer", "repair")
        .str("instance", config_.instance_id)
        .str("key", entry->key)
        .num("version", entry->version)
        .str("source", source)
        .boolean("scrub", from_scrub)
        .trace(trace);
    WLOG_INFO(kComponent) << id()
                          << (from_scrub ? " scrub-repaired " : " read-repaired ")
                          << entry->key << "#" << entry->version << " from "
                          << source;
  }
  co_return ok_status();
}

sim::Task<Result<GetResponse>> WieraPeer::repair_get(GetRequest request) {
  Status last = unavailable("read-repair of " + request.key +
                            ": no replica reachable");
  // Snapshot the membership: set_storage_peers can rewrite the list while a
  // fetch is in flight, invalidating this loop's iterator.
  const std::vector<std::string> repair_peers = storage_peer_ids_;
  for (const std::string& peer_id : repair_peers) {
    Status st = co_await fetch_and_merge(peer_id, request.key, request.version,
                                         /*from_scrub=*/false, request.trace);
    if (!st.ok()) {
      last = st;
      continue;
    }
    // Serve the repaired object through the normal (checksum-verified)
    // local read path rather than echoing the fetched bytes.
    Result<GetResponse> local = co_await local_get(request);
    if (local.ok()) co_return local;
    last = local.status();
  }
  co_return last;
}

sim::Task<void> WieraPeer::scrub_loop() {
  while (!stopping_) {
    co_await sim_->delay(config_.scrub_interval);
    if (stopping_) break;
    // A recovering peer is about to catch up wholesale; scrubbing its
    // suspect state would be wasted work.
    if (recovering_) continue;
    co_await run_scrub();
  }
}

sim::Task<void> WieraPeer::run_scrub() {
  if (config_.forwarding_only || local_->tier_count() == 0) co_return;
  scrub_rounds_->inc();
  // A scrub round is its own root trace: repairs it triggers chain under it.
  const TraceContext scrub_trace =
      tracer().start_trace("peer.scrub", config_.instance_id);

  // Pass 1 — local verification: every committed version is re-read against
  // its recorded checksum; corrupt copies are quarantined. Keys whose last
  // good local copy is gone get repaired from the first healthy replica.
  // Snapshot the membership once for both passes: set_storage_peers can
  // rewrite the list while a fetch or digest call is in flight.
  const std::vector<std::string> scrub_peers = storage_peer_ids_;
  std::vector<std::string> lost = co_await local_->scrub_local();
  for (const std::string& key : lost) {
    for (const std::string& peer_id : scrub_peers) {
      Status st = co_await fetch_and_merge(peer_id, key, /*version=*/0,
                                           /*from_scrub=*/true, scrub_trace);
      if (st.ok()) break;
    }
  }

  // Pass 2 — digest exchange: compare each storage peer's per-key
  // (version, checksum) summary against ours. Checksums are recomputed
  // locally at apply time, so healthy replicas of the same version agree;
  // a mismatch (or a key we miss entirely) is silent divergence. Pull the
  // peer's copy and let LWW decide — if ours is actually newer the merge
  // rejects it, and the peer's own scrub pulls ours on its next round.
  for (const std::string& peer_id : scrub_peers) {
    ScrubDigestRequest req{config_.instance_id};
    auto resp = co_await endpoint_->call(peer_id, method::kScrubDigest,
                                         encode(req),
                                         ctx_for(TimePoint::max(),
                                                 scrub_trace));
    if (!resp.ok()) continue;  // unreachable peer: next scrub round retries
    auto digests = decode_scrub_digest_response(*resp);
    if (!digests.ok()) continue;
    for (const ScrubDigest& d : digests->entries) {
      const metadb::ObjectMeta* obj = local_->meta().find(d.key);
      const metadb::VersionMeta* vm =
          obj == nullptr ? nullptr : obj->latest_committed();
      if (vm != nullptr && vm->version == d.version &&
          vm->checksum == d.checksum) {
        continue;  // digest-identical: healthy
      }
      Status st = co_await fetch_and_merge(peer_id, d.key, d.version,
                                           /*from_scrub=*/true, scrub_trace);
      if (!st.ok()) {
        WLOG_WARN(kComponent) << id() << " scrub repair of " << d.key
                              << " from " << peer_id
                              << " failed: " << st.to_string();
      }
    }
  }
  tracer().end_span(scrub_trace);
}

// ---------------------------------------------------------------- monitors

void WieraPeer::observe_put_latency(Duration latency) {
  if (!config_.dynamic_consistency_policy.has_value()) return;
  if (latency_threshold_ == Duration::max()) return;

  const bool violating = latency > latency_threshold_;
  if (!streak_valid_ || violating != streak_violating_) {
    streak_valid_ = true;
    streak_violating_ = violating;
    streak_start_ = sim_->now();
  }
  const Duration period = sim_->now() - streak_start_;

  policy::MapContext ctx;
  ctx.set("threshold.latency", policy::Value::duration_of(latency));
  ctx.set("threshold.period", policy::Value::duration_of(period));

  for_each_fired_change(
      *config_.dynamic_consistency_policy, ctx,
      [this](const ChangeAction& change) {
        if (change.what != "consistency") return;
        auto target = consistency_mode_from_name(change.to);
        if (target.ok() && *target != config_.mode &&
            control_.request_policy_change) {
          control_.request_policy_change(change.to);
        }
      });
}

void WieraPeer::record_put_source(const std::string& origin, bool forwarded) {
  if (forwarded) {
    metrics_
        ->counter("wiera_forwarded_puts_total",
                  {{"instance", config_.instance_id}, {"origin", origin}})
        ->inc();
  } else {
    direct_puts_->inc();
  }
  put_history_.push_back(PutEvent{sim_->now(), origin, forwarded});
}

sim::Task<void> WieraPeer::requests_monitor_loop() {
  while (!stopping_) {
    co_await sim_->delay(config_.requests_monitor_check);
    if (stopping_) break;
    if (config_.is_primary) evaluate_requests_monitor();
  }
}

void WieraPeer::evaluate_requests_monitor() {
  // Prune history to the sliding window (paper: last 30 seconds).
  const TimePoint cutoff = sim_->now() - config_.requests_monitor_window;
  while (!put_history_.empty() && put_history_.front().time < cutoff) {
    put_history_.pop_front();
  }

  int64_t direct = 0;
  std::map<std::string, int64_t> forwarded_counts;
  for (const PutEvent& event : put_history_) {
    if (event.forwarded) {
      forwarded_counts[event.origin]++;
    } else {
      direct++;
    }
  }
  std::string top_origin;
  int64_t top_count = 0;
  for (const auto& [origin, count] : forwarded_counts) {
    if (count > top_count) {
      top_count = count;
      top_origin = origin;
    }
  }

  const bool condition = top_count > 0 && top_count >= direct;
  if (condition && !requests_condition_active_) {
    requests_condition_active_ = true;
    requests_condition_start_ = sim_->now();
  } else if (!condition) {
    requests_condition_active_ = false;
    return;
  }
  const Duration period = sim_->now() - requests_condition_start_;

  if (!config_.change_primary_policy.has_value()) return;
  policy::MapContext ctx;
  ctx.set("forwarded_requests_per_each_instance",
          policy::Value::number_of(static_cast<double>(top_count)));
  ctx.set("updates_from_primary",
          policy::Value::number_of(static_cast<double>(direct)));
  ctx.set("threshold.period", policy::Value::duration_of(period));

  for_each_fired_change(
      *config_.change_primary_policy, ctx,
      [this, &top_origin](const ChangeAction& change) {
        if (change.what == "primary_instance" &&
            control_.request_primary_change && !top_origin.empty() &&
            top_origin != config_.instance_id) {
          control_.request_primary_change(top_origin);
        }
      });
}

// ---------------------------------------------------------------- cold data

sim::Task<bool> WieraPeer::on_cold_object(const std::string& key) {
  if (config_.centralized_cold_target.empty() ||
      config_.centralized_cold_target == config_.instance_id) {
    co_return false;  // the centralized region applies its local policy
  }
  if (cold_remote_keys_.count(key) > 0) co_return true;  // already shipped

  auto value = co_await local_->get(key);
  if (!value.ok()) co_return false;

  ReplicateRequest update;
  update.key = key;
  update.version = value->version;
  update.value = value->value;
  update.last_modified = sim_->now();
  update.origin = config_.instance_id;
  update.checksum = object_checksum(update.key, update.version, update.value);
  rpc::Message msg = encode(update);
  auto resp = co_await endpoint_->call(config_.centralized_cold_target,
                                       method::kColdStore, std::move(msg));
  if (!resp.ok()) co_return false;
  Status st = decode_status(*resp);
  if (!st.ok()) co_return false;

  // Local replicas of the cold object are removed; the centralized S3-IA
  // replica is now the only copy (durable, §5.3).
  co_await local_->remove(key);
  cold_remote_keys_.insert(key);
  co_return true;
}

}  // namespace wiera::geo
