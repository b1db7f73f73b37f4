#include "wiera/controller.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"

namespace wiera::geo {

namespace {
constexpr char kComponent[] = "wiera";
constexpr char kChangePolicyMethod[] = "wui.change_policy";
constexpr char kChangePrimaryMethod[] = "wui.change_primary";
// Heartbeat flap damping (docs/HEALTH.md): a peer is declared down only
// after this many *consecutive* failed pings, so one chaos-dropped ping
// cannot trigger failover.
constexpr int kPingFailureThreshold = 2;

// Default local-policy resolver: built-ins plus an empty ForwardingInstance
// (Fig. 6b declares regions whose instances only forward).
Result<policy::PolicyDoc> default_resolve(const std::string& name) {
  if (name == "ForwardingInstance") {
    policy::PolicyDoc doc;
    doc.name = "ForwardingInstance";
    return doc;
  }
  // The region declarations say "PersistentInstance"; accept a common
  // misspelling from the paper's Fig. 6a as well.
  if (name == "PersistanceInstance") {
    return policy::builtin::by_name("PersistentInstance");
  }
  return policy::builtin::by_name(name);
}

std::string default_node_for_region(const std::string& region) {
  return "tiera-" + to_lower(region);
}

}  // namespace

// ---------------------------------------------------------------- TieraServer

WieraPeer* TieraServer::spawn_peer(WieraPeer::Config config) {
  const std::string id = config.instance_id;
  auto peer = std::make_unique<WieraPeer>(*sim_, *network_, *registry_,
                                          std::move(config));
  WieraPeer* raw = peer.get();
  peers_[id] = std::move(peer);
  return raw;
}

Status TieraServer::stop_peer(const std::string& instance_id) {
  auto it = peers_.find(instance_id);
  if (it == peers_.end()) return not_found("no peer " + instance_id);
  it->second->stop();
  peers_.erase(it);
  return ok_status();
}

Status TieraServer::retire_peer(const std::string& instance_id) {
  auto it = peers_.find(instance_id);
  if (it == peers_.end()) return not_found("no peer " + instance_id);
  it->second->stop();
  // Keep the object alive: a replicate/ping coroutine already running on it
  // would otherwise use freed frame state, and its endpoint keeps answering
  // straggler clients with a fast "draining" instead of a silent timeout.
  retired_.push_back(std::move(it->second));
  peers_.erase(it);
  return ok_status();
}

WieraPeer* TieraServer::peer(const std::string& instance_id) {
  auto it = peers_.find(instance_id);
  return it == peers_.end() ? nullptr : it->second.get();
}

std::vector<std::string> TieraServer::peer_ids() const {
  std::vector<std::string> out;
  out.reserve(peers_.size());
  for (const auto& [id, _] : peers_) out.push_back(id);
  return out;
}

// ---------------------------------------------------------------- controller

WieraController::WieraController(sim::Simulation& sim, net::Network& network,
                                 rpc::Registry& registry, Config config)
    : sim_(&sim), network_(&network), registry_(&registry),
      config_(std::move(config)),
      health_(sim.telemetry().registry(), config_.health) {
  endpoint_ = std::make_unique<rpc::Endpoint>(network, registry, config_.node);
  // ZooKeeper runs co-located with Wiera (paper §5 setup).
  lock_service_ = std::make_unique<coord::LockService>(sim, *endpoint_);
  register_handlers();
}

void WieraController::register_server(TieraServer* server) {
  servers_.push_back(server);
  node_alive_[server->node()] = true;
}

bool WieraController::server_alive(const std::string& node) const {
  auto it = node_alive_.find(node);
  return it != node_alive_.end() && it->second;
}

Result<std::vector<std::string>> WieraController::start_instances(
    const std::string& wiera_id, StartOptions options) {
  if (instances_.count(wiera_id) > 0) {
    return already_exists("wiera instance " + wiera_id);
  }
  WIERA_RETURN_IF_ERROR(policy::validate(options.global));
  auto mode = derive_consistency_mode(options.global);
  if (!mode.ok()) return mode.status();

  auto resolve = options.resolve_local ? options.resolve_local
                                       : default_resolve;
  auto node_for = options.node_for_region ? options.node_for_region
                                          : default_node_for_region;

  InstanceRecord record;
  record.policy_id = options.global.name;
  record.mode = *mode;

  for (const policy::RegionDecl& region : options.global.regions) {
    auto local_doc = resolve(region.instance_name());
    if (!local_doc.ok()) return local_doc.status();

    // Region tier blocks override the local policy's tier declarations
    // (MultiPrimaries declares LocalMemory/LocalDisk inside each region).
    policy::PolicyDoc local = std::move(local_doc).value();
    if (!region.tiers.empty()) {
      local.tiers = region.tiers;
    }

    // Locally-executable maintenance events declared at the Wiera level
    // (Fig. 6a's cold-data rule, timers, fill thresholds) distribute to
    // every instance; protocol events (insert) and monitoring hooks stay
    // global.
    for (const policy::EventRule& rule : options.global.events) {
      auto trigger =
          policy::classify_trigger(*rule.trigger, options.local_params);
      if (!trigger.ok()) continue;
      if (trigger->kind == policy::TriggerKind::kColdData ||
          trigger->kind == policy::TriggerKind::kTimer ||
          trigger->kind == policy::TriggerKind::kTierFilled) {
        local.events.push_back(rule);
      }
    }

    const std::string node = node_for(region.region());
    TieraServer* server = nullptr;
    for (TieraServer* candidate : servers_) {
      if (candidate->node() == node) {
        server = candidate;
        break;
      }
    }
    if (server == nullptr) {
      return not_found("no Tiera server registered on node " + node +
                       " for region " + region.region());
    }

    WieraPeer::Config peer_config;
    peer_config.instance_id = node;
    peer_config.region = region.region();
    peer_config.local.policy = std::move(local);
    peer_config.local.params = options.local_params;
    peer_config.mode = *mode;
    peer_config.is_primary = region.primary();
    peer_config.lock_service_node = config_.node;
    peer_config.queue_flush_interval = options.queue_flush_interval;
    peer_config.serve_lease = config_.serve_lease;
    peer_config.forwarding_only =
        region.instance_name() == "ForwardingInstance";
    peer_config.dynamic_consistency_policy = options.dynamic_consistency;
    peer_config.change_primary_policy = options.change_primary;
    peer_config.network_monitor = &network_monitor_;
    peer_config.workload_monitor = &workload_monitor_;
    peer_config.health = &health_;
    if (options.customize) options.customize(peer_config);

    const bool can_store =
        !peer_config.forwarding_only && !peer_config.local.policy.tiers.empty();
    record.templates.push_back(peer_config);  // kept for §4.4 replacement
    WieraPeer* peer = server->spawn_peer(std::move(peer_config));
    record.peer_ids.push_back(peer->id());
    if (can_store) record.storage_peer_ids.push_back(peer->id());
    if (peer->is_primary()) record.primary = peer->id();
  }

  // Default the primary to the first region when the policy names none.
  if (record.primary.empty() && !record.peer_ids.empty()) {
    record.primary = record.peer_ids.front();
  }

  // Propagate membership + primary, wire the control plane, start peers.
  for (const std::string& id : record.peer_ids) {
    lease_seen_[id] = sim_->now();
    WieraPeer* p = peer_by_id_internal(id);
    p->set_peers(record.peer_ids);
    p->set_storage_peers(record.storage_peer_ids);
    p->apply_primary_change(record.primary);
    // apply_primary_change resets is_primary from the id comparison.
    wire_control_plane(wiera_id, p);
    p->start();
  }

  instances_[wiera_id] = record;
  WLOG_INFO(kComponent) << "started " << wiera_id << " ("
                        << record.policy_id << ", "
                        << consistency_mode_name(record.mode) << ", "
                        << record.peer_ids.size() << " peers)";
  return record.peer_ids;
}

WieraPeer* WieraController::peer(const std::string& instance_id) {
  return peer_by_id_internal(instance_id);
}

WieraPeer* WieraController::peer_by_id_internal(
    const std::string& instance_id) {
  for (TieraServer* server : servers_) {
    WieraPeer* p = server->peer(instance_id);
    if (p != nullptr) return p;
  }
  return nullptr;
}

Status WieraController::stop_instances(const std::string& wiera_id) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) return not_found("wiera instance " + wiera_id);
  for (const std::string& id : it->second.peer_ids) {
    for (TieraServer* server : servers_) {
      if (server->peer(id) != nullptr) {
        const Status st = server->stop_peer(id);
        if (!st.ok()) {
          WLOG_WARN(kComponent) << "stop_peer " << id
                                << " failed: " << st.to_string();
        }
        break;
      }
    }
  }
  instances_.erase(it);
  return ok_status();
}

Result<std::vector<std::string>> WieraController::get_instances(
    const std::string& wiera_id) const {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) return not_found("wiera instance " + wiera_id);
  return it->second.peer_ids;
}

sim::Task<Status> WieraController::change_consistency(std::string wiera_id,
                                                      ConsistencyMode mode) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  InstanceRecord& record = it->second;
  if (record.mode == mode) co_return ok_status();
  if (record.change_in_progress) {
    co_return failed_precondition("consistency change already in progress");
  }
  record.change_in_progress = true;

  // Tell every peer to block-drain-switch; pays a WAN RTT per peer,
  // performed concurrently.
  std::vector<sim::Task<Status>> tasks;
  for (const std::string& id : record.peer_ids) {
    SetConsistencyRequest req{mode};
    rpc::Message msg = encode(req);
    tasks.push_back([](rpc::Endpoint* ep, std::string target,
                       rpc::Message m) -> sim::Task<Status> {
      auto resp = co_await ep->call(std::move(target),
                                    method::kSetConsistency, std::move(m));
      if (!resp.ok()) co_return resp.status();
      co_return decode_status(*resp);
    }(endpoint_.get(), id, std::move(msg)));
  }
  std::vector<Status> results = co_await sim::when_all(*sim_, std::move(tasks));
  // Re-find after resuming: stop_instances may have erased this record while
  // the fan-out was in flight, which would leave `record` dangling.
  it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id +
                        " stopped during consistency change");
  }
  it->second.change_in_progress = false;
  for (const Status& st : results) {
    if (!st.ok()) co_return st;
  }
  it->second.mode = mode;
  consistency_changes_++;
  WLOG_INFO(kComponent) << wiera_id << " now "
                        << consistency_mode_name(mode);
  co_return ok_status();
}

sim::Task<Status> WieraController::change_primary(std::string wiera_id,
                                                  std::string new_primary) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  InstanceRecord& record = it->second;
  if (record.primary == new_primary) co_return ok_status();
  if (std::find(record.peer_ids.begin(), record.peer_ids.end(),
                new_primary) == record.peer_ids.end()) {
    co_return invalid_argument(new_primary + " is not a member of " +
                               wiera_id);
  }
  if (record.change_in_progress) {
    co_return failed_precondition("change already in progress");
  }
  record.change_in_progress = true;

  std::vector<sim::Task<Status>> tasks;
  for (const std::string& id : record.peer_ids) {
    SetPrimaryRequest req{new_primary};
    rpc::Message msg = encode(req);
    tasks.push_back([](rpc::Endpoint* ep, std::string target,
                       rpc::Message m) -> sim::Task<Status> {
      auto resp = co_await ep->call(std::move(target), method::kSetPrimary,
                                    std::move(m));
      if (!resp.ok()) co_return resp.status();
      co_return decode_status(*resp);
    }(endpoint_.get(), id, std::move(msg)));
  }
  std::vector<Status> results = co_await sim::when_all(*sim_, std::move(tasks));
  // Same re-find discipline as change_consistency: the record may have been
  // erased by stop_instances while the fan-out was suspended.
  it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id +
                        " stopped during primary change");
  }
  it->second.change_in_progress = false;
  for (const Status& st : results) {
    if (!st.ok()) co_return st;
  }
  it->second.primary = new_primary;
  primary_changes_++;
  WLOG_INFO(kComponent) << wiera_id << " primary -> " << new_primary;
  co_return ok_status();
}

ConsistencyMode WieraController::current_mode(
    const std::string& wiera_id) const {
  auto it = instances_.find(wiera_id);
  return it == instances_.end() ? ConsistencyMode::kEventual
                                : it->second.mode;
}

std::string WieraController::current_primary(
    const std::string& wiera_id) const {
  auto it = instances_.find(wiera_id);
  return it == instances_.end() ? "" : it->second.primary;
}

std::string WieraController::recommend_primary(
    const std::string& wiera_id) const {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) return "";
  const std::string busiest = advisor_.recommend_primary(workload_monitor_);
  for (const std::string& id : it->second.peer_ids) {
    if (id == busiest) return busiest;
  }
  return "";
}

std::vector<std::string> WieraController::down_instances(
    const std::string& wiera_id) const {
  std::vector<std::string> out;
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) return out;
  for (const std::string& id : it->second.peer_ids) {
    if (network_->topology().node_down(id, sim_->now())) out.push_back(id);
  }
  return out;
}

void WieraController::wire_control_plane(const std::string& wiera_id,
                                         WieraPeer* peer) {
  WieraPeer::ControlPlane control;
  // Monitor callbacks issue an RPC from the peer to the controller's WUI
  // (so the request itself pays a WAN hop), then the controller
  // orchestrates the change. Fire-and-forget from the peer's view.
  control.request_policy_change = [this, wiera_id, peer](
                                      const std::string& to_policy) {
    sim_->spawn([](WieraController* self, std::string wid, WieraPeer* p,
                   std::string target) -> sim::Task<void> {
      rpc::WireWriter w;
      w.put_string(wid);
      w.put_string(target);
      rpc::Message msg{w.take()};
      auto resp = co_await p->endpoint().call(
          self->config_.node, kChangePolicyMethod, std::move(msg));
      if (!resp.ok()) {
        WLOG_WARN(kComponent) << "change_policy request failed: "
                              << resp.status().to_string();
      }
    }(this, wiera_id, peer, to_policy),
                "controller.change-policy-rpc");
  };
  control.request_primary_change = [this, wiera_id, peer](
                                       const std::string& new_primary) {
    sim_->spawn([](WieraController* self, std::string wid, WieraPeer* p,
                   std::string target) -> sim::Task<void> {
      rpc::WireWriter w;
      w.put_string(wid);
      w.put_string(target);
      rpc::Message msg{w.take()};
      auto resp = co_await p->endpoint().call(
          self->config_.node, kChangePrimaryMethod, std::move(msg));
      if (!resp.ok()) {
        WLOG_WARN(kComponent) << "change_primary request failed: "
                              << resp.status().to_string();
      }
    }(this, wiera_id, peer, new_primary),
                "controller.change-primary-rpc");
  };
  peer->set_control_plane(std::move(control));
}

void WieraController::register_handlers() {
  endpoint_->register_handler(
      kChangePolicyMethod,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        rpc::WireReader r(msg.body);
        std::string wiera_id = r.get_string();
        std::string to_policy = r.get_string();
        if (!r.ok()) co_return r.status();
        auto mode = consistency_mode_from_name(to_policy);
        if (!mode.ok()) co_return mode.status();
        Status st = co_await change_consistency(std::move(wiera_id), *mode);
        co_return encode_status(st);
      });
  // Serve-lease renewal: record when each peer last proved round-trip
  // reachability. The renewal time gates membership narrowing: because the
  // controller's record is always at least as fresh as the peer's own
  // (the response can be lost after the handler runs, never the reverse),
  // "lease stale here" implies "lease lapsed at the peer".
  endpoint_->register_handler(
      method::kLeaseRenew,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        rpc::WireReader r(msg.body);
        std::string instance_id = r.get_string();
        if (!r.ok()) co_return r.status();
        lease_seen_[instance_id] = sim_->now();
        co_return encode_status(ok_status());
      });
  endpoint_->register_handler(
      method::kPing,
      [](rpc::Message) -> sim::Task<Result<rpc::Message>> {
        co_return encode_status(ok_status());
      });
  endpoint_->register_handler(
      kChangePrimaryMethod,
      [this](rpc::Message msg) -> sim::Task<Result<rpc::Message>> {
        rpc::WireReader r(msg.body);
        std::string wiera_id = r.get_string();
        std::string new_primary = r.get_string();
        if (!r.ok()) co_return r.status();
        Status st = co_await change_primary(std::move(wiera_id),
                                            std::move(new_primary));
        co_return encode_status(st);
      });
}

sim::Task<void> WieraController::heartbeat_loop() {
  while (running_) {
    co_await sim_->delay(config_.heartbeat_interval);
    if (!running_) break;
    // Snapshot the membership: add_server can grow servers_ (and a server's
    // peer set) while a ping is in flight, invalidating these iterators.
    const std::vector<TieraServer*> servers = servers_;
    for (TieraServer* server : servers) {
      for (const std::string& id : server->peer_ids()) {
        rpc::Message ping;
        Context ping_ctx;
        if (config_.ping_deadline > Duration::zero()) {
          ping_ctx =
              Context::with_deadline(sim_->now() + config_.ping_deadline);
        }
        auto resp = co_await endpoint_->call(id, method::kPing,
                                             std::move(ping), ping_ctx);
        auto prev = node_alive_.find(id);
        const bool was_alive = prev == node_alive_.end() || prev->second;
        const bool ping_ok = resp.ok();
        health_.record_ping(id, ping_ok, sim_->now());
        // Flap damping: liveness flips only after kPingFailureThreshold
        // consecutive failures.
        if (ping_ok) {
          ping_failures_.erase(id);
        } else {
          ping_failures_[id]++;
        }
        const bool alive =
            ping_ok || ping_failures_[id] < kPingFailureThreshold;
        node_alive_[id] = alive;
        if (alive) {
          down_handled_.erase(id);
        } else if (down_handled_.count(id) == 0 &&
                   draining_.count(id) == 0) {
          // (A draining peer's drain task owns its membership transition;
          // down-handling — say a fault partitions it mid-drain — must not
          // race that. The drain's own deadline bounds the deferral.)
          // Narrowing membership around an unreachable peer is only safe
          // once its serve lease has provably lapsed: lease_seen_ upper-
          // bounds the peer's own last renewal, so waiting one heartbeat
          // past the lease guarantees the peer is already refusing
          // strong-mode reads before anyone stops replicating to it.
          bool lease_lapsed = true;
          if (config_.serve_lease > Duration::zero()) {
            auto seen = lease_seen_.find(id);
            lease_lapsed = seen == lease_seen_.end() ||
                           sim_->now() - seen->second >
                               config_.serve_lease + config_.heartbeat_interval;
          }
          if (lease_lapsed) {
            down_handled_.insert(id);
            handle_peer_down(id);
          }
        }
        // A peer that answers but is recovering (crash restart, lapsed
        // serve lease) gets a controller-driven catch-up before it rejoins.
        WieraPeer* p = peer_by_id_internal(id);
        const bool needs_recovery =
            alive && p != nullptr && (!was_alive || p->recovering());
        if (needs_recovery && catching_up_.insert(id).second) {
          for (auto& [wiera_id, record] : instances_) {
            if (std::find(record.peer_ids.begin(), record.peer_ids.end(),
                          id) == record.peer_ids.end()) {
              continue;
            }
            sim_->spawn(recover_peer(wiera_id, id),
                        "controller.recover/" + id);
            break;
          }
        }
      }
    }
    if (config_.min_replicas > 0) maintain_replicas();
  }
}

void WieraController::handle_peer_down(const std::string& peer_id) {
  for (auto& [wiera_id, record] : instances_) {
    if (std::find(record.peer_ids.begin(), record.peer_ids.end(), peer_id) ==
        record.peer_ids.end()) {
      continue;
    }
    if (record.primary == peer_id) {
      // §4.4 failover: promote the first live storage peer, preferring one
      // that is not in health probation (docs/HEALTH.md).
      const std::string successor = pick_successor(record, peer_id);
      if (!successor.empty()) {
        record.primary = successor;
        primary_changes_++;
        WLOG_INFO(kComponent) << wiera_id << " primary failover: " << peer_id
                              << " -> " << successor;
      }
    }
    push_membership(wiera_id, record);
  }
}

std::string WieraController::pick_successor(const InstanceRecord& record,
                                            const std::string& excluding) const {
  std::string fallback;
  for (const std::string& candidate : record.storage_peer_ids) {
    if (candidate == excluding || draining_.count(candidate) > 0) continue;
    auto alive = node_alive_.find(candidate);
    if (alive != node_alive_.end() && !alive->second) continue;
    if (health_.in_probation(candidate)) {
      if (fallback.empty()) fallback = candidate;
      continue;
    }
    return candidate;
  }
  return fallback;
}

void WieraController::push_membership(const std::string& wiera_id,
                                      InstanceRecord& record) {
  // Narrow replication to the live storage peers so strong-mode puts stop
  // waiting on the dead node; a recovered peer is restored to the set by
  // the next push after its catch-up.
  std::vector<std::string> live_storage;
  for (const std::string& id : record.storage_peer_ids) {
    // A draining peer stops receiving new placements the moment the drain
    // starts: everything it already holds is being handed off, so routing
    // fresh updates to it would only grow the hand-off (docs/SCENARIOS.md).
    if (draining_.count(id) > 0) continue;
    auto alive = node_alive_.find(id);
    if (alive == node_alive_.end() || alive->second) live_storage.push_back(id);
  }
  for (const std::string& id : record.peer_ids) {
    auto alive = node_alive_.find(id);
    if (alive != node_alive_.end() && !alive->second) continue;
    WieraPeer* p = peer_by_id_internal(id);
    if (p == nullptr) continue;
    p->set_peers(record.peer_ids);
    p->set_storage_peers(live_storage);
    p->apply_primary_change(record.primary);
  }
  WLOG_INFO(kComponent) << wiera_id << " membership pushed ("
                        << live_storage.size() << "/"
                        << record.storage_peer_ids.size()
                        << " storage peers live, primary " << record.primary
                        << ")";
}

sim::Task<void> WieraController::recover_peer(std::string wiera_id,
                                              std::string peer_id) {
  WieraPeer* p = peer_by_id_internal(peer_id);
  auto it = instances_.find(wiera_id);
  if (p == nullptr || it == instances_.end()) {
    catching_up_.erase(peer_id);
    co_return;
  }
  p->begin_recovery();

  // Cluster-wide lease lapse (control-plane brownout): every candidate
  // source may itself be recovering, which would deadlock — each peer waits
  // for a settled source that never appears. In primary-backup modes a
  // lapsed-but-uncrashed primary lost no data (every committed write flowed
  // through it, and nothing commits while it is refusing writes), so it is
  // the source of truth: rejoin it directly, and the next heartbeat uses it
  // as the catch-up source for everyone else. Multi-primaries writes commit
  // at *any* lock holder, so there this shortcut would resurrect a peer
  // that really did miss writes — it must catch up like everyone else.
  const bool single_write_path =
      it->second.mode == ConsistencyMode::kPrimaryBackupSync ||
      it->second.mode == ConsistencyMode::kPrimaryBackupAsync;
  if (single_write_path && peer_id == it->second.primary &&
      !p->data_suspect()) {
    p->finish_recovery();
    recoveries_completed_++;
    WLOG_INFO(kComponent) << peer_id
                          << " (primary, data intact) rejoined " << wiera_id
                          << " without catch-up";
    catching_up_.erase(peer_id);
    co_return;
  }

  // Catch-up sources: the primary first (in primary-backup modes it has
  // every committed write), then the other live, settled storage peers.
  std::vector<std::string> sources;
  auto add_source = [&](const std::string& candidate) {
    if (candidate.empty() || candidate == peer_id) return;
    if (std::find(sources.begin(), sources.end(), candidate) !=
        sources.end()) {
      return;
    }
    auto alive = node_alive_.find(candidate);
    if (alive != node_alive_.end() && !alive->second) return;
    WieraPeer* src = peer_by_id_internal(candidate);
    if (src == nullptr || src->recovering()) return;
    sources.push_back(candidate);
  };
  add_source(it->second.primary);
  for (const std::string& candidate : it->second.storage_peer_ids) {
    add_source(candidate);
  }

  Status st = co_await p->catch_up(sources);
  if (!st.ok()) {
    // Leave the peer recovering; the next heartbeat retries.
    WLOG_WARN(kComponent) << peer_id << " catch-up failed: "
                          << st.to_string();
    catching_up_.erase(peer_id);
    co_return;
  }
  // Re-find the record: the instance may have been stopped while we were
  // pulling state.
  auto post = instances_.find(wiera_id);
  if (post != instances_.end()) {
    push_membership(wiera_id, post->second);
  }
  // Second pull, after rejoining the replication membership: a put whose
  // fan-out was computed before the rejoin may have committed at the source
  // after the first snapshot was taken. Every such put has fully committed
  // by now (its membership check preceded the rejoin), so this snapshot
  // closes the gap; puts fanning out after the rejoin reach this peer
  // directly (replicate_to_all re-checks membership before completing).
  Status delta = co_await p->catch_up(sources);
  if (!delta.ok()) {
    WLOG_WARN(kComponent) << peer_id << " delta catch-up failed: "
                          << delta.to_string();
    catching_up_.erase(peer_id);
    co_return;
  }
  p->finish_recovery();
  recoveries_completed_++;
  WLOG_INFO(kComponent) << peer_id << " recovered and rejoined " << wiera_id;
  catching_up_.erase(peer_id);
}

void WieraController::maintain_replicas() {
  for (auto& [wiera_id, record] : instances_) {
    std::vector<std::string> live;
    for (const std::string& id : record.peer_ids) {
      auto it = node_alive_.find(id);
      if (it == node_alive_.end() || it->second) live.push_back(id);
    }
    if (static_cast<int>(live.size()) >= config_.min_replicas) continue;

    // Find a spare server: registered, alive, not already hosting a peer
    // of this instance.
    TieraServer* spare = nullptr;
    for (TieraServer* server : servers_) {
      const bool hosting =
          std::find(record.peer_ids.begin(), record.peer_ids.end(),
                    server->node()) != record.peer_ids.end();
      auto alive = node_alive_.find(server->node());
      const bool up = alive == node_alive_.end() || alive->second;
      // An evacuated node's endpoint belongs to its retired peer object:
      // re-spawning there would double-register it.
      if (!hosting && up && evacuated_.count(server->node()) == 0) {
        spare = server;
        break;
      }
    }
    if (spare == nullptr || record.templates.empty()) continue;

    // Clone the config of a live peer (or the first template) onto the
    // spare node. The new replica starts empty; replication fills it as
    // updates flow (data backfill is future work, as in the paper §4.4).
    WieraPeer::Config config = record.templates.front();
    config.instance_id = spare->node();
    config.is_primary = false;
    const bool replacement_stores =
        !record.templates.front().forwarding_only &&
        !record.templates.front().local.policy.tiers.empty();
    WieraPeer* replacement = spare->spawn_peer(std::move(config));
    record.peer_ids.push_back(replacement->id());
    if (replacement_stores) {
      record.storage_peer_ids.push_back(replacement->id());
    }
    record.templates.push_back(record.templates.front());
    replacements_spawned_++;
    WLOG_INFO(kComponent) << wiera_id << " spawned replacement replica on "
                          << replacement->id();

    // Primary failover: if the down peer was the primary, promote the
    // closest live peer (preferring one not in health probation).
    auto primary_alive = node_alive_.find(record.primary);
    if (primary_alive != node_alive_.end() && !primary_alive->second) {
      std::string successor = pick_successor(record, record.primary);
      if (successor.empty() && !live.empty()) successor = live.front();
      if (!successor.empty()) {
        record.primary = successor;
        primary_changes_++;
      }
    }

    // Propagate membership + primary to every live peer and the newcomer.
    for (const std::string& id : record.peer_ids) {
      WieraPeer* p = peer_by_id_internal(id);
      if (p == nullptr) continue;
      p->set_peers(record.peer_ids);
      p->set_storage_peers(record.storage_peer_ids);
      p->apply_primary_change(record.primary);
      wire_control_plane(wiera_id, p);
    }
    replacement->start();
  }
}

// ------------------------------------------- operational events (scenarios)

sim::Task<Status> WieraController::drain_peer(std::string wiera_id,
                                              std::string peer_id,
                                              TimePoint deadline) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  if (std::find(it->second.peer_ids.begin(), it->second.peer_ids.end(),
                peer_id) == it->second.peer_ids.end()) {
    co_return not_found(peer_id + " is not a member of " + wiera_id);
  }
  WieraPeer* p = peer_by_id_internal(peer_id);
  if (p == nullptr) {
    co_return not_found("no peer object for " + peer_id);
  }
  if (!draining_.insert(peer_id).second) {
    co_return failed_precondition(peer_id + " is already draining");
  }
  sim_->telemetry()
      .journal()
      .event("controller", "drain_begin")
      .str("instance", peer_id);
  WLOG_INFO(kComponent) << wiera_id << " draining " << peer_id;

  // 1. Move primary-ship off the draining peer. Local promotion (the §4.4
  //    failover path), not change_primary's all-peer ack fan-out: a third
  //    peer partitioned away must not block an evacuation, and it learns
  //    the new primary through its own recovery push when it heals.
  if (it->second.primary == peer_id) {
    const std::string successor = pick_successor(it->second, peer_id);
    if (successor.empty()) {
      draining_.erase(peer_id);
      co_return failed_precondition(
          "no live successor to take primary-ship from " + peer_id);
    }
    it->second.primary = successor;
    primary_changes_++;
    WLOG_INFO(kComponent) << wiera_id << " primary handed off: " << peer_id
                          << " -> " << successor;
  }

  // 2. Stop admitting new placements: with peer_id in draining_, this push
  //    drops it from every live peer's replication set.
  push_membership(wiera_id, it->second);

  // 3. Hand off. enter_draining *before* the final flush: the gate refuses
  //    new client ops from here on (clients fail over within their retry
  //    budget), so nothing can land between the last flush and the detach.
  p->enter_draining();
  if (config_.drain_handoff) {
    const Status handoff = co_await p->drain(deadline);
    it = instances_.find(wiera_id);
    p = peer_by_id_internal(peer_id);
    if (it == instances_.end() || p == nullptr) {
      draining_.erase(peer_id);
      co_return not_found(wiera_id + " stopped during drain of " + peer_id);
    }
    if (!handoff.ok()) {
      // Abort: restore full membership and keep serving. Nothing was lost —
      // the peer still holds everything it ever acked.
      p->exit_draining();
      draining_.erase(peer_id);
      push_membership(wiera_id, it->second);
      WLOG_WARN(kComponent) << wiera_id << " drain of " << peer_id
                            << " aborted: " << handoff.to_string();
      co_return handoff;
    }
  }

  // 4. Detach without tripping the failure detector: out of the membership
  //    record first, then retire the object so the heartbeat stops pinging
  //    it while stragglers still get a fast "draining" answer.
  InstanceRecord& record = it->second;
  std::erase(record.peer_ids, peer_id);
  std::erase(record.storage_peer_ids, peer_id);
  for (auto t = record.templates.begin(); t != record.templates.end(); ++t) {
    if (t->instance_id == peer_id) {
      record.templates.erase(t);
      break;
    }
  }
  draining_.erase(peer_id);
  evacuated_.insert(peer_id);
  node_alive_.erase(peer_id);
  lease_seen_.erase(peer_id);
  down_handled_.erase(peer_id);
  push_membership(wiera_id, record);
  for (TieraServer* server : servers_) {
    if (server->peer(peer_id) == nullptr) continue;
    const Status retired = server->retire_peer(peer_id);
    if (!retired.ok()) {
      WLOG_WARN(kComponent) << "retiring " << peer_id
                            << " failed: " << retired.to_string();
    }
    break;
  }
  drains_completed_++;
  sim_->telemetry()
      .journal()
      .event("controller", "drain_complete")
      .str("instance", peer_id);
  WLOG_INFO(kComponent) << wiera_id << " evacuated " << peer_id;
  co_return ok_status();
}

sim::Task<Status> WieraController::add_peer_live(std::string wiera_id,
                                                 std::string node) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  if (std::find(it->second.peer_ids.begin(), it->second.peer_ids.end(),
                node) != it->second.peer_ids.end()) {
    co_return already_exists(node + " is already a member of " + wiera_id);
  }
  if (evacuated_.count(node) > 0) {
    // The retired peer still owns this node's rpc endpoint; spawning a new
    // one there would double-register it. Capacity returns on fresh nodes.
    co_return failed_precondition(node +
                                  " was evacuated; add a fresh node instead");
  }
  if (draining_.count(node) > 0) {
    co_return failed_precondition(node + " is draining");
  }
  TieraServer* server = nullptr;
  for (TieraServer* candidate : servers_) {
    if (candidate->node() == node) {
      server = candidate;
      break;
    }
  }
  if (server == nullptr) {
    co_return not_found("no Tiera server registered on node " + node);
  }
  auto alive = node_alive_.find(node);
  if (alive != node_alive_.end() && !alive->second) {
    co_return unavailable(node + " is down");
  }
  InstanceRecord& record = it->second;
  if (record.templates.empty()) {
    co_return failed_precondition("no peer template to clone for " + wiera_id);
  }

  WieraPeer::Config config = record.templates.front();
  config.instance_id = node;
  config.is_primary = false;
  const bool stores =
      !config.forwarding_only && !config.local.policy.tiers.empty();
  record.templates.push_back(config);
  WieraPeer* added = server->spawn_peer(std::move(config));
  record.peer_ids.push_back(added->id());
  if (stores) record.storage_peer_ids.push_back(added->id());
  node_alive_[node] = true;
  lease_seen_[node] = sim_->now();
  wire_control_plane(wiera_id, added);
  // The newcomer starts empty: recover it like a restarted peer — catch up
  // from the live sources while replication already flows to it.
  added->begin_recovery();
  push_membership(wiera_id, record);
  added->start();
  peers_added_++;
  sim_->telemetry()
      .journal()
      .event("controller", "peer_added")
      .str("instance", node);
  WLOG_INFO(kComponent) << wiera_id << " added live peer " << node;
  if (catching_up_.insert(node).second) {
    co_await recover_peer(wiera_id, node);
  }
  co_return ok_status();
}

sim::Task<Status> WieraController::rolling_restart(std::string wiera_id) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  // Snapshot the walk order: drains or replacements may edit the record
  // while a bounce is suspended.
  const std::vector<std::string> ids = it->second.storage_peer_ids;
  Status first_error = ok_status();
  for (const std::string& id : ids) {
    it = instances_.find(wiera_id);
    if (it == instances_.end()) {
      co_return not_found(wiera_id + " stopped during rolling restart");
    }
    if (draining_.count(id) > 0 || evacuated_.count(id) > 0) continue;
    auto alive = node_alive_.find(id);
    if (alive != node_alive_.end() && !alive->second) continue;  // down anyway
    WieraPeer* p = peer_by_id_internal(id);
    if (p == nullptr) continue;
    // A controlled restart must not trip a failover: primary-ship moves off
    // the peer before it bounces (same local promotion as drain_peer).
    if (it->second.primary == id) {
      const std::string successor = pick_successor(it->second, id);
      if (!successor.empty()) {
        it->second.primary = successor;
        primary_changes_++;
        WLOG_INFO(kComponent) << wiera_id << " primary handed off: " << id
                              << " -> " << successor;
      }
      push_membership(wiera_id, it->second);
    }
    // Flush the outbound queue so the bounce loses nothing; tolerate a
    // flush that cannot finish (a partitioned sibling) and bounce anyway —
    // the queue survives a clean stop/start, only crashes drop it.
    const Status flushed = co_await p->drain(
        sim_->now() + config_.heartbeat_interval * 4, /*flush_only=*/true);
    if (!flushed.ok() && first_error.ok()) first_error = flushed;
    it = instances_.find(wiera_id);
    p = peer_by_id_internal(id);
    if (it == instances_.end() || p == nullptr) continue;
    p->begin_recovery();
    p->stop();
    co_await sim_->delay(config_.restart_pause);
    p = peer_by_id_internal(id);
    if (p == nullptr) continue;
    p->start();
    sim_->telemetry()
        .journal()
        .event("controller", "peer_restarted")
        .str("instance", id);
    // Recover before bouncing the next peer: at most one member is ever
    // out of full service.
    if (catching_up_.insert(id).second) {
      co_await recover_peer(wiera_id, id);
    } else {
      // The heartbeat already owns this peer's recovery; give it a beat.
      co_await sim_->delay(config_.heartbeat_interval);
    }
  }
  rolling_restarts_++;
  WLOG_INFO(kComponent) << wiera_id << " rolling restart complete";
  co_return first_error;
}

void WieraController::start() {
  if (running_) return;
  running_ = true;
  lock_service_->start_lease_reaper(config_.heartbeat_interval);
  sim_->spawn(heartbeat_loop(), "controller.heartbeat");
}

void WieraController::stop() { running_ = false; }

}  // namespace wiera::geo
