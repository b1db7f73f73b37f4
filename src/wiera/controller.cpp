#include "wiera/controller.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"

namespace wiera::geo {

namespace {
constexpr char kComponent[] = "wiera";
// The WUI's run-time changes, requested by the peers' monitors
// (wire_control_plane): the new consistency policy's name, or the new
// primary's instance id.
constexpr rpc::Method<ChangeRequest, rpc::Ack> kChangePolicy{
    "wui.change_policy"};
constexpr rpc::Method<ChangeRequest, rpc::Ack> kChangePrimary{
    "wui.change_primary"};
// Heartbeats ping every peer this often; the lease reaper and the drain
// hand-off pace themselves by it too.
constexpr Duration kHeartbeatInterval = sec(1);
// Heartbeat flap damping (docs/HEALTH.md): a peer is declared down only
// after this many *consecutive* failed pings, so one chaos-dropped ping
// cannot trigger failover.
constexpr int kPingFailureThreshold = 2;
// Pause between stop and restart of each peer in a rolling restart.
constexpr Duration kRestartPause = msec(500);
// Requests an instance's members must have served between them before
// recommend_primary names one.
constexpr int64_t kPlacementMinRequests = 100;

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

// A peer's monitor asks the controller's WUI for a run-time change (so the
// request itself pays a WAN hop): `target` is the consistency policy or the
// new primary. Fire-and-forget from the peer's view.
sim::Task<void> request_change(WieraPeer* peer, std::string controller,
                               rpc::Method<ChangeRequest, rpc::Ack> method,
                               std::string wiera_id, std::string target) {
  const ChangeRequest request{std::move(wiera_id), std::move(target)};
  auto resp =
      co_await peer->endpoint().call(std::move(controller), method, request);
  if (!resp.ok()) {
    WLOG_WARN(kComponent) << method.name << " request failed: "
                          << resp.status().to_string();
  }
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

WieraController::PeerState WieraController::state(
    const std::string& id) const {
  auto it = peer_state_.find(id);
  return it == peer_state_.end() ? PeerState{} : it->second;
}

bool WieraController::alive(const std::string& id, bool unknown) const {
  return state(id).alive.value_or(unknown);
}

TieraServer* WieraController::server_on(const std::string& node) const {
  for (TieraServer* server : servers_) {
    if (server->node() == node) return server;
  }
  return nullptr;
}

TieraServer* WieraController::host_of(const std::string& peer_id) const {
  for (TieraServer* server : servers_) {
    if (server->peer(peer_id) != nullptr) return server;
  }
  return nullptr;
}

WieraPeer* WieraController::peer(const std::string& instance_id) {
  TieraServer* host = host_of(instance_id);
  return host == nullptr ? nullptr : host->peer(instance_id);
}

void WieraController::register_server(TieraServer* server) {
  servers_.push_back(server);
  peer_state_[server->node()].alive = true;
}

bool WieraController::server_alive(const std::string& node) const {
  // Unlike a member, a node the controller has no verdict on (never
  // registered, or evacuated) is not a live server.
  return alive(node, /*unknown=*/false);
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

  // Every region's peer is planned, and its node checked, before any is
  // spawned: a refused start leaves nothing behind.
  std::vector<std::pair<TieraServer*, WieraPeer::Config>> planned;
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
    TieraServer* server = server_on(node);
    if (server == nullptr) {
      return not_found("no Tiera server registered on node " + node +
                       " for region " + region.region());
    }
    // A second peer on the node would replace the one there, and its
    // endpoint registration with it.
    const bool planned_here =
        std::any_of(planned.begin(), planned.end(),
                    [&](const auto& p) { return p.first == server; });
    if (server->occupied() || planned_here) {
      return already_exists(node + " already hosts a peer");
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
    peer_config.health = &health_;
    if (options.customize) options.customize(peer_config);
    planned.emplace_back(server, std::move(peer_config));
  }

  InstanceRecord record;
  record.policy_id = options.global.name;
  record.mode = *mode;
  for (auto& [server, peer_config] : planned) {
    const bool can_store =
        !peer_config.forwarding_only && !peer_config.local.policy.tiers.empty();
    record.templates.push_back(peer_config);
    WieraPeer* peer = server->spawn_peer(std::move(peer_config));
    record.peer_ids.push_back(peer->id());
    if (can_store) record.storage_peer_ids.push_back(peer->id());
    if (peer->is_primary()) record.primary = peer->id();
  }

  // Default the primary to the first region when the policy names none.
  if (record.primary.empty() && !record.peer_ids.empty()) {
    record.primary = record.peer_ids.front();
  }

  // Propagate membership + primary (apply_primary_change resets is_primary
  // from the id comparison), then wire the control plane and start peers.
  InstanceRecord& started = instances_[wiera_id] = std::move(record);
  push_membership(wiera_id, started);
  for (const std::string& id : started.peer_ids) {
    peer_state_[id].lease_seen = sim_->now();
    WieraPeer* p = peer(id);
    wire_control_plane(wiera_id, p);
    p->start();
  }
  WLOG_INFO(kComponent) << "started " << wiera_id << " ("
                        << started.policy_id << ", "
                        << consistency_mode_name(started.mode) << ", "
                        << started.peer_ids.size() << " peers)";
  return started.peer_ids;
}

Status WieraController::stop_instances(const std::string& wiera_id) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) return not_found("wiera instance " + wiera_id);
  for (const std::string& id : it->second.peer_ids) {
    TieraServer* host = host_of(id);
    if (host == nullptr) continue;
    const Status st = host->stop_peer(id);
    if (!st.ok()) {
      WLOG_WARN(kComponent) << "stop_peer " << id
                            << " failed: " << st.to_string();
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

template <class Req>
sim::Task<Result<WieraController::InstanceRecord*>>
WieraController::change_all_peers(std::string wiera_id,
                                  rpc::Method<Req, rpc::Ack> method,
                                  Req request, std::string what) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  if (it->second.change_in_progress) {
    co_return failed_precondition(what + " already in progress");
  }
  it->second.change_in_progress = true;

  // Every peer switches concurrently; each pays a WAN RTT.
  std::vector<sim::Task<Result<rpc::Ack>>> tasks;
  for (const std::string& id : it->second.peer_ids) {
    tasks.push_back(endpoint_->call(id, method, request));
  }
  std::vector<Result<rpc::Ack>> results =
      co_await sim::when_all(*sim_, std::move(tasks));
  // Re-find after resuming: stop_instances may have erased this record while
  // the fan-out was in flight, which would leave `it` dangling.
  it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id + " stopped during " +
                        what);
  }
  it->second.change_in_progress = false;
  for (const Result<rpc::Ack>& ack : results) {
    if (Status st = rpc::acked(ack); !st.ok()) co_return st;
  }
  co_return &it->second;
}

sim::Task<Status> WieraController::change_consistency(std::string wiera_id,
                                                      ConsistencyMode mode) {
  auto it = instances_.find(wiera_id);
  if (it == instances_.end()) {
    co_return not_found("wiera instance " + wiera_id);
  }
  if (it->second.mode == mode) co_return ok_status();
  // Tell every peer to block-drain-switch. The request is a named local, as
  // in change_primary: GCC 12 destroys an aggregate temporary built inside
  // a co_await expression twice (see LockClient::acquire).
  const SetConsistencyRequest request{mode};
  auto record = co_await change_all_peers(wiera_id, method::kSetConsistency,
                                          request, "consistency change");
  if (!record.ok()) co_return record.status();
  (*record)->mode = mode;
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
  if (it->second.primary == new_primary) co_return ok_status();
  if (!it->second.has(new_primary)) {
    co_return invalid_argument(new_primary + " is not a member of " +
                               wiera_id);
  }
  const SetPrimaryRequest request{new_primary};
  auto record = co_await change_all_peers(wiera_id, method::kSetPrimary,
                                          request, "primary change");
  if (!record.ok()) co_return record.status();
  (*record)->primary = new_primary;
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
  // The §3.1 workload monitor is the peers' registry series. A forwarded
  // put is not a direct put at the peer it was forwarded to, so each put
  // counts once, where the client sent it.
  const obs::Registry& metrics = sim_->telemetry().registry();
  std::string busiest;
  int64_t top = 0;
  int64_t total = 0;
  for (const std::string& id : it->second.peer_ids) {
    const obs::LabelSet inst{{"instance", id}};
    const obs::Histogram* gets =
        metrics.find_histogram("wiera_get_latency_us", inst);
    const int64_t requests =
        metrics.counter_value("wiera_direct_puts_total", inst) +
        (gets == nullptr ? 0 : gets->count());
    total += requests;
    if (requests > top) {
      top = requests;
      busiest = id;
    }
  }
  return total < kPlacementMinRequests ? "" : busiest;
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
  auto via_wui = [this, wiera_id, peer](
                     rpc::Method<ChangeRequest, rpc::Ack> method,
                     const char* task) {
    return [this, wiera_id, peer, method, task](const std::string& target) {
      sim_->spawn(request_change(peer, config_.node, method, wiera_id, target),
                  task);
    };
  };
  WieraPeer::ControlPlane control;
  control.request_policy_change =
      via_wui(kChangePolicy, "controller.change-policy-rpc");
  control.request_primary_change =
      via_wui(kChangePrimary, "controller.change-primary-rpc");
  peer->set_control_plane(std::move(control));
}

void WieraController::register_handlers() {
  // An unknown policy name is refused out of band; a change the controller
  // refuses is acked in band.
  endpoint_->serve(
      kChangePolicy,
      [this](ChangeRequest&& r) -> sim::Task<Result<rpc::Ack>> {
        auto mode = consistency_mode_from_name(r.target);
        if (!mode.ok()) co_return mode.status();
        Status st = co_await change_consistency(std::move(r.wiera_id), *mode);
        co_return rpc::Ack{st};
      });
  endpoint_->serve(kChangePrimary, [this](ChangeRequest&& r) {
    return change_primary(std::move(r.wiera_id), std::move(r.target));
  });
  // Serve-lease renewal: record when each peer last proved round-trip
  // reachability. The renewal time gates membership narrowing: because the
  // controller's record is always at least as fresh as the peer's own
  // (the response can be lost after the handler runs, never the reverse),
  // "lease stale here" implies "lease lapsed at the peer".
  endpoint_->serve(method::kLeaseRenew,
                   [this](const LeaseRenewRequest& r) -> sim::Task<Status> {
                     peer_state_[r.instance_id].lease_seen = sim_->now();
                     co_return ok_status();
                   });
  endpoint_->serve(method::kPing, [](const rpc::Empty&) -> sim::Task<Status> {
    co_return ok_status();
  });
}

sim::Task<void> WieraController::heartbeat_loop(uint64_t generation) {
  while (generation == heartbeat_generation_) {
    co_await sim_->delay(kHeartbeatInterval);
    if (generation != heartbeat_generation_) break;
    // Snapshot the membership: add_server can grow servers_ (and a server's
    // peer set) while a ping is in flight, invalidating these iterators.
    const std::vector<TieraServer*> servers = servers_;
    for (TieraServer* server : servers) {
      for (const std::string& id : server->peer_ids()) {
        const rpc::Empty ping;
        Context ping_ctx;
        if (config_.ping_deadline > Duration::zero()) {
          ping_ctx =
              Context::with_deadline(sim_->now() + config_.ping_deadline);
        }
        auto resp = co_await endpoint_->call(id, method::kPing, ping,
                                             ping_ctx);
        PeerState& tracked = peer_state_[id];
        const bool was_alive = tracked.alive.value_or(true);
        health_.record_ping(id, resp.ok(), sim_->now());
        // Flap damping: liveness flips only after kPingFailureThreshold
        // consecutive failures.
        tracked.ping_failures = resp.ok() ? 0 : tracked.ping_failures + 1;
        const bool now_alive = tracked.ping_failures < kPingFailureThreshold;
        tracked.alive = now_alive;
        if (now_alive) {
          tracked.down_handled = false;
        } else if (!tracked.down_handled && !tracked.draining) {
          // (A draining peer's drain task owns its membership transition;
          // down-handling — say a fault partitions it mid-drain — must not
          // race that. The drain's own deadline bounds the deferral.)
          // Narrowing membership around an unreachable peer is only safe
          // once its serve lease has provably lapsed: lease_seen upper-
          // bounds the peer's own last renewal, so waiting one heartbeat
          // past the lease guarantees the peer is already refusing
          // strong-mode reads before anyone stops replicating to it.
          const bool lease_lapsed =
              config_.serve_lease <= Duration::zero() ||
              !tracked.lease_seen.has_value() ||
              sim_->now() - *tracked.lease_seen >
                  config_.serve_lease + kHeartbeatInterval;
          if (lease_lapsed) {
            tracked.down_handled = true;
            handle_peer_down(id);
          }
        }
        // A peer that answers but is recovering (crash restart, lapsed
        // serve lease, or a replacement that just joined) gets a
        // controller-driven catch-up before it rejoins.
        WieraPeer* p = peer(id);
        const bool needs_recovery =
            now_alive && p != nullptr && (!was_alive || p->recovering());
        if (needs_recovery && !std::exchange(tracked.catching_up, true)) {
          for (auto& [wiera_id, record] : instances_) {
            if (!record.has(id)) continue;
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
    if (!record.has(peer_id)) continue;
    // §4.4 failover: promote the first live storage peer, preferring one
    // that is not in health probation (docs/HEALTH.md).
    if (record.primary == peer_id) hand_off_primary(wiera_id, record);
    push_membership(wiera_id, record);
  }
}

std::string WieraController::pick_successor(const InstanceRecord& record,
                                            const std::string& excluding) const {
  std::string fallback;
  for (const std::string& candidate : record.storage_peer_ids) {
    if (candidate == excluding || state(candidate).draining ||
        !alive(candidate)) {
      continue;
    }
    if (health_.in_probation(candidate)) {
      if (fallback.empty()) fallback = candidate;
      continue;
    }
    return candidate;
  }
  return fallback;
}

bool WieraController::hand_off_primary(const std::string& wiera_id,
                                       InstanceRecord& record) {
  const std::string successor = pick_successor(record, record.primary);
  if (successor.empty()) return false;
  WLOG_INFO(kComponent) << wiera_id << " primary handed off: "
                        << record.primary << " -> " << successor;
  record.primary = successor;
  primary_changes_++;
  return true;
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
    if (!state(id).draining && alive(id)) live_storage.push_back(id);
  }
  for (const std::string& id : record.peer_ids) {
    if (!alive(id)) continue;
    WieraPeer* p = peer(id);
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

WieraPeer* WieraController::join(const std::string& wiera_id,
                                 InstanceRecord& record, TieraServer& server) {
  WieraPeer::Config config = record.templates.front();
  config.instance_id = server.node();
  config.is_primary = false;
  const bool stores =
      !config.forwarding_only && !config.local.policy.tiers.empty();
  record.templates.push_back(config);
  WieraPeer* joined = server.spawn_peer(std::move(config));
  record.peer_ids.push_back(joined->id());
  if (stores) record.storage_peer_ids.push_back(joined->id());
  PeerState& joined_state = peer_state_[joined->id()];
  joined_state.alive = true;
  joined_state.lease_seen = sim_->now();
  wire_control_plane(wiera_id, joined);
  // The newcomer starts empty: recover it like a restarted peer — catch up
  // from the live sources while replication already flows to it.
  joined->begin_recovery();
  push_membership(wiera_id, record);
  joined->start();
  return joined;
}

sim::Task<void> WieraController::recover_peer(std::string wiera_id,
                                              std::string peer_id) {
  WieraPeer* p = peer(peer_id);
  auto it = instances_.find(wiera_id);
  if (p == nullptr || it == instances_.end()) {
    peer_state_[peer_id].catching_up = false;
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
    peer_state_[peer_id].catching_up = false;
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
    if (!alive(candidate)) return;
    WieraPeer* src = peer(candidate);
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
    peer_state_[peer_id].catching_up = false;
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
    peer_state_[peer_id].catching_up = false;
    co_return;
  }
  p->finish_recovery();
  recoveries_completed_++;
  WLOG_INFO(kComponent) << peer_id << " recovered and rejoined " << wiera_id;
  peer_state_[peer_id].catching_up = false;
}

void WieraController::maintain_replicas() {
  for (auto& [wiera_id, record] : instances_) {
    const auto live = std::count_if(
        record.peer_ids.begin(), record.peer_ids.end(),
        [this](const std::string& id) { return alive(id); });
    if (live >= config_.min_replicas || record.templates.empty()) continue;

    // A spare server: registered, alive, not already hosting a peer of this
    // instance. An evacuated node's endpoint belongs to its retired peer
    // object: re-spawning there would double-register it.
    TieraServer* spare = nullptr;
    for (TieraServer* server : servers_) {
      const std::string& node = server->node();
      if (!record.has(node) && alive(node) && !state(node).evacuated) {
        spare = server;
        break;
      }
    }
    if (spare == nullptr) continue;

    // §4.4 failover first, so the replacement joins under the new primary
    // and is never itself promoted while it is still empty.
    if (!alive(record.primary)) hand_off_primary(wiera_id, record);
    WieraPeer* replacement = join(wiera_id, record, *spare);
    replacements_spawned_++;
    WLOG_INFO(kComponent) << wiera_id << " spawned replacement replica on "
                          << replacement->id();
    // The next heartbeat finds it recovering and catches it up.
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
  if (!it->second.has(peer_id)) {
    co_return not_found(peer_id + " is not a member of " + wiera_id);
  }
  WieraPeer* p = peer(peer_id);
  if (p == nullptr) {
    co_return not_found("no peer object for " + peer_id);
  }
  if (std::exchange(peer_state_[peer_id].draining, true)) {
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
  if (it->second.primary == peer_id &&
      !hand_off_primary(wiera_id, it->second)) {
    peer_state_[peer_id].draining = false;
    co_return failed_precondition(
        "no live successor to take primary-ship from " + peer_id);
  }

  // 2. Stop admitting new placements: with peer_id draining, this push
  //    drops it from every live peer's replication set.
  push_membership(wiera_id, it->second);

  // 3. Hand off. enter_draining *before* the final flush: the gate refuses
  //    new client ops from here on (clients fail over within their retry
  //    budget), so nothing can land between the last flush and the detach.
  p->enter_draining();
  if (config_.drain_handoff) {
    const Status handoff = co_await p->drain(deadline);
    it = instances_.find(wiera_id);
    p = peer(peer_id);
    if (it == instances_.end() || p == nullptr) {
      peer_state_[peer_id].draining = false;
      co_return not_found(wiera_id + " stopped during drain of " + peer_id);
    }
    if (!handoff.ok()) {
      // Abort: restore full membership and keep serving. Nothing was lost —
      // the peer still holds everything it ever acked.
      p->exit_draining();
      peer_state_[peer_id].draining = false;
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
  std::erase_if(record.templates, [&](const WieraPeer::Config& t) {
    return t.instance_id == peer_id;
  });
  // Of the peer's state only the evacuation outlives it.
  PeerState& evacuated = peer_state_[peer_id] = PeerState();
  evacuated.evacuated = true;
  push_membership(wiera_id, record);
  const Status retired = host_of(peer_id)->retire_peer(peer_id);
  if (!retired.ok()) {
    WLOG_WARN(kComponent) << "retiring " << peer_id
                          << " failed: " << retired.to_string();
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
  if (it->second.has(node)) {
    co_return already_exists(node + " is already a member of " + wiera_id);
  }
  if (state(node).evacuated) {
    // The retired peer still owns this node's rpc endpoint; spawning a new
    // one there would double-register it. Capacity returns on fresh nodes.
    co_return failed_precondition(node +
                                  " was evacuated; add a fresh node instead");
  }
  if (state(node).draining) {
    co_return failed_precondition(node + " is draining");
  }
  TieraServer* server = server_on(node);
  if (server == nullptr) {
    co_return not_found("no Tiera server registered on node " + node);
  }
  if (!alive(node)) {
    co_return unavailable(node + " is down");
  }
  if (it->second.templates.empty()) {
    co_return failed_precondition("no peer template to clone for " + wiera_id);
  }

  join(wiera_id, it->second, *server);
  peers_added_++;
  sim_->telemetry()
      .journal()
      .event("controller", "peer_added")
      .str("instance", node);
  WLOG_INFO(kComponent) << wiera_id << " added live peer " << node;
  if (!std::exchange(peer_state_[node].catching_up, true)) {
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
    if (state(id).draining || state(id).evacuated) continue;
    if (!alive(id)) continue;  // down anyway
    WieraPeer* p = peer(id);
    if (p == nullptr) continue;
    // A controlled restart must not trip a failover: primary-ship moves off
    // the peer before it bounces (same local promotion as drain_peer).
    if (it->second.primary == id) {
      hand_off_primary(wiera_id, it->second);
      push_membership(wiera_id, it->second);
    }
    // Flush the outbound queue so the bounce loses nothing; tolerate a
    // flush that cannot finish (a partitioned sibling) and bounce anyway —
    // the queue survives a clean stop/start, only crashes drop it.
    const Status flushed = co_await p->drain(
        sim_->now() + kHeartbeatInterval * 4, /*flush_only=*/true);
    if (!flushed.ok() && first_error.ok()) first_error = flushed;
    it = instances_.find(wiera_id);
    p = peer(id);
    if (it == instances_.end() || p == nullptr) continue;
    p->begin_recovery();
    p->stop();
    co_await sim_->delay(kRestartPause);
    p = peer(id);
    if (p == nullptr) continue;
    p->start();
    sim_->telemetry()
        .journal()
        .event("controller", "peer_restarted")
        .str("instance", id);
    // Recover before bouncing the next peer: at most one member is ever
    // out of full service.
    if (!std::exchange(peer_state_[id].catching_up, true)) {
      co_await recover_peer(wiera_id, id);
    } else {
      // The heartbeat already owns this peer's recovery; give it a beat.
      co_await sim_->delay(kHeartbeatInterval);
    }
  }
  rolling_restarts_++;
  WLOG_INFO(kComponent) << wiera_id << " rolling restart complete";
  co_return first_error;
}

void WieraController::start() {
  if (running_) return;
  running_ = true;
  lock_service_->start_lease_reaper(kHeartbeatInterval);
  sim_->spawn(heartbeat_loop(heartbeat_generation_), "controller.heartbeat");
}

void WieraController::stop() {
  running_ = false;
  heartbeat_generation_++;
}

}  // namespace wiera::geo
