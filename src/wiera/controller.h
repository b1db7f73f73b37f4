// WieraController: the management plane (§3.1, §4.1).
//
// Combines the paper's components:
//   * WUI  — startInstances / stopInstances / getInstances (Table 1);
//   * GPM  — stores each Wiera instance's global policy and instantiates
//            the protocol it derives;
//   * TSM  — registry of Tiera servers, heartbeat health checks, and
//            replacement of crashed replicas (§4.4);
//   * TIM  — propagates peer membership and orchestrates run-time changes
//            (consistency switch, primary migration) requested by the
//            monitoring events.
//
// The controller lives on its own node (the paper runs it in US East with
// ZooKeeper co-located), so peers pay a WAN round trip to request policy
// changes and the controller pays WAN RTTs to apply them.
#pragma once

#include <algorithm>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "coord/lock_service.h"
#include "wiera/health.h"
#include "wiera/peer.h"

namespace wiera::geo {

// A Tiera server: one per node, spawns/stops instances in-process (§4.1
// notes instances run within the server process).
class TieraServer {
 public:
  TieraServer(sim::Simulation& sim, net::Network& network,
              rpc::Registry& registry, std::string node)
      : sim_(&sim), network_(&network), registry_(&registry),
        node_(std::move(node)) {}

  const std::string& node() const { return node_; }

  // Spawns a peer whose instance_id must equal a topology node co-located
  // with (or equal to) this server's node.
  WieraPeer* spawn_peer(WieraPeer::Config config);
  Status stop_peer(const std::string& instance_id);
  // Detach a peer without destroying it: the object (and its registered
  // rpc endpoint) moves to a retired list where it stays alive, so
  // in-flight handler coroutines and straggler RPCs land on a live object
  // that answers fast — but it leaves peer_ids(), so the heartbeat stops
  // pinging it and the failure detector never trips (docs/SCENARIOS.md).
  Status retire_peer(const std::string& instance_id);
  WieraPeer* peer(const std::string& instance_id);
  std::vector<std::string> peer_ids() const;
  // Whether a peer, running or retired, holds this node's endpoint.
  bool occupied() const { return !peers_.empty() || !retired_.empty(); }

 private:
  sim::Simulation* sim_;
  net::Network* network_;
  rpc::Registry* registry_;
  std::string node_;
  std::map<std::string, std::unique_ptr<WieraPeer>> peers_;
  std::vector<std::unique_ptr<WieraPeer>> retired_;
};

class WieraController {
 public:
  struct Config {
    std::string node = "wiera-controller";
    // Minimum live replicas per Wiera instance; 0 disables maintenance.
    int min_replicas = 0;
    // When nonzero, every launched peer gets this serve lease (it refuses
    // strong-mode client ops once it has gone this long without a
    // successful lease renewal against this controller). The controller in
    // turn narrows replication membership around an unreachable peer only
    // after the peer's lease has provably lapsed — that ordering guarantees
    // an isolated replica is refusing reads before anyone stops
    // replicating to it. Zero disables both sides (seed behaviour).
    Duration serve_lease = Duration::zero();
    // Deadline on each heartbeat ping (docs/OVERLOAD.md). Without one, a
    // ping to a partitioned node blocks the heartbeat loop for the full
    // unreachable timeout; with one, failure detection keeps its cadence
    // under brownouts. Zero = no deadline (seed behaviour).
    Duration ping_deadline = Duration::zero();
    // Health-scored failure detection (docs/HEALTH.md). Disabled by
    // default: the tracker records nothing and every peer ranks neutral.
    HealthTracker::Config health = {};
    // ---- operational events (docs/SCENARIOS.md) ----
    // Hand the draining peer's queued + committed state off to the
    // remaining replicas before detaching it. Disabling this is the SLO
    // oracle's mutation knob: the drain then detaches with whatever the
    // flusher had not pushed yet, and the session read-your-writes
    // contract catches the loss.
    bool drain_handoff = true;
  };

  // How to launch a Wiera instance from a global policy document.
  struct StartOptions {
    policy::PolicyDoc global;  // Wiera doc (regions + insert protocol rule)
    // Resolves region instance names (LowLatencyInstance, ...) to local
    // Tiera docs; defaults to the built-in catalog (+ an empty
    // ForwardingInstance).
    std::function<Result<policy::PolicyDoc>(const std::string&)>
        resolve_local;
    std::map<std::string, policy::Value> local_params;
    // Maps a policy region name (e.g. "US-West") to a topology node where
    // a Tiera server runs. Defaults to "tiera-" + lowercased region.
    std::function<std::string(const std::string& region)> node_for_region;
    std::optional<policy::PolicyDoc> dynamic_consistency;  // Fig. 5a
    std::optional<policy::PolicyDoc> change_primary;       // Fig. 5b
    Duration queue_flush_interval = msec(100);
    // Final per-peer adjustment (tier tweaks, get-forward targets, ...).
    std::function<void(WieraPeer::Config&)> customize;
  };

  WieraController(sim::Simulation& sim, net::Network& network,
                  rpc::Registry& registry, Config config);

  coord::LockService& lock_service() { return *lock_service_; }

  // ---- TSM ----
  void register_server(TieraServer* server);
  bool server_alive(const std::string& node) const;
  std::vector<std::string> down_instances(const std::string& wiera_id) const;

  // ---- WUI (Table 1) ----
  Result<std::vector<std::string>> start_instances(const std::string& wiera_id,
                                                   StartOptions options);
  Status stop_instances(const std::string& wiera_id);
  Result<std::vector<std::string>> get_instances(
      const std::string& wiera_id) const;

  // ---- dynamic reconfiguration ----
  sim::Task<Status> change_consistency(std::string wiera_id,
                                       ConsistencyMode mode);
  sim::Task<Status> change_primary(std::string wiera_id,
                                   std::string new_primary);

  // ---- operational events (docs/SCENARIOS.md) ----
  // Cooperatively evacuate `peer_id` from `wiera_id`: move primary-ship off
  // it, stop admitting new placements (membership pushed without it), hand
  // off its queued + committed state over the normal replication path, then
  // detach it without tripping the failure detector. On hand-off failure
  // the peer is restored to full membership and the error returned.
  sim::Task<Status> drain_peer(std::string wiera_id, std::string peer_id,
                               TimePoint deadline);
  // Bring a new replica up live on `node` (a registered Tiera server that
  // is not yet a member) and catch it up like a recovered peer. Evacuated
  // node ids stay retired for the life of the cluster — capacity comes back
  // on a fresh node, never by re-registering a retired endpoint.
  sim::Task<Status> add_peer_live(std::string wiera_id, std::string node);
  // Controlled one-at-a-time restart of the storage peers: primary-ship is
  // moved off each peer, its queue flushed, and the peer recovered before
  // the next one bounces — at most one member is ever out of full service.
  sim::Task<Status> rolling_restart(std::string wiera_id);
  int64_t drains_completed() const { return drains_completed_; }
  int64_t peers_added() const { return peers_added_; }
  int64_t rolling_restarts_completed() const { return rolling_restarts_; }

  ConsistencyMode current_mode(const std::string& wiera_id) const;
  std::string current_primary(const std::string& wiera_id) const;
  int64_t consistency_changes() const { return consistency_changes_; }
  int64_t primary_changes() const { return primary_changes_; }
  int64_t replacements_spawned() const { return replacements_spawned_; }
  int64_t recoveries_completed() const { return recoveries_completed_; }

  // Health-scored failure detection (docs/HEALTH.md): fed by the heartbeat
  // loop here and by client/peer latency observations.
  HealthTracker& health() { return health_; }
  const HealthTracker& health() const { return health_; }
  // §3.1 placement advisor: the member of `wiera_id` that served the most
  // requests (direct puts + gets, as its registry series count them), once
  // the instance's members have served 100 between them; "" before that or
  // for an unknown instance.
  std::string recommend_primary(const std::string& wiera_id) const;

  WieraPeer* peer(const std::string& instance_id);

  // Begin heartbeat monitoring and lock-lease reaping.
  void start();
  void stop();

 private:
  struct InstanceRecord {
    std::string policy_id;
    std::vector<std::string> peer_ids;
    ConsistencyMode mode = ConsistencyMode::kEventual;
    std::string primary;
    bool change_in_progress = false;
    // Peer configs as launched, cloned for a live add or a §4.4 replacement.
    std::vector<WieraPeer::Config> templates;
    // Subset of peer_ids that can store data (not forwarding-only).
    std::vector<std::string> storage_peer_ids;

    bool has(const std::string& id) const {
      return std::find(peer_ids.begin(), peer_ids.end(), id) != peer_ids.end();
    }
  };

  // What the controller knows about one peer id.
  struct PeerState {
    // The heartbeat's verdict. Unset until the id is registered, joined or
    // pinged, and again once it is evacuated.
    std::optional<bool> alive;
    // Consecutive failed pings (flap damping; docs/HEALTH.md).
    int ping_failures = 0;
    // A recovery task is in flight (one at a time per peer).
    bool catching_up = false;
    // Last lease renewal received (conservative upper bound on the peer's
    // own view of its lease).
    std::optional<TimePoint> lease_seen;
    // The down-transition has been handled (failover + narrowing); cleared
    // when the peer answers pings again.
    bool down_handled = false;
    // Mid-drain: excluded from replication membership pushes, and the
    // heartbeat's down-handling defers to the drain in progress.
    bool draining = false;
    // Evacuated: never re-added (its rpc endpoint stays registered to the
    // retired object) and never picked as a spare.
    bool evacuated = false;
  };

  void wire_control_plane(const std::string& wiera_id, WieraPeer* peer);
  void register_handlers();
  sim::Task<void> heartbeat_loop(uint64_t generation);
  // §4.4: if an instance has fewer than min_replicas live peers, join a
  // replacement on a spare Tiera server.
  void maintain_replicas();
  // Liveness transitions driven by the heartbeat: a peer went down (primary
  // failover + membership narrowed to live nodes) or came back (catch-up
  // resync, then rejoin).
  void handle_peer_down(const std::string& peer_id);
  // Probation-aware primary successor choice (docs/HEALTH.md): the first
  // live, non-draining storage peer that is not in probation; falls back to
  // a probation peer when no healthy candidate exists (a slow primary still
  // beats none). Empty when there is no candidate at all.
  std::string pick_successor(const InstanceRecord& record,
                             const std::string& excluding) const;
  // Moves primary-ship off the current primary to pick_successor's choice:
  // a local promotion, not change_primary's all-peer ack fan-out. False
  // (and nothing changes) when there is no candidate.
  bool hand_off_primary(const std::string& wiera_id, InstanceRecord& record);
  void push_membership(const std::string& wiera_id, InstanceRecord& record);
  // Clones the instance's first template onto `server` and joins the clone
  // as a recovering member: recorded alive with a fresh lease, wired,
  // pushed into every live peer's membership, then started. The caller
  // catches it up with recover_peer.
  WieraPeer* join(const std::string& wiera_id, InstanceRecord& record,
                  TieraServer& server);
  sim::Task<void> recover_peer(std::string wiera_id, std::string peer_id);
  // The run-time change both change_consistency and change_primary make:
  // under the instance's change guard, send `request` as `method` to every
  // member at once and wait for all acks. Yields the instance's record,
  // re-found after the fan-out, only when every peer acked; the caller then
  // commits the change to it.
  template <class Req>
  sim::Task<Result<InstanceRecord*>> change_all_peers(
      std::string wiera_id, rpc::Method<Req, rpc::Ack> method, Req request,
      std::string what);

  // The peer's record; a blank one for an id the controller has not seen.
  PeerState state(const std::string& id) const;
  // Whether the heartbeat has not declared `id` down; `unknown` answers
  // for an id with no verdict.
  bool alive(const std::string& id, bool unknown = true) const;
  // The registered server on `node`, and the server hosting `peer_id`.
  TieraServer* server_on(const std::string& node) const;
  TieraServer* host_of(const std::string& peer_id) const;

  sim::Simulation* sim_;
  net::Network* network_;
  rpc::Registry* registry_;
  Config config_;
  std::unique_ptr<rpc::Endpoint> endpoint_;
  std::unique_ptr<coord::LockService> lock_service_;
  std::vector<TieraServer*> servers_;
  std::map<std::string, InstanceRecord> instances_;
  std::map<std::string, PeerState> peer_state_;
  bool running_ = false;
  // Bumped by stop(): the heartbeat loop start() spawned exits when it next
  // wakes, so a restart inside one interval leaves only the new one.
  uint64_t heartbeat_generation_ = 0;
  int64_t drains_completed_ = 0;
  int64_t peers_added_ = 0;
  int64_t rolling_restarts_ = 0;
  int64_t consistency_changes_ = 0;
  int64_t primary_changes_ = 0;
  int64_t replacements_spawned_ = 0;
  int64_t recoveries_completed_ = 0;
  HealthTracker health_;
};

}  // namespace wiera::geo
