// Global lock service — the ZooKeeper/Curator stand-in (§4.2).
//
// One LockService runs on a designated node (the paper co-locates ZooKeeper
// with Wiera in US East); clients acquire named locks over RPC, so a lock
// acquisition from another region pays the WAN round trip — exactly the
// cost that makes MultiPrimaries puts expensive in Fig. 7.
//
// Semantics: per-name FIFO queues, at most one holder, holder identified by
// node name. Acquire blocks (server side) until granted; release by a
// non-holder is rejected. wait-free reads of holder state are available for
// tests and monitoring.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/flat_hash.h"
#include "rpc/rpc.h"
#include "sim/sync.h"

namespace wiera::coord {

// The body of both lock methods: which lock, and the node asking.
struct LockRequest {
  std::string lock_name;
  std::string requester;

  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.lock_name, m.requester);
  }
};

class LockService {
 public:
  // Hosts the service on `node_name`; registers RPC handlers on `endpoint`
  // (which must live on that node).
  LockService(sim::Simulation& sim, rpc::Endpoint& endpoint);
  ~LockService();

  const std::string& node_name() const { return endpoint_->node_name(); }

  // Current holder of a lock ("" when free).
  std::string holder(const std::string& lock_name) const;
  int64_t waiting(const std::string& lock_name) const;
  int64_t acquires_served() const { return acquires_served_; }
  int64_t leases_expired() const { return leases_expired_; }

  // ---- leases (ZooKeeper ephemeral-node semantics) ----
  // A grant is held at most kLease; a holder that neither releases nor
  // re-acquires within the lease (e.g. it crashed mid-critical-section) is
  // forcibly evicted so waiters make progress. The reaper checks every
  // `check_interval`; WieraController::start() runs it on the heartbeat.
  static constexpr Duration kLease = sec(20);
  void start_lease_reaper(Duration check_interval);
  void stop_lease_reaper();

  // Both answer with an in-band ack (a refusal included); acquire's ack
  // arrives once the lock is held.
  static constexpr rpc::Method<LockRequest, rpc::Ack> kAcquire{"lock.acquire"};
  static constexpr rpc::Method<LockRequest, rpc::Ack> kRelease{"lock.release"};

 private:
  struct LockState {
    LockState(sim::Simulation& sim, std::string lock_name)
        : name(std::move(lock_name)), mutex(sim, "lock.state") {}
    std::string name;
    sim::SimMutex mutex;
    std::string holder;
    int64_t waiting = 0;
    TimePoint granted_at;
  };

  sim::Task<void> lease_reaper_loop(Duration check_interval,
                                    uint64_t generation);

  sim::Task<Status> handle_acquire(const LockRequest& req);
  sim::Task<Status> handle_release(const LockRequest& req);

  LockState& state_for(const std::string& lock_name);
  const LockState* find(const std::string& lock_name) const;

  sim::Simulation* sim_;
  rpc::Endpoint* endpoint_;
  // Every lock named so far, in creation order. A SimMutex must not move,
  // so each state has its own allocation; the table maps a view of its name
  // to it.
  std::vector<std::unique_ptr<LockState>> locks_;
  FlatHashMap<std::string_view, LockState*> by_name_;
  int64_t acquires_served_ = 0;
  int64_t leases_expired_ = 0;
  bool reaping_ = false;
  // Bumped by stop_lease_reaper(): the loop start_lease_reaper() spawned
  // exits when it next wakes, so a restart inside one interval leaves only
  // the new one.
  uint64_t reaper_generation_ = 0;
};

// Client-side helpers: issue acquire/release RPCs from `client` to the lock
// service at `service_node`. Acquire resolves once the lock is held.
class LockClient {
 public:
  LockClient(rpc::Endpoint& client, std::string service_node)
      : client_(&client), service_node_(std::move(service_node)) {}

  sim::Task<Status> acquire(std::string lock_name);
  sim::Task<Status> release(std::string lock_name);

 private:
  rpc::Endpoint* client_;
  std::string service_node_;
};

}  // namespace wiera::coord
