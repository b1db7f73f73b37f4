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
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <tuple>

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
  void stop_lease_reaper() { reaping_ = false; }

  static constexpr const char* kAcquireMethod = "lock.acquire";
  static constexpr const char* kReleaseMethod = "lock.release";

 private:
  struct LockState {
    explicit LockState(sim::Simulation& sim) : mutex(sim, "lock.state") {}
    sim::SimMutex mutex;
    std::string holder;
    int64_t waiting = 0;
    TimePoint granted_at;
  };

  sim::Task<void> lease_reaper_loop(Duration check_interval);

  sim::Task<Result<rpc::Message>> handle_acquire(rpc::Message request);
  sim::Task<Result<rpc::Message>> handle_release(rpc::Message request);

  LockState& state_for(const std::string& lock_name);

  sim::Simulation* sim_;
  rpc::Endpoint* endpoint_;
  std::map<std::string, std::unique_ptr<LockState>> locks_;
  int64_t acquires_served_ = 0;
  int64_t leases_expired_ = 0;
  bool reaping_ = false;
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
