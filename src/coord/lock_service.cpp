#include "coord/lock_service.h"

namespace wiera::coord {

LockService::~LockService() { reaping_ = false; }

void LockService::start_lease_reaper(Duration check_interval) {
  if (reaping_) return;
  reaping_ = true;
  sim_->spawn(lease_reaper_loop(check_interval), "lock.lease-reaper");
}

sim::Task<void> LockService::lease_reaper_loop(Duration check_interval) {
  while (reaping_) {
    co_await sim_->delay(check_interval);
    if (!reaping_) break;
    for (auto& [name, lock] : locks_) {
      if (lock->holder.empty()) continue;
      if (sim_->now() - lock->granted_at > kLease) {
        // The holder exceeded its lease (crashed or wedged): evict it so
        // queued writers make progress. A late release from the old holder
        // will fail with a holder mismatch, like an expired ZK session.
        lock->holder.clear();
        lock->mutex.unlock();
        leases_expired_++;
      }
    }
  }
}

LockService::LockService(sim::Simulation& sim, rpc::Endpoint& endpoint)
    : sim_(&sim), endpoint_(&endpoint) {
  endpoint_->register_handler(
      kAcquireMethod, [this](rpc::Message req) { return handle_acquire(std::move(req)); });
  endpoint_->register_handler(
      kReleaseMethod, [this](rpc::Message req) { return handle_release(std::move(req)); });
}

LockService::LockState& LockService::state_for(const std::string& lock_name) {
  auto it = locks_.find(lock_name);
  if (it == locks_.end()) {
    it = locks_.emplace(lock_name, std::make_unique<LockState>(*sim_)).first;
  }
  return *it->second;
}

std::string LockService::holder(const std::string& lock_name) const {
  auto it = locks_.find(lock_name);
  return it == locks_.end() ? "" : it->second->holder;
}

int64_t LockService::waiting(const std::string& lock_name) const {
  auto it = locks_.find(lock_name);
  return it == locks_.end() ? 0 : it->second->waiting;
}

sim::Task<Result<rpc::Message>> LockService::handle_acquire(
    rpc::Message request) {
  auto req = rpc::decode<LockRequest>(request);
  if (!req.ok()) co_return req.status();

  LockState& lock = state_for(req->lock_name);
  if (lock.holder == req->requester) {
    co_return rpc::encode_status(
        failed_precondition("lock already held by requester (not reentrant)"));
  }
  lock.waiting++;
  co_await lock.mutex.lock();
  lock.waiting--;
  lock.holder = req->requester;
  lock.granted_at = sim_->now();
  acquires_served_++;
  co_return rpc::encode_status(ok_status());
}

sim::Task<Result<rpc::Message>> LockService::handle_release(
    rpc::Message request) {
  auto req = rpc::decode<LockRequest>(request);
  if (!req.ok()) co_return req.status();

  auto it = locks_.find(req->lock_name);
  if (it == locks_.end() || it->second->holder.empty()) {
    co_return rpc::encode_status(
        failed_precondition("release of unheld lock " + req->lock_name));
  }
  if (it->second->holder != req->requester) {
    co_return rpc::encode_status(failed_precondition(
        "lock " + req->lock_name + " held by " + it->second->holder +
        ", not " + req->requester));
  }
  it->second->holder.clear();
  it->second->mutex.unlock();
  co_return rpc::encode_status(ok_status());
}

// NOTE: request messages are built into named locals before the co_await.
// Building temporaries inside the co_await expression trips a GCC coroutine
// frame-lifetime bug (double destruction of aggregate temporaries).
sim::Task<Status> LockClient::acquire(std::string lock_name) {
  rpc::Message request =
      rpc::encode(LockRequest{std::move(lock_name), client_->node_name()});
  auto resp = co_await client_->call(
      service_node_, LockService::kAcquireMethod, std::move(request));
  if (!resp.ok()) co_return resp.status();
  co_return rpc::decode_status(*resp);
}

sim::Task<Status> LockClient::release(std::string lock_name) {
  rpc::Message request =
      rpc::encode(LockRequest{std::move(lock_name), client_->node_name()});
  auto resp = co_await client_->call(
      service_node_, LockService::kReleaseMethod, std::move(request));
  if (!resp.ok()) co_return resp.status();
  co_return rpc::decode_status(*resp);
}

}  // namespace wiera::coord
