#include "coord/lock_service.h"

#include <algorithm>

namespace wiera::coord {

LockService::~LockService() { stop_lease_reaper(); }

void LockService::start_lease_reaper(Duration check_interval) {
  if (reaping_) return;
  reaping_ = true;
  sim_->spawn(lease_reaper_loop(check_interval, reaper_generation_),
              "lock.lease-reaper");
}

void LockService::stop_lease_reaper() {
  reaping_ = false;
  reaper_generation_++;
}

sim::Task<void> LockService::lease_reaper_loop(Duration check_interval,
                                               uint64_t generation) {
  while (generation == reaper_generation_) {
    co_await sim_->delay(check_interval);
    if (generation != reaper_generation_) break;
    // A holder past its lease (crashed or wedged) is evicted so queued
    // writers make progress. A late release from the old holder will fail
    // with a holder mismatch, like an expired ZK session. Each unlock wakes
    // a waiter, so the evictions run in name order.
    std::vector<LockState*> expired;
    for (const auto& lock : locks_) {
      if (!lock->holder.empty() && sim_->now() - lock->granted_at > kLease) {
        expired.push_back(lock.get());
      }
    }
    std::sort(expired.begin(), expired.end(),
              [](const LockState* a, const LockState* b) {
                return a->name < b->name;
              });
    for (LockState* lock : expired) {
      lock->holder.clear();
      lock->mutex.unlock();
      leases_expired_++;
    }
  }
}

LockService::LockService(sim::Simulation& sim, rpc::Endpoint& endpoint)
    : sim_(&sim), endpoint_(&endpoint) {
  endpoint_->serve(kAcquire,
                   [this](const LockRequest& r) { return handle_acquire(r); });
  endpoint_->serve(kRelease,
                   [this](const LockRequest& r) { return handle_release(r); });
}

LockService::LockState& LockService::state_for(const std::string& lock_name) {
  if (LockState** found = by_name_.find(lock_name)) return **found;
  LockState* lock =
      locks_.emplace_back(std::make_unique<LockState>(*sim_, lock_name)).get();
  by_name_.try_emplace(std::string_view(lock->name), lock);
  return *lock;
}

const LockService::LockState* LockService::find(
    const std::string& lock_name) const {
  LockState* const* found = by_name_.find(lock_name);
  return found == nullptr ? nullptr : *found;
}

std::string LockService::holder(const std::string& lock_name) const {
  const LockState* lock = find(lock_name);
  return lock == nullptr ? "" : lock->holder;
}

int64_t LockService::waiting(const std::string& lock_name) const {
  const LockState* lock = find(lock_name);
  return lock == nullptr ? 0 : lock->waiting;
}

sim::Task<Status> LockService::handle_acquire(const LockRequest& req) {
  LockState& lock = state_for(req.lock_name);
  if (lock.holder == req.requester) {
    co_return failed_precondition(
        "lock already held by requester (not reentrant)");
  }
  lock.waiting++;
  co_await lock.mutex.lock();
  lock.waiting--;
  lock.holder = req.requester;
  lock.granted_at = sim_->now();
  acquires_served_++;
  co_return ok_status();
}

sim::Task<Status> LockService::handle_release(const LockRequest& req) {
  LockState* const* found = by_name_.find(req.lock_name);
  if (found == nullptr || (*found)->holder.empty()) {
    co_return failed_precondition("release of unheld lock " + req.lock_name);
  }
  LockState& lock = **found;
  if (lock.holder != req.requester) {
    co_return failed_precondition("lock " + req.lock_name + " held by " +
                                  lock.holder + ", not " + req.requester);
  }
  lock.holder.clear();
  lock.mutex.unlock();
  co_return ok_status();
}

// NOTE: request messages are built into named locals before the co_await.
// Building temporaries inside the co_await expression trips a GCC coroutine
// frame-lifetime bug (double destruction of aggregate temporaries).
sim::Task<Status> LockClient::acquire(std::string lock_name) {
  const LockRequest request{std::move(lock_name), client_->node_name()};
  auto ack = co_await client_->call(service_node_, LockService::kAcquire,
                                    request);
  co_return rpc::acked(ack);
}

sim::Task<Status> LockClient::release(std::string lock_name) {
  const LockRequest request{std::move(lock_name), client_->node_name()};
  auto ack = co_await client_->call(service_node_, LockService::kRelease,
                                    request);
  co_return rpc::acked(ack);
}

}  // namespace wiera::coord
