// Request-lifecycle context: a deadline plus a shared cancellation flag,
// carried by value along a request path (client -> RPC -> peer -> tiers).
//
// The context does not enforce anything by itself; each layer checks
// `expired()` / `cancelled()` at its own suspension points and returns
// kDeadlineExceeded, so cancellation is cooperative and every abandoned
// continuation stays visible to the SimChecker (no detached leaks).
#pragma once

#include <algorithm>
#include <memory>

#include "common/time.h"
#include "common/trace.h"

namespace wiera {

class Context {
 public:
  // Default: no deadline, never cancelled, zero allocation.
  Context() = default;

  static Context with_deadline(TimePoint deadline) {
    Context ctx;
    ctx.deadline_ = deadline;
    ctx.cancel_ = std::make_shared<CancelState>();
    return ctx;
  }

  // Trace identity for this request: copied across layers with the context
  // and stamped onto outgoing RPC frames. Inactive (all-zero) when the
  // request is untraced; plain data, so carrying it costs nothing.
  TraceContext trace;

  TimePoint deadline() const { return deadline_; }
  bool has_deadline() const { return deadline_ != TimePoint::max(); }
  bool expired(TimePoint now) const { return now >= deadline_; }
  // Time left before the deadline; Duration::max() when there is none.
  Duration remaining(TimePoint now) const {
    if (!has_deadline()) return Duration::max();
    return deadline_ > now ? deadline_ - now : Duration::zero();
  }

  // Cooperative cancellation: every copy of this context observes it.
  void cancel() const {
    if (cancel_ != nullptr) cancel_->cancelled = true;
  }
  bool cancelled() const { return cancel_ != nullptr && cancel_->cancelled; }

 private:
  struct CancelState {
    bool cancelled = false;
  };

  TimePoint deadline_ = TimePoint::max();
  std::shared_ptr<CancelState> cancel_;  // null until a deadline is attached
};

// Token-bucket retry budget: retries (client failovers, replication
// re-sends) spend a token; the bucket refills at `tokens_per_sec` up to
// `capacity`. Under a brownout the first retries go through and the rest are
// denied, so backoff loops cannot amplify the overload into a retry storm.
class RetryBudget {
 public:
  // The budget every WieraClient and WieraPeer runs with.
  static constexpr double kTokensPerSec = 5;
  static constexpr double kCapacity = 10;

  RetryBudget() : RetryBudget(kTokensPerSec, kCapacity) {}
  RetryBudget(double tokens_per_sec, double capacity)
      : rate_(tokens_per_sec), capacity_(capacity), tokens_(capacity) {}

  bool try_spend(TimePoint now) {
    tokens_ = std::min(capacity_,
                       tokens_ + rate_ * (now - last_).seconds());
    last_ = now;
    if (tokens_ >= 1.0) {
      tokens_ -= 1.0;
      return true;
    }
    denied_++;
    return false;
  }

  int64_t denied() const { return denied_; }

 private:
  double rate_ = 0;
  double capacity_ = 0;
  double tokens_ = 0;
  TimePoint last_;
  int64_t denied_ = 0;
};

}  // namespace wiera
