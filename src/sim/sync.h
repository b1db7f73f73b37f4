// Synchronization primitives for simulation coroutines.
//
// All primitives wake waiters by *scheduling* them at the current virtual
// time rather than resuming inline. This keeps the call stack flat and makes
// wake order deterministic (FIFO, after already-queued same-time events).
//
// None of these are thread-safe — the simulation is single-threaded.
//
// Every waiter entry keeps the waiter's task next to its handle, so a wake
// resumes the waiter as part of its own task, whoever calls it.
//
// Every primitive takes an optional `name`, used by the SimChecker to label
// stuck-task / deadlock / misuse diagnostics. It must be a string literal: a
// blocked task's wait record keeps the pointer and can outlive a destroyed
// primitive. API misuse that used to be a bare `assert` (double unlock, send
// on a closed channel, double-fulfilled promise, negative release) is
// reported as a structured checker error and then handled gracefully, so the
// diagnostics survive NDEBUG builds.
#pragma once

#include <cassert>
#include <coroutine>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "sim/checker.h"
#include "sim/simulation.h"

namespace wiera::sim {

// Manual-reset event: wait() suspends until set() is called; once set, all
// current and future waiters pass through until reset().
class Event {
 public:
  explicit Event(Simulation& sim, const char* name = "")
      : sim_(&sim), name_(name) {}

  ~Event() {
    if (!waiters_.empty()) {
      sim_->checker().on_primitive_destroyed(WaitKind::kEvent, this, name_,
                                             waiters_.size());
    }
  }

  Event(const Event&) = delete;
  Event& operator=(const Event&) = delete;

  bool is_set() const { return set_; }

  void set() {
    if (set_) return;
    set_ = true;
    for (const Waiter& w : waiters_) sim_->wake(w);
    waiters_.clear();
  }

  void reset() { set_ = false; }

  auto wait() {
    struct Awaiter {
      Event* event;
      bool await_ready() const noexcept { return event->set_; }
      void await_suspend(std::coroutine_handle<> h) {
        event->waiters_.push_back(event->sim_->checker().on_block(
            h, WaitKind::kEvent, event, event->name_));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

 private:
  Simulation* sim_;
  const char* name_;
  bool set_ = false;
  std::vector<Waiter> waiters_;
};

// FIFO mutex. Models exclusive critical sections in virtual time (e.g. the
// serialization a single-writer store imposes). The mutex records its
// holder's task id, which is what makes ABBA deadlock cycles reportable by
// name.
class SimMutex {
 public:
  explicit SimMutex(Simulation& sim, const char* name = "")
      : sim_(&sim), name_(name) {}

  ~SimMutex() {
    if (!waiters_.empty()) {
      sim_->checker().on_primitive_destroyed(WaitKind::kMutex, this, name_,
                                             waiters_.size());
    }
  }

  SimMutex(const SimMutex&) = delete;
  SimMutex& operator=(const SimMutex&) = delete;

  bool locked() const { return locked_; }

  auto lock() {
    struct Awaiter {
      SimMutex* m;
      bool await_ready() const noexcept {
        if (!m->locked_) {
          m->locked_ = true;
          m->holder_ = task_id(m->sim_->checker().current_task());
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        m->waiters_.push_back(m->sim_->checker().on_block(
            h, WaitKind::kMutex, m, m->name_, &m->holder_));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  void unlock() {
    if (!locked_) {
      sim_->checker().report_error(
          SimDiagnostic::Kind::kDoubleUnlock, name_,
          std::string("SimMutex '") + display_name() +
              "' unlocked while not locked");
      return;
    }
    if (waiters_.empty()) {
      locked_ = false;
      holder_ = 0;
      return;
    }
    // Hand the lock to the next waiter; it stays logically locked.
    Waiter next = waiters_.front();
    waiters_.pop_front();
    holder_ = task_id(next.task);
    sim_->wake(next);
  }

 private:
  const char* display_name() const {
    return name_[0] == '\0' ? "<unnamed>" : name_;
  }

  Simulation* sim_;
  const char* name_;
  bool locked_ = false;
  uint64_t holder_ = 0;  // holder's task id; 0 = none
  std::deque<Waiter> waiters_;
};

// Counting semaphore; models bounded resources (IOPS tokens, connection
// slots).
class SimSemaphore {
 public:
  SimSemaphore(Simulation& sim, int64_t initial, const char* name = "")
      : sim_(&sim), name_(name), count_(initial) {
    assert(initial >= 0);
  }

  ~SimSemaphore() {
    if (!waiters_.empty()) {
      sim_->checker().on_primitive_destroyed(WaitKind::kSemaphore, this,
                                             name_, waiters_.size());
    }
  }

  SimSemaphore(const SimSemaphore&) = delete;
  SimSemaphore& operator=(const SimSemaphore&) = delete;

  int64_t available() const { return count_; }

  auto acquire() {
    struct Awaiter {
      SimSemaphore* s;
      bool await_ready() const noexcept {
        if (s->count_ > 0) {
          s->count_--;
          return true;
        }
        return false;
      }
      void await_suspend(std::coroutine_handle<> h) {
        s->waiters_.push_back(s->sim_->checker().on_block(
            h, WaitKind::kSemaphore, s, s->name_));
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this};
  }

  // release(0) is an explicit no-op; a negative n is reported and ignored.
  void release(int64_t n = 1) {
    if (n < 0) {
      sim_->checker().report_error(
          SimDiagnostic::Kind::kNegativeRelease, name_,
          std::string("SimSemaphore released with negative count ") +
              std::to_string(n));
      return;
    }
    while (n > 0 && !waiters_.empty()) {
      sim_->wake(waiters_.front());
      waiters_.pop_front();
      n--;
    }
    count_ += n;
  }

 private:
  Simulation* sim_;
  const char* name_;
  int64_t count_;
  std::deque<Waiter> waiters_;
};

// Unbounded MPSC/MPMC channel. Used for the `queue` response (asynchronous
// update propagation) and actor mailboxes. recv() returns nullopt once the
// channel is closed and drained.
template <typename T>
class Channel {
 public:
  explicit Channel(Simulation& sim, const char* name = "")
      : sim_(&sim), name_(name) {}

  ~Channel() {
    if (!waiters_.empty()) {
      sim_->checker().on_primitive_destroyed(WaitKind::kChannel, this, name_,
                                             waiters_.size());
    }
  }

  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  void send(T item) {
    if (closed_) {
      sim_->checker().report_error(
          SimDiagnostic::Kind::kSendAfterClose, name_,
          std::string("send on closed Channel '") +
              (name_[0] == '\0' ? "<unnamed>" : name_) + "'");
      // Fall through: deliver anyway so release builds keep their historic
      // best-effort behaviour.
    }
    if (waiters_.empty()) {
      items_.push_back(std::move(item));
      return;
    }
    // Hand the item to the receiver this send wakes, so no receive that
    // runs before it can take the item.
    Receiver next = waiters_.front();
    waiters_.pop_front();
    next.item->emplace(std::move(item));
    sim_->wake(next.waiter);
  }

  void close() {
    closed_ = true;
    // Wake everyone; drained receivers observe nullopt.
    for (const Receiver& r : waiters_) sim_->wake(r.waiter);
    waiters_.clear();
  }

  bool closed() const { return closed_; }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  auto recv() {
    struct Awaiter {
      Channel* ch;
      std::optional<T> handed;  // the item of the send() that woke us
      bool await_ready() const noexcept {
        return !ch->items_.empty() || ch->closed_;
      }
      void await_suspend(std::coroutine_handle<> h) {
        ch->waiters_.push_back(Receiver{
            ch->sim_->checker().on_block(h, WaitKind::kChannel, ch,
                                         ch->name_),
            &handed});
      }
      std::optional<T> await_resume() {
        if (handed.has_value()) return std::move(handed);
        return ch->try_recv();  // nullopt: closed & drained
      }
    };
    return Awaiter{this, std::nullopt};
  }

  // Non-blocking receive.
  std::optional<T> try_recv() {
    if (items_.empty()) return std::nullopt;
    T item = std::move(items_.front());
    items_.pop_front();
    return item;
  }

 private:
  // A blocked recv() and the slot in its awaiter that send() fills.
  struct Receiver {
    Waiter waiter;
    std::optional<T>* item;
  };

  Simulation* sim_;
  const char* name_;
  bool closed_ = false;
  std::deque<T> items_;
  std::deque<Receiver> waiters_;  // non-empty only while items_ is empty
};

// One-shot future/promise pair, the RPC completion mechanism. Multiple
// awaiters are allowed; the value is copied out to each.
template <typename T>
class Future;

template <typename T>
struct FutureState {
  FutureState(Simulation& sim, const char* name)
      : sim(&sim), name(name) {}

  ~FutureState() {
    if (!waiters.empty()) {
      sim->checker().on_primitive_destroyed(WaitKind::kFuture, this, name,
                                            waiters.size());
    }
  }

  Simulation* sim;
  const char* name;
  std::optional<T> value;
  std::vector<Waiter> waiters;
  // Live Promise handles over this state; when the last one drops without
  // fulfilling while coroutines wait, those waiters can never wake — the
  // checker reports a broken promise.
  int promise_refs = 0;
};

template <typename T>
class Promise {
 public:
  explicit Promise(Simulation& sim, const char* name = "")
      : state_(std::make_shared<FutureState<T>>(sim, name)) {
    state_->promise_refs++;
  }

  Promise(const Promise& o) : state_(o.state_) { state_->promise_refs++; }
  Promise& operator=(const Promise& o) {
    if (this != &o) {
      drop();
      state_ = o.state_;
      state_->promise_refs++;
    }
    return *this;
  }
  Promise(Promise&& o) noexcept : state_(std::move(o.state_)) {}
  Promise& operator=(Promise&& o) noexcept {
    if (this != &o) {
      drop();
      state_ = std::move(o.state_);
    }
    return *this;
  }
  ~Promise() { drop(); }

  Future<T> future() const;

  // Fulfilling twice is a structured checker error; the first value wins.
  void set_value(T value) {
    if (state_->value.has_value()) {
      state_->sim->checker().report_error(
          SimDiagnostic::Kind::kPromiseDoubleSet, state_->name,
          std::string("Promise '") +
              (state_->name[0] == '\0' ? "<unnamed>" : state_->name) +
              "' fulfilled twice; keeping the first value");
      return;
    }
    state_->value.emplace(std::move(value));
    for (const Waiter& w : state_->waiters) state_->sim->wake(w);
    state_->waiters.clear();
  }

  bool fulfilled() const { return state_->value.has_value(); }

 private:
  void drop() {
    if (state_ == nullptr) return;
    if (--state_->promise_refs == 0 && !state_->value.has_value() &&
        !state_->waiters.empty() && !SimChecker::in_teardown()) {
      state_->sim->checker().report_error(
          SimDiagnostic::Kind::kPromiseBroken, state_->name,
          std::string("last Promise '") +
              (state_->name[0] == '\0' ? "<unnamed>" : state_->name) +
              "' dropped unfulfilled with " +
              std::to_string(state_->waiters.size()) +
              " waiter(s); they can never be woken");
    }
    state_ = nullptr;
  }

  std::shared_ptr<FutureState<T>> state_;
};

template <typename T>
class Future {
 public:
  explicit Future(std::shared_ptr<FutureState<T>> state)
      : state_(std::move(state)) {}

  bool ready() const { return state_->value.has_value(); }

  auto operator co_await() const {
    struct Awaiter {
      std::shared_ptr<FutureState<T>> state;
      bool await_ready() const noexcept { return state->value.has_value(); }
      void await_suspend(std::coroutine_handle<> h) {
        state->waiters.push_back(state->sim->checker().on_block(
            h, WaitKind::kFuture, state.get(), state->name));
      }
      T await_resume() {
        assert(state->value.has_value());
        // Deliberately a copy, not a move: a Future may be co_awaited by
        // several tasks (fan-in on one RPC completion) and can be awaited
        // again after it is ready, so the stored value must stay intact.
        // Callers needing a cheap transfer should wrap T in shared_ptr.
        return *state->value;
      }
    };
    return Awaiter{state_};
  }

 private:
  std::shared_ptr<FutureState<T>> state_;
};

template <typename T>
Future<T> Promise<T>::future() const {
  return Future<T>(state_);
}

namespace detail {

template <typename T>
struct WhenAllState {
  explicit WhenAllState(Simulation& sim, size_t n)
      : remaining(n), done(sim, "when_all.done") {
    results.resize(n);
  }
  std::vector<std::optional<T>> results;
  size_t remaining;
  Event done;
};

template <typename T>
Task<void> when_all_runner(std::shared_ptr<WhenAllState<T>> state, size_t i,
                           Task<T> task) {
  state->results[i] = co_await std::move(task);
  if (--state->remaining == 0) state->done.set();
}

}  // namespace detail

// Run all tasks concurrently (in virtual time) and collect their results in
// input order. This is the fan-out primitive used for synchronous update
// broadcast in the MultiPrimaries / PrimaryBackup protocols.
template <typename T>
Task<std::vector<T>> when_all(Simulation& sim, std::vector<Task<T>> tasks) {
  auto state =
      std::make_shared<detail::WhenAllState<T>>(sim, tasks.size());
  for (size_t i = 0; i < tasks.size(); ++i) {
    sim.spawn(detail::when_all_runner<T>(state, i, std::move(tasks[i])));
  }
  if (!state->results.empty()) {
    co_await state->done.wait();
  }
  std::vector<T> out;
  out.reserve(state->results.size());
  for (auto& r : state->results) out.push_back(std::move(*r));
  co_return out;
}

namespace detail {

struct WhenAllVoidState {
  explicit WhenAllVoidState(Simulation& sim, size_t n)
      : remaining(n), done(sim, "when_all.done") {}
  size_t remaining;
  Event done;
};

inline Task<void> when_all_void_runner(
    std::shared_ptr<WhenAllVoidState> state, Task<void> task) {
  co_await std::move(task);
  if (--state->remaining == 0) state->done.set();
}

}  // namespace detail

// Void overload: join a batch of side-effect tasks.
inline Task<void> when_all(Simulation& sim, std::vector<Task<void>> tasks) {
  auto state =
      std::make_shared<detail::WhenAllVoidState>(sim, tasks.size());
  const bool empty = tasks.empty();
  for (auto& task : tasks) {
    sim.spawn(detail::when_all_void_runner(state, std::move(task)));
  }
  if (!empty) {
    co_await state->done.wait();
  }
}

}  // namespace wiera::sim
