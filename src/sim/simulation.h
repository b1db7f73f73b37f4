// Deterministic discrete-event simulation kernel.
//
// A Simulation owns a virtual clock and a priority queue of scheduled
// coroutine resumptions. Everything in the Wiera reproduction — WAN message
// delivery, storage-tier service times, timers, monitor threads — is a
// coroutine suspended on this queue. Single-threaded by design: given the
// same seed, every run is bit-identical, which makes the paper's timeline
// experiments (Fig. 7) and all tests reproducible.
//
// Tie-breaking: events at the same virtual time run in schedule order
// (monotonic sequence number), so the interleaving is fully specified.
#pragma once

#include <coroutine>
#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/time.h"
#include "obs/telemetry.h"
#include "sim/checker.h"
#include "sim/task.h"

namespace wiera::sim {

class Simulation {
 public:
  explicit Simulation(uint64_t seed = 1);
  ~Simulation();

  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  TimePoint now() const { return now_; }
  Rng& rng() { return rng_; }
  uint64_t seed() const { return seed_; }

  // Per-sim telemetry: metrics registry, tracer and event journal on the
  // virtual clock. Always usable; obs::Telemetry::set_enabled gates only
  // span retention and journal IO, never metric recording, so disabling it
  // cannot change any component's behavior (docs/OBSERVABILITY.md).
  obs::Telemetry& telemetry() { return telemetry_; }
  const obs::Telemetry& telemetry() const { return telemetry_; }

  // The simulation sanitizer (wait-for graph, lifecycle diagnostics,
  // determinism hash). It also lists the live tasks.
  SimChecker& checker() { return checker_; }
  const SimChecker& checker() const { return checker_; }

  // Low-level: schedule a bare coroutine resumption as part of the running
  // task (a timer wakeup of the coroutine that is suspending).
  void schedule_at(TimePoint t, std::coroutine_handle<> h) {
    enqueue(t, h, checker_.current_task());
  }
  void schedule_after(Duration d, std::coroutine_handle<> h) {
    schedule_at(now_ + d, h);
  }
  // Wake a blocked coroutine now, as part of the task it belongs to.
  void wake(const Waiter& w) { enqueue(now_, w.handle, w.task); }

  // co_await sim.delay(d): suspend for d of virtual time.
  auto delay(Duration d) {
    struct Awaiter {
      Simulation* sim;
      Duration d;
      bool await_ready() const noexcept { return d <= Duration::zero(); }
      void await_suspend(std::coroutine_handle<> h) {
        sim->schedule_after(d, h);
      }
      void await_resume() const noexcept {}
    };
    return Awaiter{this, d};
  }

  // co_await sim.at(t): suspend until virtual time t (no-op if in the past).
  auto at(TimePoint t) { return delay(t - now_); }

  // Launch a detached root task. It starts at the current virtual time, in
  // FIFO order with other same-time events. The simulation owns the task:
  // if the Simulation is destroyed first, suspended frames are destroyed too.
  // `name` labels the task in checker diagnostics (stuck/deadlock reports);
  // unnamed tasks are reported as "task#N".
  void spawn(Task<void> task, std::string name = {});

  // Run until the event queue drains (or stop() is called).
  void run();
  // Run until the given virtual time; the clock lands exactly on `t` even if
  // the queue drains earlier. Events scheduled at exactly `t` DO run.
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  // Stop the run loop after the current event completes.
  void stop() { stopped_ = true; }

  // Number of events executed so far (for tests / micro-benchmarks).
  uint64_t events_executed() const { return events_executed_; }

  // Route the global logger's timestamps through this sim's clock.
  void attach_logger();

 private:
  struct QueueItem {
    TimePoint time;
    uint64_t seq;
    std::coroutine_handle<> handle;
    TaskRecord* task;  // the task `handle` belongs to
    bool operator>(const QueueItem& o) const {
      if (time != o.time) return time > o.time;
      return seq > o.seq;
    }
  };

  void enqueue(TimePoint t, std::coroutine_handle<> h, TaskRecord* task);
  bool step();  // execute one event; false if queue empty/stopped

  TimePoint now_ = TimePoint::origin();
  uint64_t seed_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  bool stopped_ = false;
  std::priority_queue<QueueItem, std::vector<QueueItem>, std::greater<>>
      queue_;
  Rng rng_;
  obs::Telemetry telemetry_;
  SimChecker checker_;
};

}  // namespace wiera::sim
