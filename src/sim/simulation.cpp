#include "sim/simulation.h"

#include <cassert>

#include "common/logging.h"

namespace wiera::sim {

namespace {

// Wrapper coroutine that owns a detached Task<void>. When the task
// completes it takes the task off the checker's live list; if the simulation
// dies first, destroying this frame destroys the task (and transitively any
// child task frames it is awaiting).
struct RootTask {
  struct promise_type {
    SimChecker* checker = nullptr;
    std::list<TaskRecord>::iterator task;

    RootTask get_return_object() {
      return RootTask{
          std::coroutine_handle<promise_type>::from_promise(*this)};
    }
    std::suspend_always initial_suspend() noexcept { return {}; }
    // No final suspension: after completing the task (in return_void) the
    // frame destroys itself when it runs off the end.
    std::suspend_never final_suspend() noexcept { return {}; }
    void return_void() noexcept { checker->on_task_complete(task); }
    [[noreturn]] void unhandled_exception() noexcept {
      std::fprintf(stderr, "wiera::sim: exception escaped a root task\n");
      std::abort();
    }
  };
  std::coroutine_handle<promise_type> handle;
};

RootTask run_root(Task<void> task) { co_await std::move(task); }

}  // namespace

Simulation::Simulation(uint64_t seed)
    : seed_(seed), rng_(seed), telemetry_(seed) {
  checker_.on_simulation_created();
  telemetry_.set_clock([this] { return now_; });
}

Simulation::~Simulation() {
  // Destroy anything still suspended. Root frames own their child task
  // frames, so destroying roots reclaims entire await chains. Queue entries
  // whose frames were already destroyed via a root chain would dangle — but
  // queued handles are exactly the *resumable leaves* of chains, and each
  // leaf belongs to one root chain, so destroy roots only.
  // (Leaves suspended on sync primitives are also reclaimed this way.)
  // The task records stay listed until the checker goes: a SimMutex hand-off
  // that a frame's destructor makes still reads a live record.
  stopped_ = true;
  checker_.begin_teardown();
  for (const TaskRecord& task : checker_.live_tasks()) task.root.destroy();
  checker_.end_teardown();
}

void Simulation::enqueue(TimePoint t, std::coroutine_handle<> h,
                         TaskRecord* task) {
  assert(h);
  if (t < now_) t = now_;  // never schedule into the past
  queue_.push(QueueItem{t, next_seq_++, h, task});
}

void Simulation::spawn(Task<void> task, std::string name) {
  if (!task.valid()) return;
  RootTask root = run_root(std::move(task));
  auto record = checker_.on_task_spawn(root.handle, std::move(name));
  root.handle.promise().checker = &checker_;
  root.handle.promise().task = record;
  enqueue(now_, root.handle, &*record);
}

bool Simulation::step() {
  if (stopped_ || queue_.empty()) return false;
  QueueItem item = queue_.top();
  queue_.pop();
  assert(item.time >= now_);
  now_ = item.time;
  events_executed_++;
  checker_.begin_event(item.task, item.time.us(), item.seq);
  item.handle.resume();
  checker_.end_event();
  return true;
}

void Simulation::run() {
  stopped_ = false;
  while (step()) {
  }
  if (!stopped_ && queue_.empty()) {
    checker_.on_quiescent();
    // Span-leak check: at quiescence every request has completed, so any
    // retained span still open was started and never ended — a missing
    // end_span on some path (e.g. an early return). A warning, not an
    // error: telemetry bugs must not fail otherwise-correct runs.
    if (telemetry_.tracer().open_count() > 0) {
      std::string names;
      for (const std::string& n : telemetry_.tracer().open_span_names()) {
        if (!names.empty()) names += ", ";
        names += n;
      }
      checker_.report_warning(
          SimDiagnostic::Kind::kLeakedSpan, "obs.tracer",
          std::to_string(telemetry_.tracer().open_count()) +
              " span(s) still open at quiescence: " + names);
    }
  }
}

void Simulation::run_until(TimePoint t) {
  stopped_ = false;
  while (!stopped_ && !queue_.empty() && queue_.top().time <= t) {
    step();
  }
  if (now_ < t) now_ = t;
}

void Simulation::attach_logger() {
  Logger::instance().set_time_source([this] { return now_; });
}

}  // namespace wiera::sim
