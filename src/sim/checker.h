// SimChecker — a sanitizer for the deterministic coroutine simulation.
//
// Classic TSan/helgrind cannot see the "concurrency" inside the simulator:
// every protocol interleaving happens in virtual time on one OS thread, so a
// deadlock between two coroutines, a lost wakeup, or a coroutine leaked on a
// never-signalled primitive all look like an innocently drained event queue.
// The checker instruments the runtime itself:
//
//  * Wait-for graph. The checker lists every live task once (TaskRecord: id,
//    name, what it is blocked on). Scheduling names the task: each run-queue
//    item and each primitive's waiter entry carries the task its coroutine
//    belongs to, so the checker always knows which task an event resumes,
//    and SimMutex records its holder. Every blocking suspension (Event /
//    SimMutex / SimSemaphore / Channel / Future / rpc admission) records the
//    primitive on the running task. When Simulation::run() drains the queue
//    with blocked waiters left over, the checker reports every stuck task by
//    name and detects lock cycles (classic ABBA deadlocks) in the graph.
//
//  * Lifecycle diagnostics. Misuse that used to be a bare `assert` (which
//    vanishes under NDEBUG, i.e. in the default RelWithDebInfo build) is
//    reported as a structured SimDiagnostic: double unlock, send on a closed
//    channel, a promise fulfilled twice or dropped unfulfilled, a primitive
//    destroyed while coroutines still wait on it, a Task created but never
//    started.
//
//  * Determinism hash. Each executed event folds (virtual time, sequence
//    number) into an FNV-1a running hash; two runs of the same scenario with
//    the same seed must produce identical hashes. Tests compare hashes to
//    catch accidental nondeterminism (unordered containers, address-dependent
//    branches, real-time leakage).
//
// Diagnostics are *recorded* (and echoed to stderr for errors); they do not
// alter simulation semantics. Tests query `checker().diagnostics()`.
#pragma once

#include <coroutine>
#include <cstdint>
#include <list>
#include <string>
#include <vector>

#include "common/bytes.h"

namespace wiera::sim {

// What a suspended task is blocked on.
enum class WaitKind : uint8_t {
  kNone = 0,   // runnable / waiting on a scheduled wakeup (timer, RPC)
  kEvent,
  kMutex,
  kSemaphore,
  kChannel,
  kFuture,
  kAdmission,  // queued behind an rpc::Endpoint admission limit
};

const char* wait_kind_name(WaitKind kind);

// One live task: a root handed to Simulation::spawn, listed from the spawn
// until its root coroutine returns. Run-queue items and waiter entries point
// at the record of the task they resume.
struct TaskRecord {
  uint64_t id;
  std::string name;              // empty: reported as "task#<id>"
  std::coroutine_handle<> root;  // the detached root frame
  // What the task is blocked on; kNone while runnable or on a timer. The
  // primitive's name is a string literal, so it outlives the primitive.
  WaitKind wait_kind = WaitKind::kNone;
  const void* wait_prim = nullptr;
  const char* wait_prim_name = "";
  // A SimMutex wait: the mutex's holder slot (a task id, 0 = none).
  const uint64_t* wait_holder = nullptr;
};

// The id of `task`; 0 for none.
inline uint64_t task_id(const TaskRecord* task) {
  return task == nullptr ? 0 : task->id;
}

// A coroutine blocked on a primitive and the task it belongs to (null when
// it blocked outside any task). Waking it resumes that task, not the waker.
struct Waiter {
  std::coroutine_handle<> handle;
  TaskRecord* task;
};

struct SimDiagnostic {
  enum class Kind : uint8_t {
    // Errors — API misuse or a certain bug.
    kDeadlock,            // cycle in the wait-for graph at quiescence
    kDoubleUnlock,        // SimMutex::unlock while not locked
    kSendAfterClose,      // Channel::send on a closed channel
    kPromiseDoubleSet,    // Promise::set_value on a fulfilled promise
    kPromiseBroken,       // last Promise handle dropped with waiters pending
    kNegativeRelease,     // SimSemaphore::release with n < 0
    kDroppedTask,         // Task created but destroyed without ever starting
    kDuplicateEndpoint,   // rpc::Registry::add with an already-taken name
    // Warnings — suspicious, surfaced for tests/forensics.
    kStuckTask,           // task still blocked when the event queue drained
    kLostWakeup,          // task alive at quiescence with no pending wakeup
    kDestroyedWithWaiters,// primitive destructed while coroutines wait on it
    kLeakedSpan,          // telemetry span still open at quiescence
  };

  Kind kind;
  bool is_error;
  std::string message;
  std::string task;       // culprit task name ("" when not attributable)
  std::string primitive;  // primitive name ("" when not attributable)
};

const char* diagnostic_kind_name(SimDiagnostic::Kind kind);

class SimChecker {
 public:
  SimChecker() = default;
  SimChecker(const SimChecker&) = delete;
  SimChecker& operator=(const SimChecker&) = delete;

  // ---- results -------------------------------------------------------
  const std::vector<SimDiagnostic>& diagnostics() const {
    return diagnostics_;
  }
  size_t error_count() const { return error_count_; }
  size_t warning_count() const { return diagnostics_.size() - error_count_; }
  bool has(SimDiagnostic::Kind kind) const;
  // First diagnostic of `kind`, or nullptr.
  const SimDiagnostic* find(SimDiagnostic::Kind kind) const;
  void clear_diagnostics();

  // Number of logical tasks spawned / completed so far.
  uint64_t tasks_spawned() const { return next_task_id_ - 1; }
  uint64_t tasks_completed() const { return tasks_spawned() - tasks_.size(); }
  // Live tasks (spawned, not yet completed) in spawn order, and their names.
  const std::list<TaskRecord>& live_tasks() const { return tasks_; }
  std::vector<std::string> live_task_names() const;
  // The task the running event belongs to (null outside events).
  TaskRecord* current_task() const { return current_; }

  // FNV-1a hash over the executed (time, seq) event trace. Two runs of the
  // same scenario with the same seed must agree; see docs/DETERMINISM.md.
  uint64_t trace_hash() const { return trace_hash_; }

  // Fold an externally computed value into the trace hash. The fault
  // injector records every applied FaultEvent this way, so a replayed
  // chaos run must apply the identical fault schedule to reproduce a hash.
  void fold_trace(uint64_t value) {
    trace_hash_ = fnv1a64_u64(trace_hash_, value);
  }

  // The checker owning the innermost live Simulation on this thread (used by
  // ~Task to report dropped coroutines, where no Simulation* is reachable).
  static SimChecker* current();
  // True while a Simulation destructor is reclaiming suspended frames;
  // lifecycle reports are suppressed then (expected teardown casualties).
  static bool in_teardown();

  // ---- hooks wired into the runtime (not for user code) --------------
  void on_simulation_created();  // pushes *this as current()
  // Simulation teardown brackets: while active, dropped tasks and
  // primitives destroyed with waiters are expected (frames are being
  // reclaimed) and not reported. end_teardown pops current().
  void begin_teardown();
  void end_teardown();

  // A root was handed to Simulation::spawn: list it as a live task.
  std::list<TaskRecord>::iterator on_task_spawn(std::coroutine_handle<> root,
                                                std::string name);
  // The task's root coroutine returned.
  void on_task_complete(std::list<TaskRecord>::iterator task);

  // Simulation::step is about to resume / just resumed a coroutine of
  // `task` (null for a resumption scheduled outside any task).
  void begin_event(TaskRecord* task, int64_t time_us, uint64_t seq) {
    trace_hash_ = fnv1a64_u64(
        fnv1a64_u64(trace_hash_, static_cast<uint64_t>(time_us)), seq);
    current_ = task;
    if (task != nullptr) {
      task->wait_kind = WaitKind::kNone;
      task->wait_prim = nullptr;
      task->wait_holder = nullptr;
    }
  }
  void end_event() { current_ = nullptr; }

  // The running task suspends `h` on `prim` (`holder`: a SimMutex's holder
  // slot). Returns the waiter entry the primitive queues.
  Waiter on_block(std::coroutine_handle<> h, WaitKind kind, const void* prim,
                  const char* prim_name, const uint64_t* holder = nullptr) {
    if (current_ != nullptr) {
      current_->wait_kind = kind;
      current_->wait_prim = prim;
      current_->wait_prim_name = prim_name;
      current_->wait_holder = holder;
    }
    return Waiter{h, current_};
  }

  // A primitive is being destroyed with `waiters` coroutines still blocked.
  void on_primitive_destroyed(WaitKind kind, const void* prim,
                              const char* prim_name, size_t waiters);

  // Structured replacements for the former bare asserts.
  void report_error(SimDiagnostic::Kind kind, const char* prim_name,
                    std::string message);
  // Warning-severity diagnostic from outside the checker (e.g. the
  // span-leak sweep in Simulation::run at quiescence).
  void report_warning(SimDiagnostic::Kind kind, const char* prim_name,
                      std::string message);

  // ~Task saw a coroutine that was created but never started.
  static void report_dropped_task();

  // Simulation::run drained the queue without stop(): analyse the wait-for
  // graph and report stuck tasks / deadlock cycles / lost wakeups.
  void on_quiescent();

 private:
  void add(SimDiagnostic diag);
  // The live task holding the SimMutex `task` waits on, or nullptr.
  const TaskRecord* holder_of(const TaskRecord& task) const;

  uint64_t next_task_id_ = 1;
  uint64_t trace_hash_ = kFnv1aBasis;
  TaskRecord* current_ = nullptr;

  std::list<TaskRecord> tasks_;  // live tasks, in spawn (= id) order
  std::vector<SimDiagnostic> diagnostics_;
  size_t error_count_ = 0;

  SimChecker* prev_current_ = nullptr;  // enclosing Simulation's checker
};

}  // namespace wiera::sim
