#include "sim/checker.h"

#include <algorithm>
#include <cstdio>
#include <iterator>

#include "common/logging.h"

namespace wiera::sim {

const char* wait_kind_name(WaitKind kind) {
  switch (kind) {
    case WaitKind::kNone: return "none";
    case WaitKind::kEvent: return "Event";
    case WaitKind::kMutex: return "SimMutex";
    case WaitKind::kSemaphore: return "SimSemaphore";
    case WaitKind::kChannel: return "Channel";
    case WaitKind::kFuture: return "Future";
    case WaitKind::kAdmission: return "Admission";
  }
  return "?";
}

const char* diagnostic_kind_name(SimDiagnostic::Kind kind) {
  switch (kind) {
    case SimDiagnostic::Kind::kDeadlock: return "deadlock";
    case SimDiagnostic::Kind::kDoubleUnlock: return "double-unlock";
    case SimDiagnostic::Kind::kSendAfterClose: return "send-after-close";
    case SimDiagnostic::Kind::kPromiseDoubleSet: return "promise-double-set";
    case SimDiagnostic::Kind::kPromiseBroken: return "promise-broken";
    case SimDiagnostic::Kind::kNegativeRelease: return "negative-release";
    case SimDiagnostic::Kind::kDroppedTask: return "dropped-task";
    case SimDiagnostic::Kind::kDuplicateEndpoint: return "duplicate-endpoint";
    case SimDiagnostic::Kind::kStuckTask: return "stuck-task";
    case SimDiagnostic::Kind::kLostWakeup: return "lost-wakeup";
    case SimDiagnostic::Kind::kDestroyedWithWaiters:
      return "destroyed-with-waiters";
    case SimDiagnostic::Kind::kLeakedSpan: return "leaked-span";
  }
  return "?";
}

namespace {

// Innermost live Simulation's checker on this thread. The simulation is
// single-threaded; a stack (via prev_current_) supports tests that nest
// Simulation lifetimes in one scope.
thread_local SimChecker* g_current = nullptr;
thread_local int g_teardown = 0;

std::string task_name(const TaskRecord& task) {
  return task.name.empty() ? "task#" + std::to_string(task.id) : task.name;
}

std::string display_name(const char* prim_name) {
  return prim_name == nullptr || prim_name[0] == '\0' ? "<unnamed>"
                                                      : prim_name;
}

}  // namespace

SimChecker* SimChecker::current() { return g_current; }

bool SimChecker::in_teardown() { return g_teardown > 0; }

void SimChecker::on_simulation_created() {
  prev_current_ = g_current;
  g_current = this;
}

void SimChecker::begin_teardown() { g_teardown++; }

void SimChecker::end_teardown() {
  g_teardown--;
  if (g_current == this) g_current = prev_current_;
}

bool SimChecker::has(SimDiagnostic::Kind kind) const {
  return find(kind) != nullptr;
}

const SimDiagnostic* SimChecker::find(SimDiagnostic::Kind kind) const {
  for (const auto& d : diagnostics_) {
    if (d.kind == kind) return &d;
  }
  return nullptr;
}

void SimChecker::clear_diagnostics() {
  diagnostics_.clear();
  error_count_ = 0;
}

std::vector<std::string> SimChecker::live_task_names() const {
  std::vector<std::string> names;
  names.reserve(tasks_.size());
  for (const TaskRecord& task : tasks_) names.push_back(task_name(task));
  std::sort(names.begin(), names.end());
  return names;
}

void SimChecker::add(SimDiagnostic diag) {
  if (diag.is_error) {
    error_count_++;
    std::fprintf(stderr, "wiera-sim-checker: ERROR [%s] %s\n",
                 diagnostic_kind_name(diag.kind), diag.message.c_str());
  } else {
    WLOG_WARN("sim.checker")
        << "[" << diagnostic_kind_name(diag.kind) << "] " << diag.message;
  }
  diagnostics_.push_back(std::move(diag));
}

std::list<TaskRecord>::iterator SimChecker::on_task_spawn(
    std::coroutine_handle<> root, std::string name) {
  tasks_.push_back(TaskRecord{next_task_id_++, std::move(name), root});
  return std::prev(tasks_.end());
}

void SimChecker::on_task_complete(std::list<TaskRecord>::iterator task) {
  // The rest of the completing event (the root frame's destruction) runs
  // outside any task.
  if (current_ == &*task) current_ = nullptr;
  tasks_.erase(task);
}

const TaskRecord* SimChecker::holder_of(const TaskRecord& task) const {
  if (task.wait_kind != WaitKind::kMutex || task.wait_holder == nullptr) {
    return nullptr;
  }
  const uint64_t holder = *task.wait_holder;
  for (const TaskRecord& t : tasks_) {
    if (t.id == holder) return &t;
  }
  return nullptr;  // no holder, or it completed while holding the mutex
}

void SimChecker::on_primitive_destroyed(WaitKind kind, const void* prim,
                                        const char* prim_name,
                                        size_t waiters) {
  if (g_teardown > 0) return;
  // The waiter list renders into the diagnostic text in name order. The
  // waiters keep their wait kind and name for the stuck report, but forget
  // the primitive's address and holder slot, which die with it.
  std::vector<std::string> waiter_names;
  for (TaskRecord& task : tasks_) {
    if (task.wait_prim != prim) continue;
    waiter_names.push_back(task_name(task));
    task.wait_prim = nullptr;
    task.wait_holder = nullptr;
  }
  std::sort(waiter_names.begin(), waiter_names.end());
  std::string who;
  for (const std::string& n : waiter_names) {
    if (!who.empty()) who += ", ";
    who += "'" + n + "'";
  }
  std::string name = display_name(prim_name);
  add(SimDiagnostic{
      SimDiagnostic::Kind::kDestroyedWithWaiters, /*is_error=*/false,
      std::string(wait_kind_name(kind)) + " '" + name + "' destroyed with " +
          std::to_string(waiters) + " waiter(s) still blocked" +
          (who.empty() ? "" : " (" + who + ")") +
          "; they can never be woken",
      who, name});
}

void SimChecker::report_error(SimDiagnostic::Kind kind, const char* prim_name,
                              std::string message) {
  std::string task = current_ == nullptr ? "" : task_name(*current_);
  if (!task.empty()) message += " (in task '" + task + "')";
  add(SimDiagnostic{kind, /*is_error=*/true, std::move(message), task,
                    prim_name == nullptr ? "" : prim_name});
}

void SimChecker::report_warning(SimDiagnostic::Kind kind,
                                const char* prim_name, std::string message) {
  add(SimDiagnostic{kind, /*is_error=*/false, std::move(message), "",
                    prim_name == nullptr ? "" : prim_name});
}

void SimChecker::report_dropped_task() {
  SimChecker* c = g_current;
  if (c == nullptr || g_teardown > 0) return;
  std::string task = c->current_ == nullptr ? "" : task_name(*c->current_);
  c->add(SimDiagnostic{
      SimDiagnostic::Kind::kDroppedTask, /*is_error=*/true,
      "Task destroyed without ever starting (created but never co_awaited "
      "or spawned)" +
          (task.empty() ? std::string()
                        : " while task '" + task + "' was running"),
      task, ""});
}

void SimChecker::on_quiescent() {
  // The event queue drained without stop(): every live task is either
  // blocked on a primitive (stuck; possibly a deadlock cycle) or has no
  // pending wakeup at all (lost wakeup / leak). tasks_ is in id order, so
  // the reports come out in a deterministic order.
  for (const TaskRecord& task : tasks_) {
    const std::string name = task_name(task);
    if (task.wait_kind == WaitKind::kNone) {
      add(SimDiagnostic{
          SimDiagnostic::Kind::kLostWakeup, /*is_error=*/false,
          "task '" + name +
              "' is alive at quiescence with no pending wakeup (lost "
              "wakeup or leaked coroutine)",
          name, ""});
      continue;
    }
    std::string prim = display_name(task.wait_prim_name);
    std::string msg = "task '" + name + "' still blocked on " +
                      wait_kind_name(task.wait_kind) + " '" + prim +
                      "' when the event queue drained";
    if (task.wait_kind == WaitKind::kMutex) {
      if (const TaskRecord* holder = holder_of(task)) {
        msg += " (held by '" + task_name(*holder) + "')";
      }
    } else if (task.wait_kind == WaitKind::kEvent ||
               task.wait_kind == WaitKind::kChannel ||
               task.wait_kind == WaitKind::kFuture) {
      msg += " (never signalled: lost wakeup?)";
    }
    add(SimDiagnostic{SimDiagnostic::Kind::kStuckTask, /*is_error=*/false,
                      std::move(msg), name, prim});
  }

  // Deadlock cycles: follow task --waits-on--> mutex --held-by--> task.
  std::vector<const TaskRecord*> seen;  // tasks already reported in a cycle
  for (const TaskRecord& start : tasks_) {
    if (std::find(seen.begin(), seen.end(), &start) != seen.end()) continue;
    std::vector<const TaskRecord*> path;
    const TaskRecord* t = &start;
    while (const TaskRecord* holder = holder_of(*t)) {
      path.push_back(t);
      t = holder;
      auto cyc = std::find(path.begin(), path.end(), t);
      if (cyc != path.end()) {
        std::string msg = "deadlock cycle: ";
        for (auto p = cyc; p != path.end(); ++p) {
          msg += "task '" + task_name(**p) + "' waits on SimMutex '" +
                 display_name((*p)->wait_prim_name) + "' -> ";
          seen.push_back(*p);
        }
        msg += "task '" + task_name(**cyc) + "'";
        add(SimDiagnostic{SimDiagnostic::Kind::kDeadlock, /*is_error=*/true,
                          std::move(msg), task_name(**cyc), ""});
        break;
      }
      if (path.size() > tasks_.size()) break;  // safety bound
    }
  }
}

}  // namespace wiera::sim
