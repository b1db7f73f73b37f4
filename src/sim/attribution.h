// Run reports (docs/OBSERVABILITY.md#run-report): the one line every
// fault-suite run prints, and the failure attribution it carries.
//
// When a clause trips, the evidence is scattered: the violation text names a
// symptom, the injector's timeline holds the faults it applied and the
// scenario events that shaped load, KeyStats knows which keys were hot, the
// tracer holds the slow spans and the sampler the time-series shape of the
// window. An AttributionReport gathers all of it into one JSON object — the
// `attribution` of a failing run's RUN-REPORT (docs/METRICS_PIPELINE.md) —
// so a failing seed's artifact answers "which injected fault event
// overlapped the violating window, which keys/tenants were affected, and
// where did the time go?" without replaying anything.
//
// Pure rendering over caller-supplied state; nothing here touches the
// simulation or the schedule.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/alerts.h"
#include "obs/keystats.h"
#include "obs/trace.h"
#include "sim/events.h"
#include "sim/slo.h"

namespace wiera::sim {

// Events as `[{"at_us":...,"event":"..."},...]`.
std::string render_events_json(const std::vector<PlanEvent>& events);

class AttributionReport {
 public:
  // The violating window faults/spans are correlated against (typically the
  // scenario window). Without one, the span of the violations' evidence
  // times is used.
  void set_window(TimePoint start, TimePoint end);

  void add_violation(const SloViolation& v);
  void add_violations(const std::vector<SloViolation>& vs);
  // Free-form violation from suites without an SloOracle (the consistency
  // oracle's line, a gtest expectation).
  void add_violation(std::string check, std::string message, TimePoint at,
                     uint64_t trace_id = 0);

  // An Injector's timeline: its faults are matched against the window, its
  // scenario events are listed.
  void set_timeline(const std::vector<PlanEvent>& timeline);
  void set_alerts(const obs::AlertRules& alerts);
  // Snapshot one instance's hot keys/tenants as of `now`.
  void add_key_stats(const std::string& instance, const obs::KeyStats& stats,
                     TimePoint now);
  // Pick the worst spans overlapping the window: error-status spans first,
  // then longest, capped at `keep`.
  void set_tracer(const obs::Tracer& tracer, size_t keep = 5);

  bool empty() const { return violations_.empty(); }

  std::string render_json() const;

 private:
  struct HotEntry {
    std::string instance;
    obs::KeyStats::Entry entry;
    bool is_tenant = false;
  };
  struct WorstSpan {
    std::string name;
    std::string host;
    std::string status;
    uint64_t trace_id = 0;
    TimePoint start;
    Duration duration;
  };

  std::pair<TimePoint, TimePoint> effective_window() const;
  // Faults whose [at, until] window intersects the violating window.
  std::vector<const PlanEvent*> overlapping_faults() const;

  bool has_window_ = false;
  TimePoint window_start_;
  TimePoint window_end_;
  std::vector<SloViolation> violations_;
  std::vector<PlanEvent> faults_;
  std::vector<PlanEvent> scenario_events_;
  std::vector<obs::AlertFiring> alerts_;
  std::vector<HotEntry> hot_;
  std::vector<WorstSpan> worst_spans_;
};

// One run of a fault suite, swept or replayed: what ran, how to run it
// again, the verdict and the counters behind it. print() writes it as the
// single `RUN-REPORT {json}` line the run leaves on stdout.
class RunReport {
 public:
  struct Violation {
    std::string check;
    std::string message;
  };

  RunReport() = default;
  // suite: the test binary's suite ("chaos", "scenario"); name: the case
  // as its replay spec spells it.
  RunReport(std::string suite, std::string name, uint64_t seed)
      : suite_(std::move(suite)), name_(std::move(name)), seed_(seed) {}

  void set_trace(uint64_t hash) { trace_ = hash; }
  // The command line that reproduces this run, relative to the build dir.
  void set_replay(std::string command) { replay_ = std::move(command); }
  // Any violation turns the verdict to "fail".
  void add_violation(std::string check, std::string message);
  // A violation of `check` unless `ok`.
  void expect(bool ok, std::string check, std::string message);
  void set_counter(std::string_view name, int64_t value);
  // A pre-rendered JSON value (attribution, timeline, dumps) under `key`.
  void set_json(std::string key, std::string json);
  // The JSON value under `key`; "" when unset.
  const std::string& json(std::string_view key) const;

  const std::string& name() const { return name_; }
  uint64_t trace() const { return trace_; }
  const std::string& replay() const { return replay_; }
  bool passed() const { return violations_.empty(); }
  const std::vector<std::pair<std::string, int64_t>>& counters() const {
    return counters_;
  }
  // 0 when the run recorded no such counter.
  int64_t counter(std::string_view name) const;
  // Replay command plus one "[check] message" line per violation.
  std::string describe() const;

  std::string render_json() const;
  void print() const;

 private:
  std::string suite_;
  std::string name_;
  uint64_t seed_ = 0;
  uint64_t trace_ = 0;
  std::string replay_;
  std::vector<Violation> violations_;
  std::vector<std::pair<std::string, int64_t>> counters_;
  std::vector<std::pair<std::string, std::string>> json_;
};

}  // namespace wiera::sim
