// Deterministic scenario engine: the workload twin of the fault injector
// (docs/SCENARIOS.md).
//
// A ScenarioPlan is a schedule of typed *scenario events* — load shapes
// (per-region diurnal sine, zipf-shift of the key popularity exponent, a
// flash crowd on a key range, tenant-mix churn) and operational events
// (drain-and-evacuate a region, add a region live, a controlled rolling
// restart of the peer set). Plans are either scripted by a test or derived
// from a named built-in plus a seed, so every scenario run is reproducible
// from `--seed N --scenario NAME`.
//
// Like faults.h, the sim layer knows nothing about the cluster above it:
// operational events are applied through the abstract ScenarioSurface (the
// wiera layer provides geo::ScenarioHost, which maps them onto the
// controller's cooperative drain / live-add / rolling-restart machinery),
// while load shapes fold into the engine's own LoadModel, which workload
// drivers query for per-op key choice, tenant class and rate multipliers.
// The ScenarioEngine walks the plan on virtual time and folds every applied
// event into the SimChecker determinism trace hash, so a replay that
// diverges in its scenario schedule is immediately visible as a hash
// mismatch (docs/DETERMINISM.md).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace wiera::sim {

struct ScenarioEvent {
  enum class Kind {
    // ---- load shapes ----
    kDiurnalLoad,  // sinusoidal rate multiplier on `target` region [at,until)
    kZipfShift,    // key popularity exponent becomes `exponent` at `at`
    kFlashCrowd,   // key range [hot_lo,hot_hi] absorbs `boost` of traffic
    kTenantMix,    // class-B tenant fraction becomes `mix_fraction` at `at`
    // ---- operational events ----
    kDrainRegion,     // cooperatively evacuate peer `target`; `until` is the
                      // hand-off deadline
    kAddRegion,       // bring a peer up live on node `target` at `at`
    kRollingRestart,  // controlled one-at-a-time restart of the peer set
  };

  Kind kind = Kind::kDiurnalLoad;
  TimePoint at;     // when the event begins / fires
  TimePoint until;  // window end (drain: hand-off deadline)
  // Affected region/node: a client region for kDiurnalLoad ("" = every
  // region), a peer node for kDrainRegion/kAddRegion.
  std::string target;

  // kDiurnalLoad knobs: multiplier = 1 + amplitude * sin(2*pi*t/period).
  double amplitude = 0.0;
  Duration period = Duration::zero();

  // kZipfShift knob.
  double exponent = 0.0;

  // kFlashCrowd knobs: while active, `boost` of key picks land uniformly in
  // [hot_lo, hot_hi].
  int hot_lo = 0;
  int hot_hi = 0;
  double boost = 0.0;

  // kTenantMix knob: fraction of ops issued by the class-B tenant.
  double mix_fraction = 0.0;

  std::string describe() const;
  // Stable content hash folded into the determinism trace when applied.
  uint64_t hash() const;
};

std::string_view scenario_kind_name(ScenarioEvent::Kind k);

// Receiver of *operational* scenario events — implemented by the wiera
// layer (geo::ScenarioHost) or by unit tests. Handlers run on the engine's
// coroutine at the event's scheduled virtual time; default no-ops keep
// pre-existing surfaces compiling when new kinds are added.
class ScenarioSurface {
 public:
  virtual ~ScenarioSurface() = default;
  virtual void on_drain_region(const ScenarioEvent& /*e*/) {}
  virtual void on_add_region(const ScenarioEvent& /*e*/) {}
  virtual void on_rolling_restart(const ScenarioEvent& /*e*/) {}
};

// The live traffic model workload drivers sample from. Scenario events
// mutate it (through ScenarioEngine::apply) at their virtual-time instants;
// between events it is pure state, so sampling is deterministic given a
// deterministic Rng.
class LoadModel {
 public:
  void set_key_count(int n) { key_count_ = n > 0 ? n : 1; }
  int key_count() const { return key_count_; }

  // Product of every active diurnal window touching `region`, clamped to
  // [0.2, inf) so a deep trough never stalls the workload entirely.
  double rate_multiplier(const std::string& region, TimePoint now) const;
  // Key index in [0, key_count): flash-crowd boost first, then a zipfian
  // draw with the current popularity exponent (0 = uniform).
  int pick_key(Rng& rng, TimePoint now) const;
  // Tenant class for the next op: 1 (class B) with the current mix
  // fraction, else 0 (class A).
  int pick_tenant(Rng& rng) const;

  double zipf_exponent() const { return exponent_; }
  double tenant_mix() const { return mix_; }

  void apply(const ScenarioEvent& e);

 private:
  struct DiurnalWindow {
    std::string region;
    TimePoint at;
    TimePoint until;
    double amplitude = 0.0;
    Duration period = Duration::zero();
  };
  struct CrowdWindow {
    TimePoint at;
    TimePoint until;
    int hot_lo = 0;
    int hot_hi = 0;
    double boost = 0.0;
  };

  int key_count_ = 1;
  double exponent_ = 0.0;
  double mix_ = 0.0;
  std::vector<DiurnalWindow> diurnal_;
  std::vector<CrowdWindow> crowds_;
};

class ScenarioPlan {
 public:
  // ---- scripted construction ----
  ScenarioPlan& diurnal(std::string region, TimePoint at, TimePoint until,
                        double amplitude, Duration period);
  ScenarioPlan& zipf_shift(double exponent, TimePoint at);
  ScenarioPlan& flash_crowd(int hot_lo, int hot_hi, double boost, TimePoint at,
                            TimePoint until);
  ScenarioPlan& tenant_mix(double fraction, TimePoint at);
  // Cooperatively drain peer `node`; the hand-off must finish by `deadline`.
  ScenarioPlan& drain_region(std::string node, TimePoint at,
                             TimePoint deadline);
  ScenarioPlan& add_region(std::string node, TimePoint at);
  ScenarioPlan& rolling_restart(TimePoint at);
  ScenarioPlan& add(ScenarioEvent event);

  // ---- named built-ins (seed-derived) ----
  // Inputs for ScenarioPlan::builtin. Every built-in draws its free choices
  // (which peer drains, window offsets, hot ranges) from Rng(seed), so a
  // (name, seed) pair names exactly one plan.
  struct BuiltinOptions {
    std::vector<std::string> nodes;        // instance members (drain targets)
    std::vector<std::string> spare_nodes;  // addable capacity (kAddRegion)
    std::vector<std::string> regions;      // client regions (kDiurnalLoad)
    int key_count = 6;
    TimePoint earliest = TimePoint::origin() + sec(4);
    TimePoint latest = TimePoint::origin() + sec(30);
  };
  // diurnal | zipfshift | flashcrowd | tenantmix | evacuation | addregion |
  // rolling | grayprimary | graylink (docs/SCENARIOS.md describes each; the
  // gray pair is the load-shape half of the gray-failure scenarios in
  // docs/HEALTH.md — the degraded peer/link is composed as a FaultPlan).
  static const std::vector<std::string>& builtin_names();
  static Result<ScenarioPlan> builtin(const std::string& name, uint64_t seed,
                                      const BuiltinOptions& options);

  const std::vector<ScenarioEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  // [first `at`, last `until`] over every event; origin..origin when empty.
  std::pair<TimePoint, TimePoint> window() const;
  std::string describe() const;

 private:
  std::vector<ScenarioEvent> events_;
};

// Walks a ScenarioPlan on virtual time: sleeps to each event's `at`, folds
// the event's hash into the determinism trace, applies load shapes to the
// LoadModel and dispatches operational events to the surface. Symmetric
// with FaultInjector; the applied-event timeline is kept for SLO-violation
// dumps.
class ScenarioEngine {
 public:
  ScenarioEngine(Simulation& sim, ScenarioSurface& surface)
      : sim_(&sim), surface_(&surface) {}

  // Spawn the driver task for `plan`. Call once per plan; the driver exits
  // after the last event fires.
  void arm(ScenarioPlan plan);

  LoadModel& load() { return load_; }
  const LoadModel& load() const { return load_; }
  int64_t events_applied() const { return events_applied_; }

  // Applied events with their virtual apply times, in order — the scenario
  // timeline an SLO violation dump prints next to the span trees.
  const std::vector<std::pair<TimePoint, std::string>>& timeline() const {
    return timeline_;
  }
  std::string render_timeline() const;

 private:
  Task<void> drive(std::vector<ScenarioEvent> events);
  void apply(const ScenarioEvent& e);

  Simulation* sim_;
  ScenarioSurface* surface_;
  LoadModel load_;
  int64_t events_applied_ = 0;
  std::vector<std::pair<TimePoint, std::string>> timeline_;
};

}  // namespace wiera::sim
