// One event vocabulary for fault injection and scenarios (docs/FAULTS.md,
// docs/SCENARIOS.md).
//
// A Plan is a schedule of typed events an Injector applies at virtual
// times. Events come in two families:
//   * faults (a Jepsen-style nemesis): node crash/restart, partitions
//     (bidirectional or asymmetric), probabilistic message chaos
//     (drop/duplicate/random extra delay = reordering), latency spikes,
//     storage-tier faults (slowdown / ENOSPC), integrity faults (bit rot,
//     torn writes, payload corruption) and gray failures (stutter, flaky
//     link, slow node);
//   * scenario events: load shapes (per-region diurnal sine, zipf-shift of
//     the key popularity exponent, a flash crowd on a key range,
//     tenant-mix churn) and operational events (drain-and-evacuate a
//     region, add a region live, a controlled rolling restart).
// Plans are scripted by a test, sampled from a seed (Plan::random) or
// derived from a named built-in plus a seed (Plan::builtin), so every run
// is reproducible from its seed.
//
// The sim layer knows nothing about the cluster above it (the network and
// storage stacks link *against* wiera_sim): load shapes fold into the
// injector's own LoadModel, which workload drivers sample, and every other
// event goes to the abstract Surface, which the wiera layer implements as
// geo::ClusterHost. The Injector folds every applied event into the
// SimChecker determinism trace hash, so a replay that diverges in its
// schedule shows up as a hash mismatch (docs/DETERMINISM.md).
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

// Which way an isolation-style fault cuts traffic relative to the node.
enum class PartitionDirection {
  kBoth,      // full isolation
  kInbound,   // nobody can reach the node; its own packets get out
  kOutbound,  // the node's packets are lost; it still hears the world
};

std::string_view partition_direction_name(PartitionDirection d);

struct PlanEvent {
  enum class Family { kFault, kScenario };

  enum class Kind {
    // ---- faults ----
    kCrash,         // node dies at `at`, loses volatile state, restarts at
                    // `until`
    kRestart,       // node is back (paired with a kCrash; informational)
    kPartition,     // node cut off from every other node during [at, until)
    kMessageChaos,  // probabilistic drop/duplicate/extra-delay window
    kLatencySpike,  // +extra_delay on every message touching node
    kTierFault,     // storage-tier slowdown and/or ENOSPC window
    kBitRot,        // flip a byte of object_key's stored copy on node at `at`
    kTornWrite,     // crash whose window tears in-flight durable-tier writes
    kMsgCorrupt,    // probabilistic payload-corrupting message window
    // Gray-failure classes (docs/HEALTH.md): the node stays "alive" —
    // answers pings eventually, loses no state — but degrades service.
    kStutter,       // process freeze during [at, until): queued work runs late
    kFlakyLink,     // intermittent loss/latency on the node↔peer_node link
    kSlowNode,      // slow_factor multiplier on all of node's processing
    // ---- scenario load shapes ----
    kDiurnalLoad,  // sinusoidal rate multiplier on region `node` [at,until)
    kZipfShift,    // key popularity exponent becomes `exponent` at `at`
    kFlashCrowd,   // key range [hot_lo,hot_hi] absorbs `boost` of traffic
    kTenantMix,    // class-B tenant fraction becomes `mix_fraction` at `at`
    // ---- scenario operational events ----
    kDrainRegion,     // cooperatively evacuate peer `node`; `until` is the
                      // hand-off deadline
    kAddRegion,       // bring a peer up live on node `node` at `at`
    kRollingRestart,  // controlled one-at-a-time restart of the peer set
  };

  Kind kind = Kind::kCrash;
  TimePoint at;     // when the event begins / fires
  TimePoint until;  // when it ends (restart time for kCrash, hand-off
                    // deadline for kDrainRegion)
  // Affected node: "" = every node for kMessageChaos / kMsgCorrupt; the
  // client region for kDiurnalLoad ("" = every region); the peer node for
  // kDrainRegion / kAddRegion.
  std::string node;
  PartitionDirection direction = PartitionDirection::kBoth;

  // kMessageChaos knobs.
  double drop_prob = 0.0;
  double dup_prob = 0.0;
  Duration max_extra_delay = Duration::zero();

  // kLatencySpike knob.
  Duration extra_delay = Duration::zero();

  // kTierFault knobs. Empty tier_label = every tier on the node.
  std::string tier_label;
  double slowdown = 1.0;
  bool enospc = false;

  // kBitRot knob: which object's stored copy to flip.
  std::string object_key;

  // kMsgCorrupt knob.
  double corrupt_prob = 0.0;

  // kFlakyLink knob: the other endpoint of the degraded link (the flaky
  // window reuses drop_prob / max_extra_delay for its loss and jitter).
  std::string peer_node;

  // kSlowNode knob: multiplier on the node's processing + message delays.
  double slow_factor = 1.0;

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

  Family family() const {
    return kind < Kind::kDiurnalLoad ? Family::kFault : Family::kScenario;
  }
  // Load shapes steer the LoadModel; every other kind acts on the cluster.
  bool is_load_shape() const {
    return kind >= Kind::kDiurnalLoad && kind <= Kind::kTenantMix;
  }
  std::string describe() const;
  // Stable content hash folded into the determinism trace when applied.
  // Each family folds only its own fields.
  uint64_t hash() const;
};

std::string_view event_kind_name(PlanEvent::Kind k);

// Receiver of every event that is not a load shape — implemented by the
// wiera layer (geo::ClusterHost) or by unit tests. apply() runs on the
// injector's driver at the event's scheduled virtual time.
class Surface {
 public:
  virtual ~Surface() = default;
  virtual void apply(const PlanEvent& e) = 0;
};

// The live traffic model workload drivers sample from. Load-shape events
// mutate it (through Injector::apply) at their virtual-time instants;
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

  void apply(const PlanEvent& e);

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

class Plan {
 public:
  // ---- scripted faults ----
  // Crash at `at`, restart at `restart_at` (emits kCrash + kRestart).
  Plan& crash(std::string node, TimePoint at, TimePoint restart_at);
  // Isolate `node` from every other node during [at, until).
  Plan& partition(std::string node, TimePoint at, TimePoint until,
                  PartitionDirection direction = PartitionDirection::kBoth);
  // Probabilistic message chaos on messages touching `node` ("" = all).
  Plan& message_chaos(std::string node, TimePoint at, TimePoint until,
                      double drop_prob, double dup_prob,
                      Duration max_extra_delay = Duration::zero());
  Plan& latency_spike(std::string node, Duration extra, TimePoint at,
                      TimePoint until);
  Plan& tier_fault(std::string node, std::string tier_label, double slowdown,
                   bool enospc, TimePoint at, TimePoint until);
  // Flip one byte of `key`'s stored copy on `node` at `at` (silent bit-rot).
  Plan& bit_rot(std::string node, std::string key, TimePoint at);
  // Crash at `at` whose outage window tears durable-tier writes that were
  // in flight when the node died (emits kTornWrite + kRestart).
  Plan& torn_write(std::string node, TimePoint at, TimePoint restart_at);
  // Probabilistic payload corruption on messages touching `node` ("" = all).
  Plan& corrupting_chaos(std::string node, TimePoint at, TimePoint until,
                         double corrupt_prob);
  // Gray failures (docs/HEALTH.md): the node keeps answering pings but
  // degrades. Freeze `node`'s processing during [at, until) without losing
  // state (queued work executes late).
  Plan& stutter(std::string node, TimePoint at, TimePoint until);
  // Intermittent loss + jitter confined to the node↔peer link.
  Plan& flaky_link(std::string node, std::string peer, TimePoint at,
                   TimePoint until, double drop_prob,
                   Duration max_extra_delay);
  // Multiply all of `node`'s processing/message delays by `factor`.
  Plan& slow_node(std::string node, double factor, TimePoint at,
                  TimePoint until);

  // ---- scripted scenario events ----
  Plan& diurnal(std::string region, TimePoint at, TimePoint until,
                double amplitude, Duration period);
  Plan& zipf_shift(double exponent, TimePoint at);
  Plan& flash_crowd(int hot_lo, int hot_hi, double boost, TimePoint at,
                    TimePoint until);
  Plan& tenant_mix(double fraction, TimePoint at);
  // Cooperatively drain peer `node`; the hand-off must finish by `deadline`.
  Plan& drain_region(std::string node, TimePoint at, TimePoint deadline);
  Plan& add_region(std::string node, TimePoint at);
  Plan& rolling_restart(TimePoint at);

  // ---- random fault plans ----
  // Knobs for Plan::random. Counts say how many windows of each fault
  // class to sample; windows land inside [earliest, latest] with durations
  // in [min_window, max_window]. Nodes are drawn from `nodes` (typically
  // only storage nodes — crashing the coordinator is a different test).
  struct RandomOptions {
    std::vector<std::string> nodes;
    TimePoint earliest = TimePoint::origin() + sec(2);
    TimePoint latest = TimePoint::origin() + sec(30);
    Duration min_window = sec(1);
    Duration max_window = sec(4);
    int crashes = 0;
    int partitions = 0;
    int chaos_windows = 0;
    int latency_spikes = 0;
    int tier_faults = 0;
    double drop_prob = 0.2;
    double dup_prob = 0.1;
    Duration max_extra_delay = msec(80);
    Duration max_spike = msec(400);
    double tier_slowdown = 8.0;
    bool tier_enospc = false;
    // Integrity fault classes (all default 0 so pre-existing seeds keep
    // drawing the identical RNG sequence and plans stay byte-identical).
    std::vector<std::string> keys;  // bit-rot targets
    int bit_rots = 0;
    int torn_writes = 0;
    int corrupt_windows = 0;
    double corrupt_prob = 0.3;
    // Gray-failure fault classes (docs/HEALTH.md). Also default 0 and
    // sampled after the integrity classes, preserving every earlier seed's
    // RNG draw sequence.
    int stutters = 0;
    int flaky_links = 0;
    int slow_nodes = 0;
    double flaky_drop_prob = 0.4;
    Duration flaky_extra_delay = msec(60);
    double slow_factor = 8.0;
  };
  static Plan random(uint64_t seed, const RandomOptions& options);

  // ---- named scenario built-ins (seed-derived) ----
  // Inputs for Plan::builtin. Every built-in draws its free choices (which
  // peer drains, window offsets, hot ranges) from Rng(seed), so a
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
  // docs/HEALTH.md — the degraded peer/link is composed as a random plan).
  static const std::vector<std::string>& builtin_names();
  static Result<Plan> builtin(const std::string& name, uint64_t seed,
                              const BuiltinOptions& options);

  const std::vector<PlanEvent>& events() const { return events_; }
  bool empty() const { return events_.empty(); }
  // [first `at`, last `until`] over every event; origin..origin when empty.
  std::pair<TimePoint, TimePoint> window() const;
  std::string describe() const;

 private:
  // Appends an event of `kind` on `node` over [at, until); the caller sets
  // its knobs.
  PlanEvent& push(PlanEvent::Kind kind, std::string node, TimePoint at,
                  TimePoint until);

  std::vector<PlanEvent> events_;
};

// Walks plans on virtual time: sleeps to each event's `at`, folds the
// event's hash into the determinism trace, records it on the timeline, and
// applies load shapes to the LoadModel and every other event to the surface.
class Injector {
 public:
  Injector(Simulation& sim, Surface& surface)
      : sim_(&sim), surface_(&surface) {}

  // Spawn one driver task for `plan`; it exits after the last event fires.
  // Within a plan, events at one instant apply in insertion order; plans
  // armed together whose events share their first instant apply in arm
  // order.
  void arm(Plan plan);

  LoadModel& load() { return load_; }
  const LoadModel& load() const { return load_; }
  // Applied events of `family`.
  int64_t events_applied(PlanEvent::Family family) const;

  // Applied events of every armed plan in apply order — the timeline an
  // attribution report (sim/attribution.h) correlates an SLO-violating
  // window against, kept as typed events so overlap checks can use their
  // [at, until) windows.
  const std::vector<PlanEvent>& timeline() const { return timeline_; }
  std::string render_timeline() const;

 private:
  Task<void> drive(std::vector<PlanEvent> events);
  void apply(const PlanEvent& e);

  Simulation* sim_;
  Surface* surface_;
  LoadModel load_;
  std::vector<PlanEvent> timeline_;
};

}  // namespace wiera::sim
