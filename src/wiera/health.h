// Health-scored failure detection (docs/HEALTH.md).
//
// The controller's liveness view is binary (WieraController's per-peer
// `alive`), which misses the dominant wide-area failure mode: a peer that
// answers pings while serving 50x slow (stuck tier, flaky NIC, stutter/GC
// pause). HealthTracker turns liveness into a score built from two signals:
//   * a φ-accrual-style suspicion level over heartbeat inter-arrival — the
//     longer a peer's next heartbeat overshoots its learned cadence, the
//     higher φ climbs (Hayashibara et al., SRDS'04);
//   * a per-target request-latency EWMA compared against the best (minimum)
//     EWMA ever observed for that target, so a peer serving far above its
//     own baseline is flagged degraded even while its pings are prompt.
// From the score the tracker drives a three-state lifecycle per peer:
// healthy → probation → (controller-declared) down. Probation demotes the
// peer from primary eligibility and moves it last in client replica ranking
// and replication fan-out ordering — but never narrows membership, so a
// peer that recovers rejoins with no catch-up.
//
// Determinism: all state is event-driven from recorded observations with
// explicit virtual timestamps (no wall clock, no background task), stored
// in std::map so iteration order is stable.
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "common/time.h"
#include "obs/metrics.h"

namespace wiera::geo {

class HealthTracker {
 public:
  // The thresholds are constants in health.cpp (docs/HEALTH.md).
  struct Config {
    // Master switch (the `health_detection` mutation knob). Off = seed
    // behavior everywhere: every peer ranks neutral, nothing enters
    // probation, and no health counters are registered.
    bool enabled = false;
  };

  enum class State { kHealthy, kProbation };

  HealthTracker(obs::Registry& registry, Config config);

  bool enabled() const { return config_.enabled; }

  // ---- observation feeds ----
  // One heartbeat outcome per peer per round (controller heartbeat_loop).
  void record_ping(const std::string& peer, bool ok, TimePoint now);
  // One request-latency sample against `peer` (client attempts, replication
  // acks). Only successful exchanges should be recorded; failures feed φ.
  void record_latency(const std::string& peer, Duration latency,
                      TimePoint now);

  // ---- scores & lifecycle ----
  // φ-accrual suspicion from heartbeat inter-arrival; 0 while sparse.
  double phi(const std::string& peer, TimePoint now) const;
  // EWMA / baseline ratio; 1.0 while sparse.
  double latency_ratio(const std::string& peer) const;
  State state(const std::string& peer) const;
  bool in_probation(const std::string& peer) const;
  // Ranking penalty for replica ordering: 0 = healthy or insufficient
  // samples (NEUTRAL), 1 = latency-degraded, 2 = probation. Callers order
  // by (penalty, own tiebreak) so health never overrides proximity between
  // equally healthy peers.
  int rank_penalty(const std::string& peer) const;

  // ---- counters (RUN-REPORT counters; registered only when enabled) ----
  int64_t probation_entries() const {
    return probation_entries_ ? probation_entries_->value() : 0;
  }
  int64_t probation_exits() const {
    return probation_exits_ ? probation_exits_->value() : 0;
  }

 private:
  struct PeerHealth {
    // Heartbeat cadence (φ input): EWMA of inter-arrival time.
    TimePoint last_heard;
    Duration interval_ewma = Duration::zero();
    int ping_samples = 0;
    int consecutive_failures = 0;
    // Request latency (degradation input).
    Duration latency_ewma = Duration::zero();
    Duration latency_baseline = Duration::zero();  // min EWMA seen
    int latency_samples = 0;
    // Lifecycle.
    State state = State::kHealthy;
    TimePoint probation_since;
  };

  void evaluate(const std::string& peer, PeerHealth& h, TimePoint now);
  double phi_of(const PeerHealth& h, TimePoint now) const;
  double ratio_of(const PeerHealth& h) const;

  Config config_;
  std::map<std::string, PeerHealth> peers_;
  obs::Counter* probation_entries_ = nullptr;
  obs::Counter* probation_exits_ = nullptr;
};

}  // namespace wiera::geo
