#include "wiera/health.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace wiera::geo {

namespace {
constexpr char kComponent[] = "health";
// ln(10): φ-accrual assumes exponentially distributed inter-arrival, so
// φ(Δ) = -log10(exp(-Δ/mean)) = Δ / (mean * ln 10).
constexpr double kLn10 = 2.302585092994046;
// φ-accrual thresholds with hysteresis: enter probation at/above
// kPhiSuspect, leave only at/below kPhiRecover.
constexpr double kPhiSuspect = 4.0;
constexpr double kPhiRecover = 1.0;
// Latency-EWMA degradation: a peer whose request-latency EWMA exceeds
// kDegradedFactor x its own baseline (best EWMA seen) enters probation;
// above kDegradedFactor/2 it ranks as degraded without probation.
constexpr double kDegradedFactor = 4.0;
constexpr double kEwmaAlpha = 0.25;
// Below this many observations (pings for φ, latencies for the EWMA) a
// signal stays NEUTRAL — sparse data must not rank a peer best or worst
// (tested in wiera_test ClientHealthRanking*).
constexpr int kMinSamples = 3;
// A peer stays in probation at least this long, so a single good sample
// cannot flap it straight back to primary-eligible.
constexpr Duration kProbationMinDwell = sec(2);
// Consecutive failed pings also force probation (a cheaper signal than φ
// when the heartbeat has a deadline and failures are crisp).
constexpr int kPingFailuresSuspect = 2;
}  // namespace

HealthTracker::HealthTracker(obs::Registry& registry, Config config)
    : config_(config) {
  // Lazily registered: a disabled tracker must leave the metrics snapshot
  // byte-identical to the seed (same pattern as the batching counters).
  if (config_.enabled) {
    probation_entries_ =
        registry.counter("wiera_health_probation_entries_total");
    probation_exits_ = registry.counter("wiera_health_probation_exits_total");
  }
}

void HealthTracker::record_ping(const std::string& peer, bool ok,
                                TimePoint now) {
  if (!config_.enabled) return;
  PeerHealth& h = peers_[peer];
  if (ok) {
    if (h.ping_samples > 0) {
      const Duration interval = now - h.last_heard;
      h.interval_ewma =
          h.interval_ewma == Duration::zero()
              ? interval
              : usec(static_cast<int64_t>(
                    kEwmaAlpha * static_cast<double>(interval.us()) +
                    (1.0 - kEwmaAlpha) *
                        static_cast<double>(h.interval_ewma.us())));
    }
    h.last_heard = now;
    h.ping_samples++;
    h.consecutive_failures = 0;
  } else {
    h.consecutive_failures++;
  }
  evaluate(peer, h, now);
}

void HealthTracker::record_latency(const std::string& peer, Duration latency,
                                   TimePoint now) {
  if (!config_.enabled) return;
  PeerHealth& h = peers_[peer];
  h.latency_ewma =
      h.latency_samples == 0
          ? latency
          : usec(static_cast<int64_t>(
                kEwmaAlpha * static_cast<double>(latency.us()) +
                (1.0 - kEwmaAlpha) *
                    static_cast<double>(h.latency_ewma.us())));
  h.latency_samples++;
  // The baseline is the best EWMA this peer has ever sustained: comparing a
  // peer against itself keeps a far replica's honest distance from reading
  // as degradation.
  if (h.latency_samples >= kMinSamples &&
      (h.latency_baseline == Duration::zero() ||
       h.latency_ewma < h.latency_baseline)) {
    h.latency_baseline = h.latency_ewma;
  }
  evaluate(peer, h, now);
}

double HealthTracker::phi_of(const PeerHealth& h, TimePoint now) const {
  if (h.ping_samples < kMinSamples ||
      h.interval_ewma == Duration::zero()) {
    return 0.0;
  }
  const Duration silence = now - h.last_heard;
  if (silence <= Duration::zero()) return 0.0;
  return static_cast<double>(silence.us()) /
         (static_cast<double>(h.interval_ewma.us()) * kLn10);
}

double HealthTracker::ratio_of(const PeerHealth& h) const {
  if (h.latency_samples < kMinSamples ||
      h.latency_baseline == Duration::zero()) {
    return 1.0;
  }
  return static_cast<double>(h.latency_ewma.us()) /
         static_cast<double>(h.latency_baseline.us());
}

void HealthTracker::evaluate(const std::string& peer, PeerHealth& h,
                             TimePoint now) {
  const double phi_now = phi_of(h, now);
  const double ratio = ratio_of(h);
  const bool ping_suspect = h.consecutive_failures >= kPingFailuresSuspect;
  if (h.state == State::kHealthy) {
    if (phi_now >= kPhiSuspect || ratio >= kDegradedFactor ||
        ping_suspect) {
      h.state = State::kProbation;
      h.probation_since = now;
      if (probation_entries_ != nullptr) probation_entries_->inc();
      WLOG_INFO(kComponent)
          << peer << " enters probation (phi=" << phi_now
          << " latency_ratio=" << ratio
          << " consecutive_ping_failures=" << h.consecutive_failures << ")";
    }
    return;
  }
  // Probation exit needs every signal back under the recovery thresholds
  // (hysteresis) and the minimum dwell served.
  if (now - h.probation_since < kProbationMinDwell) return;
  if (phi_now <= kPhiRecover &&
      ratio < kDegradedFactor / 2.0 && !ping_suspect) {
    h.state = State::kHealthy;
    if (probation_exits_ != nullptr) probation_exits_->inc();
    WLOG_INFO(kComponent) << peer << " leaves probation";
  }
}

double HealthTracker::phi(const std::string& peer, TimePoint now) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 0.0 : phi_of(it->second, now);
}

double HealthTracker::latency_ratio(const std::string& peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? 1.0 : ratio_of(it->second);
}

HealthTracker::State HealthTracker::state(const std::string& peer) const {
  auto it = peers_.find(peer);
  return it == peers_.end() ? State::kHealthy : it->second.state;
}

bool HealthTracker::in_probation(const std::string& peer) const {
  return state(peer) == State::kProbation;
}

int HealthTracker::rank_penalty(const std::string& peer) const {
  if (!config_.enabled) return 0;
  auto it = peers_.find(peer);
  if (it == peers_.end()) return 0;  // never observed: NEUTRAL
  const PeerHealth& h = it->second;
  if (h.state == State::kProbation) return 2;
  // Degraded-but-not-probation: above half the probation threshold.
  if (ratio_of(h) >= kDegradedFactor / 2.0) return 1;
  return 0;
}

}  // namespace wiera::geo
