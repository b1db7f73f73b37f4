// SLO acceptance oracle for scenario runs (docs/SCENARIOS.md).
//
// ConsistencyOracle answers "did the cluster ever lie?"; SloOracle answers
// "did the cluster hold its service level while the scenario played out?".
// A test feeds it every client op (like the consistency oracle's begin/end
// pairs) and then checks a per-scenario SloContract: p99 latency bounds read
// from obs::Registry histograms, a bounded shed fraction through a flash
// crowd, zero failed or corrupt reads and a bounded availability gap through
// an evacuation, and session read-your-writes — the check that catches a
// drain protocol that detaches a peer without handing its accepted writes
// off (the remaining replicas then serve the client its own stale value,
// which no convergence check can see).
//
// Pure bookkeeping: nothing here touches the simulation. On violation the
// caller dumps span trees and the Injector's timeline, exactly like
// consistency-oracle failures do today.
#pragma once

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"
#include "common/time.h"
#include "obs/metrics.h"

namespace wiera::sim {

// What a scenario promises its clients. Zero / negative values mean
// "unchecked" so contracts stay sparse.
struct SloContract {
  std::string scenario;
  // p99 bounds over the per-client latency histograms
  // (wiera_client_{put,get}_latency_us); zero = unchecked. Histograms only
  // record successful ops, so this bounds the served tail, while failures
  // are covered by no_failed_ops.
  Duration max_put_p99 = Duration::zero();
  Duration max_get_p99 = Duration::zero();
  // Max fraction of in-window ops shed with kResourceExhausted; negative =
  // unchecked (sheds then count as plain failures under no_failed_ops).
  double max_shed_fraction = -1.0;
  // Every op must end kOk / kNotFound (kResourceExhausted tolerated only
  // when max_shed_fraction admits sheds).
  bool no_failed_ops = false;
  // Client-visible checksum failure counters must stay zero.
  bool no_corrupt_reads = false;
  // Max gap between successful op completions inside the scenario window,
  // including the window edges; zero = unchecked.
  Duration max_availability_gap = Duration::zero();
  // Read-your-writes per client: an ok GET must never return an *earlier*
  // own acked value (or nothing) once a later own write was acked.
  bool session_reads = false;
  // Gray-degradation bound (docs/HEALTH.md): the p99 of successful GET
  // latencies completing *inside* the scenario window may exceed the p99 of
  // those completing *outside* it by at most this factor. Catches the
  // failure mode absolute p99 bounds miss — a degraded-but-alive replica
  // quietly inflating the tail for the whole gray window. Requires a
  // window; <= 0 = unchecked. Both sides need min_inflation_samples
  // successful GETs or the clause passes vacuously.
  double max_get_p99_inflation = 0.0;
  int min_inflation_samples = 20;
  // Detection precedes violation (docs/METRICS_PIPELINE.md): when set,
  // every violation of a clause named here must be preceded by a recorded
  // burn-rate alert firing for that clause (SloOracle::record_alert,
  // strictly earlier than the violation's evidence time) — otherwise a
  // "detection-gap" violation is appended. An empty list with
  // require_detection keeps the contract sparse: no clause is guarded.
  bool require_detection = false;
  std::vector<std::string> guarded_clauses;

  std::string describe() const;
};

struct SloViolation {
  std::string check;    // which contract clause fired
  std::string message;  // human-readable evidence
  uint64_t trace_id = 0;  // offending op's distributed trace, if any
  // Evidence time: when the clause demonstrably tripped (an offending op's
  // completion, the availability gap's start, else the window end). The
  // detection-precedes-violation check compares alert firings against this.
  TimePoint at;
};

class SloOracle {
 public:
  // The scenario window availability/shed checks apply to. Ops outside the
  // window still count for no_failed_ops and session_reads.
  void set_window(TimePoint start, TimePoint end);

  // Record a burn-rate alert firing that guards `clause` (obs::AlertRules
  // firings carry the clause name). Feed these before check(): the
  // require_detection contract clause compares their times against each
  // violation's evidence time.
  void record_alert(const std::string& clause, TimePoint at);
  int64_t alerts() const { return static_cast<int64_t>(alerts_.size()); }

  void record_put(const std::string& client, const std::string& key,
                  const std::string& value, TimePoint start, TimePoint end,
                  StatusCode code, uint64_t trace_id);
  // `value` is the returned payload for kOk, ignored otherwise.
  void record_get(const std::string& client, const std::string& key,
                  const std::string& value, TimePoint start, TimePoint end,
                  StatusCode code, uint64_t trace_id);

  std::vector<SloViolation> check(const SloContract& contract,
                                  const obs::Registry& registry,
                                  const std::vector<std::string>& clients) const;

  int64_t ops() const { return static_cast<int64_t>(ops_.size()); }
  int64_t ok() const { return ok_; }
  int64_t not_found() const { return not_found_; }
  int64_t shed() const { return shed_; }
  int64_t failed() const { return failed_; }

  static std::string describe(const std::vector<SloViolation>& violations);

 private:
  struct OpRec {
    bool is_put = false;
    std::string client;
    std::string key;
    std::string value;
    TimePoint start;
    TimePoint end;
    StatusCode code = StatusCode::kOk;
    uint64_t trace_id = 0;
  };

  void record(OpRec rec);

  bool has_window_ = false;
  TimePoint window_start_;
  TimePoint window_end_;
  std::vector<OpRec> ops_;
  std::vector<std::pair<std::string, TimePoint>> alerts_;
  int64_t ok_ = 0;
  int64_t not_found_ = 0;
  int64_t shed_ = 0;
  int64_t failed_ = 0;
};

}  // namespace wiera::sim
