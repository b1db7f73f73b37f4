#include "sim/scenario.h"

#include <algorithm>
#include <cmath>

#include "common/bytes.h"
#include "common/logging.h"

namespace wiera::sim {

namespace {

constexpr double kPi = 3.14159265358979323846;
// A diurnal trough never stalls a workload driver outright; drivers divide
// their inter-op gap by the multiplier, so the floor bounds the slowdown.
constexpr double kMinRateMultiplier = 0.2;

}  // namespace

std::string_view scenario_kind_name(ScenarioEvent::Kind k) {
  switch (k) {
    case ScenarioEvent::Kind::kDiurnalLoad: return "diurnal-load";
    case ScenarioEvent::Kind::kZipfShift: return "zipf-shift";
    case ScenarioEvent::Kind::kFlashCrowd: return "flash-crowd";
    case ScenarioEvent::Kind::kTenantMix: return "tenant-mix";
    case ScenarioEvent::Kind::kDrainRegion: return "drain-region";
    case ScenarioEvent::Kind::kAddRegion: return "add-region";
    case ScenarioEvent::Kind::kRollingRestart: return "rolling-restart";
  }
  return "?";
}

std::string ScenarioEvent::describe() const {
  std::string out = std::string(scenario_kind_name(kind)) +
                    " target=" + (target.empty() ? "*" : target) +
                    " at=" + std::to_string(at.us()) + "us";
  if (until > at) out += " until=" + std::to_string(until.us()) + "us";
  switch (kind) {
    case Kind::kDiurnalLoad:
      out += " amplitude=" + std::to_string(amplitude) +
             " period=" + std::to_string(period.us()) + "us";
      break;
    case Kind::kZipfShift:
      out += " exponent=" + std::to_string(exponent);
      break;
    case Kind::kFlashCrowd:
      out += " hot=[" + std::to_string(hot_lo) + "," + std::to_string(hot_hi) +
             "] boost=" + std::to_string(boost);
      break;
    case Kind::kTenantMix:
      out += " mix=" + std::to_string(mix_fraction);
      break;
    default:
      break;
  }
  return out;
}

uint64_t ScenarioEvent::hash() const {
  // Distinguish scenario events from fault events at identical payloads: the
  // two families fold into the same trace hash stream.
  uint64_t h = fnv1a64("scenario");
  h = fnv1a64_u64(h, static_cast<uint64_t>(kind));
  h = fnv1a64_u64(h, static_cast<uint64_t>(at.us()));
  h = fnv1a64_u64(h, static_cast<uint64_t>(until.us()));
  h = fnv1a64(h, target.data(), target.size());
  h = fnv1a64_u64(h, static_cast<uint64_t>(amplitude * 1e6));
  h = fnv1a64_u64(h, static_cast<uint64_t>(period.us()));
  h = fnv1a64_u64(h, static_cast<uint64_t>(exponent * 1e6));
  h = fnv1a64_u64(h, static_cast<uint64_t>(hot_lo));
  h = fnv1a64_u64(h, static_cast<uint64_t>(hot_hi));
  h = fnv1a64_u64(h, static_cast<uint64_t>(boost * 1e6));
  h = fnv1a64_u64(h, static_cast<uint64_t>(mix_fraction * 1e6));
  return h;
}

double LoadModel::rate_multiplier(const std::string& region,
                                  TimePoint now) const {
  double m = 1.0;
  for (const DiurnalWindow& w : diurnal_) {
    if (!w.region.empty() && w.region != region) continue;
    if (now < w.at || now >= w.until || w.period <= Duration::zero()) continue;
    const double phase = static_cast<double>((now - w.at).us()) /
                         static_cast<double>(w.period.us());
    m *= 1.0 + w.amplitude * std::sin(2.0 * kPi * phase);
  }
  return std::max(m, kMinRateMultiplier);
}

int LoadModel::pick_key(Rng& rng, TimePoint now) const {
  for (const CrowdWindow& w : crowds_) {
    if (now < w.at || now >= w.until) continue;
    if (!rng.bernoulli(w.boost)) continue;
    const int lo = std::clamp(w.hot_lo, 0, key_count_ - 1);
    const int hi = std::clamp(w.hot_hi, lo, key_count_ - 1);
    return lo + static_cast<int>(rng.next_below(
                    static_cast<uint64_t>(hi - lo) + 1));
  }
  if (exponent_ <= 0.0) {
    return static_cast<int>(rng.next_below(static_cast<uint64_t>(key_count_)));
  }
  // Zipfian inverse-CDF over a handful of keys; O(key_count) per draw.
  double total = 0.0;
  for (int k = 0; k < key_count_; ++k) {
    total += std::pow(static_cast<double>(k + 1), -exponent_);
  }
  double u = rng.next_double() * total;
  for (int k = 0; k < key_count_; ++k) {
    u -= std::pow(static_cast<double>(k + 1), -exponent_);
    if (u <= 0.0) return k;
  }
  return key_count_ - 1;
}

int LoadModel::pick_tenant(Rng& rng) const {
  if (mix_ <= 0.0) return 0;
  return rng.bernoulli(mix_) ? 1 : 0;
}

void LoadModel::apply(const ScenarioEvent& e) {
  switch (e.kind) {
    case ScenarioEvent::Kind::kDiurnalLoad:
      diurnal_.push_back(
          {e.target, e.at, e.until, e.amplitude, e.period});
      break;
    case ScenarioEvent::Kind::kZipfShift:
      exponent_ = e.exponent;
      break;
    case ScenarioEvent::Kind::kFlashCrowd:
      crowds_.push_back({e.at, e.until, e.hot_lo, e.hot_hi, e.boost});
      break;
    case ScenarioEvent::Kind::kTenantMix:
      mix_ = e.mix_fraction;
      break;
    default:
      break;  // operational events don't shape load
  }
}

ScenarioPlan& ScenarioPlan::diurnal(std::string region, TimePoint at,
                                    TimePoint until, double amplitude,
                                    Duration period) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kDiurnalLoad;
  e.target = std::move(region);
  e.at = at;
  e.until = until;
  e.amplitude = amplitude;
  e.period = period;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::zipf_shift(double exponent, TimePoint at) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kZipfShift;
  e.at = at;
  e.until = at;
  e.exponent = exponent;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::flash_crowd(int hot_lo, int hot_hi, double boost,
                                        TimePoint at, TimePoint until) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kFlashCrowd;
  e.at = at;
  e.until = until;
  e.hot_lo = hot_lo;
  e.hot_hi = hot_hi;
  e.boost = boost;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::tenant_mix(double fraction, TimePoint at) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kTenantMix;
  e.at = at;
  e.until = at;
  e.mix_fraction = fraction;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::drain_region(std::string node, TimePoint at,
                                         TimePoint deadline) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kDrainRegion;
  e.target = std::move(node);
  e.at = at;
  e.until = deadline;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::add_region(std::string node, TimePoint at) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kAddRegion;
  e.target = std::move(node);
  e.at = at;
  e.until = at;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::rolling_restart(TimePoint at) {
  ScenarioEvent e;
  e.kind = ScenarioEvent::Kind::kRollingRestart;
  e.at = at;
  e.until = at;
  events_.push_back(std::move(e));
  return *this;
}

ScenarioPlan& ScenarioPlan::add(ScenarioEvent event) {
  events_.push_back(std::move(event));
  return *this;
}

const std::vector<std::string>& ScenarioPlan::builtin_names() {
  static const std::vector<std::string> names = {
      "diurnal",   "zipfshift",  "flashcrowd", "tenantmix", "evacuation",
      "addregion", "rolling",    "grayprimary", "graylink"};
  return names;
}

Result<ScenarioPlan> ScenarioPlan::builtin(const std::string& name,
                                           uint64_t seed,
                                           const BuiltinOptions& options) {
  ScenarioPlan plan;
  Rng rng(seed);
  const TimePoint start = options.earliest;
  const int64_t span =
      std::max<int64_t>(options.latest.us() - options.earliest.us(), 1);
  const auto pick_node = [&](const std::vector<std::string>& nodes) {
    return nodes[static_cast<size_t>(
        rng.next_below(static_cast<uint64_t>(nodes.size())))];
  };

  if (name == "diurnal") {
    if (options.regions.empty()) {
      return invalid_argument("diurnal scenario needs client regions");
    }
    for (const std::string& region : options.regions) {
      const TimePoint at = start + usec(rng.uniform_int(0, span / 4));
      plan.diurnal(region, at, options.latest,
                   /*amplitude=*/0.4 + 0.4 * rng.next_double(),
                   /*period=*/sec(6) + usec(rng.uniform_int(0, sec(6).us())));
    }
  } else if (name == "zipfshift") {
    const TimePoint hot_at = start + usec(rng.uniform_int(0, span / 3));
    const TimePoint cool_at =
        hot_at + usec(rng.uniform_int(span / 4, span / 2));
    plan.zipf_shift(0.9 + 0.6 * rng.next_double(), hot_at);
    plan.zipf_shift(0.2 + 0.3 * rng.next_double(),
                    std::min(cool_at, options.latest));
  } else if (name == "flashcrowd") {
    const TimePoint at = start + usec(rng.uniform_int(span / 6, span / 2));
    const Duration dur = usec(rng.uniform_int(sec(4).us(), sec(8).us()));
    const int hot =
        static_cast<int>(rng.uniform_int(0, options.key_count - 1));
    plan.flash_crowd(hot, std::min(hot + 1, options.key_count - 1),
                     /*boost=*/0.8, at, at + dur);
  } else if (name == "tenantmix") {
    const TimePoint surge_at = start + usec(rng.uniform_int(0, span / 3));
    const TimePoint ebb_at =
        surge_at + usec(rng.uniform_int(span / 4, span / 2));
    plan.tenant_mix(0.35 + 0.3 * rng.next_double(), surge_at);
    plan.tenant_mix(0.05 + 0.1 * rng.next_double(),
                    std::min(ebb_at, options.latest));
  } else if (name == "evacuation") {
    if (options.nodes.empty()) {
      return invalid_argument("evacuation scenario needs member nodes");
    }
    const TimePoint at =
        start + usec(rng.uniform_int(sec(2).us(), sec(6).us()));
    // Generous hand-off deadline: a composed crash/partition window can
    // stall replication for its whole span and the drain must still finish.
    plan.drain_region(pick_node(options.nodes), at, at + sec(25));
  } else if (name == "addregion") {
    if (options.nodes.empty() || options.spare_nodes.empty()) {
      return invalid_argument(
          "addregion scenario needs member nodes and spare nodes");
    }
    const TimePoint drain_at =
        start + usec(rng.uniform_int(sec(2).us(), sec(5).us()));
    plan.drain_region(pick_node(options.nodes), drain_at,
                      drain_at + sec(25));
    plan.add_region(pick_node(options.spare_nodes),
                    drain_at + usec(rng.uniform_int(sec(3).us(), sec(6).us())));
  } else if (name == "rolling") {
    plan.rolling_restart(start +
                         usec(rng.uniform_int(sec(1).us(), sec(4).us())));
  } else if (name == "grayprimary") {
    // Gray primary under diurnal load (docs/HEALTH.md): per-region diurnal
    // sines that begin only after a quiet head of several seconds, so the
    // SLO p99-inflation clause always has an out-of-window baseline to hold
    // the gray window against. The gray fault itself (slow node / stutter
    // on one peer) is composed by the test harness the same way partitions
    // and crashes compose with the other built-ins.
    if (options.regions.empty()) {
      return invalid_argument("grayprimary scenario needs client regions");
    }
    for (const std::string& region : options.regions) {
      const TimePoint at =
          start + sec(4) + usec(rng.uniform_int(0, sec(2).us()));
      plan.diurnal(region, at, options.latest,
                   /*amplitude=*/0.3 + 0.3 * rng.next_double(),
                   /*period=*/sec(5) + usec(rng.uniform_int(0, sec(5).us())));
    }
  } else if (name == "graylink") {
    // Flaky inter-region link during a flash crowd: hot-range traffic surge
    // while one tiera<->tiera replication link drops and jitters. Same
    // deliberate quiet head as grayprimary for the inflation baseline.
    if (options.key_count < 1) {
      return invalid_argument("graylink scenario needs keys");
    }
    const TimePoint at =
        start + sec(4) + usec(rng.uniform_int(0, sec(3).us()));
    const Duration dur = usec(rng.uniform_int(sec(6).us(), sec(10).us()));
    const int hot =
        static_cast<int>(rng.uniform_int(0, options.key_count - 1));
    plan.flash_crowd(hot, std::min(hot + 1, options.key_count - 1),
                     /*boost=*/0.8, at, at + dur);
  } else {
    return not_found("unknown scenario: " + name);
  }
  return plan;
}

std::pair<TimePoint, TimePoint> ScenarioPlan::window() const {
  if (events_.empty()) return {TimePoint::origin(), TimePoint::origin()};
  TimePoint lo = TimePoint::max();
  TimePoint hi = TimePoint::origin();
  for (const ScenarioEvent& e : events_) {
    lo = std::min(lo, e.at);
    hi = std::max(hi, std::max(e.at, e.until));
  }
  return {lo, hi};
}

std::string ScenarioPlan::describe() const {
  std::string out;
  for (const ScenarioEvent& e : events_) {
    if (!out.empty()) out += "\n";
    out += e.describe();
  }
  return out;
}

void ScenarioEngine::arm(ScenarioPlan plan) {
  std::vector<ScenarioEvent> events = plan.events();
  // Stable sort: events at the same instant apply in insertion order.
  std::stable_sort(events.begin(), events.end(),
                   [](const ScenarioEvent& a, const ScenarioEvent& b) {
                     return a.at < b.at;
                   });
  sim_->spawn(drive(std::move(events)), "scenario.driver");
}

Task<void> ScenarioEngine::drive(std::vector<ScenarioEvent> events) {
  for (const ScenarioEvent& e : events) {
    if (e.at > sim_->now()) co_await sim_->at(e.at);
    apply(e);
  }
}

void ScenarioEngine::apply(const ScenarioEvent& e) {
  // Every applied scenario event perturbs the determinism trace: two runs
  // only hash equal if they walked the identical scenario schedule.
  sim_->checker().fold_trace(e.hash());
  WLOG_INFO("scenario") << "applying scenario event: " << e.describe();
  events_applied_++;
  timeline_.emplace_back(sim_->now(), e.describe());
  switch (e.kind) {
    case ScenarioEvent::Kind::kDiurnalLoad:
    case ScenarioEvent::Kind::kZipfShift:
    case ScenarioEvent::Kind::kFlashCrowd:
    case ScenarioEvent::Kind::kTenantMix:
      load_.apply(e);
      surface_->on_load_change(e);
      break;
    case ScenarioEvent::Kind::kDrainRegion:
      surface_->on_drain_region(e);
      break;
    case ScenarioEvent::Kind::kAddRegion:
      surface_->on_add_region(e);
      break;
    case ScenarioEvent::Kind::kRollingRestart:
      surface_->on_rolling_restart(e);
      break;
  }
}

std::string ScenarioEngine::render_timeline() const {
  std::string out = "scenario timeline (" +
                    std::to_string(timeline_.size()) + " events):";
  for (const auto& [at, line] : timeline_) {
    out += "\n  t=" + std::to_string(at.us()) + "us " + line;
  }
  return out;
}

}  // namespace wiera::sim
