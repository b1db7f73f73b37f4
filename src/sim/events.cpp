#include "sim/events.h"

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

uint64_t fold_scaled(uint64_t h, double value) {
  return fnv1a64_u64(h, static_cast<uint64_t>(value * 1e6));
}

}  // namespace

std::string_view partition_direction_name(PartitionDirection d) {
  switch (d) {
    case PartitionDirection::kBoth: return "both";
    case PartitionDirection::kInbound: return "inbound";
    case PartitionDirection::kOutbound: return "outbound";
  }
  return "?";
}

std::string_view event_kind_name(PlanEvent::Kind k) {
  switch (k) {
    case PlanEvent::Kind::kCrash: return "crash";
    case PlanEvent::Kind::kRestart: return "restart";
    case PlanEvent::Kind::kPartition: return "partition";
    case PlanEvent::Kind::kMessageChaos: return "message-chaos";
    case PlanEvent::Kind::kLatencySpike: return "latency-spike";
    case PlanEvent::Kind::kTierFault: return "tier-fault";
    case PlanEvent::Kind::kBitRot: return "bit-rot";
    case PlanEvent::Kind::kTornWrite: return "torn-write";
    case PlanEvent::Kind::kMsgCorrupt: return "msg-corrupt";
    case PlanEvent::Kind::kStutter: return "stutter";
    case PlanEvent::Kind::kFlakyLink: return "flaky-link";
    case PlanEvent::Kind::kSlowNode: return "slow-node";
    case PlanEvent::Kind::kDiurnalLoad: return "diurnal-load";
    case PlanEvent::Kind::kZipfShift: return "zipf-shift";
    case PlanEvent::Kind::kFlashCrowd: return "flash-crowd";
    case PlanEvent::Kind::kTenantMix: return "tenant-mix";
    case PlanEvent::Kind::kDrainRegion: return "drain-region";
    case PlanEvent::Kind::kAddRegion: return "add-region";
    case PlanEvent::Kind::kRollingRestart: return "rolling-restart";
  }
  return "?";
}

std::string PlanEvent::describe() const {
  std::string out = std::string(event_kind_name(kind)) + " node=" +
                    (node.empty() ? "*" : node) +
                    " at=" + std::to_string(at.us()) + "us";
  if (until > at) out += " until=" + std::to_string(until.us()) + "us";
  switch (kind) {
    case Kind::kPartition:
      out += " dir=" + std::string(partition_direction_name(direction));
      break;
    case Kind::kMessageChaos:
      out += " drop=" + std::to_string(drop_prob) +
             " dup=" + std::to_string(dup_prob) +
             " jitter=" + std::to_string(max_extra_delay.us()) + "us";
      break;
    case Kind::kLatencySpike:
      out += " extra=" + std::to_string(extra_delay.us()) + "us";
      break;
    case Kind::kTierFault:
      out += " tier=" + (tier_label.empty() ? "*" : tier_label) +
             " slowdown=" + std::to_string(slowdown) +
             (enospc ? " enospc" : "");
      break;
    case Kind::kBitRot:
      out += " key=" + object_key;
      break;
    case Kind::kMsgCorrupt:
      out += " corrupt=" + std::to_string(corrupt_prob);
      break;
    case Kind::kFlakyLink:
      out += " peer=" + peer_node + " drop=" + std::to_string(drop_prob) +
             " jitter=" + std::to_string(max_extra_delay.us()) + "us";
      break;
    case Kind::kSlowNode:
      out += " factor=" + std::to_string(slow_factor);
      break;
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

uint64_t PlanEvent::hash() const {
  // Each family numbers its kinds from 0, and scenario events start from a
  // distinct basis, so the two families never collide at equal payloads.
  const bool scenario = family() == Family::kScenario;
  const auto first = scenario ? Kind::kDiurnalLoad : Kind::kCrash;
  uint64_t h = scenario ? fnv1a64("scenario") : kFnv1aBasis;
  h = fnv1a64_u64(h, static_cast<uint64_t>(kind) -
                         static_cast<uint64_t>(first));
  h = fnv1a64_u64(h, static_cast<uint64_t>(at.us()));
  h = fnv1a64_u64(h, static_cast<uint64_t>(until.us()));
  h = fnv1a64(h, node.data(), node.size());
  if (scenario) {
    h = fold_scaled(h, amplitude);
    h = fnv1a64_u64(h, static_cast<uint64_t>(period.us()));
    h = fold_scaled(h, exponent);
    h = fnv1a64_u64(h, static_cast<uint64_t>(hot_lo));
    h = fnv1a64_u64(h, static_cast<uint64_t>(hot_hi));
    h = fold_scaled(h, boost);
    return fold_scaled(h, mix_fraction);
  }
  h = fnv1a64_u64(h, static_cast<uint64_t>(direction));
  h = fold_scaled(h, drop_prob);
  h = fold_scaled(h, dup_prob);
  h = fnv1a64_u64(h, static_cast<uint64_t>(max_extra_delay.us()));
  h = fnv1a64_u64(h, static_cast<uint64_t>(extra_delay.us()));
  h = fnv1a64(h, tier_label.data(), tier_label.size());
  h = fold_scaled(h, slowdown);
  h = fnv1a64_u64(h, enospc ? 1 : 0);
  h = fnv1a64(h, object_key.data(), object_key.size());
  h = fold_scaled(h, corrupt_prob);
  // Gray-failure fields fold only when set (folding "" is a no-op), so a
  // fault that leaves them unset hashes as recorded runs expect.
  h = fnv1a64(h, peer_node.data(), peer_node.size());
  if (slow_factor != 1.0) h = fold_scaled(h, slow_factor);
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

void LoadModel::apply(const PlanEvent& e) {
  switch (e.kind) {
    case PlanEvent::Kind::kDiurnalLoad:
      diurnal_.push_back({e.node, e.at, e.until, e.amplitude, e.period});
      break;
    case PlanEvent::Kind::kZipfShift:
      exponent_ = e.exponent;
      break;
    case PlanEvent::Kind::kFlashCrowd:
      crowds_.push_back({e.at, e.until, e.hot_lo, e.hot_hi, e.boost});
      break;
    case PlanEvent::Kind::kTenantMix:
      mix_ = e.mix_fraction;
      break;
    default:
      break;  // faults and operational events don't shape load
  }
}

PlanEvent& Plan::push(PlanEvent::Kind kind, std::string node, TimePoint at,
                      TimePoint until) {
  PlanEvent& e = events_.emplace_back();
  e.kind = kind;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  return e;
}

Plan& Plan::crash(std::string node, TimePoint at, TimePoint restart_at) {
  push(PlanEvent::Kind::kCrash, node, at, restart_at);
  push(PlanEvent::Kind::kRestart, std::move(node), restart_at, restart_at);
  return *this;
}

Plan& Plan::partition(std::string node, TimePoint at, TimePoint until,
                      PartitionDirection direction) {
  push(PlanEvent::Kind::kPartition, std::move(node), at, until).direction =
      direction;
  return *this;
}

Plan& Plan::message_chaos(std::string node, TimePoint at, TimePoint until,
                          double drop_prob, double dup_prob,
                          Duration max_extra_delay) {
  PlanEvent& e =
      push(PlanEvent::Kind::kMessageChaos, std::move(node), at, until);
  e.drop_prob = drop_prob;
  e.dup_prob = dup_prob;
  e.max_extra_delay = max_extra_delay;
  return *this;
}

Plan& Plan::latency_spike(std::string node, Duration extra, TimePoint at,
                          TimePoint until) {
  push(PlanEvent::Kind::kLatencySpike, std::move(node), at, until).extra_delay =
      extra;
  return *this;
}

Plan& Plan::tier_fault(std::string node, std::string tier_label,
                       double slowdown, bool enospc, TimePoint at,
                       TimePoint until) {
  PlanEvent& e = push(PlanEvent::Kind::kTierFault, std::move(node), at, until);
  e.tier_label = std::move(tier_label);
  e.slowdown = slowdown;
  e.enospc = enospc;
  return *this;
}

Plan& Plan::bit_rot(std::string node, std::string key, TimePoint at) {
  push(PlanEvent::Kind::kBitRot, std::move(node), at, at).object_key =
      std::move(key);
  return *this;
}

Plan& Plan::torn_write(std::string node, TimePoint at, TimePoint restart_at) {
  push(PlanEvent::Kind::kTornWrite, node, at, restart_at);
  push(PlanEvent::Kind::kRestart, std::move(node), restart_at, restart_at);
  return *this;
}

Plan& Plan::corrupting_chaos(std::string node, TimePoint at, TimePoint until,
                             double corrupt_prob) {
  push(PlanEvent::Kind::kMsgCorrupt, std::move(node), at, until).corrupt_prob =
      corrupt_prob;
  return *this;
}

Plan& Plan::stutter(std::string node, TimePoint at, TimePoint until) {
  push(PlanEvent::Kind::kStutter, std::move(node), at, until);
  return *this;
}

Plan& Plan::flaky_link(std::string node, std::string peer, TimePoint at,
                       TimePoint until, double drop_prob,
                       Duration max_extra_delay) {
  PlanEvent& e = push(PlanEvent::Kind::kFlakyLink, std::move(node), at, until);
  e.peer_node = std::move(peer);
  e.drop_prob = drop_prob;
  e.max_extra_delay = max_extra_delay;
  return *this;
}

Plan& Plan::slow_node(std::string node, double factor, TimePoint at,
                      TimePoint until) {
  push(PlanEvent::Kind::kSlowNode, std::move(node), at, until).slow_factor =
      factor;
  return *this;
}

Plan& Plan::diurnal(std::string region, TimePoint at, TimePoint until,
                    double amplitude, Duration period) {
  PlanEvent& e =
      push(PlanEvent::Kind::kDiurnalLoad, std::move(region), at, until);
  e.amplitude = amplitude;
  e.period = period;
  return *this;
}

Plan& Plan::zipf_shift(double exponent, TimePoint at) {
  push(PlanEvent::Kind::kZipfShift, "", at, at).exponent = exponent;
  return *this;
}

Plan& Plan::flash_crowd(int hot_lo, int hot_hi, double boost, TimePoint at,
                        TimePoint until) {
  PlanEvent& e = push(PlanEvent::Kind::kFlashCrowd, "", at, until);
  e.hot_lo = hot_lo;
  e.hot_hi = hot_hi;
  e.boost = boost;
  return *this;
}

Plan& Plan::tenant_mix(double fraction, TimePoint at) {
  push(PlanEvent::Kind::kTenantMix, "", at, at).mix_fraction = fraction;
  return *this;
}

Plan& Plan::drain_region(std::string node, TimePoint at, TimePoint deadline) {
  push(PlanEvent::Kind::kDrainRegion, std::move(node), at, deadline);
  return *this;
}

Plan& Plan::add_region(std::string node, TimePoint at) {
  push(PlanEvent::Kind::kAddRegion, std::move(node), at, at);
  return *this;
}

Plan& Plan::rolling_restart(TimePoint at) {
  push(PlanEvent::Kind::kRollingRestart, "", at, at);
  return *this;
}

Plan Plan::random(uint64_t seed, const RandomOptions& options) {
  Plan plan;
  if (options.nodes.empty()) return plan;
  Rng rng(seed);

  const auto pick_node = [&]() -> const std::string& {
    return options.nodes[static_cast<size_t>(rng.uniform_int(
        0, static_cast<int64_t>(options.nodes.size()) - 1))];
  };
  const auto pick_window = [&](TimePoint& at, TimePoint& until) {
    const int64_t span = options.latest.us() - options.earliest.us();
    at = options.earliest +
         usec(rng.uniform_int(0, std::max<int64_t>(span, 0)));
    until = at + usec(rng.uniform_int(options.min_window.us(),
                                      options.max_window.us()));
  };

  TimePoint at, until;
  for (int i = 0; i < options.crashes; ++i) {
    pick_window(at, until);
    plan.crash(pick_node(), at, until);
  }
  for (int i = 0; i < options.partitions; ++i) {
    pick_window(at, until);
    const int64_t dir = rng.uniform_int(0, 2);
    plan.partition(pick_node(), at, until,
                   static_cast<PartitionDirection>(dir));
  }
  for (int i = 0; i < options.chaos_windows; ++i) {
    pick_window(at, until);
    // Half the windows are node-scoped, half global.
    const std::string node = rng.bernoulli(0.5) ? pick_node() : std::string();
    plan.message_chaos(node, at, until, options.drop_prob, options.dup_prob,
                       options.max_extra_delay);
  }
  for (int i = 0; i < options.latency_spikes; ++i) {
    pick_window(at, until);
    plan.latency_spike(pick_node(),
                       usec(rng.uniform_int(options.max_spike.us() / 4,
                                            options.max_spike.us())),
                       at, until);
  }
  for (int i = 0; i < options.tier_faults; ++i) {
    pick_window(at, until);
    plan.tier_fault(pick_node(), /*tier_label=*/"", options.tier_slowdown,
                    options.tier_enospc, at, until);
  }
  // Integrity fault classes sample last: pre-existing seeds (all counts 0)
  // consume the identical RNG draw sequence and stay byte-identical.
  if (!options.keys.empty()) {
    for (int i = 0; i < options.bit_rots; ++i) {
      pick_window(at, until);
      const std::string& key = options.keys[static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(options.keys.size()) - 1))];
      plan.bit_rot(pick_node(), key, at);
    }
  }
  for (int i = 0; i < options.torn_writes; ++i) {
    pick_window(at, until);
    plan.torn_write(pick_node(), at, until);
  }
  for (int i = 0; i < options.corrupt_windows; ++i) {
    pick_window(at, until);
    const std::string node = rng.bernoulli(0.5) ? pick_node() : std::string();
    plan.corrupting_chaos(node, at, until, options.corrupt_prob);
  }
  // Gray-failure classes sample after the integrity classes for the same
  // reason those sample after the availability classes: all counts default
  // 0, so earlier seeds draw the identical RNG sequence.
  for (int i = 0; i < options.stutters; ++i) {
    pick_window(at, until);
    plan.stutter(pick_node(), at, until);
  }
  if (options.nodes.size() >= 2) {
    for (int i = 0; i < options.flaky_links; ++i) {
      pick_window(at, until);
      const auto a = static_cast<size_t>(rng.uniform_int(
          0, static_cast<int64_t>(options.nodes.size()) - 1));
      // Draw the peer from the remaining nodes so the link endpoints differ.
      auto b = static_cast<size_t>(rng.uniform_int(
          0, static_cast<int64_t>(options.nodes.size()) - 2));
      if (b >= a) ++b;
      plan.flaky_link(options.nodes[a], options.nodes[b], at, until,
                      options.flaky_drop_prob, options.flaky_extra_delay);
    }
  }
  for (int i = 0; i < options.slow_nodes; ++i) {
    pick_window(at, until);
    plan.slow_node(pick_node(), options.slow_factor, at, until);
  }
  return plan;
}

const std::vector<std::string>& Plan::builtin_names() {
  static const std::vector<std::string> names = {
      "diurnal",   "zipfshift",  "flashcrowd", "tenantmix", "evacuation",
      "addregion", "rolling",    "grayprimary", "graylink"};
  return names;
}

Result<Plan> Plan::builtin(const std::string& name, uint64_t seed,
                           const BuiltinOptions& options) {
  Plan plan;
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

std::pair<TimePoint, TimePoint> Plan::window() const {
  if (events_.empty()) return {TimePoint::origin(), TimePoint::origin()};
  TimePoint lo = TimePoint::max();
  TimePoint hi = TimePoint::origin();
  for (const PlanEvent& e : events_) {
    lo = std::min(lo, e.at);
    hi = std::max(hi, std::max(e.at, e.until));
  }
  return {lo, hi};
}

std::string Plan::describe() const {
  std::string out;
  for (const PlanEvent& e : events_) {
    if (!out.empty()) out += "\n";
    out += e.describe();
  }
  return out;
}

void Injector::arm(Plan plan) {
  std::vector<PlanEvent> events = plan.events();
  // Stable sort: events at the same instant apply in insertion order.
  std::stable_sort(
      events.begin(), events.end(),
      [](const PlanEvent& a, const PlanEvent& b) { return a.at < b.at; });
  sim_->spawn(drive(std::move(events)), "events.driver");
}

Task<void> Injector::drive(std::vector<PlanEvent> events) {
  for (const PlanEvent& e : events) {
    if (e.at > sim_->now()) co_await sim_->at(e.at);
    apply(e);
  }
}

void Injector::apply(const PlanEvent& e) {
  // Every applied event perturbs the determinism trace: two runs only hash
  // equal if they applied the identical schedule.
  sim_->checker().fold_trace(e.hash());
  WLOG_INFO("events") << "applying " << e.describe();
  timeline_.push_back(e);
  if (e.is_load_shape()) {
    load_.apply(e);
  } else {
    surface_->apply(e);
  }
}

int64_t Injector::events_applied(PlanEvent::Family family) const {
  return std::count_if(
      timeline_.begin(), timeline_.end(),
      [family](const PlanEvent& e) { return e.family() == family; });
}

std::string Injector::render_timeline() const {
  std::string out = "timeline (" + std::to_string(timeline_.size()) +
                    " events):";
  for (const PlanEvent& e : timeline_) out += "\n  " + e.describe();
  return out;
}

}  // namespace wiera::sim
