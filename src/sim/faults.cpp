#include "sim/faults.h"

#include <algorithm>

#include "common/bytes.h"
#include "common/logging.h"

namespace wiera::sim {

namespace {

const char* kind_name(FaultEvent::Kind k) {
  switch (k) {
    case FaultEvent::Kind::kCrash: return "crash";
    case FaultEvent::Kind::kRestart: return "restart";
    case FaultEvent::Kind::kPartition: return "partition";
    case FaultEvent::Kind::kMessageChaos: return "message-chaos";
    case FaultEvent::Kind::kLatencySpike: return "latency-spike";
    case FaultEvent::Kind::kTierFault: return "tier-fault";
    case FaultEvent::Kind::kBitRot: return "bit-rot";
    case FaultEvent::Kind::kTornWrite: return "torn-write";
    case FaultEvent::Kind::kMsgCorrupt: return "msg-corrupt";
    case FaultEvent::Kind::kStutter: return "stutter";
    case FaultEvent::Kind::kFlakyLink: return "flaky-link";
    case FaultEvent::Kind::kSlowNode: return "slow-node";
  }
  return "?";
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

std::string FaultEvent::describe() const {
  std::string out = std::string(kind_name(kind)) + " node=" +
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
    default:
      break;
  }
  return out;
}

uint64_t FaultEvent::hash() const {
  uint64_t h = kFnv1aBasis;
  h = fnv1a64_u64(h, static_cast<uint64_t>(kind));
  h = fnv1a64_u64(h, static_cast<uint64_t>(at.us()));
  h = fnv1a64_u64(h, static_cast<uint64_t>(until.us()));
  h = fnv1a64(h, node.data(), node.size());
  h = fnv1a64_u64(h, static_cast<uint64_t>(direction));
  h = fnv1a64_u64(h, static_cast<uint64_t>(drop_prob * 1e6));
  h = fnv1a64_u64(h, static_cast<uint64_t>(dup_prob * 1e6));
  h = fnv1a64_u64(h, static_cast<uint64_t>(max_extra_delay.us()));
  h = fnv1a64_u64(h, static_cast<uint64_t>(extra_delay.us()));
  h = fnv1a64(h, tier_label.data(), tier_label.size());
  h = fnv1a64_u64(h, static_cast<uint64_t>(slowdown * 1e6));
  h = fnv1a64_u64(h, enospc ? 1 : 0);
  h = fnv1a64(h, object_key.data(), object_key.size());
  h = fnv1a64_u64(h, static_cast<uint64_t>(corrupt_prob * 1e6));
  // Gray-failure fields fold only when set: folding "" is a no-op
  // already, and slow_factor folds conditionally so every pre-existing
  // event (slow_factor == 1.0) keeps its exact historical hash.
  h = fnv1a64(h, peer_node.data(), peer_node.size());
  if (slow_factor != 1.0) {
    h = fnv1a64_u64(h, static_cast<uint64_t>(slow_factor * 1e6));
  }
  return h;
}

FaultPlan& FaultPlan::crash(std::string node, TimePoint at,
                            TimePoint restart_at) {
  FaultEvent down;
  down.kind = FaultEvent::Kind::kCrash;
  down.node = node;
  down.at = at;
  down.until = restart_at;
  events_.push_back(down);

  FaultEvent up;
  up.kind = FaultEvent::Kind::kRestart;
  up.node = std::move(node);
  up.at = restart_at;
  up.until = restart_at;
  events_.push_back(std::move(up));
  return *this;
}

FaultPlan& FaultPlan::partition(std::string node, TimePoint at, TimePoint until,
                                PartitionDirection direction) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kPartition;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  e.direction = direction;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::message_chaos(std::string node, TimePoint at,
                                    TimePoint until, double drop_prob,
                                    double dup_prob,
                                    Duration max_extra_delay) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kMessageChaos;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  e.drop_prob = drop_prob;
  e.dup_prob = dup_prob;
  e.max_extra_delay = max_extra_delay;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::latency_spike(std::string node, Duration extra,
                                    TimePoint at, TimePoint until) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kLatencySpike;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  e.extra_delay = extra;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::tier_fault(std::string node, std::string tier_label,
                                 double slowdown, bool enospc, TimePoint at,
                                 TimePoint until) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kTierFault;
  e.node = std::move(node);
  e.tier_label = std::move(tier_label);
  e.at = at;
  e.until = until;
  e.slowdown = slowdown;
  e.enospc = enospc;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::bit_rot(std::string node, std::string key,
                              TimePoint at) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kBitRot;
  e.node = std::move(node);
  e.object_key = std::move(key);
  e.at = at;
  e.until = at;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::torn_write(std::string node, TimePoint at,
                                 TimePoint restart_at) {
  FaultEvent down;
  down.kind = FaultEvent::Kind::kTornWrite;
  down.node = node;
  down.at = at;
  down.until = restart_at;
  events_.push_back(down);

  FaultEvent up;
  up.kind = FaultEvent::Kind::kRestart;
  up.node = std::move(node);
  up.at = restart_at;
  up.until = restart_at;
  events_.push_back(std::move(up));
  return *this;
}

FaultPlan& FaultPlan::corrupting_chaos(std::string node, TimePoint at,
                                       TimePoint until, double corrupt_prob) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kMsgCorrupt;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  e.corrupt_prob = corrupt_prob;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::stutter(std::string node, TimePoint at, TimePoint until) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kStutter;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::flaky_link(std::string node, std::string peer,
                                 TimePoint at, TimePoint until,
                                 double drop_prob, Duration max_extra_delay) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kFlakyLink;
  e.node = std::move(node);
  e.peer_node = std::move(peer);
  e.at = at;
  e.until = until;
  e.drop_prob = drop_prob;
  e.max_extra_delay = max_extra_delay;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::slow_node(std::string node, double factor, TimePoint at,
                                TimePoint until) {
  FaultEvent e;
  e.kind = FaultEvent::Kind::kSlowNode;
  e.node = std::move(node);
  e.at = at;
  e.until = until;
  e.slow_factor = factor;
  events_.push_back(std::move(e));
  return *this;
}

FaultPlan& FaultPlan::add(FaultEvent event) {
  events_.push_back(std::move(event));
  return *this;
}

FaultPlan FaultPlan::random(uint64_t seed, const RandomOptions& options) {
  FaultPlan plan;
  if (options.nodes.empty()) return plan;
  Rng rng(seed);

  const auto pick_node = [&]() -> const std::string& {
    return options.nodes[static_cast<size_t>(rng.uniform_int(
        0, static_cast<int64_t>(options.nodes.size()) - 1))];
  };
  const auto pick_window = [&](TimePoint& at, TimePoint& until) {
    const int64_t span = options.latest.us() - options.earliest.us();
    at = options.earliest + usec(rng.uniform_int(0, std::max<int64_t>(span, 0)));
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

std::string FaultPlan::describe() const {
  std::string out;
  for (const auto& e : events_) {
    if (!out.empty()) out += "\n";
    out += e.describe();
  }
  return out;
}

std::string FaultInjector::render_timeline() const {
  std::string out;
  for (const FaultEvent& e : timeline_) {
    out += "  " + std::to_string(e.at.us()) + "us " + e.describe() + "\n";
  }
  return out;
}

void FaultInjector::arm(FaultPlan plan) {
  std::vector<FaultEvent> events = plan.events();
  // Stable sort: events at the same instant apply in insertion order.
  std::stable_sort(events.begin(), events.end(),
                   [](const FaultEvent& a, const FaultEvent& b) {
                     return a.at < b.at;
                   });
  sim_->spawn(drive(std::move(events)), "chaos.fault-driver");
}

Task<void> FaultInjector::drive(std::vector<FaultEvent> events) {
  for (const FaultEvent& e : events) {
    if (e.at > sim_->now()) co_await sim_->at(e.at);
    apply(e);
  }
}

void FaultInjector::apply(const FaultEvent& e) {
  // Every applied fault perturbs the determinism trace: two runs only hash
  // equal if they applied the identical fault schedule.
  sim_->checker().fold_trace(e.hash());
  WLOG_INFO("chaos") << "applying fault: " << e.describe();
  events_applied_++;
  timeline_.push_back(e);
  switch (e.kind) {
    case FaultEvent::Kind::kCrash: surface_->on_node_crash(e); break;
    case FaultEvent::Kind::kRestart: surface_->on_node_restart(e); break;
    case FaultEvent::Kind::kPartition: surface_->on_partition(e); break;
    case FaultEvent::Kind::kMessageChaos: surface_->on_message_chaos(e); break;
    case FaultEvent::Kind::kLatencySpike: surface_->on_latency_spike(e); break;
    case FaultEvent::Kind::kTierFault: surface_->on_tier_fault(e); break;
    case FaultEvent::Kind::kBitRot: surface_->on_bit_rot(e); break;
    case FaultEvent::Kind::kTornWrite: surface_->on_torn_write(e); break;
    case FaultEvent::Kind::kMsgCorrupt: surface_->on_message_corrupt(e); break;
    case FaultEvent::Kind::kStutter: surface_->on_stutter(e); break;
    case FaultEvent::Kind::kFlakyLink: surface_->on_flaky_link(e); break;
    case FaultEvent::Kind::kSlowNode: surface_->on_slow_node(e); break;
  }
}

}  // namespace wiera::sim
