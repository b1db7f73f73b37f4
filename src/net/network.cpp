#include "net/network.h"

#include <algorithm>

namespace wiera::net {

TimePoint Network::reserve_nic(const std::string& from,
                               const std::string& to, int64_t bytes) {
  if (bytes <= 0) return sim_->now();
  const double mbps = std::min(topology_.node(from).vm.net_mbps,
                               topology_.node(to).vm.net_mbps);
  const Duration ser = sec(static_cast<double>(bytes) / (mbps * 1e6));
  TimePoint start = sim_->now();
  auto from_it = nic_free_.find(from);
  if (from_it != nic_free_.end()) start = std::max(start, from_it->second);
  auto to_it = nic_free_.find(to);
  if (to_it != nic_free_.end()) start = std::max(start, to_it->second);
  const TimePoint end = start + ser;
  nic_free_[from] = end;
  nic_free_[to] = end;
  return end;
}

bool Network::chaos_drop(const std::string& from, const std::string& to) {
  bool drop = false;
  for_each_chaos(from, to, [&](const ChaosWindow& w) {
    if (w.drop_prob > 0 && sim_->rng().bernoulli(w.drop_prob)) drop = true;
  });
  if (drop) chaos_stats_.dropped++;
  return drop;
}

bool Network::chaos_duplicate(const std::string& from, const std::string& to) {
  bool dup = false;
  for_each_chaos(from, to, [&](const ChaosWindow& w) {
    if (w.dup_prob > 0 && sim_->rng().bernoulli(w.dup_prob)) dup = true;
  });
  if (dup) chaos_stats_.duplicated++;
  return dup;
}

bool Network::chaos_corrupt(const std::string& from, const std::string& to) {
  bool corrupt = false;
  for_each_chaos(from, to, [&](const ChaosWindow& w) {
    if (w.corrupt_prob > 0 && sim_->rng().bernoulli(w.corrupt_prob)) {
      corrupt = true;
    }
  });
  if (corrupt) chaos_stats_.corrupted++;
  return corrupt;
}

Duration Network::chaos_extra_delay(const std::string& from,
                                    const std::string& to) {
  Duration extra = Duration::zero();
  for_each_chaos(from, to, [&](const ChaosWindow& w) {
    if (w.max_extra_delay > Duration::zero()) {
      extra += usec(sim_->rng().uniform_int(0, w.max_extra_delay.us()));
    }
  });
  if (extra > Duration::zero()) chaos_stats_.delayed++;
  return extra;
}

sim::Task<Status> Network::transfer(std::string from, std::string to,
                                    int64_t bytes) {
  co_return co_await transfer(std::move(from), std::move(to), bytes,
                              TimePoint::max());
}

Duration Network::unreachable_wait(TimePoint deadline) const {
  if (deadline == TimePoint::max()) return kUnreachableDelay;
  const Duration remaining =
      deadline > sim_->now() ? deadline - sim_->now() : Duration::zero();
  return std::min(kUnreachableDelay, remaining);
}

sim::Task<Status> Network::transfer(std::string from, std::string to,
                                    int64_t bytes, TimePoint deadline) {
  const TimePoint departed = sim_->now();
  if (topology_.node_down(from, departed) ||
      topology_.node_down(to, departed)) {
    co_await sim_->delay(unreachable_wait(deadline));
    co_return unavailable("node unreachable: " + to);
  }
  if (topology_.partitioned(from, to, departed)) {
    // Packets into a partition vanish; the sender only learns via timeout.
    co_await sim_->delay(unreachable_wait(deadline));
    co_return unavailable("partitioned: " + from + " -> " + to);
  }
  if (chaos_drop(from, to)) {
    co_await sim_->delay(unreachable_wait(deadline));
    co_return unavailable("message dropped: " + from + " -> " + to);
  }

  // Serialization through the shared NICs, then propagation. Chaos extra
  // delay is per-message and random, so overlapping messages on one path
  // can arrive out of order (reordering fault).
  const TimePoint tx_done = reserve_nic(from, to, bytes);
  const Duration propagation =
      topology_.sample_latency(from, to, sim_->now(), sim_->rng()) +
      chaos_extra_delay(from, to);
  co_await sim_->at(tx_done);
  co_await sim_->delay(propagation);

  // The destination must have been continuously up for the whole flight: a
  // crash-and-reboot strictly inside the flight window also kills the
  // message (connections do not survive a reboot). A partition that closed
  // while the message was in flight swallows it too.
  if (topology_.node_down_during(to, departed, sim_->now())) {
    co_return unavailable("node went down mid-transfer: " + to);
  }
  if (topology_.partitioned(from, to, sim_->now())) {
    co_return unavailable("partitioned mid-transfer: " + from + " -> " + to);
  }

  traffic_.total_messages++;
  traffic_.total_bytes += bytes;
  const std::string& src_dc = topology_.node(from).datacenter;
  const std::string& dst_dc = topology_.node(to).datacenter;
  traffic_.dc_pair_bytes[{src_dc, dst_dc}] += bytes;
  co_return ok_status();
}

}  // namespace wiera::net
