#include "net/network.h"

#include <algorithm>
#include <limits>

namespace wiera::net {

namespace {
// A dc_pair_bytes_ cell no message has passed through.
constexpr int64_t kNoTraffic = std::numeric_limits<int64_t>::min();
}  // namespace

TrafficStats Network::traffic() const {
  TrafficStats out;
  out.total_messages = total_messages_;
  out.total_bytes = total_bytes_;
  for (size_t src = 0; src < dc_pair_bytes_.size(); ++src) {
    for (size_t dst = 0; dst < dc_pair_bytes_[src].size(); ++dst) {
      const int64_t bytes = dc_pair_bytes_[src][dst];
      if (bytes == kNoTraffic) continue;
      const std::string& src_dc =
          topology_.datacenter(static_cast<DcId>(src)).name;
      const std::string& dst_dc =
          topology_.datacenter(static_cast<DcId>(dst)).name;
      out.dc_pair_bytes[{src_dc, dst_dc}] = bytes;
    }
  }
  return out;
}

void Network::reset_traffic() {
  total_messages_ = 0;
  total_bytes_ = 0;
  dc_pair_bytes_.clear();
}

void Network::count_traffic(NodeId from, NodeId to, int64_t bytes) {
  total_messages_++;
  total_bytes_ += bytes;
  const DcId src = topology_.node(from).dc;
  const DcId dst = topology_.node(to).dc;
  if (src >= dc_pair_bytes_.size()) dc_pair_bytes_.resize(src + 1);
  std::vector<int64_t>& row = dc_pair_bytes_[src];
  if (dst >= row.size()) row.resize(dst + 1, kNoTraffic);
  row[dst] = (row[dst] == kNoTraffic ? 0 : row[dst]) + bytes;
}

TimePoint Network::reserve_nic(NodeId from, NodeId to, int64_t bytes) {
  if (bytes <= 0) return sim_->now();
  const double mbps = std::min(topology_.node(from).vm.net_mbps,
                               topology_.node(to).vm.net_mbps);
  const Duration ser = sec(static_cast<double>(bytes) / (mbps * 1e6));
  if (std::max(from, to) >= nic_free_.size()) {
    nic_free_.resize(topology_.node_count(), TimePoint::origin());
  }
  const TimePoint start =
      std::max({sim_->now(), nic_free_[from], nic_free_[to]});
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

Duration Network::unreachable_wait(TimePoint deadline) const {
  if (deadline == TimePoint::max()) return kUnreachableDelay;
  const Duration remaining =
      deadline > sim_->now() ? deadline - sim_->now() : Duration::zero();
  return std::min(kUnreachableDelay, remaining);
}

Status Network::departure(NodeId from, NodeId to) {
  const std::string& from_name = topology_.node(from).name;
  const std::string& to_name = topology_.node(to).name;
  const TimePoint now = sim_->now();
  if (topology_.node_down(from_name, now) ||
      topology_.node_down(to_name, now)) {
    return unavailable("node unreachable: " + to_name);
  }
  if (topology_.partitioned(from_name, to_name, now)) {
    // Packets into a partition vanish; the sender only learns via timeout.
    return unavailable("partitioned: " + from_name + " -> " + to_name);
  }
  if (chaos_drop(from_name, to_name)) {
    return unavailable("message dropped: " + from_name + " -> " + to_name);
  }
  return ok_status();
}

sim::Task<Status> Network::transfer(NodeId from, NodeId to, int64_t bytes,
                                    TimePoint deadline) {
  const TimePoint departed = sim_->now();
  Status lost = departure(from, to);
  if (!lost.ok()) {
    co_await sim_->delay(unreachable_wait(deadline));
    co_return lost;
  }

  // Serialization through the shared NICs, then propagation. Chaos extra
  // delay is per-message and random, so overlapping messages on one path
  // can arrive out of order (reordering fault).
  const TimePoint tx_done = reserve_nic(from, to, bytes);
  Duration propagation =
      topology_.sample_latency(from, to, sim_->now(), sim_->rng());
  propagation += chaos_extra_delay(topology_.node(from).name,
                                   topology_.node(to).name);
  co_await sim_->at(tx_done);
  co_await sim_->delay(propagation);

  // The destination must have been continuously up for the whole flight: a
  // crash-and-reboot strictly inside the flight window also kills the
  // message (connections do not survive a reboot). A partition that closed
  // while the message was in flight swallows it too. Node references are
  // taken only now: adding a node while this transfer waited may have
  // moved the topology's node table.
  const std::string& from_name = topology_.node(from).name;
  const std::string& to_name = topology_.node(to).name;
  if (topology_.node_down_during(to_name, departed, sim_->now())) {
    co_return unavailable("node went down mid-transfer: " + to_name);
  }
  if (topology_.partitioned(from_name, to_name, sim_->now())) {
    co_return unavailable("partitioned mid-transfer: " + from_name + " -> " +
                          to_name);
  }

  count_traffic(from, to, bytes);
  co_return ok_status();
}

}  // namespace wiera::net
