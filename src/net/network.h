// Simulated message transport over the Topology.
//
// transfer() models a one-way message: it completes after the sampled
// latency (propagation + serialization + injected delay) or fails with
// kUnavailable when an endpoint is inside an outage window. Traffic volume
// is accounted per datacenter pair so the cost model can bill egress.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "net/topology.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace wiera::net {

// Byte counters used by cost accounting. "Egress" in cloud billing terms:
// traffic leaving a DC (cross-DC or to the Internet) is charged; intra-DC
// traffic is free (Table 4).
struct TrafficStats {
  int64_t total_messages = 0;
  int64_t total_bytes = 0;
  // bytes sent from dc -> dc (ordered pair)
  std::map<std::pair<std::string, std::string>, int64_t> dc_pair_bytes;

  int64_t cross_dc_bytes() const {
    int64_t sum = 0;
    for (const auto& [pair, bytes] : dc_pair_bytes) {
      if (pair.first != pair.second) sum += bytes;
    }
    return sum;
  }
  int64_t egress_bytes_from(const std::string& dc) const {
    int64_t sum = 0;
    for (const auto& [pair, bytes] : dc_pair_bytes) {
      if (pair.first == dc && pair.second != dc) sum += bytes;
    }
    return sum;
  }
};

// A window of probabilistic message chaos (drop / duplicate / extra random
// delay). `node` scopes the window to messages touching that node; empty
// applies to every message. Sampling uses the simulation RNG, so a chaos
// run is fully reproducible from the seed.
struct ChaosWindow {
  std::string node;  // empty = all messages
  // Flaky-link scope (docs/HEALTH.md): when node_b is also set, the window
  // applies only to messages between node and node_b (either direction).
  std::string node_b;
  TimePoint from;
  TimePoint until;
  double drop_prob = 0.0;       // message silently lost in transit
  double dup_prob = 0.0;        // request delivered twice (see rpc::Endpoint)
  Duration max_extra_delay = Duration::zero();  // uniform [0, max] per message
  double corrupt_prob = 0.0;    // payload byte flipped in transit (rpc layer)
};

// Counters for chaos effects actually applied (tests assert the fault plan
// really exercised the code path it meant to).
struct ChaosStats {
  int64_t dropped = 0;
  int64_t duplicated = 0;
  int64_t delayed = 0;
  int64_t corrupted = 0;
};

class Network {
 public:
  // How long a sender waits before concluding a down node is unreachable.
  static constexpr Duration kUnreachableDelay = msec(500);

  Network(sim::Simulation& sim, Topology topology)
      : sim_(&sim), topology_(std::move(topology)) {}

  sim::Simulation& sim() { return *sim_; }
  Topology& topology() { return topology_; }
  const Topology& topology() const { return topology_; }
  // The counters so far, with a dc_pair_bytes entry for every datacenter
  // pair that carried a message (0-byte messages included).
  TrafficStats traffic() const;
  void reset_traffic();

  // ---- chaos injection ----
  void inject_chaos(ChaosWindow window) {
    chaos_windows_.push_back(std::move(window));
  }
  void clear_chaos() { chaos_windows_.clear(); }
  const ChaosStats& chaos_stats() const { return chaos_stats_; }

  // Sample whether the *request leg* of an RPC should be delivered twice.
  // Called by rpc::Endpoint after a successful request transfer; consumes
  // randomness and bumps stats, hence non-const.
  bool chaos_duplicate(const std::string& from, const std::string& to);

  // Sample whether a delivered message body should arrive with a flipped
  // byte (checksum-corrupting chaos). Called by rpc::Endpoint on each leg
  // after a successful transfer; consumes randomness and bumps stats.
  bool chaos_corrupt(const std::string& from, const std::string& to);

  // Deliver `bytes` from node `from` to node `to`; resolves when the last
  // byte arrives. Fails if either endpoint is down. NIC capacity is shared:
  // concurrent transfers touching the same node queue behind each other for
  // their serialization time (bytes / slower endpoint's throughput), which
  // is what makes a VM's network throttle bound aggregate IOPS (Fig. 11).
  //
  // With a deadline, the unreachable-timeout waits (down node, partition,
  // dropped message) are capped at the time remaining before it, so a
  // sender learns about unreachability no later than its deadline instead
  // of always paying the full kUnreachableDelay. TimePoint::max() = none.
  sim::Task<Status> transfer(NodeId from, NodeId to, int64_t bytes,
                             TimePoint deadline = TimePoint::max());
  // The same transfer between nodes named in the topology.
  sim::Task<Status> transfer(const std::string& from, const std::string& to,
                             int64_t bytes,
                             TimePoint deadline = TimePoint::max()) {
    return transfer(topology_.node_id(from), topology_.node_id(to), bytes,
                    deadline);
  }

 private:
  // The capped wait a sender pays before concluding unreachability.
  Duration unreachable_wait(TimePoint deadline) const;
  // Why a message leaving now from `from` for `to` is lost (a down node, a
  // partition, a chaos drop); OK when it flies.
  Status departure(NodeId from, NodeId to);
  // Reserve NIC time on both endpoints; returns when the transfer may end.
  TimePoint reserve_nic(NodeId from, NodeId to, int64_t bytes);
  // Count a delivered message on its datacenter pair.
  void count_traffic(NodeId from, NodeId to, int64_t bytes);

  bool chaos_drop(const std::string& from, const std::string& to);
  Duration chaos_extra_delay(const std::string& from, const std::string& to);
  // Active windows matching a message from->to at `now`.
  template <typename Fn>
  void for_each_chaos(const std::string& from, const std::string& to,
                      Fn&& fn) const {
    const TimePoint now = sim_->now();
    for (const auto& w : chaos_windows_) {
      if (now < w.from || now >= w.until) continue;
      if (!w.node_b.empty()) {
        // Pair-scoped (flaky link): only messages between the two endpoints.
        const bool pair = (w.node == from && w.node_b == to) ||
                          (w.node == to && w.node_b == from);
        if (!pair) continue;
      } else if (!w.node.empty() && w.node != from && w.node != to) {
        continue;
      }
      fn(w);
    }
  }

  sim::Simulation* sim_;
  Topology topology_;
  int64_t total_messages_ = 0;
  int64_t total_bytes_ = 0;
  // Bytes sent from one datacenter to another, by source then destination
  // id; kNoTraffic where no message has passed. Rows grow on first use.
  std::vector<std::vector<int64_t>> dc_pair_bytes_;
  ChaosStats chaos_stats_;
  std::vector<ChaosWindow> chaos_windows_;
  std::vector<TimePoint> nic_free_;  // next free time, by node id
};

}  // namespace wiera::net
