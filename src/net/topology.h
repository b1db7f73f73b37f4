// WAN topology model: datacenters, nodes (VMs), latency matrix, bandwidth
// throttles, and fault injection.
//
// This is the stand-in for the live AWS + Azure deployment of the paper.
// Latency between two nodes =
//     one-way base (RTT/2 for their DC pair, with multiplicative jitter)
//   + serialization time (bytes / min(sender egress, receiver ingress))
//   + any injected extra delay active on either node or the path.
// Outages make transfers fail with kUnavailable after a timeout.
#pragma once

#include <cassert>
#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"

namespace wiera::net {

// Cloud provider of a datacenter — pricing and throttle defaults differ.
enum class Provider { kAws, kAzure, kPrivate };

std::string_view provider_name(Provider p);

// VM instance type: determines network throughput. Azure throttles network
// by VM size (the effect behind Fig. 11/12); AWS t2.micro gets a modest cap.
// The NIC is a *shared* resource: concurrent transfers through one node
// serialize (see Network::transfer), so these caps bound aggregate
// throughput, not just per-message latency.
struct VmType {
  std::string name;
  double net_mbps;  // usable network throughput, megabytes/s

  // The instance types used in the paper's §5.4 experiments. The MBps
  // values are calibrated so the Fig. 11 IOPS ratios match (see DESIGN.md §5):
  // with 16 KiB blocks, remote-memory IOPS ~= net_mbps / 16KiB.
  static VmType t2_micro() { return {"t2.micro", 30.0}; }
  static VmType basic_a2() { return {"Basic A2", 5.7}; }
  static VmType standard_d1() { return {"Standard D1", 7.9}; }
  static VmType standard_d2() { return {"Standard D2", 11.8}; }
  static VmType standard_d3() { return {"Standard D3", 12.2}; }
};

// Dense handles for the request path: a datacenter's or node's position in
// the order it was first added. Re-adding a name keeps its id.
using DcId = uint32_t;
using NodeId = uint32_t;

struct Datacenter {
  std::string name;    // e.g. "aws-us-east"
  Provider provider;
  std::string region;  // e.g. "us-east"
};

struct Node {
  std::string name;  // e.g. "tiera-us-west"
  std::string datacenter;
  VmType vm;
  DcId dc = 0;  // the id of `datacenter`
};

// Static description of the world + dynamic fault state.
class Topology {
 public:
  Topology();

  // ---- construction ----
  void add_datacenter(const std::string& name, Provider provider,
                      const std::string& region);
  // RTT between two datacenters (symmetric). Same-DC RTT defaults to 0.5 ms.
  void set_rtt(const std::string& dc_a, const std::string& dc_b, Duration rtt);
  void add_node(const std::string& name, const std::string& datacenter,
                VmType vm = VmType::t2_micro());

  // Multiplicative jitter stddev applied to each one-way latency sample
  // (default 5%).
  void set_jitter_fraction(double f) { jitter_fraction_ = f; }

  // ---- queries ----
  bool has_node(const std::string& name) const;
  // The id of a node added earlier.
  NodeId node_id(const std::string& name) const;
  const Node& node(NodeId id) const { return nodes_[id]; }
  const Node& node(const std::string& name) const {
    return nodes_[node_id(name)];
  }
  size_t node_count() const { return nodes_.size(); }
  // The id of a datacenter added earlier.
  DcId datacenter_id(const std::string& name) const;
  const Datacenter& datacenter(DcId id) const { return datacenters_[id]; }
  size_t datacenter_count() const { return datacenters_.size(); }
  const Datacenter& datacenter_of(const std::string& node_name) const;
  // In name order.
  std::vector<std::string> node_names() const;

  Duration base_rtt(DcId a, DcId b) const {
    const Duration rtt = rtt_[a * datacenters_.size() + b];
    assert(rtt >= Duration::zero() &&
           "no RTT configured for datacenter pair");
    return rtt;
  }
  Duration base_rtt(const std::string& dc_a, const std::string& dc_b) const {
    return base_rtt(datacenter_id(dc_a), datacenter_id(dc_b));
  }
  // Base one-way latency between two *nodes* (no jitter/faults applied).
  Duration base_one_way(NodeId a, NodeId b) const {
    return base_rtt(nodes_[a].dc, nodes_[b].dc) / 2;
  }
  Duration base_one_way(const std::string& node_a,
                        const std::string& node_b) const {
    return base_one_way(node_id(node_a), node_id(node_b));
  }

  // One sampled one-way propagation latency for a message between nodes,
  // including jitter and active injected delays. Serialization through the
  // NICs is Network::reserve_nic's.
  Duration sample_latency(NodeId from, NodeId to, TimePoint now,
                          Rng& rng) const;

  // ---- fault injection ----
  // Add `extra` to every message touching `node_name` during [from, until).
  void inject_node_delay(const std::string& node_name, Duration extra,
                         TimePoint from, TimePoint until);
  // Gray failures (docs/HEALTH.md):
  // Stutter/freeze window: a message touching the node during [from, until)
  // is stalled until the window ends (extra = until - now), so the node
  // loses no state but everything it queued completes late.
  void inject_freeze(const std::string& node_name, TimePoint from,
                     TimePoint until);
  // Slow-node window: multiply the sampled latency of every message
  // touching the node by `factor` during [from, until).
  void inject_node_slow(const std::string& node_name, double factor,
                        TimePoint from, TimePoint until);
  // Node outage window: transfers fail with kUnavailable.
  void inject_outage(const std::string& node_name, TimePoint from,
                     TimePoint until);
  bool node_down(const std::string& node_name, TimePoint now) const;
  // True if the node was inside an outage window at any instant of
  // [from, until] — a message in flight across a reboot is lost even if the
  // node is back up when the last byte would arrive.
  bool node_down_during(const std::string& node_name, TimePoint from,
                        TimePoint until) const;
  // Network partition: messages from `src` to `dst` are lost during
  // [from, until). Bidirectional installs both directions; one direction
  // only models an asymmetric partition (src can hear dst but not reach it).
  void inject_partition(const std::string& src, const std::string& dst,
                        TimePoint from, TimePoint until,
                        bool bidirectional = true);
  bool partitioned(const std::string& from, const std::string& to,
                   TimePoint now) const;
  void clear_faults();

  // A standard 4-region AWS topology matching the paper's deployment
  // (US East, US West, EU West, Asia East) plus calibrated RTTs.
  static Topology paper_default();

 private:
  struct DelayWindow {
    std::string node;
    Duration extra;
    TimePoint from;
    TimePoint until;
  };
  struct OutageWindow {
    std::string node;
    TimePoint from;
    TimePoint until;
  };
  struct PartitionWindow {
    std::string src;  // direction src -> dst is cut
    std::string dst;
    TimePoint from;
    TimePoint until;
  };
  struct FreezeWindow {
    std::string node;
    TimePoint from;
    TimePoint until;
  };
  struct SlowWindow {
    std::string node;
    double factor;
    TimePoint from;
    TimePoint until;
  };

  Duration injected_extra(const std::string& node_name, TimePoint now) const;
  double slow_multiplier(const std::string& node_name, TimePoint now) const;

  // Indexed by id; the maps resolve names.
  std::vector<Datacenter> datacenters_;
  std::map<std::string, DcId> dc_ids_;
  std::vector<Node> nodes_;
  std::map<std::string, NodeId> node_ids_;
  // Round-trip times, a datacenter_count()-square matrix by id: the
  // same-DC default on the diagonal, kNoRtt where no pair was set.
  std::vector<Duration> rtt_;
  double jitter_fraction_ = 0.05;
  std::vector<DelayWindow> delays_;
  std::vector<OutageWindow> outages_;
  std::vector<PartitionWindow> partitions_;
  std::vector<FreezeWindow> freezes_;
  std::vector<SlowWindow> slows_;
};

// Calibrated inter-region RTTs (see DESIGN.md §5).
namespace calibration {
inline constexpr int64_t kSameDcRttUs = 500;          // 0.5 ms
inline constexpr int64_t kAwsAzureUsEastRttUs = 2000; // 2 ms (paper §5.4.1)

struct RegionPairRtt {
  const char* a;
  const char* b;
  int64_t rtt_us;
};

// 2016-era inter-region RTTs consistent with the paper's latency numbers.
inline constexpr RegionPairRtt kRegionRtts[] = {
    {"us-east", "us-west", 70000},
    {"us-east", "eu-west", 80000},
    {"us-east", "asia-east", 170000},
    {"us-west", "eu-west", 140000},
    {"us-west", "asia-east", 110000},
    {"eu-west", "asia-east", 240000},
};
}  // namespace calibration

}  // namespace wiera::net
