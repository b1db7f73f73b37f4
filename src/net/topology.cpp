#include "net/topology.h"

#include <algorithm>
#include <cassert>

namespace wiera::net {

std::string_view provider_name(Provider p) {
  switch (p) {
    case Provider::kAws: return "aws";
    case Provider::kAzure: return "azure";
    case Provider::kPrivate: return "private";
  }
  return "?";
}

namespace {
// An RTT matrix cell no set_rtt has written.
constexpr Duration kNoRtt = usec(-1);
}  // namespace

Topology::Topology() = default;

void Topology::add_datacenter(const std::string& name, Provider provider,
                              const std::string& region) {
  const auto [it, added] =
      dc_ids_.try_emplace(name, static_cast<DcId>(datacenters_.size()));
  if (!added) {
    datacenters_[it->second] = Datacenter{name, provider, region};
    return;
  }
  datacenters_.push_back(Datacenter{name, provider, region});
  // Grow the RTT matrix by a row and a column, keeping every RTT set.
  const size_t n = datacenters_.size();
  std::vector<Duration> rtt(n * n, kNoRtt);
  for (size_t a = 0; a + 1 < n; ++a) {
    std::copy_n(&rtt_[a * (n - 1)], n - 1, &rtt[a * n]);
  }
  rtt.back() = usec(calibration::kSameDcRttUs);  // the new diagonal cell
  rtt_ = std::move(rtt);
}

void Topology::set_rtt(const std::string& dc_a, const std::string& dc_b,
                       Duration rtt) {
  const size_t n = datacenters_.size();
  const DcId a = datacenter_id(dc_a);
  const DcId b = datacenter_id(dc_b);
  rtt_[a * n + b] = rtt;
  rtt_[b * n + a] = rtt;
}

void Topology::add_node(const std::string& name,
                        const std::string& datacenter, VmType vm) {
  Node node{name, datacenter, std::move(vm), datacenter_id(datacenter)};
  const auto [it, added] =
      node_ids_.try_emplace(name, static_cast<NodeId>(nodes_.size()));
  if (added) {
    nodes_.push_back(std::move(node));
  } else {
    nodes_[it->second] = std::move(node);
  }
}

bool Topology::has_node(const std::string& name) const {
  return node_ids_.count(name) > 0;
}

NodeId Topology::node_id(const std::string& name) const {
  auto it = node_ids_.find(name);
  assert(it != node_ids_.end() && "unknown node");
  return it->second;
}

DcId Topology::datacenter_id(const std::string& name) const {
  auto it = dc_ids_.find(name);
  assert(it != dc_ids_.end() && "add the datacenter first");
  return it->second;
}

const Datacenter& Topology::datacenter_of(const std::string& node_name) const {
  return datacenters_[node(node_name).dc];
}

std::vector<std::string> Topology::node_names() const {
  std::vector<std::string> out;
  out.reserve(node_ids_.size());
  for (const auto& [name, _] : node_ids_) out.push_back(name);
  return out;
}

Duration Topology::sample_latency(NodeId from, NodeId to, TimePoint now,
                                  Rng& rng) const {
  Duration lat = base_one_way(from, to);
  if (jitter_fraction_ > 0) {
    // Multiplicative jitter, truncated at -50% so latency stays positive.
    const double k =
        std::max(0.5, 1.0 + jitter_fraction_ * rng.gaussian());
    lat = lat * k;
  }

  // Slow-node windows scale the whole sample (the node's processing is
  // slow, so everything it touches takes longer), while injected extras add
  // on top.
  const std::string& from_name = nodes_[from].name;
  const std::string& to_name = nodes_[to].name;
  const double slow =
      slow_multiplier(from_name, now) * slow_multiplier(to_name, now);
  if (slow != 1.0) lat = lat * slow;

  lat += injected_extra(from_name, now);
  lat += injected_extra(to_name, now);
  return lat;
}

void Topology::inject_node_delay(const std::string& node_name, Duration extra,
                                 TimePoint from, TimePoint until) {
  assert(has_node(node_name));
  delays_.push_back(DelayWindow{node_name, extra, from, until});
}

void Topology::inject_freeze(const std::string& node_name, TimePoint from,
                             TimePoint until) {
  assert(has_node(node_name));
  freezes_.push_back(FreezeWindow{node_name, from, until});
}

void Topology::inject_node_slow(const std::string& node_name, double factor,
                                TimePoint from, TimePoint until) {
  assert(has_node(node_name));
  slows_.push_back(SlowWindow{node_name, factor, from, until});
}

void Topology::inject_outage(const std::string& node_name, TimePoint from,
                             TimePoint until) {
  assert(has_node(node_name));
  outages_.push_back(OutageWindow{node_name, from, until});
}

bool Topology::node_down(const std::string& node_name, TimePoint now) const {
  for (const auto& o : outages_) {
    if (o.node == node_name && now >= o.from && now < o.until) return true;
  }
  return false;
}

bool Topology::node_down_during(const std::string& node_name, TimePoint from,
                                TimePoint until) const {
  for (const auto& o : outages_) {
    if (o.node == node_name && o.from <= until && o.until > from) return true;
  }
  return false;
}

void Topology::inject_partition(const std::string& src, const std::string& dst,
                                TimePoint from, TimePoint until,
                                bool bidirectional) {
  assert(has_node(src) && has_node(dst));
  partitions_.push_back(PartitionWindow{src, dst, from, until});
  if (bidirectional) {
    partitions_.push_back(PartitionWindow{dst, src, from, until});
  }
}

bool Topology::partitioned(const std::string& from, const std::string& to,
                           TimePoint now) const {
  for (const auto& p : partitions_) {
    if (p.src == from && p.dst == to && now >= p.from && now < p.until) {
      return true;
    }
  }
  return false;
}

void Topology::clear_faults() {
  delays_.clear();
  outages_.clear();
  partitions_.clear();
  freezes_.clear();
  slows_.clear();
}

Duration Topology::injected_extra(const std::string& node_name,
                                  TimePoint now) const {
  Duration extra = Duration::zero();
  for (const auto& d : delays_) {
    if (d.node == node_name && now >= d.from && now < d.until) {
      extra += d.extra;
    }
  }
  // A frozen node stalls every message it touches until the window ends:
  // the work isn't lost, it completes just after the thaw.
  for (const auto& f : freezes_) {
    if (f.node == node_name && now >= f.from && now < f.until) {
      extra += f.until - now;
    }
  }
  return extra;
}

double Topology::slow_multiplier(const std::string& node_name,
                                 TimePoint now) const {
  double factor = 1.0;
  for (const auto& s : slows_) {
    if (s.node == node_name && now >= s.from && now < s.until) {
      factor *= s.factor;
    }
  }
  return factor;
}

Topology Topology::paper_default() {
  Topology topo;
  topo.add_datacenter("aws-us-east", Provider::kAws, "us-east");
  topo.add_datacenter("aws-us-west", Provider::kAws, "us-west");
  topo.add_datacenter("aws-eu-west", Provider::kAws, "eu-west");
  topo.add_datacenter("aws-asia-east", Provider::kAws, "asia-east");
  topo.add_datacenter("azure-us-east", Provider::kAzure, "us-east");

  auto dc_in_region = [&](const std::string& region,
                          Provider provider) -> std::string {
    for (const Datacenter& dc : topo.datacenters_) {
      if (dc.region == region && dc.provider == provider) return dc.name;
    }
    return {};
  };

  for (const auto& pair : calibration::kRegionRtts) {
    const std::string a = dc_in_region(pair.a, Provider::kAws);
    const std::string b = dc_in_region(pair.b, Provider::kAws);
    topo.set_rtt(a, b, usec(pair.rtt_us));
  }
  // Azure US East sits 2 ms from AWS US East (paper §5.4.1) and inherits
  // AWS US East's distance to everything else.
  topo.set_rtt("azure-us-east", "aws-us-east",
               usec(calibration::kAwsAzureUsEastRttUs));
  for (const char* region : {"us-west", "eu-west", "asia-east"}) {
    const std::string aws_dc = dc_in_region(region, Provider::kAws);
    topo.set_rtt("azure-us-east", aws_dc,
                 topo.base_rtt("aws-us-east", aws_dc));
  }
  return topo;
}

}  // namespace wiera::net
