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
std::pair<std::string, std::string> ordered(const std::string& a,
                                            const std::string& b) {
  return a <= b ? std::make_pair(a, b) : std::make_pair(b, a);
}
}  // namespace

Topology::Topology() = default;

void Topology::add_datacenter(const std::string& name, Provider provider,
                              const std::string& region) {
  datacenters_[name] = Datacenter{name, provider, region};
}

void Topology::set_rtt(const std::string& dc_a, const std::string& dc_b,
                       Duration rtt) {
  assert(datacenters_.count(dc_a) && datacenters_.count(dc_b));
  rtt_[ordered(dc_a, dc_b)] = rtt;
}

void Topology::add_node(const std::string& name,
                        const std::string& datacenter, VmType vm) {
  assert(datacenters_.count(datacenter) && "add the datacenter first");
  nodes_[name] = Node{name, datacenter, std::move(vm)};
}

bool Topology::has_node(const std::string& name) const {
  return nodes_.count(name) > 0;
}

const Node& Topology::node(const std::string& name) const {
  auto it = nodes_.find(name);
  assert(it != nodes_.end() && "unknown node");
  return it->second;
}

const Datacenter& Topology::datacenter_of(const std::string& node_name) const {
  auto it = datacenters_.find(node(node_name).datacenter);
  assert(it != datacenters_.end());
  return it->second;
}

std::vector<std::string> Topology::node_names() const {
  std::vector<std::string> out;
  out.reserve(nodes_.size());
  for (const auto& [name, _] : nodes_) out.push_back(name);
  return out;
}

Duration Topology::base_rtt(const std::string& dc_a,
                            const std::string& dc_b) const {
  if (dc_a == dc_b) return usec(calibration::kSameDcRttUs);
  auto it = rtt_.find(ordered(dc_a, dc_b));
  assert(it != rtt_.end() && "no RTT configured for datacenter pair");
  return it->second;
}

Duration Topology::base_one_way(const std::string& node_a,
                                const std::string& node_b) const {
  return base_rtt(node(node_a).datacenter, node(node_b).datacenter) / 2;
}

Duration Topology::sample_latency(const std::string& from,
                                  const std::string& to, TimePoint now,
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
  const double slow = slow_multiplier(from, now) * slow_multiplier(to, now);
  if (slow != 1.0) lat = lat * slow;

  lat += injected_extra(from, now);
  lat += injected_extra(to, now);
  return lat;
}

void Topology::inject_node_delay(const std::string& node_name, Duration extra,
                                 TimePoint from, TimePoint until) {
  assert(nodes_.count(node_name));
  delays_.push_back(DelayWindow{node_name, extra, from, until});
}

void Topology::inject_freeze(const std::string& node_name, TimePoint from,
                             TimePoint until) {
  assert(nodes_.count(node_name));
  freezes_.push_back(FreezeWindow{node_name, from, until});
}

void Topology::inject_node_slow(const std::string& node_name, double factor,
                                TimePoint from, TimePoint until) {
  assert(nodes_.count(node_name));
  slows_.push_back(SlowWindow{node_name, factor, from, until});
}

void Topology::inject_outage(const std::string& node_name, TimePoint from,
                             TimePoint until) {
  assert(nodes_.count(node_name));
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
  assert(nodes_.count(src) && nodes_.count(dst));
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
    for (const auto& [name, dc] : topo.datacenters_) {
      if (dc.region == region && dc.provider == provider) return name;
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
