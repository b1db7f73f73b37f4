#include "wiera/cluster_host.h"

#include "common/logging.h"

namespace wiera::geo {

namespace {

constexpr char kComponent[] = "cluster";

// Calls `fn` on every storage tier of `peer`, or only on the one labelled
// `label` when it is not empty.
template <typename Fn>
void for_each_tier(WieraPeer& peer, const std::string& label, Fn fn) {
  for (const std::string& l : peer.local().tier_labels()) {
    if (!label.empty() && l != label) continue;
    if (store::StorageTier* tier = peer.local().tier_by_label(l)) fn(*tier);
  }
}

}  // namespace

WieraPeer* ClusterHost::peer_of(const sim::PlanEvent& e) const {
  WieraPeer* peer = controller_->peer(e.node);
  if (peer == nullptr) {
    WLOG_WARN(kComponent) << "no peer for " << e.describe();
  }
  return peer;
}

void ClusterHost::apply(const sim::PlanEvent& e) {
  using Kind = sim::PlanEvent::Kind;
  net::Topology& topo = network_->topology();
  switch (e.kind) {
    case Kind::kCrash:
    case Kind::kTornWrite:
      // The node is unreachable until the restart time; in-flight messages
      // touching the outage window are lost (Topology::node_down_during).
      // A torn-write crash also tears the durable-tier puts in flight when
      // the node dies; the paired kRestart discards the journalled tears.
      topo.inject_outage(e.node, e.at, e.until);
      if (WieraPeer* peer = peer_of(e)) {
        if (e.kind == Kind::kTornWrite) {
          for_each_tier(*peer, "", [&e](store::StorageTier& tier) {
            tier.inject_torn_writes(e.at, e.until);
          });
        }
        peer->on_crash();
      }
      break;
    case Kind::kRestart:
      // The outage window installed at crash time expires on its own, and
      // the peer restarted in recovering state; the controller's next
      // heartbeat notices and drives catch-up. Run the crash-consistency
      // pass: durable tiers discard journalled torn writes instead of
      // publishing them.
      if (WieraPeer* peer = controller_->peer(e.node)) {
        peer->local().recover_tiers();
      }
      WLOG_INFO(kComponent) << e.node
                            << " restarting (recovering until catch-up)";
      break;
    case Kind::kPartition:
      partition(e);
      break;
    case Kind::kMessageChaos:
    case Kind::kMsgCorrupt:
    case Kind::kFlakyLink: {
      // A flaky link scopes the window to the node<->peer_node link; the
      // rest of the mesh (including pings from the controller) is untouched.
      net::ChaosWindow window;
      window.node = e.node;
      window.node_b = e.peer_node;
      window.from = e.at;
      window.until = e.until;
      window.drop_prob = e.drop_prob;
      window.dup_prob = e.dup_prob;
      window.max_extra_delay = e.max_extra_delay;
      window.corrupt_prob = e.corrupt_prob;
      network_->inject_chaos(std::move(window));
      break;
    }
    case Kind::kLatencySpike:
      topo.inject_node_delay(e.node, e.extra_delay, e.at, e.until);
      break;
    case Kind::kTierFault:
      if (WieraPeer* peer = peer_of(e)) {
        for_each_tier(*peer, e.tier_label, [&e](store::StorageTier& tier) {
          if (e.slowdown != 1.0) {
            tier.inject_slowdown(e.slowdown, e.at, e.until);
          }
          if (e.enospc) tier.inject_write_errors(e.at, e.until);
        });
      }
      break;
    case Kind::kBitRot:
      if (WieraPeer* peer = peer_of(e);
          peer != nullptr && peer->local().corrupt_stored_copy(e.object_key)) {
        WLOG_INFO(kComponent) << "bit rot flipped a stored byte of "
                              << e.object_key << " on " << e.node;
      }
      break;
    case Kind::kStutter:
      // The process freezes but loses nothing: every message touching the
      // node during the window completes just after the thaw.
      topo.inject_freeze(e.node, e.at, e.until);
      break;
    case Kind::kSlowNode:
      // Every message the node touches takes slow_factor longer, and so does
      // every storage-tier access: degraded, not dead.
      topo.inject_node_slow(e.node, e.slow_factor, e.at, e.until);
      if (WieraPeer* peer = peer_of(e)) {
        for_each_tier(*peer, "", [&e](store::StorageTier& tier) {
          tier.inject_slowdown(e.slow_factor, e.at, e.until);
        });
      }
      break;
    case Kind::kDrainRegion:
    case Kind::kAddRegion:
    case Kind::kRollingRestart:
      network_->sim().spawn(
          run_operation(e),
          "cluster." + std::string(sim::event_kind_name(e.kind)) + "/" +
              e.node);
      break;
    case Kind::kDiurnalLoad:
    case Kind::kZipfShift:
    case Kind::kFlashCrowd:
    case Kind::kTenantMix:
      break;  // load shapes go to the injector's LoadModel
  }
}

void ClusterHost::partition(const sim::PlanEvent& e) {
  net::Topology& topo = network_->topology();
  for (const std::string& other : topo.node_names()) {
    if (other == e.node) continue;
    switch (e.direction) {
      case sim::PartitionDirection::kBoth:
        topo.inject_partition(e.node, other, e.at, e.until,
                              /*bidirectional=*/true);
        break;
      case sim::PartitionDirection::kOutbound:
        // The node's own packets are lost; it still hears the world.
        topo.inject_partition(e.node, other, e.at, e.until,
                              /*bidirectional=*/false);
        break;
      case sim::PartitionDirection::kInbound:
        // Nobody can reach the node; its packets get out.
        topo.inject_partition(other, e.node, e.at, e.until,
                              /*bidirectional=*/false);
        break;
    }
  }
}

sim::Task<void> ClusterHost::run_operation(sim::PlanEvent e) {
  Status st;
  if (e.kind == sim::PlanEvent::Kind::kDrainRegion) {
    st = co_await controller_->drain_peer(wiera_id_, e.node, e.until);
  } else if (e.kind == sim::PlanEvent::Kind::kAddRegion) {
    st = co_await controller_->add_peer_live(wiera_id_, e.node);
  } else {
    st = co_await controller_->rolling_restart(wiera_id_);
  }
  if (!st.ok()) {
    failed_operations_++;
    WLOG_WARN(kComponent) << e.describe() << " failed: " << st.to_string();
  }
}

}  // namespace wiera::geo
