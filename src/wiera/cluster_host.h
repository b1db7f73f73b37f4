// geo::ClusterHost — the sim::Surface of a running Wiera cluster
// (docs/FAULTS.md, docs/SCENARIOS.md).
//
// The sim-layer Injector walks a Plan and hands every event that is not a
// load shape to this host, which maps it onto the real hooks:
//   * crash      -> topology outage window + WieraPeer::on_crash() (volatile
//                   state lost, replication queue dropped, recovering latch);
//                   the controller's heartbeat later drives catch-up resync;
//   * restart    -> the crash-consistency pass over the peer's tiers;
//   * partition  -> pairwise topology partition windows isolating the node
//                   from every other node, in the event's direction;
//   * msg chaos, msg corrupt, flaky link
//                -> a net::Network ChaosWindow (drop/duplicate/extra delay,
//                   payload corruption, or both scoped to one link);
//   * spike      -> a topology per-node delay window;
//   * tier fault -> slowdown / ENOSPC windows on the peer's storage tiers;
//   * bit rot    -> flip one byte of a stored copy (TieraInstance);
//   * torn write -> crash + torn-write windows armed on every storage tier,
//                   so in-flight durable puts land as torn prefixes;
//   * stutter    -> a topology freeze window (work stalls, completes late);
//   * slow node  -> a topology slow window + tier slowdowns (docs/HEALTH.md);
//   * drain region, add region, rolling restart
//                -> the matching WieraController coroutine, spawned as its
//                   own task so the injector's driver keeps walking the
//                   plan while the operation runs.
// Load shapes never reach the host: workload drivers sample them from the
// injector's LoadModel.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

#include "net/network.h"
#include "sim/events.h"
#include "wiera/controller.h"

namespace wiera::geo {

class ClusterHost : public sim::Surface {
 public:
  // Operational events act on instance `wiera_id`.
  ClusterHost(net::Network& network, WieraController& controller,
              std::string wiera_id)
      : network_(&network),
        controller_(&controller),
        wiera_id_(std::move(wiera_id)) {}

  void apply(const sim::PlanEvent& e) override;

  // Operational events that finished with an error (drain deadline overrun
  // under a composed fault, add on a dead node, ...). The cluster must ride
  // these out — the SLO contract judges the clients, not the operation.
  int64_t failed_operations() const { return failed_operations_; }

 private:
  // The peer on the event's node; null, after a warning, when there is none.
  WieraPeer* peer_of(const sim::PlanEvent& e) const;
  void partition(const sim::PlanEvent& e);
  sim::Task<void> run_operation(sim::PlanEvent e);

  net::Network* network_;
  WieraController* controller_;
  std::string wiera_id_;
  int64_t failed_operations_ = 0;
};

}  // namespace wiera::geo
