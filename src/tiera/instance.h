// TieraInstance: a policy-driven multi-tier storage instance inside one
// datacenter (§2 of the paper).
//
// An instance is constructed from a parsed Tiera policy document: the tier
// declarations become StorageTier models and the event/response rules drive
// the data path —
//   * insert events run on every put (store/copy into tiers, dirty marking),
//   * timer events run periodically (write-back of dirty objects),
//   * threshold events fire when a tier crosses a fill fraction (backup),
//   * cold-data events demote idle objects to cheaper tiers.
// Objects are immutable and versioned (§3.2.1): each put creates version
// latest+1; explicit versions arrive via update()/apply_remote_update()
// (replication), which resolves write-write conflicts last-write-wins
// (§4.2).
//
// A TieraInstance is purely local: replication, forwarding and global locks
// live in the wiera module, which drives instances through this API.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/histogram.h"
#include "metadb/metadb.h"
#include "obs/metrics.h"
#include "policy/ast.h"
#include "policy/eval.h"
#include "sim/simulation.h"
#include "sim/sync.h"
#include "store/tier.h"
#include "tiera/selector.h"

namespace wiera::tiera {

struct PutResult {
  int64_t version = 0;
};

// The three fields last-write-wins compares (§4.2); see
// TieraInstance::lww_wins.
struct LwwSample {
  int64_t version = 0;
  TimePoint last_modified;
  std::string origin;
};

struct GetResult {
  Blob value;
  int64_t version = 0;
};

// Extension point used by the wiera layer. on_cold_object lets a global
// policy intercept cold data (e.g. §5.3's shared centralized cold tier);
// returning true suppresses the local response for that object.
class InstanceHooks {
 public:
  virtual ~InstanceHooks() = default;
  virtual sim::Task<bool> on_cold_object(const std::string& /*key*/) {
    co_return false;
  }
};

class TieraInstance {
 public:
  struct Config {
    std::string instance_id;  // unique, e.g. "tiera-us-west"
    std::string region;
    policy::PolicyDoc policy;  // Tiera-style doc: tiers + local events
    std::map<std::string, policy::Value> params;  // policy parameter binding
    int64_t max_versions = 0;  // 0 = unlimited; otherwise GC oldest
    // Interval for the cold-data monitoring thread (paper: dedicated thread
    // scanning metadata).
    Duration cold_scan_interval = hoursd(1);
    // Per-tier spec customization (IOPS throttles, cache flags, ...),
    // applied after defaults, keyed by tier label.
    std::function<void(const std::string& label, store::TierSpec&)>
        tier_tweak;
    // Test-only override of the LWW comparator. The chaos suite's mutation
    // test installs a deliberately broken comparator on one replica and
    // asserts the consistency oracle notices the divergence. Null = use
    // lww_wins.
    std::function<bool(const LwwSample& incoming, const LwwSample& local)>
        lww_override;
    // Verify the object checksum on every tier read; a corrupt copy is
    // quarantined (removed) instead of served (docs/INTEGRITY.md). The
    // chaos suite's mutation test disables this on one replica and asserts
    // the oracle observes the served corruption.
    bool verify_checksums = true;
  };

  TieraInstance(sim::Simulation& sim, Config config);
  ~TieraInstance();

  TieraInstance(const TieraInstance&) = delete;
  TieraInstance& operator=(const TieraInstance&) = delete;

  const std::string& id() const { return config_.instance_id; }
  const std::string& region() const { return config_.region; }

  // Begin policy execution (timers, cold-data scans). Idempotent.
  void start();
  // Stop periodic policy tasks (instance remains readable).
  void stop();

  // Replace the instance's event/response rules at run time — the paper's
  // headline flexibility claim ("replacing data/storage policies
  // externalized at run-time"). Tier declarations must match tiers that
  // already exist (use mount_tier/unmount_tier to change the tier set);
  // stored data is untouched. Periodic rules from the old policy stop and
  // the new policy's rules take over.
  Status adopt_policy(policy::PolicyDoc new_policy,
                      std::map<std::string, policy::Value> params = {});
  const policy::PolicyDoc& current_policy() const { return config_.policy; }

  void set_hooks(InstanceHooks* hooks) { hooks_ = hooks; }

  // ---- application API (Table 2, local semantics) ----
  sim::Task<Result<PutResult>> put(std::string key, Blob value,
                                   store::IoOptions opts = {});
  sim::Task<Result<GetResult>> get(std::string key,
                                   store::IoOptions opts = {});
  sim::Task<Result<GetResult>> get_version(std::string key, int64_t version,
                                           store::IoOptions opts = {});
  std::vector<int64_t> get_version_list(const std::string& key) const;
  // Write an explicit version (update API / replication path).
  sim::Task<Status> update(std::string key, int64_t version, Blob value,
                           store::IoOptions opts = {});
  sim::Task<Status> remove(std::string key);
  sim::Task<Status> remove_version(std::string key, int64_t version);

  void add_tag(const std::string& key, const std::string& tag) {
    meta_.add_tag(key, tag);
  }

  // ---- replication support (§4.2) ----
  struct RemoteUpdate {
    std::string key;
    int64_t version = 0;
    Blob value;
    TimePoint last_modified;
    std::string origin;
  };
  // Apply an update received from another instance. Returns true if
  // accepted, false if rejected by last-write-wins.
  sim::Task<Result<bool>> apply_remote_update(RemoteUpdate update);

  // Last-write-wins (§4.2): true when `incoming` beats `local`. Higher
  // version wins; version ties go to the later last_modified; exact
  // timestamp ties break deterministically on origin id so every replica
  // picks the same winner.
  static bool lww_wins(const LwwSample& incoming, const LwwSample& local);

  // Crash semantics: volatile (memory) tier contents are lost and block-tier
  // page caches are dropped; metadata and durable-tier payloads survive (the
  // paper persists metadata in BerkeleyDB). Versions whose only copy lived
  // in memory become unreadable until catch-up resync restores them.
  void wipe_volatile();

  // Post-restart crash-consistency pass: every durable tier discards its
  // journalled torn writes (docs/INTEGRITY.md).
  void recover_tiers();

  // Bit-rot injection (chaos harness): flip one byte of a stored copy of
  // the latest committed version of `key`. Metadata is untouched; only
  // checksum verification can tell. Returns false when no copy was hit.
  bool corrupt_stored_copy(const std::string& key);

  // Local scrub: verify every committed version against its recorded
  // checksum, quarantining corrupt copies. Returns the keys that lost their
  // last good local copy (candidates for repair from a peer).
  sim::Task<std::vector<std::string>> scrub_local();

  // ---- dynamic tier management ----
  // Tiera supports adding/removing tiers at run time (the modular-instance
  // mechanism of §3.2.2 mounts another instance as a tier this way).
  Status mount_tier(const std::string& label,
                    std::unique_ptr<store::StorageTier> tier);
  // Unmounting does not migrate data: objects whose only copy lived in the
  // tier become unreadable (callers move data first if they care).
  Status unmount_tier(const std::string& label);

  // ---- introspection ----
  store::StorageTier* tier_by_label(const std::string& label);
  const std::vector<std::string>& tier_labels() const { return tier_order_; }
  size_t tier_count() const { return tiers_.size(); }
  const metadb::MetaDb& meta() const { return meta_; }
  metadb::MetaDb& meta_mutable() { return meta_; }
  sim::Simulation& sim() { return *sim_; }

  // Thin views over the sim-wide metrics registry
  // (tiera_*{instance=...}; docs/OBSERVABILITY.md).
  const LatencyHistogram& put_latency() const { return put_hist_->latency(); }
  const LatencyHistogram& get_latency() const { return get_hist_->latency(); }
  // Number of objects relocated by `move` responses (cold demotions).
  int64_t cold_moves() const { return cold_moves_->value(); }
  // Integrity counters (docs/INTEGRITY.md).
  int64_t checksum_failures() const { return checksum_failures_->value(); }
  int64_t quarantined_copies() const { return quarantined_copies_->value(); }

  // ---- metadata durability (BerkeleyDB role, §4.2) ----
  // Snapshot/restore the metadata store. The paper persists all object
  // metadata in BerkeleyDB so an instance can restart without losing
  // version history; payloads live in whatever durable tiers the policy
  // placed them in.
  Bytes snapshot_metadata() const { return meta_.serialize(); }
  Status restore_metadata(const Bytes& snapshot) {
    return meta_.deserialize(snapshot);
  }

  // Composite key used inside tiers ("key" + version).
  static std::string versioned_key(const std::string& key, int64_t version);

 private:
  struct CompiledRule {
    policy::Trigger trigger;
    policy::EventRule rule;  // owned copy: survives policy replacement
    bool armed = true;       // edge trigger state for kTierFilled
  };

  // Insert-time rule execution context.
  struct InsertCtx {
    std::string key;
    int64_t version = 0;
    Blob value;
    store::IoOptions opts;
    std::vector<std::string> stored_tiers;
  };

  void build_tiers();
  Status compile_rules();
  void start_rule_loops();

  sim::Task<Status> run_insert_rules(InsertCtx& ctx);
  sim::Task<Status> exec_insert_stmts(const std::vector<policy::Stmt>& stmts,
                                      InsertCtx& ctx);
  sim::Task<Status> exec_insert_action(const policy::ActionStmt& action,
                                       InsertCtx& ctx);

  // Maintenance responses (timer / threshold / cold events).
  sim::Task<Status> exec_maintenance_stmts(
      const std::vector<policy::Stmt>& stmts,
      const std::vector<std::string>& keys);
  sim::Task<Status> exec_maintenance_action(const policy::ActionStmt& action,
                                            const std::vector<std::string>& keys);

  sim::Task<void> timer_loop(std::shared_ptr<CompiledRule> rule,
                             uint64_t generation);
  sim::Task<void> cold_scan_loop(std::shared_ptr<CompiledRule> rule,
                                 uint64_t generation);
  sim::Task<void> check_fill_thresholds();

  // The version write put, update and apply_remote_update share: record
  // the row, run the insert rules, commit. With `lww` the write must first
  // win last-write-wins against the key's latest row; false = it lost and
  // wrote nothing. When a tier write fails the row goes back to what it
  // was before this call (erased if this call created it). Writes to one
  // (key, version) run one at a time, so what they put back is never
  // another write's unstored row.
  sim::Task<Result<bool>> write_version(const std::string& key,
                                        int64_t version, Blob value,
                                        TimePoint last_modified,
                                        std::string origin,
                                        store::IoOptions opts, bool lww);
  bool remote_wins(const std::string& key, const LwwSample& incoming) const;
  sim::Task<Status> write_to_tier(const std::string& tier_label,
                                  const std::string& key, int64_t version,
                                  const Blob& value, store::IoOptions opts,
                                  bool set_location);
  sim::Task<Result<Blob>> read_version(const std::string& key,
                                       int64_t version,
                                       store::IoOptions opts);
  sim::Task<void> erase_version_everywhere(const std::string& key,
                                           int64_t version);
  void prune_versions(const std::string& key);

  sim::Simulation* sim_;
  Config config_;
  metadb::MetaDb meta_;
  std::map<std::string, std::unique_ptr<store::StorageTier>> tiers_;
  std::vector<std::string> tier_order_;
  std::vector<std::shared_ptr<CompiledRule>> rules_;
  InstanceHooks* hooks_ = nullptr;
  bool started_ = false;
  bool stopping_ = false;
  // Bumped by adopt_policy; periodic loops from older generations exit.
  uint64_t policy_generation_ = 0;
  // One entry per (key, version) with a write_version holding or awaiting
  // it; the last user erases it. write_version unlocks explicitly rather
  // than through a guard: at teardown the simulation may destroy a
  // suspended write's frame after the instance is gone.
  struct VersionLock {
    explicit VersionLock(sim::Simulation& sim)
        : mutex(sim, "tiera.version_write") {}
    sim::SimMutex mutex;
    int users = 0;
  };
  std::map<std::pair<std::string, int64_t>, VersionLock> version_locks_;

  // Registry-backed instruments (created in the constructor).
  obs::Registry* metrics_ = nullptr;
  obs::Histogram* put_hist_ = nullptr;
  obs::Histogram* get_hist_ = nullptr;
  obs::Counter* cold_moves_ = nullptr;
  obs::Counter* checksum_failures_ = nullptr;
  obs::Counter* quarantined_copies_ = nullptr;
};

}  // namespace wiera::tiera
