// Storage tier abstraction and concrete tier models.
//
// A Tiera instance composes several of these (§2.1): a volatile memory tier
// (Memcached/ElastiCache), block devices (EBS SSD/HDD), and object stores
// (S3 / S3-IA / Glacier). Each model reproduces the characteristics the
// paper's evaluation depends on:
//   * MemoryTier  — sub-ms service time, volatile, LRU eviction when full.
//   * BlockTier   — device latency + OS buffer cache (<1 ms hits unless
//                   O_DIRECT or memory pressure) + provider IOPS throttle
//                   (Azure caps attached disks at 500 IOPS, Fig. 11).
//   * ObjectTier  — tens-of-ms request latency, unbounded capacity,
//                   per-request billing (Table 4).
// All operations take virtual time on the owning Simulation.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/bytes.h"
#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/time.h"
#include "sim/simulation.h"
#include "sim/task.h"

namespace wiera::store {

enum class TierKind {
  kMemory,      // Memcached / ElastiCache
  kBlockSsd,    // EBS gp2 / local SSD
  kBlockHdd,    // EBS magnetic
  kObjectS3,    // S3 standard
  kObjectS3IA,  // S3 infrequent access
  kGlacier,     // archival
  kForward,     // another Tiera instance used as a tier (§3.2.2)
};

std::string_view tier_kind_name(TierKind kind);
// Parse "Memcached" / "LocalMemory" / "EBS-SSD" / "LocalDisk" / "S3" /
// "S3-IA" / "Glacier" / "CheapestArchival" etc. (the names used in the
// paper's policy specs) into a TierKind.
Result<TierKind> tier_kind_from_name(std::string_view name);

// Per-operation options threaded down from the VFS layer.
struct IoOptions {
  bool direct = false;  // O_DIRECT: bypass the buffer cache
  // Absolute deadline for the operation (request-lifecycle propagation,
  // docs/OVERLOAD.md): tier operations check it on entry and return
  // kDeadlineExceeded instead of starting work the caller abandoned.
  // TimePoint::max() = none.
  TimePoint deadline = TimePoint::max();
};

// True when `opts` carries a deadline that has already passed at `now`.
inline bool io_deadline_expired(const IoOptions& opts, TimePoint now) {
  return opts.deadline != TimePoint::max() && now >= opts.deadline;
}

struct TierStats {
  int64_t puts = 0;
  int64_t gets = 0;
  int64_t removes = 0;
  int64_t get_misses = 0;
  int64_t bytes_written = 0;
  int64_t bytes_read = 0;
  int64_t evictions = 0;
  int64_t cache_hits = 0;   // buffer-cache hits (block tiers)
  int64_t cache_misses = 0;
  int64_t torn_writes = 0;     // writes whose commit landed in a torn window
  int64_t torn_discards = 0;   // journalled torn writes discarded by recover()
  int64_t corruptions = 0;     // injected bit-rot flips
};

struct TierSpec {
  std::string name;  // instance-local tier name, e.g. "tier1"
  TierKind kind = TierKind::kMemory;
  int64_t capacity_bytes = 0;  // 0 = unbounded (object tiers)

  // Latency model (defaults filled by make_tier from calibrated constants).
  Duration read_base = Duration::zero();
  Duration write_base = Duration::zero();
  double bandwidth_mbps = 0;  // payload streaming rate
  double jitter_fraction = 0.05;

  // Block-tier extras.
  int64_t iops_limit = 0;          // 0 = unlimited
  bool buffer_cache = false;       // OS page cache in front of the device
  int64_t buffer_cache_bytes = 0;  // 0 with buffer_cache => unlimited cache

  // Durable tiers commit via a shadow journal (docs/INTEGRITY.md): a write
  // torn by a crash is staged, detected on recover() and discarded instead
  // of served. Disabling this models a legacy in-place write path where a
  // torn write silently publishes a truncated payload.
  bool crash_consistent = true;
};

class StorageTier {
 public:
  StorageTier(sim::Simulation& sim, TierSpec spec)
      : sim_(&sim), spec_(std::move(spec)), rng_(sim.rng().fork()) {}
  virtual ~StorageTier() = default;

  StorageTier(const StorageTier&) = delete;
  StorageTier& operator=(const StorageTier&) = delete;

  const TierSpec& spec() const { return spec_; }
  const TierStats& stats() const { return stats_; }
  sim::Simulation& sim() { return *sim_; }

  virtual sim::Task<Status> put(std::string key, Blob value,
                                IoOptions opts = {}) = 0;
  virtual sim::Task<Result<Blob>> get(std::string key, IoOptions opts = {}) = 0;
  virtual sim::Task<Status> remove(std::string key) = 0;

  virtual bool contains(const std::string& key) const = 0;
  virtual int64_t used_bytes() const = 0;
  virtual int64_t object_count() const = 0;

  double fill_fraction() const {
    if (spec_.capacity_bytes <= 0) return 0.0;
    return static_cast<double>(used_bytes()) /
           static_cast<double>(spec_.capacity_bytes);
  }

  // Capacity growth — the Tiera `grow` response. Rejects negative growth
  // and additions that would overflow capacity_bytes.
  Status grow(int64_t additional_bytes);

  // Post-restart crash-consistency pass: durable tiers discard journalled
  // torn writes here. Default: nothing to recover.
  virtual void recover() {}

  // Bit-rot injection: flip one byte of the stored copy of `key` in place.
  // Returns false when the tier holds no such key (volatile tiers after a
  // wipe, forward tiers). Metadata is untouched — only checksum
  // verification can tell.
  virtual bool corrupt_object(const std::string& /*key*/) { return false; }

  // ---- fault injection (chaos harness) ----
  // Multiply every service time by `factor` during [from, until) — a
  // degraded device or noisy neighbor.
  void inject_slowdown(double factor, TimePoint from, TimePoint until);
  // Writes fail with kResourceExhausted (ENOSPC) during [from, until);
  // reads keep working.
  void inject_write_errors(TimePoint from, TimePoint until);
  // Writes whose commit lands in [from, until) are torn mid-payload — the
  // crash window of a node outage (docs/INTEGRITY.md).
  void inject_torn_writes(TimePoint from, TimePoint until);
  void clear_faults() { faults_.clear(); }

 protected:
  // Sampled service time: base + payload/bandwidth, with multiplicative
  // jitter and any active injected slowdown.
  Duration service_time(Duration base, int64_t bytes);

  // Non-OK while a write-error window is active; every put checks this.
  Status write_fault() const;

  // True while a torn-write window is active at the commit instant.
  bool torn_fault() const;

  struct FaultWindow {
    double slowdown = 1.0;
    bool write_error = false;
    bool torn_write = false;
    TimePoint from;
    TimePoint until;
  };

  sim::Simulation* sim_;
  TierSpec spec_;
  TierStats stats_;
  Rng rng_;
  std::vector<FaultWindow> faults_;
};

// ---------------------------------------------------------------- MemoryTier

class MemoryTier final : public StorageTier {
 public:
  MemoryTier(sim::Simulation& sim, TierSpec spec)
      : StorageTier(sim, std::move(spec)) {}

  sim::Task<Status> put(std::string key, Blob value, IoOptions opts) override;
  sim::Task<Result<Blob>> get(std::string key, IoOptions opts) override;
  sim::Task<Status> remove(std::string key) override;

  bool contains(const std::string& key) const override {
    return entries_.contains(key);
  }
  int64_t used_bytes() const override { return used_bytes_; }
  int64_t object_count() const override {
    return static_cast<int64_t>(entries_.size());
  }

  // Volatility: a crash wipes a memory tier.
  void wipe() {
    entries_.clear();
    lru_.clear();
    used_bytes_ = 0;
  }

  bool corrupt_object(const std::string& key) override;

 private:
  // Evicts from the LRU end, sparing the front entry (the one being
  // stored, not yet counted in used_bytes_).
  void evict_until_fits(int64_t incoming_bytes);

  // The LRU list owns each entry (front = most recent); the table maps a
  // view of the entry's own key to its node, so the key is stored once and
  // an eviction takes one probe.
  struct Entry {
    std::string key;
    Blob value;
  };
  using Lru = std::list<Entry>;
  FlatHashMap<std::string_view, Lru::iterator> entries_;
  Lru lru_;
  int64_t used_bytes_ = 0;
};

// ---------------------------------------------------------------- BlockTier

class BlockTier final : public StorageTier {
 public:
  BlockTier(sim::Simulation& sim, TierSpec spec)
      : StorageTier(sim, std::move(spec)) {}

  sim::Task<Status> put(std::string key, Blob value, IoOptions opts) override;
  sim::Task<Result<Blob>> get(std::string key, IoOptions opts) override;
  sim::Task<Status> remove(std::string key) override;

  bool contains(const std::string& key) const override {
    return entries_.contains(key);
  }
  int64_t used_bytes() const override { return used_bytes_; }
  int64_t object_count() const override {
    return static_cast<int64_t>(entries_.size());
  }

  // Models "running a memory-intensive application" (paper §5.3): the page
  // cache is effectively gone.
  void set_memory_pressure(bool pressure) { memory_pressure_ = pressure; }

  // A host crash empties the OS page cache (data on the device survives).
  void drop_cache() {
    cache_.clear();
    cache_lru_.clear();
    cache_bytes_ = 0;
  }

  void recover() override;
  bool corrupt_object(const std::string& key) override;

 private:
  // Reserve the next device slot under the IOPS throttle; returns the time
  // the device can start this op.
  TimePoint reserve_device_slot();
  bool cache_lookup(const std::string& key);
  void cache_insert(const std::string& key, int64_t bytes);
  void cache_erase(const std::string& key);

  FlatHashMap<std::string, Blob> entries_;
  // Shadow journal: torn writes staged here instead of entries_ when the
  // tier is crash-consistent; recover() discards them.
  FlatHashMap<std::string, Blob> journal_;
  int64_t used_bytes_ = 0;
  bool memory_pressure_ = false;
  TimePoint next_device_slot_ = TimePoint::origin();

  // Page cache, laid out like MemoryTier's entries: the LRU list owns each
  // cached key (front = most recent) and the table points at its node.
  struct CacheEntry {
    std::string key;
    int64_t bytes = 0;
  };
  using CacheLru = std::list<CacheEntry>;
  FlatHashMap<std::string_view, CacheLru::iterator> cache_;
  CacheLru cache_lru_;
  int64_t cache_bytes_ = 0;
};

// ---------------------------------------------------------------- ObjectTier

class ObjectTier final : public StorageTier {
 public:
  ObjectTier(sim::Simulation& sim, TierSpec spec)
      : StorageTier(sim, std::move(spec)) {}

  sim::Task<Status> put(std::string key, Blob value, IoOptions opts) override;
  sim::Task<Result<Blob>> get(std::string key, IoOptions opts) override;
  sim::Task<Status> remove(std::string key) override;

  bool contains(const std::string& key) const override {
    return entries_.contains(key);
  }
  int64_t used_bytes() const override { return used_bytes_; }
  int64_t object_count() const override {
    return static_cast<int64_t>(entries_.size());
  }

  void recover() override;
  bool corrupt_object(const std::string& key) override;

 private:
  FlatHashMap<std::string, Blob> entries_;
  FlatHashMap<std::string, Blob> journal_;  // staged torn writes
  int64_t used_bytes_ = 0;
};

// Calibrated 4 KB service times (Fig. 9 / DESIGN.md §5) and a factory that
// fills TierSpec defaults from them.
namespace calibration {
inline constexpr int64_t kMemoryReadUs = 200;
inline constexpr int64_t kMemoryWriteUs = 250;
inline constexpr int64_t kSsdReadUs = 1000;
inline constexpr int64_t kSsdWriteUs = 1200;
inline constexpr int64_t kHddReadUs = 8000;
inline constexpr int64_t kHddWriteUs = 9000;
inline constexpr int64_t kCacheHitUs = 60;  // page-cache hit (<1 ms, paper)
inline constexpr int64_t kS3ReadUs = 15000;
inline constexpr int64_t kS3WriteUs = 25000;
inline constexpr int64_t kS3IAReadUs = 30000;
inline constexpr int64_t kS3IAWriteUs = 40000;
inline constexpr int64_t kGlacierReadUs = 3600LL * 1000 * 1000;  // hours
inline constexpr int64_t kGlacierWriteUs = 50000;

inline constexpr double kMemoryMbps = 250.0;
inline constexpr double kSsdMbps = 160.0;
inline constexpr double kHddMbps = 90.0;
inline constexpr double kObjectMbps = 50.0;

inline constexpr int64_t kAzureDiskIops = 500;  // Fig. 11 throttle
}  // namespace calibration

// Build a tier with calibrated defaults for its kind. Fields explicitly set
// in `spec` (non-zero latencies/bandwidth) are kept.
std::unique_ptr<StorageTier> make_tier(sim::Simulation& sim, TierSpec spec);

}  // namespace wiera::store
