// Versioned object-metadata store — the BerkeleyDB stand-in (§4.2).
//
// Each Tiera instance persists, per object: tags plus per-version metadata
// (version number, create time, last modified/accessed time, access count,
// dirty bit, tier location, origin instance). The Wiera conflict-resolution
// logic (last-write-wins) and the policy engine's metadata-driven events
// (ColdDataMonitoring, dirty-object write-back) all read this store.
//
// Metadata operations are in-memory and instantaneous in virtual time (the
// paper persists metadata via BerkeleyDB off the data path); serialize()/
// deserialize() provide the durability round-trip.
#pragma once

#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "common/bytes.h"
#include "common/flat_hash.h"
#include "common/small_vec.h"
#include "common/status.h"
#include "common/time.h"

namespace wiera::metadb {

struct VersionMeta {
  int64_t version = 0;
  int64_t size = 0;
  TimePoint create_time;
  TimePoint last_modified;
  TimePoint last_accessed;
  int64_t access_count = 0;
  // Not yet written back to a persistent tier. Changed only through
  // MetaDb::set_dirty / restore_version, which keep the dirty index.
  bool dirty = false;
  // A version becomes visible to readers only once its payload landed in a
  // tier; in-flight writes must not be served (they would read as missing).
  bool committed = false;
  std::string tier;          // which tier currently holds this version
  std::string origin;        // instance that created this version
  // object_checksum(key, version, payload) — verified on every tier read
  // and identical across replicas holding the same version (scrub digest).
  uint64_t checksum = 0;

  // The snapshot row (MetaDb::serialize), in wire order.
  template <class Self>
  static auto wire_fields(Self& m) {
    return std::tie(m.version, m.size, m.create_time, m.last_modified,
                    m.last_accessed, m.access_count, m.dirty, m.committed,
                    m.tier, m.origin, m.checksum);
  }
};

struct ObjectMeta {
  std::string key;
  std::set<std::string> tags;
  // version number -> metadata; ordered so *rbegin() is the latest. A key
  // holds a handful of versions (max_versions caps it), so this is a flat
  // sorted map with inline storage — no heap node per version on the PUT
  // hot path. Unlike std::map, mutating it moves rows: VersionMeta
  // pointers/references must not be held across an upsert/remove of the
  // same key (the await-hazard lint already forbids holding them across
  // suspension points, where concurrent mutation could bite either way).
  FlatMap<int64_t, VersionMeta, 4> versions;
  // Highest version number ever recorded for this key. Never decremented:
  // forget_version() may drop the latest version's row (quarantined copy,
  // lost durable payload) but allocation must stay monotonic — reusing a
  // burned number would let two distinct committed payloads share one
  // version id (docs/INTEGRITY.md).
  int64_t max_allocated = 0;
  // When MetaDb created this record, on its record counter: a scan holds
  // the records created before it opened (MetaDb::open_scan).
  uint64_t created = 0;

  bool has_version(int64_t v) const { return versions.count(v) > 0; }
  // Highest version number, committed or not (used to allocate the next).
  int64_t latest_version() const {
    return versions.empty() ? 0 : versions.rbegin()->first;
  }
  const VersionMeta* latest() const {
    return versions.empty() ? nullptr : &versions.rbegin()->second;
  }
  // Highest *readable* version (payload fully written). Null when none.
  const VersionMeta* latest_committed() const {
    for (auto it = versions.rbegin(); it != versions.rend(); ++it) {
      if (it->second.committed) return &it->second;
    }
    return nullptr;
  }
  // Most recent access across versions (drives cold-data detection).
  TimePoint last_accessed() const;
};

// Records live in one key-ordered map, which every walk (scans, cold_objects,
// keys, serialize) follows. A flat hash index over that map answers every
// point lookup by key with one probe; only record(), erase_record() and
// deserialize() create or drop records, so only they maintain it.
class MetaDb {
 public:
  MetaDb() = default;
  // The index points into this store's own map: a copy would point into
  // the source.
  MetaDb(const MetaDb&) = delete;
  MetaDb& operator=(const MetaDb&) = delete;

  // What a scan holds: the keys that had a record when it opened. A key
  // created later is not in it; a key erased and re-created since is.
  struct Scan {
    uint64_t opened_at = 0;  // records created up to this stamp belong
    size_t erased_from = 0;  // the erase log's length when it opened
  };

  // Record (or update) a version's metadata. Creates the object record on
  // first use. Set the dirty bit with set_dirty, not through the returned
  // row, so the dirty index sees it.
  VersionMeta& upsert_version(const std::string& key, int64_t version);
  // Set a version's dirty bit, creating the row like upsert_version.
  void set_dirty(const std::string& key, int64_t version, bool dirty);
  // Write a whole row back (a failed write restoring the row it replaced),
  // creating it like upsert_version.
  void restore_version(const std::string& key, const VersionMeta& row);

  // Lookup. Null when absent.
  const ObjectMeta* find(const std::string& key) const;
  const VersionMeta* find_version(const std::string& key,
                                  int64_t version) const;

  // Bump access statistics for a version.
  void record_access(const std::string& key, int64_t version, TimePoint now);

  Status remove_version(const std::string& key, int64_t version);
  Status remove_object(const std::string& key);
  // Drop a version's row but keep the object record (tags + max_allocated)
  // even when no versions remain. Integrity paths use this when a payload
  // is quarantined or lost: the row must go (so a peer's repair of the same
  // version is not LWW-rejected as a stale duplicate) but the allocation
  // high-water mark must survive.
  Status forget_version(const std::string& key, int64_t version);

  void add_tag(const std::string& key, const std::string& tag);
  bool has_tag(const std::string& key, const std::string& tag) const;

  // Objects whose most recent access is older than `threshold` at `now`.
  // Used by ColdDataMonitoring events (Fig. 6a).
  std::vector<std::string> cold_objects(TimePoint now,
                                        Duration threshold) const;
  // Keys whose tag set contains `tag` (object-class policies, §2.2).
  std::vector<std::string> keys_with_tag(const std::string& tag) const;

  std::vector<std::string> keys() const;
  size_t object_count() const { return objects_.size(); }
  int64_t version_count() const;

  // The dirty index: every key whose latest row (committed or not) is
  // dirty, in key order — exactly the objects an `object.dirty == true`
  // selector can match.
  const std::set<std::string>& dirty_keys() const { return dirty_; }

  // Scans are opened and closed by hand, not by a guard: at teardown the
  // simulation may destroy a suspended scan's frame after the store is gone.
  Scan open_scan();
  void close_scan(const Scan& scan);
  // Whether `obj`'s key had a record when `scan` opened.
  bool in_scan(const Scan& scan, const ObjectMeta& obj) const;
  // The first record `scan` holds after key `after` (from the first key
  // when null), in key order; with `dirty_only`, from the dirty index.
  const ObjectMeta* next_object(const Scan& scan, const std::string* after,
                                bool dirty_only) const;

  // Durability round-trip (BerkeleyDB role). The format is the project wire
  // format plus a trailing FNV-1a checksum of the body; deserialize replaces
  // current contents only after the whole snapshot validates (truncated,
  // bit-flipped, or trailing-garbage input returns a non-OK Status and
  // leaves the store untouched).
  Bytes serialize() const;
  Status deserialize(const Bytes& data);

 private:
  using Records = std::map<std::string, ObjectMeta>;
  using Index = FlatHashMap<std::string_view, Records::iterator>;

  // The key's record, created (and stamped) when absent.
  ObjectMeta& record(const std::string& key);
  VersionMeta& upsert_row(ObjectMeta& obj, int64_t version);
  // Brings the dirty index up to date after a change to `obj`'s rows.
  void reindex(const ObjectMeta& obj, bool was_dirty);
  void erase_record(Records::iterator it);

  Records objects_;
  // Key -> record, keyed by a view of the map node's own key.
  Index index_;
  std::set<std::string> dirty_;
  uint64_t records_created_ = 0;
  // Records erased while any scan is open (key, creation stamp); cleared
  // when the last scan closes.
  struct Erased {
    std::string key;
    uint64_t created = 0;
  };
  std::vector<Erased> erased_;
  int open_scans_ = 0;
};

}  // namespace wiera::metadb
