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
#include <tuple>
#include <vector>

#include "common/bytes.h"
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
  bool dirty = false;        // not yet written back to a persistent tier
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

class MetaDb {
 public:
  // Record (or update) a version's metadata. Creates the object record on
  // first use.
  VersionMeta& upsert_version(const std::string& key, int64_t version);

  // Lookup. Null when absent.
  const ObjectMeta* find(const std::string& key) const;
  ObjectMeta* find_mutable(const std::string& key);
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

  // Durability round-trip (BerkeleyDB role). The format is the project wire
  // format plus a trailing FNV-1a checksum of the body; deserialize replaces
  // current contents only after the whole snapshot validates (truncated,
  // bit-flipped, or trailing-garbage input returns a non-OK Status and
  // leaves the store untouched).
  Bytes serialize() const;
  Status deserialize(const Bytes& data);

 private:
  std::map<std::string, ObjectMeta> objects_;
};

}  // namespace wiera::metadb
