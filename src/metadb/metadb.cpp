#include "metadb/metadb.h"

#include <algorithm>
#include <cassert>
#include <cstring>

#include "rpc/wire.h"

namespace wiera::metadb {

TimePoint ObjectMeta::last_accessed() const {
  TimePoint latest = TimePoint::origin();
  for (const auto& [_, vm] : versions) {
    latest = std::max(latest, std::max(vm.last_accessed, vm.create_time));
  }
  return latest;
}

namespace {

bool latest_dirty(const ObjectMeta& obj) {
  const VersionMeta* latest = obj.latest();
  return latest != nullptr && latest->dirty;
}

}  // namespace

ObjectMeta& MetaDb::record(const std::string& key) {
  if (Records::iterator* found = index_.find(key)) return (*found)->second;
  auto it = objects_.try_emplace(key).first;
  index_.try_emplace(std::string_view(it->first), it);
  it->second.key = key;
  it->second.created = ++records_created_;
  return it->second;
}

VersionMeta& MetaDb::upsert_row(ObjectMeta& obj, int64_t version) {
  obj.max_allocated = std::max(obj.max_allocated, version);
  const bool was_dirty = latest_dirty(obj);
  VersionMeta& vm = obj.versions[version];
  vm.version = version;
  reindex(obj, was_dirty);
  return vm;
}

void MetaDb::reindex(const ObjectMeta& obj, bool was_dirty) {
  const bool dirty = latest_dirty(obj);
  if (dirty == was_dirty) return;
  if (dirty) {
    dirty_.insert(obj.key);
  } else {
    dirty_.erase(obj.key);
  }
}

void MetaDb::erase_record(Records::iterator it) {
  if (open_scans_ > 0) erased_.push_back({it->first, it->second.created});
  dirty_.erase(it->first);
  index_.erase(std::string_view(it->first));
  objects_.erase(it);
}

VersionMeta& MetaDb::upsert_version(const std::string& key, int64_t version) {
  return upsert_row(record(key), version);
}

void MetaDb::set_dirty(const std::string& key, int64_t version, bool dirty) {
  ObjectMeta& obj = record(key);
  VersionMeta& vm = upsert_row(obj, version);
  const bool was_dirty = latest_dirty(obj);
  vm.dirty = dirty;
  reindex(obj, was_dirty);
}

void MetaDb::restore_version(const std::string& key, const VersionMeta& row) {
  ObjectMeta& obj = record(key);
  VersionMeta& vm = upsert_row(obj, row.version);
  const bool was_dirty = latest_dirty(obj);
  vm = row;
  reindex(obj, was_dirty);
}

const ObjectMeta* MetaDb::find(const std::string& key) const {
  const Records::iterator* it = index_.find(key);
  return it == nullptr ? nullptr : &(*it)->second;
}

const VersionMeta* MetaDb::find_version(const std::string& key,
                                        int64_t version) const {
  const ObjectMeta* obj = find(key);
  if (obj == nullptr) return nullptr;
  auto it = obj->versions.find(version);
  return it == obj->versions.end() ? nullptr : &it->second;
}

void MetaDb::record_access(const std::string& key, int64_t version,
                           TimePoint now) {
  Records::iterator* entry = index_.find(key);
  if (entry == nullptr) return;
  ObjectMeta& obj = (*entry)->second;
  auto it = obj.versions.find(version);
  if (it == obj.versions.end()) return;
  it->second.last_accessed = now;
  it->second.access_count++;
}

Status MetaDb::remove_version(const std::string& key, int64_t version) {
  Records::iterator* entry = index_.find(key);
  if (entry == nullptr) return not_found("metadb object: " + key);
  ObjectMeta& obj = (*entry)->second;
  const bool was_dirty = latest_dirty(obj);
  if (obj.versions.erase(version) == 0) {
    return not_found("metadb version of " + key);
  }
  if (obj.versions.empty()) {
    erase_record(*entry);
  } else {
    reindex(obj, was_dirty);
  }
  return ok_status();
}

Status MetaDb::remove_object(const std::string& key) {
  Records::iterator* entry = index_.find(key);
  if (entry == nullptr) return not_found("metadb object: " + key);
  erase_record(*entry);
  return ok_status();
}

Status MetaDb::forget_version(const std::string& key, int64_t version) {
  Records::iterator* entry = index_.find(key);
  if (entry == nullptr) return not_found("metadb object: " + key);
  ObjectMeta& obj = (*entry)->second;
  const bool was_dirty = latest_dirty(obj);
  if (obj.versions.erase(version) == 0) {
    return not_found("metadb version of " + key);
  }
  // Deliberately keep the (possibly now version-less) object record: it
  // carries max_allocated, the floor for future version allocation.
  reindex(obj, was_dirty);
  return ok_status();
}

void MetaDb::add_tag(const std::string& key, const std::string& tag) {
  record(key).tags.insert(tag);
}

bool MetaDb::has_tag(const std::string& key, const std::string& tag) const {
  const ObjectMeta* obj = find(key);
  return obj != nullptr && obj->tags.count(tag) > 0;
}

std::vector<std::string> MetaDb::cold_objects(TimePoint now,
                                              Duration threshold) const {
  std::vector<std::string> out;
  for (const auto& [key, obj] : objects_) {
    if (obj.versions.empty()) continue;
    if (now - obj.last_accessed() > threshold) out.push_back(key);
  }
  return out;
}

std::vector<std::string> MetaDb::keys_with_tag(const std::string& tag) const {
  std::vector<std::string> out;
  for (const auto& [key, obj] : objects_) {
    if (obj.tags.count(tag) > 0) out.push_back(key);
  }
  return out;
}

std::vector<std::string> MetaDb::keys() const {
  std::vector<std::string> out;
  out.reserve(objects_.size());
  for (const auto& [key, _] : objects_) out.push_back(key);
  return out;
}

MetaDb::Scan MetaDb::open_scan() {
  ++open_scans_;
  return Scan{records_created_, erased_.size()};
}

void MetaDb::close_scan(const Scan& /*scan*/) {
  assert(open_scans_ > 0);
  if (--open_scans_ == 0) erased_.clear();
}

bool MetaDb::in_scan(const Scan& scan, const ObjectMeta& obj) const {
  if (obj.created <= scan.opened_at) return true;
  // Created after the scan opened: it still belongs if it replaced a record
  // of the same key that the scan held. Only records created mid-scan get
  // here, and the log holds only erasures made while a scan was open.
  for (size_t i = scan.erased_from; i < erased_.size(); ++i) {
    if (erased_[i].created <= scan.opened_at && erased_[i].key == obj.key) {
      return true;
    }
  }
  return false;
}

const ObjectMeta* MetaDb::next_object(const Scan& scan,
                                      const std::string* after,
                                      bool dirty_only) const {
  if (dirty_only) {
    auto it = after == nullptr ? dirty_.begin() : dirty_.upper_bound(*after);
    for (; it != dirty_.end(); ++it) {
      const ObjectMeta& obj = (*index_.find(*it))->second;
      if (in_scan(scan, obj)) return &obj;
    }
    return nullptr;
  }
  auto it = after == nullptr ? objects_.begin() : objects_.upper_bound(*after);
  for (; it != objects_.end(); ++it) {
    if (in_scan(scan, it->second)) return &it->second;
  }
  return nullptr;
}

int64_t MetaDb::version_count() const {
  int64_t n = 0;
  for (const auto& [_, obj] : objects_) {
    n += static_cast<int64_t>(obj.versions.size());
  }
  return n;
}

Bytes MetaDb::serialize() const {
  rpc::WireWriter w;
  w.put_u32(static_cast<uint32_t>(objects_.size()));
  for (const auto& [key, obj] : objects_) {
    w.put_string(key);
    w.put_i64(obj.max_allocated);
    w.put_u32(static_cast<uint32_t>(obj.tags.size()));
    for (const auto& tag : obj.tags) w.put_string(tag);
    w.put_u32(static_cast<uint32_t>(obj.versions.size()));
    for (const auto& [_, vm] : obj.versions) rpc::put_field(w, vm);
  }
  // Snapshot checksum: a torn or bit-flipped metadata file must fail to
  // load, never half-load (docs/INTEGRITY.md).
  const uint64_t body_sum = fnv1a64(w.bytes().data(), w.bytes().size());
  w.put_u64(body_sum);
  return w.take();
}

Status MetaDb::deserialize(const Bytes& data) {
  if (data.size() < sizeof(uint64_t)) {
    return data_loss("metadb snapshot truncated below checksum footer");
  }
  const size_t body_size = data.size() - sizeof(uint64_t);
  uint64_t stored_sum = 0;
  std::memcpy(&stored_sum, data.data() + body_size, sizeof(stored_sum));
  if (stored_sum != fnv1a64(data.data(), body_size)) {
    return data_loss("metadb snapshot checksum mismatch");
  }
  rpc::WireReader r(data.data(), body_size);
  std::map<std::string, ObjectMeta> loaded;
  const uint32_t n_objects = r.get_u32();
  for (uint32_t i = 0; i < n_objects && r.ok(); ++i) {
    ObjectMeta obj;
    obj.key = r.get_string();
    obj.max_allocated = r.get_i64();
    const uint32_t n_tags = r.get_u32();
    for (uint32_t t = 0; t < n_tags && r.ok(); ++t) {
      obj.tags.insert(r.get_string());
    }
    const uint32_t n_versions = r.get_u32();
    for (uint32_t v = 0; v < n_versions && r.ok(); ++v) {
      VersionMeta vm;
      rpc::get_field(r, vm);
      obj.versions[vm.version] = vm;
    }
    loaded[obj.key] = std::move(obj);
  }
  if (!r.ok()) return r.status();
  if (r.remaining() != 0) {
    return invalid_argument("metadb snapshot has trailing bytes");
  }
  if (open_scans_ > 0) {
    for (const auto& [key, obj] : objects_) {
      erased_.push_back({key, obj.created});
    }
  }
  objects_ = std::move(loaded);
  index_.clear();
  dirty_.clear();
  for (auto it = objects_.begin(); it != objects_.end(); ++it) {
    index_.try_emplace(std::string_view(it->first), it);
    it->second.created = ++records_created_;
    if (latest_dirty(it->second)) dirty_.insert(dirty_.end(), it->first);
  }
  return ok_status();
}

}  // namespace wiera::metadb
