#include "metadb/metadb.h"

#include <algorithm>
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

VersionMeta& MetaDb::upsert_version(const std::string& key, int64_t version) {
  ObjectMeta& obj = objects_[key];
  obj.key = key;
  obj.max_allocated = std::max(obj.max_allocated, version);
  VersionMeta& vm = obj.versions[version];
  vm.version = version;
  return vm;
}

const ObjectMeta* MetaDb::find(const std::string& key) const {
  auto it = objects_.find(key);
  return it == objects_.end() ? nullptr : &it->second;
}

ObjectMeta* MetaDb::find_mutable(const std::string& key) {
  auto it = objects_.find(key);
  return it == objects_.end() ? nullptr : &it->second;
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
  ObjectMeta* obj = find_mutable(key);
  if (obj == nullptr) return;
  auto it = obj->versions.find(version);
  if (it == obj->versions.end()) return;
  it->second.last_accessed = now;
  it->second.access_count++;
}

Status MetaDb::remove_version(const std::string& key, int64_t version) {
  ObjectMeta* obj = find_mutable(key);
  if (obj == nullptr) return not_found("metadb object: " + key);
  if (obj->versions.erase(version) == 0) {
    return not_found("metadb version of " + key);
  }
  if (obj->versions.empty()) objects_.erase(key);
  return ok_status();
}

Status MetaDb::remove_object(const std::string& key) {
  if (objects_.erase(key) == 0) return not_found("metadb object: " + key);
  return ok_status();
}

Status MetaDb::forget_version(const std::string& key, int64_t version) {
  ObjectMeta* obj = find_mutable(key);
  if (obj == nullptr) return not_found("metadb object: " + key);
  if (obj->versions.erase(version) == 0) {
    return not_found("metadb version of " + key);
  }
  // Deliberately keep the (possibly now version-less) object record: it
  // carries max_allocated, the floor for future version allocation.
  return ok_status();
}

void MetaDb::add_tag(const std::string& key, const std::string& tag) {
  ObjectMeta& obj = objects_[key];
  obj.key = key;
  obj.tags.insert(tag);
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
  objects_ = std::move(loaded);
  return ok_status();
}

}  // namespace wiera::metadb
