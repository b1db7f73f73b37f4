#include "store/tier.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <optional>

#include "common/strings.h"

namespace wiera::store {

std::string_view tier_kind_name(TierKind kind) {
  switch (kind) {
    case TierKind::kMemory: return "memory";
    case TierKind::kBlockSsd: return "block-ssd";
    case TierKind::kBlockHdd: return "block-hdd";
    case TierKind::kObjectS3: return "s3";
    case TierKind::kObjectS3IA: return "s3-ia";
    case TierKind::kGlacier: return "glacier";
    case TierKind::kForward: return "forward";
  }
  return "?";
}

Result<TierKind> tier_kind_from_name(std::string_view name) {
  const std::string n = to_lower(name);
  if (n == "memcached" || n == "localmemory" || n == "memory" ||
      n == "elasticache") {
    return TierKind::kMemory;
  }
  if (n == "ebs" || n == "ebs-ssd" || n == "localdisk" || n == "ssd") {
    return TierKind::kBlockSsd;
  }
  if (n == "ebs-hdd" || n == "hdd" || n == "magnetic") {
    return TierKind::kBlockHdd;
  }
  if (n == "s3") return TierKind::kObjectS3;
  if (n == "s3-ia" || n == "s3ia") return TierKind::kObjectS3IA;
  if (n == "glacier" || n == "cheapestarchival" || n == "archival") {
    return TierKind::kGlacier;
  }
  if (n == "forward" || n == "instance") return TierKind::kForward;
  return invalid_argument("unknown storage tier name: " + std::string(name));
}

Duration StorageTier::service_time(Duration base, int64_t bytes) {
  Duration t = base;
  if (bytes > 0 && spec_.bandwidth_mbps > 0) {
    t += sec(static_cast<double>(bytes) / (spec_.bandwidth_mbps * 1e6));
  }
  if (spec_.jitter_fraction > 0) {
    const double k = std::max(0.5, 1.0 + spec_.jitter_fraction * rng_.gaussian());
    t = t * k;
  }
  const TimePoint now = sim_->now();
  for (const auto& f : faults_) {
    if (f.slowdown > 1.0 && now >= f.from && now < f.until) {
      t = t * f.slowdown;
    }
  }
  return t;
}

void StorageTier::inject_slowdown(double factor, TimePoint from,
                                  TimePoint until) {
  FaultWindow w;
  w.slowdown = factor;
  w.from = from;
  w.until = until;
  faults_.push_back(w);
}

void StorageTier::inject_write_errors(TimePoint from, TimePoint until) {
  FaultWindow w;
  w.write_error = true;
  w.from = from;
  w.until = until;
  faults_.push_back(w);
}

void StorageTier::inject_torn_writes(TimePoint from, TimePoint until) {
  FaultWindow w;
  w.torn_write = true;
  w.from = from;
  w.until = until;
  faults_.push_back(w);
}

Status StorageTier::write_fault() const {
  const TimePoint now = sim_->now();
  for (const auto& f : faults_) {
    if (f.write_error && now >= f.from && now < f.until) {
      return resource_exhausted("injected ENOSPC on tier " + spec_.name);
    }
  }
  return ok_status();
}

bool StorageTier::torn_fault() const {
  const TimePoint now = sim_->now();
  for (const auto& f : faults_) {
    if (f.torn_write && now >= f.from && now < f.until) return true;
  }
  return false;
}

Status StorageTier::grow(int64_t additional_bytes) {
  if (additional_bytes < 0) {
    return invalid_argument("tier grow: negative growth on " + spec_.name);
  }
  if (additional_bytes >
      std::numeric_limits<int64_t>::max() - spec_.capacity_bytes) {
    return out_of_range("tier grow: capacity overflow on " + spec_.name);
  }
  spec_.capacity_bytes += additional_bytes;
  return ok_status();
}

namespace {
// One flipped byte mid-payload: invisible to size checks, fatal to the
// object checksum.
Blob flip_middle_byte(const Blob& value) {
  Bytes mutated(value.data(), value.data() + value.size());
  mutated[mutated.size() / 2] ^= 0x01;
  return Blob(std::move(mutated));
}

// A torn write lands only the first half of the payload (in the journal).
Blob torn_prefix(const Blob& value) {
  return Blob(Bytes(value.data(), value.data() + value.size() / 2));
}

using Copies = FlatHashMap<std::string, Blob>;

// Commits `value` as the copy of `key` and returns the change in stored
// bytes. The copy it replaces is sized here, at commit, not when the write
// was admitted: a remove or another put may land during the device wait.
int64_t commit_copy(Copies& copies, std::string key, Blob value) {
  const auto stored = static_cast<int64_t>(value.size());
  auto [copy, inserted] = copies.try_emplace(std::move(key));
  const int64_t replaced = inserted ? 0 : static_cast<int64_t>(copy->size());
  *copy = std::move(value);
  return stored - replaced;
}

bool corrupt_copy(Copies& copies, const std::string& key) {
  Blob* copy = copies.find(key);
  if (copy == nullptr || copy->empty()) return false;
  *copy = flip_middle_byte(*copy);
  return true;
}
}  // namespace

// ---------------------------------------------------------------- MemoryTier

void MemoryTier::evict_until_fits(int64_t incoming_bytes) {
  if (spec_.capacity_bytes <= 0) return;
  while (used_bytes_ + incoming_bytes > spec_.capacity_bytes &&
         lru_.size() > 1) {
    const Entry& victim = lru_.back();
    used_bytes_ -= static_cast<int64_t>(victim.value.size());
    entries_.erase(std::string_view(victim.key));
    lru_.pop_back();
    stats_.evictions++;
  }
}

sim::Task<Status> MemoryTier::put(std::string key, Blob value,
                                  IoOptions /*opts*/) {
  if (Status fault = write_fault(); !fault.ok()) co_return fault;
  const auto bytes = static_cast<int64_t>(value.size());
  if (spec_.capacity_bytes > 0 && bytes > spec_.capacity_bytes) {
    co_return resource_exhausted("object larger than memory tier");
  }
  co_await sim_->delay(service_time(spec_.write_base, bytes));

  // The entry goes to the front first, so one probe keyed by its own key
  // either claims a slot or finds the copy it replaces.
  lru_.push_front(Entry{std::move(key), std::move(value)});
  auto [node, inserted] =
      entries_.try_emplace(std::string_view(lru_.front().key), lru_.begin());
  if (!inserted) {
    // An overwrite: the old node, which the table keys by, takes the value
    // and moves to the front.
    const Lru::iterator old = *node;
    used_bytes_ -= static_cast<int64_t>(old->value.size());
    old->value = std::move(lru_.front().value);
    lru_.pop_front();
    lru_.splice(lru_.begin(), lru_, old);
  }
  evict_until_fits(bytes);  // memcached-style LRU eviction
  used_bytes_ += bytes;
  stats_.puts++;
  stats_.bytes_written += bytes;
  co_return ok_status();
}

sim::Task<Result<Blob>> MemoryTier::get(std::string key, IoOptions /*opts*/) {
  const Lru::iterator* node = entries_.find(key);
  if (node == nullptr) {
    stats_.gets++;
    stats_.get_misses++;
    co_await sim_->delay(service_time(spec_.read_base, 0));
    co_return not_found("memory tier: " + key);
  }
  // wiera-lint: allow(await-hazard) the await above is in a co_returning miss branch; the hit path re-fetches below
  const auto bytes = static_cast<int64_t>((*node)->value.size());
  co_await sim_->delay(service_time(spec_.read_base, bytes));
  // Entry may have been evicted while this op was "in flight".
  node = entries_.find(key);
  if (node == nullptr) {
    stats_.gets++;
    stats_.get_misses++;
    co_return not_found("memory tier (evicted): " + key);
  }
  lru_.splice(lru_.begin(), lru_, *node);  // most recent first
  stats_.gets++;
  stats_.bytes_read += bytes;
  co_return (*node)->value;
}

bool MemoryTier::corrupt_object(const std::string& key) {
  const Lru::iterator* node = entries_.find(key);
  if (node == nullptr || (*node)->value.empty()) return false;
  (*node)->value = flip_middle_byte((*node)->value);
  stats_.corruptions++;
  return true;
}

sim::Task<Status> MemoryTier::remove(std::string key) {
  co_await sim_->delay(service_time(spec_.write_base / 2, 0));
  const std::optional<Lru::iterator> node = entries_.take(key);
  if (!node) co_return not_found("memory tier: " + key);
  used_bytes_ -= static_cast<int64_t>((*node)->value.size());
  lru_.erase(*node);
  stats_.removes++;
  co_return ok_status();
}

// ---------------------------------------------------------------- BlockTier

TimePoint BlockTier::reserve_device_slot() {
  if (spec_.iops_limit <= 0) return sim_->now();
  const Duration slot_interval = usec(1000000 / spec_.iops_limit);
  const TimePoint start = std::max(sim_->now(), next_device_slot_);
  next_device_slot_ = start + slot_interval;
  return start;
}

bool BlockTier::cache_lookup(const std::string& key) {
  if (!spec_.buffer_cache || memory_pressure_) return false;
  const CacheLru::iterator* node = cache_.find(key);
  if (node == nullptr) return false;
  cache_lru_.splice(cache_lru_.begin(), cache_lru_, *node);
  return true;
}

void BlockTier::cache_insert(const std::string& key, int64_t bytes) {
  if (!spec_.buffer_cache || memory_pressure_) return;
  // As in MemoryTier::put: front first, then one probe by the node's key.
  cache_lru_.push_front(CacheEntry{key, bytes});
  auto [node, inserted] = cache_.try_emplace(
      std::string_view(cache_lru_.front().key), cache_lru_.begin());
  if (!inserted) {
    const CacheLru::iterator old = *node;
    cache_bytes_ -= old->bytes;
    old->bytes = bytes;
    cache_lru_.pop_front();
    cache_lru_.splice(cache_lru_.begin(), cache_lru_, old);
  }
  if (spec_.buffer_cache_bytes > 0) {
    // Evicts from the LRU end, sparing the entry just inserted.
    while (cache_bytes_ + bytes > spec_.buffer_cache_bytes &&
           cache_lru_.size() > 1) {
      const CacheEntry& victim = cache_lru_.back();
      cache_bytes_ -= victim.bytes;
      cache_.erase(std::string_view(victim.key));
      cache_lru_.pop_back();
    }
  }
  cache_bytes_ += bytes;
}

void BlockTier::cache_erase(const std::string& key) {
  const std::optional<CacheLru::iterator> node = cache_.take(key);
  if (!node) return;
  cache_bytes_ -= (*node)->bytes;
  cache_lru_.erase(*node);
}

sim::Task<Status> BlockTier::put(std::string key, Blob value, IoOptions opts) {
  if (io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("block tier put: " + spec_.name);
  }
  if (Status fault = write_fault(); !fault.ok()) co_return fault;
  const auto bytes = static_cast<int64_t>(value.size());
  // Admission only: commit_copy accounts for the copy this write replaces.
  const Blob* current = entries_.find(key);
  const int64_t current_bytes =
      current == nullptr ? 0 : static_cast<int64_t>(current->size());
  if (spec_.capacity_bytes > 0 &&
      used_bytes_ - current_bytes + bytes > spec_.capacity_bytes) {
    co_return resource_exhausted("block tier full: " + spec_.name);
  }

  const bool cached_write =
      !opts.direct && spec_.buffer_cache && !memory_pressure_;
  if (cached_write) {
    // Write-back: lands in the page cache; device flush is asynchronous and
    // not modelled per-op.
    co_await sim_->delay(service_time(usec(calibration::kCacheHitUs), bytes));
    cache_insert(key, bytes);
    stats_.cache_hits++;
  } else {
    const TimePoint slot = reserve_device_slot();
    co_await sim_->at(slot);
    co_await sim_->delay(service_time(spec_.write_base, bytes));
    stats_.cache_misses++;
  }

  if (torn_fault()) {
    // Shadow commit: the partial write stays staged in the journal and is
    // discarded by recover(); the previous committed copy is untouched.
    stats_.torn_writes++;
    cache_erase(key);
    *journal_.try_emplace(std::move(key)).first = torn_prefix(value);
    co_return data_loss("torn write staged on tier " + spec_.name);
  }

  used_bytes_ += commit_copy(entries_, std::move(key), std::move(value));
  stats_.puts++;
  stats_.bytes_written += bytes;
  co_return ok_status();
}

void BlockTier::recover() {
  stats_.torn_discards += static_cast<int64_t>(journal_.size());
  journal_.clear();
}

bool BlockTier::corrupt_object(const std::string& key) {
  if (!corrupt_copy(entries_, key)) return false;
  stats_.corruptions++;
  return true;
}

sim::Task<Result<Blob>> BlockTier::get(std::string key, IoOptions opts) {
  if (io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("block tier get: " + spec_.name);
  }
  const Blob* copy = entries_.find(key);
  stats_.gets++;
  if (copy == nullptr) {
    stats_.get_misses++;
    co_await sim_->delay(service_time(usec(calibration::kCacheHitUs), 0));
    co_return not_found("block tier: " + key);
  }
  // wiera-lint: allow(await-hazard) the await above is in a co_returning miss branch; the device path re-fetches below
  const auto bytes = static_cast<int64_t>(copy->size());

  if (!opts.direct && cache_lookup(key)) {
    stats_.cache_hits++;
    co_await sim_->delay(service_time(usec(calibration::kCacheHitUs), bytes));
  } else {
    stats_.cache_misses++;
    const TimePoint slot = reserve_device_slot();
    co_await sim_->at(slot);
    co_await sim_->delay(service_time(spec_.read_base, bytes));
    if (!opts.direct) cache_insert(key, bytes);
  }

  copy = entries_.find(key);
  if (copy == nullptr) co_return not_found("block tier (removed): " + key);
  stats_.bytes_read += bytes;
  co_return *copy;
}

sim::Task<Status> BlockTier::remove(std::string key) {
  co_await sim_->delay(service_time(usec(calibration::kCacheHitUs), 0));
  const std::optional<Blob> copy = entries_.take(key);
  if (!copy) co_return not_found("block tier: " + key);
  used_bytes_ -= static_cast<int64_t>(copy->size());
  cache_erase(key);
  stats_.removes++;
  co_return ok_status();
}

// ---------------------------------------------------------------- ObjectTier

sim::Task<Status> ObjectTier::put(std::string key, Blob value,
                                  IoOptions opts) {
  if (io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("object tier put: " + spec_.name);
  }
  if (Status fault = write_fault(); !fault.ok()) co_return fault;
  const auto bytes = static_cast<int64_t>(value.size());
  co_await sim_->delay(service_time(spec_.write_base, bytes));
  if (torn_fault()) {
    // Staged in the journal, discarded by recover(); the previous committed
    // copy is untouched.
    stats_.torn_writes++;
    *journal_.try_emplace(std::move(key)).first = torn_prefix(value);
    co_return data_loss("torn write staged on tier " + spec_.name);
  }
  used_bytes_ += commit_copy(entries_, std::move(key), std::move(value));
  stats_.puts++;
  stats_.bytes_written += bytes;
  co_return ok_status();
}

void ObjectTier::recover() {
  stats_.torn_discards += static_cast<int64_t>(journal_.size());
  journal_.clear();
}

bool ObjectTier::corrupt_object(const std::string& key) {
  if (!corrupt_copy(entries_, key)) return false;
  stats_.corruptions++;
  return true;
}

sim::Task<Result<Blob>> ObjectTier::get(std::string key, IoOptions opts) {
  if (io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("object tier get: " + spec_.name);
  }
  stats_.gets++;
  const Blob* copy = entries_.find(key);
  if (copy == nullptr) {
    stats_.get_misses++;
    co_await sim_->delay(service_time(spec_.read_base, 0));
    co_return not_found("object tier: " + key);
  }
  // wiera-lint: allow(await-hazard) the await above is in a co_returning miss branch; re-fetched below
  const auto bytes = static_cast<int64_t>(copy->size());
  co_await sim_->delay(service_time(spec_.read_base, bytes));
  copy = entries_.find(key);
  if (copy == nullptr) co_return not_found("object tier (removed): " + key);
  stats_.bytes_read += bytes;
  co_return *copy;
}

sim::Task<Status> ObjectTier::remove(std::string key) {
  co_await sim_->delay(service_time(spec_.write_base / 4, 0));
  const std::optional<Blob> copy = entries_.take(key);
  if (!copy) co_return not_found("object tier: " + key);
  used_bytes_ -= static_cast<int64_t>(copy->size());
  stats_.removes++;
  co_return ok_status();
}

// ---------------------------------------------------------------- factory

std::unique_ptr<StorageTier> make_tier(sim::Simulation& sim, TierSpec spec) {
  using namespace calibration;
  auto defaults = [&](int64_t read_us, int64_t write_us, double mbps) {
    if (spec.read_base == Duration::zero()) spec.read_base = usec(read_us);
    if (spec.write_base == Duration::zero()) spec.write_base = usec(write_us);
    if (spec.bandwidth_mbps == 0) spec.bandwidth_mbps = mbps;
  };

  switch (spec.kind) {
    case TierKind::kMemory:
      defaults(kMemoryReadUs, kMemoryWriteUs, kMemoryMbps);
      return std::make_unique<MemoryTier>(sim, std::move(spec));
    case TierKind::kBlockSsd:
      defaults(kSsdReadUs, kSsdWriteUs, kSsdMbps);
      return std::make_unique<BlockTier>(sim, std::move(spec));
    case TierKind::kBlockHdd:
      defaults(kHddReadUs, kHddWriteUs, kHddMbps);
      return std::make_unique<BlockTier>(sim, std::move(spec));
    case TierKind::kObjectS3:
      defaults(kS3ReadUs, kS3WriteUs, kObjectMbps);
      return std::make_unique<ObjectTier>(sim, std::move(spec));
    case TierKind::kObjectS3IA:
      defaults(kS3IAReadUs, kS3IAWriteUs, kObjectMbps);
      return std::make_unique<ObjectTier>(sim, std::move(spec));
    case TierKind::kGlacier:
      defaults(kGlacierReadUs, kGlacierWriteUs, kObjectMbps);
      return std::make_unique<ObjectTier>(sim, std::move(spec));
    case TierKind::kForward:
      assert(false && "forward tiers are built by the tiera module");
      return nullptr;
  }
  return nullptr;
}

}  // namespace wiera::store
