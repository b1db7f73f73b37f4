#include "tiera/instance.h"

#include <algorithm>
#include <cassert>
#include <optional>
#include <set>

#include "common/checksum.h"
#include "common/logging.h"
#include "common/strings.h"
#include "policy/parser.h"

namespace wiera::tiera {

namespace {
constexpr char kComponent[] = "tiera";
}  // namespace

std::string TieraInstance::versioned_key(const std::string& key,
                                         int64_t version) {
  return key + "#" + std::to_string(version);
}

TieraInstance::TieraInstance(sim::Simulation& sim, Config config)
    : sim_(&sim), config_(std::move(config)) {
  metrics_ = &sim.telemetry().registry();
  const obs::LabelSet inst{{"instance", config_.instance_id}};
  put_hist_ = metrics_->histogram("tiera_put_latency_us", inst);
  get_hist_ = metrics_->histogram("tiera_get_latency_us", inst);
  cold_moves_ = metrics_->counter("tiera_cold_moves_total", inst);
  checksum_failures_ =
      metrics_->counter("tiera_checksum_failures_total", inst);
  quarantined_copies_ =
      metrics_->counter("tiera_quarantined_copies_total", inst);
  build_tiers();
  const Status st = compile_rules();
  assert(st.ok() && "unclassifiable trigger in local policy");
  if (!st.ok()) {
    // NDEBUG builds must not swallow a bad policy silently: record why every
    // rule loop for this instance is missing.
    sim.telemetry().journal()
        .event("tiera", "policy_compile_failed")
        .str("instance", config_.instance_id)
        .str("error", st.to_string());
  }
}

TieraInstance::~TieraInstance() { stop(); }

void TieraInstance::build_tiers() {
  for (const policy::TierDecl& decl : config_.policy.tiers) {
    store::TierSpec spec;
    spec.name = decl.label;
    const policy::Value* name_attr = decl.attr("name");
    assert(name_attr != nullptr && "tier declaration needs a name");
    auto kind = store::tier_kind_from_name(name_attr->text);
    assert(kind.ok() && "unknown tier kind in policy");
    spec.kind = kind.value();
    if (const policy::Value* size = decl.attr("size");
        size != nullptr && size->kind == policy::Value::Kind::kSize) {
      spec.capacity_bytes = size->size_bytes;
    }
    if (config_.tier_tweak) config_.tier_tweak(decl.label, spec);
    tiers_[decl.label] = store::make_tier(*sim_, std::move(spec));
    tier_order_.push_back(decl.label);
  }
}

Status TieraInstance::compile_rules() {
  std::vector<std::shared_ptr<CompiledRule>> compiled_rules;
  for (const policy::EventRule& rule : config_.policy.events) {
    auto trigger = policy::classify_trigger(*rule.trigger, config_.params);
    if (!trigger.ok()) return trigger.status();
    auto compiled = std::make_shared<CompiledRule>();
    compiled->trigger = std::move(trigger).value();
    compiled->rule = rule;  // deep copy: owned by the compiled rule
    compiled_rules.push_back(std::move(compiled));
  }
  rules_ = std::move(compiled_rules);
  return ok_status();
}

void TieraInstance::start() {
  if (started_) return;
  started_ = true;
  start_rule_loops();
}

void TieraInstance::start_rule_loops() {
  for (const std::shared_ptr<CompiledRule>& rule : rules_) {
    if (rule->trigger.kind == policy::TriggerKind::kTimer) {
      sim_->spawn(timer_loop(rule, loop_generation_),
                  config_.instance_id + "/policy-timer");
    } else if (rule->trigger.kind == policy::TriggerKind::kColdData) {
      sim_->spawn(cold_scan_loop(rule, loop_generation_),
                  config_.instance_id + "/cold-scan");
    }
  }
}

Status TieraInstance::adopt_policy(
    policy::PolicyDoc new_policy,
    std::map<std::string, policy::Value> params) {
  WIERA_RETURN_IF_ERROR(policy::validate(new_policy));
  // Tier declarations in the new policy must refer to tiers that already
  // exist (declared-compatible replacement); the tier set itself changes
  // through mount_tier/unmount_tier.
  for (const policy::TierDecl& decl : new_policy.tiers) {
    if (tiers_.count(decl.label) == 0) {
      return failed_precondition("adopt_policy: policy declares tier " +
                                 decl.label + " which is not mounted");
    }
  }

  // Trial-compile against the new params before committing anything.
  Config trial = config_;
  trial.policy = new_policy;
  trial.params = params;
  std::swap(config_, trial);
  Status st = compile_rules();
  if (!st.ok()) {
    std::swap(config_, trial);  // roll back; rules_ recompile below
    Status rollback = compile_rules();
    assert(rollback.ok());
    if (!rollback.ok()) {
      // The old policy compiled once already, so this cannot fail; if it
      // somehow does, journal it instead of dropping the error in NDEBUG.
      sim_->telemetry().journal()
          .event("tiera", "policy_rollback_failed")
          .str("instance", config_.instance_id)
          .str("error", rollback.to_string());
    }
    return st;
  }

  // Old periodic loops exit at their next wake-up; new ones start now.
  loop_generation_++;
  if (started_) start_rule_loops();
  return ok_status();
}

void TieraInstance::stop() {
  started_ = false;
  loop_generation_++;
}

store::StorageTier* TieraInstance::tier_by_label(const std::string& label) {
  auto it = tiers_.find(label);
  return it == tiers_.end() ? nullptr : it->second.get();
}

Status TieraInstance::mount_tier(const std::string& label,
                                 std::unique_ptr<store::StorageTier> tier) {
  if (tier == nullptr) return invalid_argument("null tier");
  if (tiers_.count(label) > 0) {
    return already_exists("tier " + label + " on " + config_.instance_id);
  }
  tiers_[label] = std::move(tier);
  tier_order_.push_back(label);
  return ok_status();
}

Status TieraInstance::unmount_tier(const std::string& label) {
  auto it = tiers_.find(label);
  if (it == tiers_.end()) return not_found("tier " + label);
  tiers_.erase(it);
  tier_order_.erase(
      std::remove(tier_order_.begin(), tier_order_.end(), label),
      tier_order_.end());
  return ok_status();
}

// ---------------------------------------------------------------- data path

sim::Task<Result<PutResult>> TieraInstance::put(std::string key, Blob value,
                                                store::IoOptions opts) {
  // Deadline check before any metadata side effect: an already-expired
  // request must not leave an uncommitted version behind.
  if (store::io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("tiera put: " + key);
  }
  const TimePoint start = sim_->now();
  const metadb::ObjectMeta* existing = meta_.find(key);
  // Allocate past the high-water mark, not past the latest surviving row:
  // a quarantine may have dropped the latest version's metadata, and
  // reusing its number would commit two distinct payloads under one id.
  const int64_t version =
      existing == nullptr
          ? 1
          : std::max(existing->latest_version(), existing->max_allocated) + 1;

  Result<bool> written = co_await write_version(
      key, version, std::move(value), std::nullopt, sim_->now(),
      config_.instance_id, opts, /*lww=*/false);
  if (!written.ok()) co_return written.status();
  co_await check_fill_thresholds();
  put_hist_->record(sim_->now() - start);
  co_return PutResult{version};
}

sim::Task<Result<GetResult>> TieraInstance::get(std::string key,
                                                store::IoOptions opts) {
  const metadb::ObjectMeta* obj = meta_.find(key);
  if (obj == nullptr || obj->versions.empty()) {
    co_return not_found("no object: " + key);
  }
  // Serve the latest *committed* version: a concurrent put's version is
  // invisible until its payload landed in a tier.
  const metadb::VersionMeta* readable = obj->latest_committed();
  if (readable == nullptr) co_return not_found("no committed version: " + key);
  co_return co_await get_version(std::move(key), readable->version, opts);
}

sim::Task<Result<GetResult>> TieraInstance::get_version(
    std::string key, int64_t version, store::IoOptions opts) {
  if (store::io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("tiera get: " + key);
  }
  const TimePoint start = sim_->now();
  const metadb::VersionMeta* vm = meta_.find_version(key, version);
  if (vm == nullptr || !vm->committed) {
    co_return not_found("no version " + std::to_string(version) + " of " +
                        key);
  }
  Result<Blob> value = co_await read_version(key, version, opts);
  if (!value.ok()) co_return value.status();
  meta_.record_access(key, version, sim_->now());
  get_hist_->record(sim_->now() - start);
  co_return GetResult{std::move(value).value(), version};
}

std::vector<int64_t> TieraInstance::get_version_list(
    const std::string& key) const {
  std::vector<int64_t> out;
  const metadb::ObjectMeta* obj = meta_.find(key);
  if (obj == nullptr) return out;
  out.reserve(obj->versions.size());
  for (const auto& [version, _] : obj->versions) out.push_back(version);
  return out;
}

sim::Task<Status> TieraInstance::update(std::string key, int64_t version,
                                        Blob value, store::IoOptions opts) {
  if (store::io_deadline_expired(opts, sim_->now())) {
    co_return deadline_exceeded("tiera update: " + key);
  }
  Result<bool> written = co_await write_version(
      key, version, std::move(value), std::nullopt, sim_->now(),
      config_.instance_id, opts, /*lww=*/false);
  co_return written.status();
}

sim::Task<Status> TieraInstance::remove(std::string key) {
  const metadb::ObjectMeta* obj = meta_.find(key);
  if (obj == nullptr) co_return not_found("no object: " + key);
  std::vector<int64_t> versions;
  for (const auto& [version, _] : obj->versions) versions.push_back(version);
  for (int64_t version : versions) {
    co_await erase_version_everywhere(key, version);
  }
  // wiera-lint: allow(status-discipline) a concurrent remove may have emptied the object while we awaited; NotFound is benign
  (void)meta_.remove_object(key);
  co_return ok_status();
}

sim::Task<Status> TieraInstance::remove_version(std::string key,
                                                int64_t version) {
  if (meta_.find_version(key, version) == nullptr) {
    co_return not_found("no version");
  }
  co_await erase_version_everywhere(key, version);
  co_return meta_.remove_version(key, version);
}

void TieraInstance::wipe_volatile() {
  std::set<std::string> wiped;
  for (auto& [label, tier] : tiers_) {
    if (auto* mem = dynamic_cast<store::MemoryTier*>(tier.get())) {
      mem->wipe();
      wiped.insert(label);
    } else if (auto* blk = dynamic_cast<store::BlockTier*>(tier.get())) {
      blk->drop_cache();
    }
  }
  if (wiped.empty()) return;
  // Versions whose recorded location was a wiped tier are gone: drop their
  // metadata so a catch-up resync can re-apply them (a surviving metadata
  // row would make LWW reject the re-sent payload as a stale duplicate).
  for (const std::string& key : meta_.keys()) {
    const metadb::ObjectMeta* obj = meta_.find(key);
    if (obj == nullptr) continue;
    std::vector<int64_t> lost;
    for (const auto& [version, vm] : obj->versions) {
      if (wiped.count(vm.tier) > 0) lost.push_back(version);
    }
    for (int64_t version : lost) {
      // wiera-lint: allow(status-discipline) version was enumerated from the same map just above; cannot fail
      (void)meta_.remove_version(key, version);
    }
  }
}

void TieraInstance::recover_tiers() {
  for (auto& [label, tier] : tiers_) tier->recover();
}

bool TieraInstance::corrupt_stored_copy(const std::string& key) {
  const metadb::ObjectMeta* obj = meta_.find(key);
  if (obj == nullptr) return false;
  const metadb::VersionMeta* vm = obj->latest_committed();
  if (vm == nullptr) return false;
  const std::string vkey = versioned_key(key, vm->version);
  std::vector<std::string> order;
  if (!vm->tier.empty()) order.push_back(vm->tier);
  for (const std::string& label : tier_order_) {
    if (std::find(order.begin(), order.end(), label) == order.end()) {
      order.push_back(label);
    }
  }
  for (const std::string& label : order) {
    store::StorageTier* tier = tier_by_label(label);
    if (tier != nullptr && tier->corrupt_object(vkey)) return true;
  }
  return false;
}

sim::Task<std::vector<std::string>> TieraInstance::scrub_local() {
  std::vector<std::string> lost;
  for (const std::string& key : meta_.keys()) {
    const metadb::ObjectMeta* obj = meta_.find(key);
    if (obj == nullptr) continue;
    const metadb::VersionMeta* vm = obj->latest_committed();
    if (vm == nullptr) continue;
    const int64_t version = vm->version;
    Result<Blob> value = co_await read_version(key, version, {});
    if (value.ok()) continue;
    const StatusCode code = value.status().code();
    if (code == StatusCode::kDataLoss) {
      // read_version already quarantined the copies and dropped metadata.
      lost.push_back(key);
    } else if (code == StatusCode::kNotFound) {
      // Committed but gone from every tier (e.g. lost durable copy): drop
      // the metadata row so a peer's repair is not LWW-rejected, keeping
      // the allocation high-water mark.
      // wiera-lint: allow(status-discipline) a concurrent remove beating us to the drop is the desired end state
      (void)meta_.forget_version(key, version);
      lost.push_back(key);
    }
  }
  co_return lost;
}

bool TieraInstance::lww_wins(const LwwSample& incoming,
                             const LwwSample& local) {
  if (incoming.version != local.version) {
    return incoming.version > local.version;
  }
  if (incoming.last_modified != local.last_modified) {
    return incoming.last_modified > local.last_modified;
  }
  return incoming.origin > local.origin;
}

sim::Task<Result<bool>> TieraInstance::apply_remote_update(
    RemoteUpdate update) {
  co_return co_await write_version(update.key, update.version,
                                   std::move(update.value), update.checksum,
                                   update.last_modified,
                                   std::move(update.origin), {},
                                   /*lww=*/true);
}

bool TieraInstance::remote_wins(const std::string& key,
                                const LwwSample& incoming) const {
  // Last-write-wins (§4.2): accept when the incoming version is newer, or
  // when versions tie and the incoming write is more recent. Exact
  // timestamp ties (possible with concurrent writers on a discrete clock)
  // break deterministically on origin id so all replicas pick one winner.
  const metadb::ObjectMeta* obj = meta_.find(key);
  if (obj == nullptr || obj->versions.empty()) return true;
  const metadb::VersionMeta* local = obj->latest();
  const LwwSample current{obj->latest_version(), local->last_modified,
                          local->origin};
  return config_.lww_override ? config_.lww_override(incoming, current)
                              : lww_wins(incoming, current);
}

sim::Task<Result<bool>> TieraInstance::write_version(
    const std::string& key, int64_t version, Blob value,
    std::optional<uint64_t> checksum, TimePoint last_modified,
    std::string origin, store::IoOptions opts, bool lww) {
  auto lock = version_locks_.try_emplace({key, version}, *sim_).first;
  ++lock->second.users;
  co_await lock->second.mutex.lock();

  Result<bool> written = false;
  if (!lww || remote_wins(key, {version, last_modified, origin})) {
    const bool new_object = meta_.find(key) == nullptr;
    std::optional<metadb::VersionMeta> before;
    if (const metadb::VersionMeta* prior = meta_.find_version(key, version)) {
      before = *prior;
    }
    metadb::VersionMeta& vm = meta_.upsert_version(key, version);
    vm.size = static_cast<int64_t>(value.size());
    if (vm.create_time == TimePoint::origin()) vm.create_time = sim_->now();
    vm.last_modified = last_modified;
    vm.origin = std::move(origin);
    // This node's own hash of the bytes it stores (never the wire's):
    // replicas holding the same (key, version, payload) record the same
    // checksum, which is what the scrubber's digest exchange compares.
    vm.checksum = checksum ? *checksum : object_checksum(key, version, value);

    InsertCtx ctx;
    ctx.key = key;
    ctx.version = version;
    ctx.value = std::move(value);
    ctx.opts = opts;
    Status st = co_await run_insert_rules(ctx);
    if (st.ok()) {
      meta_.upsert_version(key, version).committed = true;
      prune_versions(key);
      written = true;
    } else {
      // A row left behind would claim a payload no tier holds: a replica
      // would LWW-reject every retry of this update as a duplicate, and a
      // rewritten checksum would quarantine the intact old copy. No other
      // write to this version ran meanwhile, so `before` is a settled row
      // (or none). A row already gone was dropped by a concurrent remove.
      written = st;
      const bool row_left = meta_.find_version(key, version) != nullptr;
      if (row_left && before.has_value()) {
        meta_.restore_version(key, *before);
      } else if (row_left && new_object) {
        // wiera-lint: allow(status-discipline) the row was found just above; the object record this call created goes with it
        (void)meta_.remove_version(key, version);
      } else if (row_left) {
        // wiera-lint: allow(status-discipline) the row was found just above; the object keeps its tags and allocation high-water mark
        (void)meta_.forget_version(key, version);
      }
    }
  }

  lock->second.mutex.unlock();
  if (--lock->second.users == 0) version_locks_.erase(lock);
  co_return written;
}

// ---------------------------------------------------------------- rules

sim::Task<Status> TieraInstance::run_insert_rules(InsertCtx& ctx) {
  bool any_insert_rule = false;
  // Copy the rule set: adopt_policy may swap rules_ while we're suspended.
  std::vector<std::shared_ptr<CompiledRule>> rules = rules_;
  for (const std::shared_ptr<CompiledRule>& rule : rules) {
    if (rule->trigger.kind == policy::TriggerKind::kInsert) {
      any_insert_rule = true;
      Status st = co_await exec_insert_stmts(rule->rule.response, ctx);
      if (!st.ok()) co_return st;
    }
  }
  if (!any_insert_rule) {
    // Default behaviour: store into the first declared tier.
    if (tier_order_.empty()) {
      co_return failed_precondition("instance " + config_.instance_id +
                                    " has no tiers and no insert rule");
    }
    Status st = co_await write_to_tier(tier_order_[0], ctx.key, ctx.version,
                                       ctx.value, ctx.opts,
                                       /*set_location=*/true);
    if (!st.ok()) co_return st;
    ctx.stored_tiers.push_back(tier_order_[0]);
  }
  // Write-through rules: event(insert.into == tierX) fires for each tier
  // the object just landed in.
  for (const std::shared_ptr<CompiledRule>& rule : rules) {
    if (rule->trigger.kind != policy::TriggerKind::kInsertInto) continue;
    const bool landed =
        std::find(ctx.stored_tiers.begin(), ctx.stored_tiers.end(),
                  rule->trigger.tier) != ctx.stored_tiers.end();
    if (!landed) continue;
    Status st = co_await exec_insert_stmts(rule->rule.response, ctx);
    if (!st.ok()) co_return st;
  }
  co_return ok_status();
}

sim::Task<Status> TieraInstance::exec_insert_stmts(
    const std::vector<policy::Stmt>& stmts, InsertCtx& ctx) {
  for (const policy::Stmt& stmt : stmts) {
    if (stmt.is_assign()) {
      // insert.object.<attr> = <literal>
      const policy::AssignStmt& assign = stmt.assign();
      const std::string target = assign.target.dotted();
      if (target == "insert.object.dirty" && assign.value->is_literal()) {
        meta_.set_dirty(ctx.key, ctx.version,
                        assign.value->literal().value.boolean);
        continue;
      }
      co_return invalid_argument("unsupported assignment: " + target);
    }
    if (stmt.is_action()) {
      Status st = co_await exec_insert_action(stmt.action(), ctx);
      if (!st.ok()) co_return st;
      continue;
    }
    // if-statements in local insert rules are not used by the paper's local
    // policies (they appear in global policies, handled by wiera).
    co_return unimplemented("if-statement in local insert rule");
  }
  co_return ok_status();
}

sim::Task<Status> TieraInstance::exec_insert_action(
    const policy::ActionStmt& action, InsertCtx& ctx) {
  const policy::Expr* to = action.arg("to");
  if (action.name == "store" || action.name == "copy" ||
      action.name == "move") {
    if (to == nullptr || !to->is_path()) {
      co_return invalid_argument(action.name + " needs a to: tier");
    }
    const std::string target = to->path().parts[0];
    if (tiers_.count(target) == 0) {
      co_return invalid_argument("unknown tier in insert rule: " + target);
    }
    const bool set_location = action.name == "store" || action.name == "move";
    Status st = co_await write_to_tier(target, ctx.key, ctx.version,
                                       ctx.value, ctx.opts, set_location);
    if (!st.ok()) co_return st;
    ctx.stored_tiers.push_back(target);
    co_return ok_status();
  }
  co_return unimplemented("local insert action: " + action.name);
}

sim::Task<Status> TieraInstance::exec_maintenance_stmts(
    const std::vector<policy::Stmt>& stmts, const ScanSource& objects) {
  for (const policy::Stmt& stmt : stmts) {
    if (!stmt.is_action()) {
      co_return unimplemented("non-action statement in maintenance rule");
    }
    Status st = co_await exec_maintenance_action(stmt.action(), objects);
    if (!st.ok()) co_return st;
  }
  co_return ok_status();
}

const metadb::ObjectMeta* TieraInstance::next_candidate(
    const ScanSource& source, const std::string* after,
    bool dirty_only) const {
  if (const auto* scan = std::get_if<metadb::MetaDb::Scan>(&source)) {
    return meta_.next_object(*scan, after, dirty_only);
  }
  const std::vector<std::string>& keys =
      *std::get<const std::vector<std::string>*>(source);
  auto it = after == nullptr
                ? keys.begin()
                : std::upper_bound(keys.begin(), keys.end(), *after);
  for (; it != keys.end(); ++it) {
    if (const metadb::ObjectMeta* obj = meta_.find(*it)) return obj;
  }
  return nullptr;
}

sim::Task<Status> TieraInstance::exec_maintenance_action(
    const policy::ActionStmt& action, const ScanSource& objects) {
  const policy::Expr* what = action.arg("what");
  if (what == nullptr) co_return invalid_argument("action needs what:");
  auto selector = compile_selector(*what);
  if (!selector.ok()) co_return selector.status();

  // Pacing: `bandwidth:40KB/s` throttles the copy/move stream.
  double rate_bytes_per_sec = 0;
  if (const policy::Expr* bw = action.arg("bandwidth");
      bw != nullptr && bw->is_literal() &&
      bw->literal().value.kind == policy::Value::Kind::kRate) {
    rate_bytes_per_sec = bw->literal().value.number;
  }

  std::string target;
  if (const policy::Expr* to = action.arg("to");
      to != nullptr && to->is_path()) {
    target = to->path().parts[0];
  }

  // grow is a tier-level response: it fires once per event, not per
  // matching object.
  if (action.name == "grow") {
    store::StorageTier* tier = tier_by_label(target);
    if (tier != nullptr && tier->spec().capacity_bytes > 0) {
      Status st = tier->grow(tier->spec().capacity_bytes);  // double it
      if (!st.ok()) co_return st;
    }
    co_return ok_status();
  }

  // Walk the source in key order. Every branch below may suspend, and the
  // store may change meanwhile, so each step resumes at the first key above
  // the last one visited: a key the source holds is judged when the walk
  // reaches it.
  const bool dirty_only = selector->dirty_equals == true;
  std::string key;
  for (const metadb::ObjectMeta* obj =
           next_candidate(objects, nullptr, dirty_only);
       obj != nullptr; obj = next_candidate(objects, &key, dirty_only)) {
    key = obj->key;
    if (obj->versions.empty() || !selector->matches(*obj)) continue;
    const int64_t version = obj->latest_version();
    const metadb::VersionMeta* vm = obj->latest();
    // Copy what later branches need: vm points into meta_, and every branch
    // below suspends, so the entry may be rewritten before we resume.
    const std::string source = vm->tier;
    const int64_t vm_size = vm->size;

    if (action.name == "delete") {
      co_await erase_version_everywhere(key, version);
      // wiera-lint: allow(status-discipline) the version may already be gone after the erase fan-out; NotFound is benign
      (void)meta_.remove_version(key, version);
      continue;
    }

    if (action.name == "copy" || action.name == "move" ||
        action.name == "retrieve") {
      if (tiers_.count(target) == 0) {
        co_return invalid_argument("unknown target tier: " + target);
      }
      Result<Blob> value = co_await read_version(key, version, {});
      if (!value.ok()) continue;  // e.g. evicted from a volatile tier
      if (rate_bytes_per_sec > 0) {
        const double seconds =
            static_cast<double>(value->size()) / rate_bytes_per_sec;
        co_await sim_->delay(sec(seconds));
      }
      const bool relocate = action.name == "move";
      Status st = co_await write_to_tier(target, key, version, *value, {},
                                         /*set_location=*/relocate);
      if (!st.ok()) co_return st;
      if (relocate) cold_moves_->inc();
      meta_.set_dirty(key, version, false);  // persisted copy exists now
      if (relocate && !source.empty() && source != target) {
        store::StorageTier* src_tier = tier_by_label(source);
        if (src_tier != nullptr) {
          // Best effort: the move already committed at the target tier.
          // wiera-lint: allow(status-discipline) stale source copy; the scrub pass reclaims it if this remove loses a race
          (void)co_await src_tier->remove(versioned_key(key, version));
        }
      }
      continue;
    }

    if (action.name == "compress" || action.name == "encrypt") {
      // Modelled as metadata-only transforms with a small CPU cost.
      co_await sim_->delay(usec(50 + vm_size / 2048));
      meta_.add_tag(key, action.name == "compress" ? "compressed"
                                                   : "encrypted");
      continue;
    }

    co_return unimplemented("maintenance action: " + action.name);
  }
  co_return ok_status();
}

sim::Task<void> TieraInstance::timer_loop(std::shared_ptr<CompiledRule> rule,
                                          uint64_t generation) {
  const Duration period = rule->trigger.period;
  while (generation == loop_generation_) {
    co_await sim_->delay(period);
    if (generation != loop_generation_) break;
    const metadb::MetaDb::Scan scan = meta_.open_scan();
    const ScanSource source = scan;
    Status st = co_await exec_maintenance_stmts(rule->rule.response, source);
    meta_.close_scan(scan);
    if (!st.ok()) {
      WLOG_WARN(kComponent) << id() << " timer rule failed: "
                            << st.to_string();
    }
  }
}

sim::Task<void> TieraInstance::cold_scan_loop(
    std::shared_ptr<CompiledRule> rule, uint64_t generation) {
  const Duration interval =
      std::min(config_.cold_scan_interval, rule->trigger.cold_after);
  while (generation == loop_generation_) {
    co_await sim_->delay(interval);
    if (generation != loop_generation_) break;
    std::vector<std::string> cold =
        meta_.cold_objects(sim_->now(), rule->trigger.cold_after);
    if (cold.empty()) continue;
    // Give the global policy a chance to intercept (centralized cold tier).
    // `cold` is in key order, so `local_cold` is a sorted ScanSource.
    std::vector<std::string> local_cold;
    for (const std::string& key : cold) {
      bool handled = false;
      if (hooks_ != nullptr) {
        handled = co_await hooks_->on_cold_object(key);
      }
      if (!handled) local_cold.push_back(key);
    }
    const ScanSource source = &local_cold;
    Status st = co_await exec_maintenance_stmts(rule->rule.response, source);
    if (!st.ok()) {
      WLOG_WARN(kComponent) << id() << " cold rule failed: " << st.to_string();
    }
  }
}

sim::Task<void> TieraInstance::check_fill_thresholds() {
  std::vector<std::shared_ptr<CompiledRule>> rules = rules_;
  for (const std::shared_ptr<CompiledRule>& rule : rules) {
    if (rule->trigger.kind != policy::TriggerKind::kTierFilled) continue;
    store::StorageTier* tier = tier_by_label(rule->trigger.tier);
    if (tier == nullptr) continue;
    const double fill = tier->fill_fraction() * 100.0;
    if (fill >= rule->trigger.fill_percent) {
      if (rule->armed) {
        rule->armed = false;  // edge-triggered
        const metadb::MetaDb::Scan scan = meta_.open_scan();
        const ScanSource source = scan;
        Status st =
            co_await exec_maintenance_stmts(rule->rule.response, source);
        meta_.close_scan(scan);
        if (!st.ok()) {
          WLOG_WARN(kComponent)
              << id() << " threshold rule failed: " << st.to_string();
        }
      }
    } else {
      rule->armed = true;  // re-arm once below the threshold again
    }
  }
}

// ---------------------------------------------------------------- tier io

sim::Task<Status> TieraInstance::write_to_tier(
    const std::string& tier_label, const std::string& key, int64_t version,
    const Blob& value, store::IoOptions opts, bool set_location) {
  store::StorageTier* tier = tier_by_label(tier_label);
  assert(tier != nullptr);
  std::string vkey = versioned_key(key, version);
  Status st = co_await tier->put(std::move(vkey), value, opts);
  if (!st.ok()) co_return st;
  if (set_location) {
    metadb::VersionMeta& vm = meta_.upsert_version(key, version);
    vm.tier = tier_label;
  }
  co_return ok_status();
}

sim::Task<Result<Blob>> TieraInstance::read_version(const std::string& key,
                                                    int64_t version,
                                                    store::IoOptions opts) {
  const metadb::VersionMeta* vm = meta_.find_version(key, version);
  const uint64_t expected = vm == nullptr ? 0 : vm->checksum;
  const std::string vkey = versioned_key(key, version);

  // Preferred tier first (the recorded location), then the rest in
  // declaration order — a copy response may have placed replicas in several
  // tiers, and volatile tiers may have evicted theirs.
  std::vector<std::string> order;
  if (vm != nullptr && !vm->tier.empty()) order.push_back(vm->tier);
  for (const std::string& label : tier_order_) {
    if (std::find(order.begin(), order.end(), label) == order.end()) {
      order.push_back(label);
    }
  }

  bool saw_corrupt = false;
  for (const std::string& label : order) {
    store::StorageTier* tier = tier_by_label(label);
    if (tier == nullptr || !tier->contains(vkey)) continue;
    Result<Blob> value = co_await tier->get(vkey, opts);
    if (!value.ok()) continue;
    if (config_.verify_checksums && expected != 0 &&
        object_checksum(key, version, *value) != expected) {
      // Quarantine: a corrupt copy must never be served (or scrubbed
      // outward) — drop it and fall through to the next tier; a healthy
      // tier or replica supplies the repair.
      checksum_failures_->inc();
      quarantined_copies_->inc();
      sim_->telemetry().journal()
          .event("tiera", "quarantine")
          .str("instance", config_.instance_id)
          .str("key", key)
          .num("version", version)
          .str("tier", label);
      saw_corrupt = true;
      WLOG_WARN(kComponent) << id() << " checksum mismatch on " << vkey
                            << " in tier " << label << " (quarantined)";
      // wiera-lint: allow(status-discipline) the copy is already journaled as quarantined; dropping it is best-effort
      (void)co_await tier->remove(vkey);
      continue;
    }
    co_return value;
  }
  if (saw_corrupt) {
    // Every local copy was corrupt: drop the version's metadata so a repair
    // re-applied from a healthy replica is not rejected by LWW as a stale
    // duplicate (same rationale as wipe_volatile). forget_version keeps the
    // allocation high-water mark so the burned number is never reused.
    // wiera-lint: allow(status-discipline) a concurrent remove beating us to the drop is the desired end state
    (void)meta_.forget_version(key, version);
    co_return data_loss("all local copies of " + vkey + " corrupt");
  }
  co_return not_found("no tier holds " + vkey);
}

sim::Task<void> TieraInstance::erase_version_everywhere(
    const std::string& key, int64_t version) {
  const std::string vkey = versioned_key(key, version);
  // Snapshot the tier list: mount/unmount can resize tier_order_ while a
  // remove is in flight, which would invalidate this loop's iterator.
  const std::vector<std::string> tiers = tier_order_;
  for (const std::string& label : tiers) {
    store::StorageTier* tier = tier_by_label(label);
    if (tier != nullptr && tier->contains(vkey)) {
      // wiera-lint: allow(status-discipline) erase is best-effort per tier; a copy that vanished meanwhile is already gone
      (void)co_await tier->remove(vkey);
    }
  }
}

void TieraInstance::prune_versions(const std::string& key) {
  if (config_.max_versions <= 0) return;
  const metadb::ObjectMeta* obj = meta_.find(key);
  if (obj == nullptr) return;
  while (static_cast<int64_t>(obj->versions.size()) > config_.max_versions) {
    const int64_t oldest = obj->versions.begin()->first;
    // Tier cleanup is asynchronous fire-and-forget: GC must not slow the
    // data path.
    const std::string vkey = versioned_key(key, oldest);
    for (const std::string& label : tier_order_) {
      store::StorageTier* tier = tier_by_label(label);
      if (tier != nullptr && tier->contains(vkey)) {
        sim_->spawn([](store::StorageTier* t, std::string k) -> sim::Task<void> {
          // wiera-lint: allow(status-discipline) fire-and-forget GC; the data path must not stall on tier cleanup
          (void)co_await t->remove(std::move(k));
        }(tier, vkey),
                    "tiera.version-gc");
      }
    }
    // wiera-lint: allow(status-discipline) oldest was read from the same map in the loop condition; cannot fail
    (void)meta_.remove_version(key, oldest);
  }
}

}  // namespace wiera::tiera
