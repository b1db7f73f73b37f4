// Tests for TieraInstance: policy-driven data path, versioning API,
// write-back/write-through policies, thresholds, cold-data demotion,
// LWW conflict resolution, modular (forward) tiers.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "common/units.h"
#include "policy/builtin_policies.h"
#include "policy/parser.h"
#include "sim/simulation.h"
#include "tiera/forward_tier.h"
#include "tiera/instance.h"
#include "tiera/selector.h"

namespace wiera::tiera {
namespace {

// Run `body` to completion, then stop the simulation loop. Instances with
// active timer loops keep the event queue non-empty forever, so we cannot
// simply drain the queue; stopping on completion leaves the clock exactly
// at the body's finish time.
template <typename F>
void run(sim::Simulation& sim, F&& body) {
  bool done = false;
  auto wrapper = [](sim::Simulation& s, F body, bool& flag) -> sim::Task<void> {
    co_await body();
    flag = true;
    s.stop();
  };
  sim.spawn(wrapper(sim, std::forward<F>(body), done));
  sim.run();
  ASSERT_TRUE(done);
}

std::unique_ptr<TieraInstance> make_instance(sim::Simulation& sim,
                                             std::string_view policy_src,
                                             Duration timer = sec(10)) {
  auto doc = policy::parse_policy(policy_src);
  EXPECT_TRUE(doc.ok()) << doc.status().to_string();
  TieraInstance::Config config;
  config.instance_id = "test-instance";
  config.region = "us-east";
  config.policy = std::move(doc).value();
  config.params["t"] = policy::Value::duration_of(timer);
  config.tier_tweak = [](const std::string&, store::TierSpec& spec) {
    spec.jitter_fraction = 0;
  };
  return std::make_unique<TieraInstance>(sim, std::move(config));
}

// ------------------------------------------------------------ LowLatency

TEST(TieraInstanceTest, LowLatencyPutLandsInMemoryAndIsDirty) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    auto r = co_await inst->put("k", Blob("v"));
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->version, 1);
  });
  // Stored in tier1 (memcached), not yet in tier2 (EBS).
  EXPECT_TRUE(inst->tier_by_label("tier1")->contains(
      TieraInstance::versioned_key("k", 1)));
  EXPECT_FALSE(inst->tier_by_label("tier2")->contains(
      TieraInstance::versioned_key("k", 1)));
  EXPECT_TRUE(inst->meta().find_version("k", 1)->dirty);
  // Memory write: sub-millisecond.
  EXPECT_LT(sim.now().us(), 1000);
}

TEST(TieraInstanceTest, WriteBackTimerPersistsDirtyData) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance(),
                            sec(10));
  inst->start();
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("v"));
    co_return;
  });
  sim.run_until(TimePoint(sec(11).us()));
  // After the timer fired, the object is copied to EBS and marked clean.
  EXPECT_TRUE(inst->tier_by_label("tier2")->contains(
      TieraInstance::versioned_key("k", 1)));
  EXPECT_FALSE(inst->meta().find_version("k", 1)->dirty);
  inst->stop();
}

TEST(TieraInstanceTest, WriteBackSkipsCleanData) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance(),
                            sec(10));
  inst->start();
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("v"));
    co_return;
  });
  sim.run_until(TimePoint(sec(11).us()));
  const int64_t puts_after_first = inst->tier_by_label("tier2")->stats().puts;
  EXPECT_EQ(puts_after_first, 1);
  // Two more timer periods with no new writes: no extra tier2 puts.
  sim.run_until(TimePoint(sec(31).us()));
  EXPECT_EQ(inst->tier_by_label("tier2")->stats().puts, puts_after_first);
  inst->stop();
}

// ------------------------------------------------------------ Persistent

TEST(TieraInstanceTest, WriteThroughCopiesImmediately) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::persistent_instance());
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("v"));
    co_return;
  });
  // Default store to tier1 + write-through copy to tier2.
  EXPECT_TRUE(inst->tier_by_label("tier1")->contains(
      TieraInstance::versioned_key("k", 1)));
  EXPECT_TRUE(inst->tier_by_label("tier2")->contains(
      TieraInstance::versioned_key("k", 1)));
}

TEST(TieraInstanceTest, FillThresholdTriggersBackup) {
  sim::Simulation sim;
  // Small tiers so the 50% threshold is reachable quickly.
  auto inst = make_instance(sim, R"(
Tiera SmallPersistent() {
   tier1: {name: Memcached, size: 100K};
   tier2: {name: EBS, size: 10K};
   tier3: {name: S3, size: 100K};
   event(insert.into == tier1) : response {
      copy(what:insert.object, to:tier2);
   }
   event(tier2.filled == 50%) : response {
      copy(what:object.location == tier1, to:tier3);
   }
}
)");
  run(sim, [&]() -> sim::Task<void> {
    // 6 objects of 1K: tier2 fill crosses 50% (5K/10K) on the 5th put.
    for (int i = 0; i < 6; ++i) {
      auto r = co_await inst->put("k" + std::to_string(i),
                                  Blob(Bytes(1024, 1)));
      EXPECT_TRUE(r.ok());
    }
  });
  EXPECT_GT(inst->tier_by_label("tier3")->object_count(), 0);
}

// ------------------------------------------------------------ versioning

TEST(TieraInstanceTest, VersioningApi) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("v1"));
    co_await inst->put("k", Blob("v2"));
    co_await inst->put("k", Blob("v3"));

    auto latest = co_await inst->get("k");
    EXPECT_TRUE(latest.ok());
    EXPECT_EQ(latest->version, 3);
    EXPECT_EQ(latest->value.to_string(), "v3");

    auto v1 = co_await inst->get_version("k", 1);
    EXPECT_TRUE(v1.ok());
    EXPECT_EQ(v1->value.to_string(), "v1");

    EXPECT_EQ(inst->get_version_list("k"),
              (std::vector<int64_t>{1, 2, 3}));

    EXPECT_TRUE((co_await inst->remove_version("k", 2)).ok());
    EXPECT_EQ(inst->get_version_list("k"), (std::vector<int64_t>{1, 3}));
    auto gone = co_await inst->get_version("k", 2);
    EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);

    EXPECT_TRUE((co_await inst->remove("k")).ok());
    auto all_gone = co_await inst->get("k");
    EXPECT_EQ(all_gone.status().code(), StatusCode::kNotFound);
  });
  EXPECT_EQ(inst->tier_by_label("tier1")->object_count(), 0);
}

TEST(TieraInstanceTest, UpdateWritesExplicitVersion) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await inst->update("k", 5, Blob("v5"))).ok());
    auto r = co_await inst->get("k");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->version, 5);
    // A regular put continues from the explicit version.
    auto pr = co_await inst->put("k", Blob("v6"));
    EXPECT_TRUE(pr.ok());
    EXPECT_EQ(pr->version, 6);
  });
}

TEST(TieraInstanceTest, MaxVersionsPrunesOldest) {
  sim::Simulation sim;
  auto doc = policy::parse_policy(policy::builtin::low_latency_instance());
  ASSERT_TRUE(doc.ok());
  TieraInstance::Config config;
  config.instance_id = "gc-test";
  config.region = "us-east";
  config.policy = std::move(doc).value();
  config.params["t"] = policy::Value::duration_of(sec(3600));
  config.max_versions = 2;
  TieraInstance inst(sim, std::move(config));
  run(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < 5; ++i) {
      co_await inst.put("k", Blob("v" + std::to_string(i)));
    }
  });
  EXPECT_EQ(inst.get_version_list("k"), (std::vector<int64_t>{4, 5}));
  // GC also removed the payloads from the tier.
  EXPECT_FALSE(inst.tier_by_label("tier1")->contains(
      TieraInstance::versioned_key("k", 1)));
}

// ------------------------------------------------------------ LWW conflicts

TEST(TieraInstanceTest, LastWriteWinsAcceptsNewerVersion) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("local-v1"));
    TieraInstance::RemoteUpdate update;
    update.key = "k";
    update.version = 2;
    update.value = Blob("remote-v2");
    update.last_modified = sim.now();
    update.origin = "other-instance";
    auto accepted = co_await inst->apply_remote_update(std::move(update));
    EXPECT_TRUE(accepted.ok());
    EXPECT_TRUE(*accepted);
    auto r = co_await inst->get("k");
    EXPECT_EQ(r->value.to_string(), "remote-v2");
  });
}

TEST(TieraInstanceTest, LastWriteWinsRejectsStaleVersion) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("v1"));
    co_await inst->put("k", Blob("v2"));
    TieraInstance::RemoteUpdate update;
    update.key = "k";
    update.version = 1;  // older than local latest (2)
    update.value = Blob("stale");
    update.last_modified = sim.now();
    update.origin = "other";
    auto accepted = co_await inst->apply_remote_update(std::move(update));
    EXPECT_TRUE(accepted.ok());
    EXPECT_FALSE(*accepted);
    auto r = co_await inst->get("k");
    EXPECT_EQ(r->value.to_string(), "v2");
  });
}

TEST(TieraInstanceTest, LastWriteWinsTieBreaksOnModifiedTime) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("k", Blob("local"));  // version 1, written at ~t0
    co_await sim.delay(sec(5));
    TieraInstance::RemoteUpdate newer;
    newer.key = "k";
    newer.version = 1;  // same version...
    newer.value = Blob("remote-newer");
    newer.last_modified = sim.now();  // ...but written later
    newer.origin = "other";
    auto accepted = co_await inst->apply_remote_update(std::move(newer));
    EXPECT_TRUE(accepted.ok());
    EXPECT_TRUE(*accepted);

    TieraInstance::RemoteUpdate older;
    older.key = "k";
    older.version = 1;
    older.value = Blob("remote-older");
    older.last_modified = TimePoint(1);  // before everything
    older.origin = "other2";
    accepted = co_await inst->apply_remote_update(std::move(older));
    EXPECT_TRUE(accepted.ok());
    EXPECT_FALSE(*accepted);

    auto r = co_await inst->get("k");
    EXPECT_EQ(r->value.to_string(), "remote-newer");
  });
}

// ------------------------------------------- failed tier writes (ENOSPC)
//
// A version write whose tier write fails must leave the metadata row as it
// found it: the update never happened, so its retry must be judged afresh.

TieraInstance::RemoteUpdate remote(std::string value, int64_t version,
                                   TimePoint last_modified) {
  TieraInstance::RemoteUpdate update;
  update.key = "k";
  update.version = version;
  update.value = Blob(value);
  update.last_modified = last_modified;
  update.origin = "other-instance";
  return update;
}

// One second of "disk full" on the memory tier every insert lands in.
void fill_tier1_for_one_second(TieraInstance& inst, sim::Simulation& sim) {
  inst.tier_by_label("tier1")->inject_write_errors(sim.now(),
                                                   sim.now() + sec(1));
}

TEST(TieraInstanceTest, RemoteUpdateRetryAcceptedAfterFailedTierWrite) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    fill_tier1_for_one_second(*inst, sim);
    const TimePoint written = sim.now();
    auto failed = co_await inst->apply_remote_update(remote("v1", 1, written));
    EXPECT_EQ(failed.status().code(), StatusCode::kResourceExhausted);
    EXPECT_TRUE(inst->get_version_list("k").empty());

    co_await sim.delay(sec(2));
    auto retried =
        co_await inst->apply_remote_update(remote("v1", 1, written));
    EXPECT_TRUE(retried.ok() && *retried)
        << "the retry was rejected: " << retried.status().to_string();
    auto got = co_await inst->get("k");
    EXPECT_EQ(got.ok() ? got->value.to_string() : got.status().to_string(),
              "v1");
  });
}

TEST(TieraInstanceTest, FailedSameVersionUpdateKeepsCommittedCopy) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    auto v1 = co_await inst->apply_remote_update(remote("old", 1, sim.now()));
    EXPECT_TRUE(v1.ok() && *v1);
    co_await sim.delay(sec(1));
    fill_tier1_for_one_second(*inst, sim);
    // Same version, later write: wins LWW, then fails to store.
    auto newer =
        co_await inst->apply_remote_update(remote("new", 1, sim.now()));
    EXPECT_EQ(newer.status().code(), StatusCode::kResourceExhausted);

    auto got = co_await inst->get("k");
    EXPECT_EQ(got.ok() ? got->value.to_string() : got.status().to_string(),
              "old");
    EXPECT_EQ(inst->quarantined_copies(), 0);
  });
}

// Two overlapping writes of one version that both fail, the earlier one
// first. The later write won LWW against the earlier one's unstored row;
// what it puts back must be the committed row, not that one.
TEST(TieraInstanceTest, OverlappingFailedSameVersionUpdatesKeepCommittedCopy) {
  sim::Simulation sim;
  // One crash-consistent disk tier: a torn write fails once its write time
  // has passed, and leaves the committed copy intact.
  auto inst = make_instance(sim, R"(
Tiera DiskInstance(time t) {
   tier1: {name: EBS, size: 5G};
}
)");
  run(sim, [&]() -> sim::Task<void> {
    auto v1 = co_await inst->apply_remote_update(remote("old", 1, sim.now()));
    EXPECT_TRUE(v1.ok() && *v1);
    co_await sim.delay(sec(1));
    inst->tier_by_label("tier1")->inject_torn_writes(sim.now(),
                                                     sim.now() + sec(1));
    const TimePoint a_time = sim.now();
    std::vector<sim::Task<Result<bool>>> writes;
    writes.push_back(inst->apply_remote_update(remote("A", 1, a_time)));
    writes.push_back(
        inst->apply_remote_update(remote("B", 1, a_time + usec(1))));
    auto results = co_await sim::when_all(sim, std::move(writes));
    EXPECT_EQ(results[0].status().code(), StatusCode::kDataLoss);
    EXPECT_EQ(results[1].status().code(), StatusCode::kDataLoss);

    auto got = co_await inst->get("k");
    EXPECT_EQ(got.ok() ? got->value.to_string() : got.status().to_string(),
              "old");
    EXPECT_EQ(inst->quarantined_copies(), 0);

    co_await sim.delay(sec(2));
    auto retried = co_await inst->apply_remote_update(remote("A", 1, a_time));
    EXPECT_TRUE(retried.ok() && *retried)
        << "A's retry was rejected: " << retried.status().to_string();
    got = co_await inst->get("k");
    EXPECT_EQ(got.ok() ? got->value.to_string() : got.status().to_string(),
              "A");
  });
}

TEST(TieraInstanceTest, FailedUpdateLeavesNoVersionBehind) {
  sim::Simulation sim;
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await inst->put("k", Blob("v1"))).ok());
    fill_tier1_for_one_second(*inst, sim);
    EXPECT_EQ((co_await inst->update("k", 5, Blob("v5"))).code(),
              StatusCode::kResourceExhausted);
    EXPECT_EQ(inst->get_version_list("k"), (std::vector<int64_t>{1}));

    co_await sim.delay(sec(2));
    auto v3 = co_await inst->apply_remote_update(remote("v3", 3, sim.now()));
    EXPECT_TRUE(v3.ok() && *v3)
        << "a version that never stored outranked v3: "
        << v3.status().to_string();
    auto got = co_await inst->get("k");
    EXPECT_EQ(got.ok() ? got->value.to_string() : got.status().to_string(),
              "v3");
  });
}

// ------------------------------------------------------------ cold data

TEST(TieraInstanceTest, ColdDataMovesToCheaperTier) {
  sim::Simulation sim;
  auto inst = make_instance(sim, R"(
Tiera ColdDemotion() {
   tier1: {name: EBS, size: 10G};
   tier2: {name: S3-IA, size: 100G};
   event(object.lastAccessedTime > 120 hours) : response {
      move(what:object.location == tier1, to:tier2);
   }
}
)");
  inst->start();
  run(sim, [&]() -> sim::Task<void> {
    co_await inst->put("cold-key", Blob(Bytes(4096, 1)));
    co_await inst->put("hot-key", Blob(Bytes(4096, 2)));
    co_return;
  });
  // Keep "hot-key" warm by touching it every 50 hours.
  for (int i = 1; i <= 4; ++i) {
    sim.run_until(TimePoint(hoursd(50.0 * i).us()));
    bool done = false;
    auto toucher = [](TieraInstance& t, bool& flag) -> sim::Task<void> {
      auto r = co_await t.get("hot-key");
      EXPECT_TRUE(r.ok());
      flag = true;
    };
    sim.spawn(toucher(*inst, done));
    sim.run_until(sim.now() + sec(10));
    ASSERT_TRUE(done);
  }
  sim.run_until(TimePoint(hoursd(200).us()));
  // cold-key (untouched since t=0) moved to tier2; hot-key stayed.
  EXPECT_EQ(inst->meta().find("cold-key")->latest()->tier, "tier2");
  EXPECT_EQ(inst->meta().find("hot-key")->latest()->tier, "tier1");
  EXPECT_FALSE(inst->tier_by_label("tier1")->contains(
      TieraInstance::versioned_key("cold-key", 1)));
  inst->stop();
}

// ------------------------------------------------------------ read fallback

TEST(TieraInstanceTest, ReadFallsBackWhenMemoryEvicts) {
  sim::Simulation sim;
  // Tiny memory tier (evicts) + write-through disk.
  auto inst = make_instance(sim, R"(
Tiera TinyMemory() {
   tier1: {name: Memcached, size: 8K};
   tier2: {name: EBS, size: 1G};
   event(insert.into == tier1) : response {
      copy(what:insert.object, to:tier2);
   }
}
)");
  run(sim, [&]() -> sim::Task<void> {
    // 4 objects of 4K: only 2 fit in memory; older ones evict.
    for (int i = 0; i < 4; ++i) {
      co_await inst->put("k" + std::to_string(i), Blob(Bytes(4096, 1)));
    }
    // k0 evicted from memory but readable from the disk copy.
    auto r = co_await inst->get("k0");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->value.size(), 4096u);
  });
  EXPECT_GT(inst->tier_by_label("tier1")->stats().evictions, 0);
}

// ------------------------------------------------------------ selectors

TEST(SelectorTest, InsertObjectAndKey) {
  auto obj = compile_selector(*policy::make_path({"insert", "object"}));
  ASSERT_TRUE(obj.ok());
  EXPECT_EQ(obj->kind, ObjectSelector::Kind::kInsertObject);
  auto key = compile_selector(*policy::make_path({"insert", "key"}));
  ASSERT_TRUE(key.ok());
  EXPECT_EQ(key->kind, ObjectSelector::Kind::kInsertKey);
}

TEST(SelectorTest, QueryConjunction) {
  using namespace policy;
  auto expr = make_binary(
      BinaryOp::kAnd,
      make_binary(BinaryOp::kEq, make_path({"object", "location"}),
                  make_path({"tier1"})),
      make_binary(BinaryOp::kEq, make_path({"object", "dirty"}),
                  make_literal(Value::bool_of(true))));
  auto sel = compile_selector(*expr);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(*sel->location_equals, "tier1");
  EXPECT_TRUE(*sel->dirty_equals);

  metadb::ObjectMeta meta;
  meta.key = "k";
  metadb::VersionMeta& vm = meta.versions[1];
  vm.version = 1;
  vm.tier = "tier1";
  vm.dirty = true;
  EXPECT_TRUE(sel->matches(meta));
  vm.dirty = false;
  EXPECT_FALSE(sel->matches(meta));
  vm.dirty = true;
  vm.tier = "tier2";
  EXPECT_FALSE(sel->matches(meta));
}

TEST(SelectorTest, TagSelector) {
  using namespace policy;
  auto expr = make_binary(BinaryOp::kEq, make_path({"object", "tag"}),
                          make_path({"tmp"}));
  auto sel = compile_selector(*expr);
  ASSERT_TRUE(sel.ok());
  metadb::ObjectMeta meta;
  meta.versions[1].version = 1;
  EXPECT_FALSE(sel->matches(meta));
  meta.tags.insert("tmp");
  EXPECT_TRUE(sel->matches(meta));
}

TEST(SelectorTest, RejectsUnsupported) {
  using namespace policy;
  // Disjunction unsupported.
  auto or_expr = make_binary(
      BinaryOp::kOr,
      make_binary(BinaryOp::kEq, make_path({"object", "location"}),
                  make_path({"tier1"})),
      make_binary(BinaryOp::kEq, make_path({"object", "dirty"}),
                  make_literal(Value::bool_of(true))));
  EXPECT_FALSE(compile_selector(*or_expr).ok());
  // Unknown attribute.
  auto unknown = make_binary(BinaryOp::kEq, make_path({"object", "color"}),
                             make_path({"red"}));
  EXPECT_FALSE(compile_selector(*unknown).ok());
  // Bad path.
  EXPECT_FALSE(compile_selector(*make_path({"object"})).ok());
}

// ------------------------------------------------------------ forward tier

TEST(ForwardTierTest, ModularInstanceComposition) {
  sim::Simulation sim;
  // Backing "raw data" instance.
  auto raw = make_instance(sim, policy::builtin::persistent_instance());
  ForwardTier forward(sim, "raw", *raw, /*read_only=*/true);

  run(sim, [&]() -> sim::Task<void> {
    co_await raw->put("input", Blob("raw-bytes"));
    // Read through the forward tier (as INTERMEDIATE-DATA would).
    auto r = co_await forward.get("input", {});
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->to_string(), "raw-bytes");
    // Writes are rejected on a read-only mount.
    auto st = co_await forward.put("x", Blob("y"), {});
    EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
    auto rm = co_await forward.remove("input");
    EXPECT_EQ(rm.code(), StatusCode::kFailedPrecondition);
  });
  EXPECT_TRUE(forward.contains("input"));
  EXPECT_FALSE(forward.contains("nope"));
}

TEST(ForwardTierTest, WritableMount) {
  sim::Simulation sim;
  auto backing = make_instance(sim, policy::builtin::persistent_instance());
  ForwardTier forward(sim, "rw", *backing, /*read_only=*/false);
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await forward.put("k", Blob("v"), {})).ok());
    auto r = co_await backing->get("k");
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r->value.to_string(), "v");
    EXPECT_TRUE((co_await forward.remove("k")).ok());
  });
}

// Property sweep: version history stays consistent across interleavings of
// put / update / remove_version.
class VersionHistory : public ::testing::TestWithParam<int> {};

TEST_P(VersionHistory, LatestAlwaysHighestRemaining) {
  sim::Simulation sim(static_cast<uint64_t>(GetParam()));
  auto inst = make_instance(sim, policy::builtin::low_latency_instance());
  run(sim, [&]() -> sim::Task<void> {
    Rng rng(static_cast<uint64_t>(GetParam()));
    for (int i = 0; i < 40; ++i) {
      const double roll = rng.next_double();
      if (roll < 0.6) {
        co_await inst->put("k", Blob("p" + std::to_string(i)));
      } else if (roll < 0.8) {
        auto versions = inst->get_version_list("k");
        if (!versions.empty()) {
          const auto pick = versions[rng.next_below(versions.size())];
          co_await inst->remove_version("k", pick);
        }
      } else {
        co_await inst->update(
            "k", static_cast<int64_t>(rng.uniform_int(1, 50)), Blob("u"));
      }
      auto versions = inst->get_version_list("k");
      if (!versions.empty()) {
        auto r = co_await inst->get("k");
        EXPECT_TRUE(r.ok());
        EXPECT_EQ(r->version, versions.back());
        EXPECT_TRUE(std::is_sorted(versions.begin(), versions.end()));
      }
    }
  });
}

INSTANTIATE_TEST_SUITE_P(Seeds, VersionHistory, ::testing::Range(1, 6));

}  // namespace
}  // namespace wiera::tiera
