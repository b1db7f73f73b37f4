// Tests for the storage tier models: correctness of the KV semantics plus
// the behaviours the paper's evaluation depends on (LRU eviction, buffer
// cache, O_DIRECT, memory pressure, IOPS throttling, latency ordering).
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>

#include "common/units.h"
#include "sim/simulation.h"
#include "store/tier.h"

namespace wiera::store {
namespace {

// Helper: run one coroutine to completion in a fresh simulation step.
template <typename F>
void run(sim::Simulation& sim, F&& body) {
  bool done = false;
  auto wrapper = [](F body, bool& flag) -> sim::Task<void> {
    co_await body();
    flag = true;
  };
  sim.spawn(wrapper(std::forward<F>(body), done));
  sim.run();
  ASSERT_TRUE(done);
}

TierSpec memory_spec(int64_t capacity) {
  TierSpec s;
  s.name = "mem";
  s.kind = TierKind::kMemory;
  s.capacity_bytes = capacity;
  s.jitter_fraction = 0;
  return s;
}

TierSpec block_spec(TierKind kind, bool cache, int64_t iops = 0) {
  TierSpec s;
  s.name = "disk";
  s.kind = kind;
  s.capacity_bytes = 16 * GiB;
  s.jitter_fraction = 0;
  s.buffer_cache = cache;
  s.iops_limit = iops;
  return s;
}

// ------------------------------------------------------------ kind parsing

TEST(TierKindTest, ParsesPaperNames) {
  EXPECT_EQ(tier_kind_from_name("Memcached").value(), TierKind::kMemory);
  EXPECT_EQ(tier_kind_from_name("LocalMemory").value(), TierKind::kMemory);
  EXPECT_EQ(tier_kind_from_name("EBS").value(), TierKind::kBlockSsd);
  EXPECT_EQ(tier_kind_from_name("LocalDisk").value(), TierKind::kBlockSsd);
  EXPECT_EQ(tier_kind_from_name("S3").value(), TierKind::kObjectS3);
  EXPECT_EQ(tier_kind_from_name("S3-IA").value(), TierKind::kObjectS3IA);
  EXPECT_EQ(tier_kind_from_name("CheapestArchival").value(),
            TierKind::kGlacier);
  EXPECT_FALSE(tier_kind_from_name("floppy").ok());
}

TEST(TierKindTest, NamesRoundTrip) {
  EXPECT_EQ(tier_kind_name(TierKind::kMemory), "memory");
  EXPECT_EQ(tier_kind_name(TierKind::kObjectS3IA), "s3-ia");
}

// ------------------------------------------------------------ MemoryTier

TEST(MemoryTierTest, PutGetRoundTrip) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await tier->put("k1", Blob("v1"))).ok());
    auto r = co_await tier->get("k1");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->to_string(), "v1");
  });
  EXPECT_EQ(tier->object_count(), 1);
  EXPECT_EQ(tier->stats().puts, 1);
  EXPECT_EQ(tier->stats().gets, 1);
}

TEST(MemoryTierTest, GetMissing) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  run(sim, [&]() -> sim::Task<void> {
    auto r = co_await tier->get("nope");
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  });
  EXPECT_EQ(tier->stats().get_misses, 1);
}

TEST(MemoryTierTest, OverwriteReplacesAndAdjustsUsage) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("k", Blob(Bytes(100, 1)));
    co_await tier->put("k", Blob(Bytes(40, 2)));
    co_return;
  });
  EXPECT_EQ(tier->used_bytes(), 40);
  EXPECT_EQ(tier->object_count(), 1);
}

TEST(MemoryTierTest, LruEvictionWhenFull) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(250));
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("a", Blob(Bytes(100, 1)));
    co_await tier->put("b", Blob(Bytes(100, 2)));
    // Touch "a" so "b" becomes LRU.
    co_await tier->get("a");
    co_await tier->put("c", Blob(Bytes(100, 3)));  // must evict "b"
    co_return;
  });
  EXPECT_TRUE(tier->contains("a"));
  EXPECT_FALSE(tier->contains("b"));
  EXPECT_TRUE(tier->contains("c"));
  EXPECT_EQ(tier->stats().evictions, 1);
}

TEST(MemoryTierTest, ObjectBiggerThanTierRejected) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(100));
  run(sim, [&]() -> sim::Task<void> {
    auto st = co_await tier->put("big", Blob(Bytes(200, 0)));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  });
}

TEST(MemoryTierTest, RemoveFreesSpace) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("k", Blob(Bytes(100, 1)));
    EXPECT_TRUE((co_await tier->remove("k")).ok());
    EXPECT_EQ((co_await tier->remove("k")).code(), StatusCode::kNotFound);
  });
  EXPECT_EQ(tier->used_bytes(), 0);
}

TEST(MemoryTierTest, WipeModelsVolatility) {
  sim::Simulation sim;
  TierSpec spec = memory_spec(1 * MiB);
  MemoryTier tier(sim, spec);
  run(sim, [&]() -> sim::Task<void> {
    co_await tier.put("k", Blob("v"), {});
    co_return;
  });
  tier.wipe();
  EXPECT_EQ(tier.object_count(), 0);
  EXPECT_EQ(tier.used_bytes(), 0);
}

TEST(MemoryTierTest, SubMillisecondServiceTime) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("k", Blob(Bytes(4096, 0)));
    co_return;
  });
  EXPECT_LT(sim.now().us(), 1000);  // memory write for 4KB well under 1 ms
}

// ------------------------------------------------------------ BlockTier

TEST(BlockTierTest, DirectIoPaysDeviceLatency) {
  sim::Simulation sim;
  auto ssd = make_tier(sim, block_spec(TierKind::kBlockSsd, /*cache=*/true));
  int64_t write_done_us = 0, read_done_us = 0;
  run(sim, [&]() -> sim::Task<void> {
    IoOptions direct{.direct = true};
    co_await ssd->put("k", Blob(Bytes(4096, 0)), direct);
    write_done_us = sim.now().us();
    co_await ssd->get("k", direct);
    read_done_us = sim.now().us() - write_done_us;
  });
  // SSD 4KB direct: ~1.2ms write, ~1ms read.
  EXPECT_NEAR(write_done_us, 1225, 150);
  EXPECT_NEAR(read_done_us, 1025, 150);
  EXPECT_EQ(ssd->stats().cache_hits, 0);
}

TEST(BlockTierTest, BufferCacheMakesRepeatReadsFast) {
  sim::Simulation sim;
  auto ssd = make_tier(sim, block_spec(TierKind::kBlockSsd, /*cache=*/true));
  int64_t first_us = 0, second_us = 0;
  run(sim, [&]() -> sim::Task<void> {
    co_await ssd->put("k", Blob(Bytes(4096, 0)), {.direct = true});
    const int64_t t0 = sim.now().us();
    co_await ssd->get("k");  // miss: device + populate cache
    first_us = sim.now().us() - t0;
    const int64_t t1 = sim.now().us();
    co_await ssd->get("k");  // hit
    second_us = sim.now().us() - t1;
  });
  EXPECT_GT(first_us, 800);
  EXPECT_LT(second_us, 200);  // page-cache hit well under 1ms
  EXPECT_EQ(ssd->stats().cache_hits, 1);
}

TEST(BlockTierTest, CachedWriteIsFast) {
  sim::Simulation sim;
  auto ssd = make_tier(sim, block_spec(TierKind::kBlockSsd, /*cache=*/true));
  run(sim, [&]() -> sim::Task<void> {
    co_await ssd->put("k", Blob(Bytes(4096, 0)));  // write-back via cache
    co_return;
  });
  EXPECT_LT(sim.now().us(), 300);
}

TEST(BlockTierTest, MemoryPressureDisablesCache) {
  sim::Simulation sim;
  TierSpec spec = block_spec(TierKind::kBlockSsd, /*cache=*/true);
  BlockTier ssd(sim, [&] {
    TierSpec s = spec;
    s.read_base = usec(1000);
    s.write_base = usec(1200);
    s.bandwidth_mbps = 160;
    return s;
  }());
  ssd.set_memory_pressure(true);
  int64_t read_us = 0;
  run(sim, [&]() -> sim::Task<void> {
    co_await ssd.put("k", Blob(Bytes(4096, 0)), {});
    const int64_t t0 = sim.now().us();
    co_await ssd.get("k", {});
    read_us = sim.now().us() - t0;
    co_await ssd.get("k", {});  // still no caching
  });
  EXPECT_GT(read_us, 800);
  EXPECT_EQ(ssd.stats().cache_hits, 0);
}

TEST(BlockTierTest, HddSlowerThanSsd) {
  sim::Simulation sim;
  auto ssd = make_tier(sim, block_spec(TierKind::kBlockSsd, false));
  auto hdd = make_tier(sim, block_spec(TierKind::kBlockHdd, false));
  int64_t ssd_us = 0, hdd_us = 0;
  run(sim, [&]() -> sim::Task<void> {
    co_await ssd->put("k", Blob(Bytes(4096, 0)), {.direct = true});
    int64_t t = sim.now().us();
    co_await ssd->get("k", {.direct = true});
    ssd_us = sim.now().us() - t;
    co_await hdd->put("k", Blob(Bytes(4096, 0)), {.direct = true});
    t = sim.now().us();
    co_await hdd->get("k", {.direct = true});
    hdd_us = sim.now().us() - t;
  });
  EXPECT_GT(hdd_us, 4 * ssd_us);
}

TEST(BlockTierTest, IopsThrottleCapsOperationRate) {
  // 500 IOPS (the Azure cap): 100 direct reads must take >= ~200ms.
  sim::Simulation sim;
  auto disk = make_tier(
      sim, block_spec(TierKind::kBlockSsd, /*cache=*/false, /*iops=*/500));
  run(sim, [&]() -> sim::Task<void> {
    co_await disk->put("k", Blob(Bytes(512, 0)), {.direct = true});
    for (int i = 0; i < 100; ++i) {
      co_await disk->get("k", {.direct = true});
    }
  });
  // 101 device ops at 2ms/slot = ~202ms minimum.
  EXPECT_GE(sim.now().us(), 200000);
  EXPECT_LE(sim.now().us(), 260000);
}

TEST(BlockTierTest, CapacityEnforced) {
  sim::Simulation sim;
  TierSpec spec = block_spec(TierKind::kBlockSsd, false);
  spec.capacity_bytes = 1000;
  auto disk = make_tier(sim, spec);
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await disk->put("a", Blob(Bytes(600, 0)))).ok());
    auto st = co_await disk->put("b", Blob(Bytes(600, 0)));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
    // Overwriting "a" with something that fits in its place is fine.
    EXPECT_TRUE((co_await disk->put("a", Blob(Bytes(900, 0)))).ok());
  });
  EXPECT_EQ(disk->used_bytes(), 900);
}

// ------------------------------------------------------------ ObjectTier

TEST(ObjectTierTest, S3LatencyOrdering) {
  // Fig. 9: SSD < HDD < S3 < S3-IA for 4KB ops.
  sim::Simulation sim;
  auto s3 = make_tier(sim, [&] {
    TierSpec s;
    s.name = "s3";
    s.kind = TierKind::kObjectS3;
    s.jitter_fraction = 0;
    return s;
  }());
  auto s3ia = make_tier(sim, [&] {
    TierSpec s;
    s.name = "s3ia";
    s.kind = TierKind::kObjectS3IA;
    s.jitter_fraction = 0;
    return s;
  }());
  int64_t s3_us = 0, s3ia_us = 0;
  run(sim, [&]() -> sim::Task<void> {
    co_await s3->put("k", Blob(Bytes(4096, 0)));
    int64_t t = sim.now().us();
    co_await s3->get("k");
    s3_us = sim.now().us() - t;
    co_await s3ia->put("k", Blob(Bytes(4096, 0)));
    t = sim.now().us();
    co_await s3ia->get("k");
    s3ia_us = sim.now().us() - t;
  });
  EXPECT_GT(s3_us, 10000);    // ~15ms
  EXPECT_GT(s3ia_us, s3_us);  // IA slower than standard
}

TEST(ObjectTierTest, UnboundedCapacity) {
  sim::Simulation sim;
  TierSpec s;
  s.name = "s3";
  s.kind = TierKind::kObjectS3;
  auto tier = make_tier(sim, s);
  run(sim, [&]() -> sim::Task<void> {
    for (int i = 0; i < 50; ++i) {
      EXPECT_TRUE(
          (co_await tier->put("k" + std::to_string(i), Blob(Bytes(1 * MiB, 0))))
              .ok());
    }
  });
  EXPECT_EQ(tier->object_count(), 50);
  EXPECT_EQ(tier->fill_fraction(), 0.0);  // unbounded
}

TEST(ObjectTierTest, RemoveAndMissSemantics) {
  sim::Simulation sim;
  TierSpec s;
  s.name = "s3";
  s.kind = TierKind::kObjectS3;
  auto tier = make_tier(sim, s);
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("k", Blob("v"));
    EXPECT_TRUE((co_await tier->remove("k")).ok());
    auto r = co_await tier->get("k");
    EXPECT_EQ(r.status().code(), StatusCode::kNotFound);
  });
}

// ------------------------------------------------------------ fill / grow

TEST(TierTest, FillFractionAndGrow) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1000));
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("k", Blob(Bytes(500, 0)));
    co_return;
  });
  EXPECT_DOUBLE_EQ(tier->fill_fraction(), 0.5);
  ASSERT_TRUE(tier->grow(1000).ok());
  EXPECT_DOUBLE_EQ(tier->fill_fraction(), 0.25);
}

TEST(TierTest, GrowRejectsNegative) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1000));
  EXPECT_EQ(tier->grow(-1).code(), StatusCode::kInvalidArgument);
  // Rejected growth must not touch the capacity.
  EXPECT_EQ(tier->spec().capacity_bytes, 1000);
}

TEST(TierTest, GrowRejectsOverflow) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1000));
  EXPECT_EQ(tier->grow(kMax).code(), StatusCode::kOutOfRange);
  EXPECT_EQ(tier->spec().capacity_bytes, 1000);
  // The exact boundary is allowed: capacity lands on INT64_MAX, not past it.
  EXPECT_TRUE(tier->grow(kMax - 1000).ok());
  EXPECT_EQ(tier->spec().capacity_bytes, kMax);
  EXPECT_EQ(tier->grow(1).code(), StatusCode::kOutOfRange);
}

// ------------------------------------------------------- fault-window edges

TEST(TierFaultTest, EnospcWindowBlocksBeforeEviction) {
  // A full memory tier hit by an ENOSPC window: the put must fail up front
  // without evicting residents to make room for a write that cannot land.
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(250));
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("a", Blob(Bytes(100, 1)));
    co_await tier->put("b", Blob(Bytes(100, 2)));
    tier->inject_write_errors(sim.now(), sim.now() + sec(10));
    auto st = co_await tier->put("c", Blob(Bytes(100, 3)));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
  });
  EXPECT_TRUE(tier->contains("a"));
  EXPECT_TRUE(tier->contains("b"));
  EXPECT_FALSE(tier->contains("c"));
  EXPECT_EQ(tier->stats().evictions, 0);
}

TEST(TierFaultTest, SlowdownWindowIsHalfOpen) {
  // The window is [from, until): an operation starting exactly at `until`
  // pays no slowdown.
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  const TimePoint until = TimePoint::origin() + usec(10000);
  tier->inject_slowdown(10.0, TimePoint::origin(), until);
  int64_t inside_us = 0, boundary_us = 0;
  run(sim, [&]() -> sim::Task<void> {
    // Empty payload: service time is exactly write_base (jitter disabled).
    int64_t t0 = sim.now().us();
    co_await tier->put("k", Blob(Bytes()));
    inside_us = sim.now().us() - t0;
    co_await sim.at(until);
    t0 = sim.now().us();
    co_await tier->put("k", Blob(Bytes()));
    boundary_us = sim.now().us() - t0;
  });
  EXPECT_EQ(inside_us, 10 * boundary_us);
  EXPECT_EQ(boundary_us, calibration::kMemoryWriteUs);
}

TEST(TierFaultTest, ClearFaultsMidWindowRestoresWrites) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  run(sim, [&]() -> sim::Task<void> {
    tier->inject_write_errors(sim.now(), sim.now() + sec(60));
    auto st = co_await tier->put("k", Blob("v"));
    EXPECT_EQ(st.code(), StatusCode::kResourceExhausted);
    tier->clear_faults();
    // Still well inside the (now cancelled) window.
    EXPECT_LT(sim.now(), TimePoint::origin() + sec(60));
    EXPECT_TRUE((co_await tier->put("k", Blob("v"))).ok());
  });
  EXPECT_TRUE(tier->contains("k"));
}

// ------------------------------------------------------ torn writes / rot

TEST(BlockTierTest, TornWriteJournalledAndDiscardedByRecover) {
  sim::Simulation sim;
  auto disk = make_tier(sim, block_spec(TierKind::kBlockSsd, /*cache=*/false));
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await disk->put("k", Blob(Bytes(4096, 1)))).ok());
    // The node "crashes" while the second write is in flight: its commit
    // instant lands inside the torn window.
    disk->inject_torn_writes(sim.now(), sim.now() + sec(10));
    auto st = co_await disk->put("k", Blob(Bytes(4096, 2)));
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    // The previous committed copy is untouched by the shadow journal.
    auto r = co_await disk->get("k");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->size(), 4096u);
    EXPECT_EQ(r->data()[0], 1);
  });
  EXPECT_EQ(disk->stats().torn_writes, 1);
  disk->recover();
  EXPECT_EQ(disk->stats().torn_discards, 1);
  run(sim, [&]() -> sim::Task<void> {
    auto r = co_await disk->get("k");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->data()[0], 1);  // still the old committed copy
  });
}

// ----------------------------------------------- byte accounting at commit

// One put or remove of `key` as its own task, expected to succeed.
sim::Task<void> put_bytes(StorageTier* tier, std::string key, size_t size,
                          uint8_t fill) {
  EXPECT_TRUE(
      (co_await tier->put(std::move(key), Blob(Bytes(size, fill)))).ok());
}
sim::Task<void> remove_key(StorageTier* tier, std::string key) {
  EXPECT_TRUE((co_await tier->remove(std::move(key))).ok());
}

TEST(BlockTierTest, RemoveDuringOverwriteKeepsByteAccounting) {
  // The 300 B overwrite waits ~1.2 ms on the device; the remove lands in
  // that wait, so the overwrite replaces nothing when it commits.
  sim::Simulation sim;
  auto disk = make_tier(sim, block_spec(TierKind::kBlockSsd, /*cache=*/false));
  sim.spawn(put_bytes(disk.get(), "k", 100, 1));
  sim.run();
  sim.spawn(put_bytes(disk.get(), "k", 300, 2));
  sim.spawn(remove_key(disk.get(), "k"));
  sim.run();
  EXPECT_TRUE(disk->contains("k"));
  EXPECT_EQ(disk->used_bytes(), 300);
}

TEST(BlockTierTest, OverlappingOverwritesKeepByteAccounting) {
  // Both overwrites are admitted while the 100 B copy is stored; the
  // second commits over the first one's copy, not over the 100 B one.
  sim::Simulation sim;
  auto disk = make_tier(sim, block_spec(TierKind::kBlockSsd, /*cache=*/false));
  sim.spawn(put_bytes(disk.get(), "k", 100, 1));
  sim.run();
  sim.spawn(put_bytes(disk.get(), "k", 200, 2));
  sim.spawn(put_bytes(disk.get(), "k", 300, 3));
  sim.run();
  EXPECT_EQ(disk->used_bytes(), 300);
  EXPECT_EQ(disk->object_count(), 1);
  run(sim, [&]() -> sim::Task<void> {
    auto r = co_await disk->get("k");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->size(), 300u);
  });
}

TEST(ObjectTierTest, TornWriteJournalledAndDiscardedByRecover) {
  sim::Simulation sim;
  TierSpec s;
  s.name = "s3";
  s.kind = TierKind::kObjectS3;
  auto tier = make_tier(sim, s);
  run(sim, [&]() -> sim::Task<void> {
    EXPECT_TRUE((co_await tier->put("k", Blob(Bytes(1000, 1)))).ok());
    tier->inject_torn_writes(sim.now(), sim.now() + sec(10));
    auto st = co_await tier->put("k", Blob(Bytes(1000, 2)));
    EXPECT_EQ(st.code(), StatusCode::kDataLoss);
    auto r = co_await tier->get("k");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->data()[0], 1);
  });
  EXPECT_EQ(tier->stats().torn_writes, 1);
  tier->recover();
  EXPECT_EQ(tier->stats().torn_discards, 1);
}

TEST(TierTest, CorruptObjectFlipsOneStoredByte) {
  sim::Simulation sim;
  auto tier = make_tier(sim, memory_spec(1 * MiB));
  Bytes payload(64, 0xAB);
  run(sim, [&]() -> sim::Task<void> {
    co_await tier->put("k", Blob(Bytes(payload)));
    co_return;
  });
  EXPECT_FALSE(tier->corrupt_object("missing"));
  EXPECT_TRUE(tier->corrupt_object("k"));
  EXPECT_EQ(tier->stats().corruptions, 1);
  run(sim, [&]() -> sim::Task<void> {
    auto r = co_await tier->get("k");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->size(), payload.size());  // size is unchanged — only a flip
    EXPECT_NE(r->view(), Blob(Bytes(payload)).view());
  });
}

// Property sweep: every persistent tier kind round-trips payloads of many
// sizes unchanged.
class TierRoundTrip
    : public ::testing::TestWithParam<std::tuple<TierKind, int>> {};

TEST_P(TierRoundTrip, PayloadIntegrity) {
  const auto [kind, size] = GetParam();
  sim::Simulation sim;
  TierSpec spec;
  spec.name = "t";
  spec.kind = kind;
  spec.capacity_bytes = 0;  // unbounded for the sweep
  auto tier = make_tier(sim, spec);
  Bytes payload(static_cast<size_t>(size));
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  run(sim, [&, size = size]() -> sim::Task<void> {
    EXPECT_TRUE((co_await tier->put("k", Blob(Bytes(payload)))).ok());
    auto r = co_await tier->get("k");
    EXPECT_TRUE(r.ok());
    if (!r.ok()) co_return;
    EXPECT_EQ(r->size(), static_cast<size_t>(size));
    EXPECT_EQ(r->view(), Blob(Bytes(payload)).view());
  });
}

INSTANTIATE_TEST_SUITE_P(
    KindsAndSizes, TierRoundTrip,
    ::testing::Combine(::testing::Values(TierKind::kMemory,
                                         TierKind::kBlockSsd,
                                         TierKind::kBlockHdd,
                                         TierKind::kObjectS3,
                                         TierKind::kObjectS3IA),
                       ::testing::Values(0, 1, 4096, 1 << 20)));

}  // namespace
}  // namespace wiera::store
