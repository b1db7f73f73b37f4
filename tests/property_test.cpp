// Randomized property tests over the substrates: wire-format round trips
// under arbitrary op sequences, histogram percentile accuracy across
// distributions, metadata-store serialize/deserialize fidelity, and LWW
// convergence as a pure function.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "common/histogram.h"
#include "common/rng.h"
#include "metadb/metadb.h"
#include "rpc/wire.h"

namespace wiera {
namespace {

// ------------------------------------------------------------ wire fuzz

enum class WireOp : int { kU8, kBool, kU32, kU64, kI64, kDouble, kString, kBlob };

class WireFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WireFuzz, RandomSequencesRoundTrip) {
  Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const int ops = static_cast<int>(rng.uniform_int(1, 30));
    std::vector<WireOp> sequence;
    std::vector<uint64_t> ints;
    std::vector<double> doubles;
    std::vector<std::string> strings;

    rpc::WireWriter w;
    for (int i = 0; i < ops; ++i) {
      const auto op = static_cast<WireOp>(rng.uniform_int(0, 7));
      sequence.push_back(op);
      switch (op) {
        case WireOp::kU8: {
          const auto v = static_cast<uint8_t>(rng.next_below(256));
          ints.push_back(v);
          w.put_u8(v);
          break;
        }
        case WireOp::kBool: {
          const bool v = rng.bernoulli(0.5);
          ints.push_back(v ? 1 : 0);
          w.put_bool(v);
          break;
        }
        case WireOp::kU32: {
          const auto v = static_cast<uint32_t>(rng.next_u64());
          ints.push_back(v);
          w.put_u32(v);
          break;
        }
        case WireOp::kU64: {
          const uint64_t v = rng.next_u64();
          ints.push_back(v);
          w.put_u64(v);
          break;
        }
        case WireOp::kI64: {
          const auto v = static_cast<int64_t>(rng.next_u64());
          ints.push_back(static_cast<uint64_t>(v));
          w.put_i64(v);
          break;
        }
        case WireOp::kDouble: {
          const double v = rng.gaussian(0, 1e6);
          doubles.push_back(v);
          w.put_double(v);
          break;
        }
        case WireOp::kString: {
          std::string s;
          const int len = static_cast<int>(rng.uniform_int(0, 64));
          for (int c = 0; c < len; ++c) {
            s.push_back(static_cast<char>(rng.uniform_int(32, 126)));
          }
          strings.push_back(s);
          w.put_string(s);
          break;
        }
        case WireOp::kBlob: {
          Bytes data(static_cast<size_t>(rng.uniform_int(0, 256)));
          for (auto& b : data) b = static_cast<uint8_t>(rng.next_below(256));
          strings.emplace_back(data.begin(), data.end());
          w.put_blob(Blob(std::move(data)));
          break;
        }
      }
    }

    Bytes data = w.take();
    rpc::WireReader r(data);
    size_t int_i = 0, double_i = 0, string_i = 0;
    for (WireOp op : sequence) {
      switch (op) {
        case WireOp::kU8:
          EXPECT_EQ(r.get_u8(), static_cast<uint8_t>(ints[int_i++]));
          break;
        case WireOp::kBool:
          EXPECT_EQ(r.get_bool(), ints[int_i++] != 0);
          break;
        case WireOp::kU32:
          EXPECT_EQ(r.get_u32(), static_cast<uint32_t>(ints[int_i++]));
          break;
        case WireOp::kU64:
          EXPECT_EQ(r.get_u64(), ints[int_i++]);
          break;
        case WireOp::kI64:
          EXPECT_EQ(r.get_i64(), static_cast<int64_t>(ints[int_i++]));
          break;
        case WireOp::kDouble:
          EXPECT_EQ(r.get_double(), doubles[double_i++]);
          break;
        case WireOp::kString:
          EXPECT_EQ(r.get_string(), strings[string_i++]);
          break;
        case WireOp::kBlob:
          EXPECT_EQ(r.get_blob().to_string(), strings[string_i++]);
          break;
      }
    }
    EXPECT_TRUE(r.ok());
    EXPECT_EQ(r.remaining(), 0u);

    // Any truncation must fail cleanly, never crash.
    if (!data.empty()) {
      Bytes cut(data.begin(),
                data.begin() + static_cast<int64_t>(
                                   rng.next_below(data.size())));
      rpc::WireReader truncated(cut);
      for (WireOp op : sequence) {
        switch (op) {
          case WireOp::kU8: truncated.get_u8(); break;
          case WireOp::kBool: truncated.get_bool(); break;
          case WireOp::kU32: truncated.get_u32(); break;
          case WireOp::kU64: truncated.get_u64(); break;
          case WireOp::kI64: truncated.get_i64(); break;
          case WireOp::kDouble: truncated.get_double(); break;
          case WireOp::kString: truncated.get_string(); break;
          case WireOp::kBlob: truncated.get_blob(); break;
        }
      }
      EXPECT_FALSE(truncated.ok());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WireFuzz, ::testing::Values(1, 2, 3, 4, 5));

// ------------------------------------------------------------ histogram

class HistogramAccuracy : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HistogramAccuracy, PercentilesWithinBucketError) {
  Rng rng(GetParam());
  // Mixed distribution: sub-ms spikes + tens-of-ms bulk + rare seconds.
  std::vector<int64_t> samples;
  LatencyHistogram hist;
  for (int i = 0; i < 20000; ++i) {
    int64_t us;
    const double roll = rng.next_double();
    if (roll < 0.2) {
      us = static_cast<int64_t>(rng.uniform(100, 900));
    } else if (roll < 0.95) {
      us = static_cast<int64_t>(rng.uniform(5000, 80000));
    } else {
      us = static_cast<int64_t>(rng.uniform(1000000, 5000000));
    }
    samples.push_back(us);
    hist.record(usec(us));
  }
  std::sort(samples.begin(), samples.end());
  for (double q : {0.5, 0.9, 0.99}) {
    const auto idx = static_cast<size_t>(
        q * static_cast<double>(samples.size() - 1));
    const double exact = static_cast<double>(samples[idx]);
    const double approx = static_cast<double>(hist.percentile(q).us());
    // Log-bucket growth factor is 1.12: approximation within ~15%.
    EXPECT_NEAR(approx / exact, 1.0, 0.15) << "q=" << q;
  }
  EXPECT_EQ(hist.count(), 20000);
}

INSTANTIATE_TEST_SUITE_P(Seeds, HistogramAccuracy,
                         ::testing::Values(10, 20, 30));

// ------------------------------------------------------------ metadb fuzz

class MetaDbFuzz : public ::testing::TestWithParam<uint64_t> {};

// The point index against the ordered records: every key in keys()
// resolves to its own record, and every other key of `universe` (never
// written, or removed since) to none.
void expect_index_matches_records(const metadb::MetaDb& db,
                                  const std::vector<std::string>& universe,
                                  int op) {
  const std::vector<std::string> keys = db.keys();
  for (const std::string& k : keys) {
    const metadb::ObjectMeta* obj = db.find(k);
    ASSERT_NE(obj, nullptr) << k << " after operation " << op;
    ASSERT_EQ(obj->key, k) << "after operation " << op;
  }
  for (const std::string& k : universe) {
    const bool held = std::binary_search(keys.begin(), keys.end(), k);
    ASSERT_EQ(db.find(k) != nullptr, held) << k << " after operation " << op;
  }
}

TEST_P(MetaDbFuzz, SerializeDeserializeIsIdentityUnderRandomOps) {
  Rng rng(GetParam());
  metadb::MetaDb db;
  for (int i = 0; i < 500; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 30));
    const double roll = rng.next_double();
    if (roll < 0.55) {
      auto& vm = db.upsert_version(key, rng.uniform_int(1, 8));
      vm.size = rng.uniform_int(0, 1 << 20);
      vm.create_time = TimePoint(rng.uniform_int(0, 1'000'000));
      vm.last_modified = TimePoint(rng.uniform_int(0, 1'000'000));
      vm.dirty = rng.bernoulli(0.5);
      vm.tier = "tier" + std::to_string(rng.uniform_int(1, 3));
      vm.origin = "node" + std::to_string(rng.uniform_int(0, 4));
    } else if (roll < 0.7) {
      db.record_access(key, rng.uniform_int(1, 8),
                       TimePoint(rng.uniform_int(0, 2'000'000)));
    } else if (roll < 0.8) {
      db.add_tag(key, "tag" + std::to_string(rng.uniform_int(0, 3)));
    } else if (roll < 0.9) {
      (void)db.remove_version(key, rng.uniform_int(1, 8));
    } else {
      (void)db.remove_object(key);
    }
  }
  const Bytes snapshot = db.serialize();
  metadb::MetaDb copy;
  ASSERT_TRUE(copy.deserialize(snapshot).ok());
  std::vector<std::string> universe;
  for (int k = 0; k <= 30; ++k) universe.push_back("k" + std::to_string(k));
  expect_index_matches_records(copy, universe, 500);
  // Serialization is canonical (ordered maps): identity check via bytes.
  EXPECT_EQ(copy.serialize(), snapshot);
  EXPECT_EQ(copy.object_count(), db.object_count());
  EXPECT_EQ(copy.version_count(), db.version_count());
  for (const std::string& key : db.keys()) {
    const auto* original = db.find(key);
    const auto* restored = copy.find(key);
    ASSERT_NE(restored, nullptr);
    EXPECT_EQ(original->latest_version(), restored->latest_version());
    EXPECT_EQ(original->tags, restored->tags);
  }
}

// The point index, the dirty index and every open scan against a recount
// after each mutation: find() resolves exactly the keys in keys(), the
// dirty index holds exactly the keys whose latest row is dirty, and a scan
// holds exactly the keys that had a record when it opened (a keys() copy
// taken then), whatever was erased, re-created or reloaded since.
TEST_P(MetaDbFuzz, DirtyIndexAndScansMatchARecount) {
  Rng rng(GetParam());
  metadb::MetaDb db;
  std::vector<std::string> universe;
  for (int k = 0; k <= 20; ++k) universe.push_back("k" + std::to_string(k));
  struct OpenScan {
    metadb::MetaDb::Scan scan;
    std::set<std::string> keys;  // db.keys() when it opened
  };
  std::vector<OpenScan> scans;
  Bytes snapshot = db.serialize();
  for (int i = 0; i < 3000; ++i) {
    const std::string key = "k" + std::to_string(rng.uniform_int(0, 20));
    const int64_t version = rng.uniform_int(1, 6);
    const double roll = rng.next_double();
    if (roll < 0.2) {
      db.set_dirty(key, version, rng.bernoulli(0.6));
    } else if (roll < 0.35) {
      // Above, at or below the key's latest row.
      db.upsert_version(key, version).size = rng.uniform_int(0, 100);
    } else if (roll < 0.45) {
      // A failed write putting back the row it replaced.
      metadb::VersionMeta row;
      row.version = version;
      row.dirty = rng.bernoulli(0.5);
      row.committed = true;
      db.restore_version(key, row);
    } else if (roll < 0.53) {
      (void)db.remove_version(key, version);
    } else if (roll < 0.6) {
      (void)db.forget_version(key, version);
    } else if (roll < 0.65) {
      (void)db.remove_object(key);
    } else if (roll < 0.68) {
      db.add_tag(key, "tag");
    } else if (roll < 0.71) {
      snapshot = db.serialize();
    } else if (roll < 0.73) {
      ASSERT_TRUE(db.deserialize(snapshot).ok());
    } else if (roll < 0.85) {
      const std::vector<std::string> keys = db.keys();
      scans.push_back({db.open_scan(), {keys.begin(), keys.end()}});
    } else if (!scans.empty()) {
      const auto at = static_cast<size_t>(
          rng.uniform_int(0, static_cast<int64_t>(scans.size()) - 1));
      db.close_scan(scans[at].scan);
      scans.erase(scans.begin() + static_cast<std::ptrdiff_t>(at));
    }

    expect_index_matches_records(db, universe, i);
    if (::testing::Test::HasFatalFailure()) return;
    std::set<std::string> dirty;
    for (const std::string& k : db.keys()) {
      const metadb::VersionMeta* latest = db.find(k)->latest();
      if (latest != nullptr && latest->dirty) dirty.insert(k);
    }
    ASSERT_EQ(db.dirty_keys(), dirty) << "after operation " << i;
    for (const OpenScan& open : scans) {
      for (const bool dirty_only : {false, true}) {
        std::vector<std::string> walked;
        for (const metadb::ObjectMeta* obj =
                 db.next_object(open.scan, nullptr, dirty_only);
             obj != nullptr;
             obj = db.next_object(open.scan, &obj->key, dirty_only)) {
          walked.push_back(obj->key);
        }
        std::vector<std::string> held;
        for (const std::string& k : db.keys()) {
          if (open.keys.count(k) > 0 && (!dirty_only || dirty.count(k) > 0)) {
            held.push_back(k);
          }
        }
        ASSERT_EQ(walked, held) << "after operation " << i
                                << (dirty_only ? ", dirty index" : "");
      }
    }
  }
  for (const OpenScan& open : scans) db.close_scan(open.scan);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MetaDbFuzz, ::testing::Values(100, 200, 300));

// Exhaustive corruption sweep over a snapshot: flip every byte, truncate at
// every length. Every mutation must be rejected with a non-OK Status (the
// body checksum covers all of it) and must leave the target store exactly
// as it was — never crash, never half-load.
TEST(MetaDbFuzz, EveryByteFlipAndTruncationIsRejected) {
  metadb::MetaDb db;
  auto& vm = db.upsert_version("key-one", 3);
  vm.size = 4096;
  vm.create_time = TimePoint(1000);
  vm.last_modified = TimePoint(2000);
  vm.dirty = true;
  vm.committed = true;
  vm.tier = "tier1";
  vm.origin = "eu-west";
  vm.checksum = 0xDEADBEEFCAFEF00DULL;
  db.add_tag("key-one", "tmp");
  db.upsert_version("key-two", 1).size = 10;
  const Bytes snapshot = db.serialize();

  metadb::MetaDb target;
  target.upsert_version("sentinel", 9).size = 42;
  const Bytes before = target.serialize();

  for (size_t off = 0; off < snapshot.size(); ++off) {
    Bytes mutated = snapshot;
    mutated[off] ^= 0x01;
    EXPECT_FALSE(target.deserialize(mutated).ok())
        << "byte flip at offset " << off << " was accepted";
    ASSERT_EQ(target.serialize(), before)
        << "byte flip at offset " << off << " modified the store";
  }
  for (size_t len = 0; len < snapshot.size(); ++len) {
    Bytes truncated(snapshot.begin(), snapshot.begin() + len);
    EXPECT_FALSE(target.deserialize(truncated).ok())
        << "truncation to " << len << " bytes was accepted";
    ASSERT_EQ(target.serialize(), before)
        << "truncation to " << len << " bytes modified the store";
  }
  // Trailing garbage after a valid snapshot must also be rejected.
  Bytes padded = snapshot;
  padded.push_back(0);
  EXPECT_FALSE(target.deserialize(padded).ok());

  // The unmutated snapshot still loads — the sweep didn't poison anything.
  EXPECT_TRUE(target.deserialize(snapshot).ok());
  EXPECT_EQ(target.find_version("key-one", 3)->checksum,
            0xDEADBEEFCAFEF00DULL);
}

}  // namespace
}  // namespace wiera
