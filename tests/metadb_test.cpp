// Tests for the versioned metadata store (BerkeleyDB stand-in).
#include <gtest/gtest.h>

#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "metadb/metadb.h"

namespace wiera::metadb {
namespace {

// The point index holds iterators into the store's own record map: a copy
// would point into the source, so MetaDb must not be copyable.
static_assert(!std::is_copy_constructible_v<MetaDb>);
static_assert(!std::is_copy_assignable_v<MetaDb>);

TEST(MetaDbTest, UpsertCreatesObjectAndVersion) {
  MetaDb db;
  VersionMeta& vm = db.upsert_version("k", 1);
  vm.size = 100;
  vm.tier = "tier1";
  ASSERT_NE(db.find("k"), nullptr);
  EXPECT_EQ(db.find("k")->latest_version(), 1);
  EXPECT_EQ(db.find_version("k", 1)->size, 100);
  EXPECT_EQ(db.find_version("k", 1)->tier, "tier1");
  EXPECT_EQ(db.object_count(), 1u);
}

TEST(MetaDbTest, MultipleVersionsOrdered) {
  MetaDb db;
  db.upsert_version("k", 1);
  db.upsert_version("k", 3);
  db.upsert_version("k", 2);
  EXPECT_EQ(db.find("k")->latest_version(), 3);
  EXPECT_EQ(db.version_count(), 3);
  EXPECT_TRUE(db.find("k")->has_version(2));
  EXPECT_FALSE(db.find("k")->has_version(4));
}

TEST(MetaDbTest, FindMissingReturnsNull) {
  MetaDb db;
  EXPECT_EQ(db.find("nope"), nullptr);
  EXPECT_EQ(db.find_version("nope", 1), nullptr);
  db.upsert_version("k", 1);
  EXPECT_EQ(db.find_version("k", 9), nullptr);
}

TEST(MetaDbTest, RecordAccessUpdatesStats) {
  MetaDb db;
  db.upsert_version("k", 1);
  db.record_access("k", 1, TimePoint(5000));
  db.record_access("k", 1, TimePoint(9000));
  const VersionMeta* vm = db.find_version("k", 1);
  EXPECT_EQ(vm->access_count, 2);
  EXPECT_EQ(vm->last_accessed.us(), 9000);
  // Access to unknown key/version is a no-op.
  db.record_access("zz", 1, TimePoint(1));
  db.record_access("k", 7, TimePoint(1));
}

TEST(MetaDbTest, RemoveVersionAndObject) {
  MetaDb db;
  db.upsert_version("k", 1);
  db.upsert_version("k", 2);
  EXPECT_TRUE(db.remove_version("k", 1).ok());
  EXPECT_EQ(db.version_count(), 1);
  EXPECT_EQ(db.remove_version("k", 1).code(), StatusCode::kNotFound);
  // Removing the last version removes the object record.
  EXPECT_TRUE(db.remove_version("k", 2).ok());
  EXPECT_EQ(db.find("k"), nullptr);

  db.upsert_version("k2", 1);
  EXPECT_TRUE(db.remove_object("k2").ok());
  EXPECT_EQ(db.remove_object("k2").code(), StatusCode::kNotFound);
}

TEST(MetaDbTest, ForgetVersionKeepsAllocationFloor) {
  MetaDb db;
  db.upsert_version("k", 5);
  db.upsert_version("k", 6);
  EXPECT_EQ(db.find("k")->max_allocated, 6);
  // forget_version drops the row but not the object record or the floor.
  EXPECT_TRUE(db.forget_version("k", 6).ok());
  ASSERT_NE(db.find("k"), nullptr);
  EXPECT_EQ(db.find("k")->latest_version(), 5);
  EXPECT_EQ(db.find("k")->max_allocated, 6);
  // Even forgetting the last version keeps the record as a tombstone.
  EXPECT_TRUE(db.forget_version("k", 5).ok());
  ASSERT_NE(db.find("k"), nullptr);
  EXPECT_EQ(db.find("k")->latest_version(), 0);
  EXPECT_EQ(db.find("k")->max_allocated, 6);
  EXPECT_EQ(db.forget_version("k", 5).code(), StatusCode::kNotFound);
  EXPECT_EQ(db.forget_version("zz", 1).code(), StatusCode::kNotFound);
  // An empty record never reports as cold (nothing to migrate).
  EXPECT_TRUE(db.cold_objects(TimePoint(hoursd(999).us()), hoursd(1)).empty());
  // remove_version (user-level delete) still erases empty objects.
  db.upsert_version("k2", 1);
  EXPECT_TRUE(db.remove_version("k2", 1).ok());
  EXPECT_EQ(db.find("k2"), nullptr);
}

TEST(MetaDbTest, Tags) {
  MetaDb db;
  db.upsert_version("a", 1);
  db.upsert_version("b", 1);
  db.add_tag("a", "tmp");
  db.add_tag("b", "tmp");
  db.add_tag("b", "log");
  EXPECT_TRUE(db.has_tag("a", "tmp"));
  EXPECT_FALSE(db.has_tag("a", "log"));
  EXPECT_EQ(db.keys_with_tag("tmp").size(), 2u);
  EXPECT_EQ(db.keys_with_tag("log").size(), 1u);
  EXPECT_EQ(db.keys_with_tag("none").size(), 0u);
}

TEST(MetaDbTest, ColdObjectDetection) {
  // The Fig. 6a policy: objects idle longer than a threshold are cold.
  MetaDb db;
  VersionMeta& hot = db.upsert_version("hot", 1);
  hot.create_time = TimePoint(0);
  db.record_access("hot", 1, TimePoint(hoursd(100).us()));
  VersionMeta& cold = db.upsert_version("cold", 1);
  cold.create_time = TimePoint(0);

  const TimePoint now = TimePoint(hoursd(130).us());
  auto cold_keys = db.cold_objects(now, hoursd(120));
  ASSERT_EQ(cold_keys.size(), 1u);
  EXPECT_EQ(cold_keys[0], "cold");

  // At hour 230, "hot" (last access hour 100) also exceeds 120h idle.
  cold_keys = db.cold_objects(TimePoint(hoursd(230).us()), hoursd(120));
  EXPECT_EQ(cold_keys.size(), 2u);
}

TEST(MetaDbTest, ColdnessUsesNewestAccessAcrossVersions) {
  MetaDb db;
  VersionMeta& v1 = db.upsert_version("k", 1);
  v1.create_time = TimePoint(0);
  VersionMeta& v2 = db.upsert_version("k", 2);
  v2.create_time = TimePoint(hoursd(100).us());
  auto cold = db.cold_objects(TimePoint(hoursd(130).us()), hoursd(120));
  EXPECT_TRUE(cold.empty());  // v2's creation keeps the object warm
}

TEST(MetaDbTest, SerializeDeserializeRoundTrip) {
  MetaDb db;
  VersionMeta& vm = db.upsert_version("k1", 2);
  vm.size = 4096;
  vm.create_time = TimePoint(1000);
  vm.last_modified = TimePoint(2000);
  vm.last_accessed = TimePoint(3000);
  vm.access_count = 7;
  vm.dirty = true;
  vm.committed = true;
  vm.tier = "tier2";
  vm.origin = "us-west";
  vm.checksum = 0x1234567890ABCDEFULL;
  db.add_tag("k1", "tmp");
  db.upsert_version("k2", 1).size = 10;

  Bytes data = db.serialize();
  MetaDb loaded;
  ASSERT_TRUE(loaded.deserialize(data).ok());
  EXPECT_EQ(loaded.object_count(), 2u);
  const VersionMeta* lv = loaded.find_version("k1", 2);
  ASSERT_NE(lv, nullptr);
  EXPECT_EQ(lv->size, 4096);
  EXPECT_EQ(lv->create_time.us(), 1000);
  EXPECT_EQ(lv->access_count, 7);
  EXPECT_TRUE(lv->dirty);
  EXPECT_EQ(lv->tier, "tier2");
  EXPECT_EQ(lv->origin, "us-west");
  EXPECT_TRUE(lv->committed);
  EXPECT_EQ(lv->checksum, 0x1234567890ABCDEFULL);
  EXPECT_TRUE(loaded.has_tag("k1", "tmp"));
  // The dirty index is rebuilt from the loaded rows.
  EXPECT_EQ(loaded.dirty_keys(), std::set<std::string>{"k1"});
  // The allocation high-water mark survives the round trip, including one
  // raised above the surviving rows by forget_version.
  EXPECT_TRUE(db.forget_version("k2", 1).ok());
  Bytes again = db.serialize();
  MetaDb reloaded;
  ASSERT_TRUE(reloaded.deserialize(again).ok());
  ASSERT_NE(reloaded.find("k2"), nullptr);
  EXPECT_EQ(reloaded.find("k2")->max_allocated, 1);
  EXPECT_EQ(reloaded.find("k2")->latest_version(), 0);
}

TEST(MetaDbTest, DeserializeCorruptFailsAndPreservesContents) {
  MetaDb db;
  db.upsert_version("keep", 1);
  Bytes junk{1, 2, 3};
  // A tiny buffer claiming many objects must fail cleanly.
  junk.resize(4);
  junk[0] = 0xFF;
  EXPECT_FALSE(db.deserialize(junk).ok());
  EXPECT_NE(db.find("keep"), nullptr);
}

TEST(MetaDbTest, DirtyIndexFollowsTheLatestRow) {
  MetaDb db;
  db.set_dirty("k", 2, true);
  EXPECT_EQ(db.dirty_keys(), std::set<std::string>{"k"});
  // A lower version's bit does not decide; a new, clean latest row does.
  db.set_dirty("k", 1, false);
  EXPECT_EQ(db.dirty_keys().count("k"), 1u);
  db.upsert_version("k", 3);
  EXPECT_TRUE(db.dirty_keys().empty());
  db.set_dirty("k", 3, true);
  EXPECT_EQ(db.dirty_keys().count("k"), 1u);
  // Dropping the latest row exposes v2, which is still dirty.
  ASSERT_TRUE(db.forget_version("k", 3).ok());
  EXPECT_EQ(db.dirty_keys().count("k"), 1u);
  VersionMeta clean = *db.find_version("k", 2);
  clean.dirty = false;
  db.restore_version("k", clean);
  EXPECT_TRUE(db.dirty_keys().empty());
  db.set_dirty("k", 2, true);
  ASSERT_TRUE(db.remove_object("k").ok());
  EXPECT_TRUE(db.dirty_keys().empty());
}

TEST(MetaDbTest, ScanHoldsTheKeysThatExistedWhenItOpened) {
  MetaDb db;
  db.upsert_version("a", 1);
  db.upsert_version("b", 1);
  db.upsert_version("c", 1);
  const MetaDb::Scan scan = db.open_scan();
  db.upsert_version("bb", 1);           // created after: not held
  ASSERT_TRUE(db.remove_object("b").ok());
  db.upsert_version("b", 1);            // erased and re-created: held
  ASSERT_TRUE(db.remove_object("c").ok());  // erased: gone
  std::vector<std::string> walked;
  for (const ObjectMeta* obj = db.next_object(scan, nullptr, false);
       obj != nullptr; obj = db.next_object(scan, &obj->key, false)) {
    walked.push_back(obj->key);
  }
  EXPECT_EQ(walked, (std::vector<std::string>{"a", "b"}));
  db.close_scan(scan);
  // A scan opened now holds every current key.
  const MetaDb::Scan later = db.open_scan();
  EXPECT_TRUE(db.in_scan(later, *db.find("bb")));
  db.close_scan(later);
}

TEST(MetaDbTest, KeysListing) {
  MetaDb db;
  db.upsert_version("b", 1);
  db.upsert_version("a", 1);
  auto keys = db.keys();
  ASSERT_EQ(keys.size(), 2u);
  EXPECT_EQ(keys[0], "a");  // map order
  EXPECT_EQ(keys[1], "b");
}

}  // namespace
}  // namespace wiera::metadb
