#include "exec/flat_join_table.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/strings.h"
#include "storage/schema.h"

namespace gqp {
namespace {

SchemaPtr RowSchema() {
  return MakeSchema({{"key", DataType::kInt64},
                     {"payload", DataType::kString}});
}

Tuple Row(int64_t key, const std::string& payload) {
  return Tuple(RowSchema(), {Value(key), Value(payload)});
}

/// Collects the payload column of every entry matching `hash` whose key
/// equals `key` (the same collision filter the join operator applies).
std::vector<std::string> Matches(const FlatJoinTable& table, uint64_t hash,
                                 const Value& key) {
  std::vector<std::string> out;
  table.ForEachMatch(hash, [&](const Tuple& t) {
    if (t[0] == key) out.push_back(t[1].AsString());
  });
  return out;
}

TEST(FlatJoinTableTest, EmptyTableHasNoMatches) {
  FlatJoinTable table;
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.size(), 0u);
  int calls = 0;
  table.ForEachMatch(123, [&](const Tuple&) { ++calls; });
  EXPECT_EQ(calls, 0);
}

TEST(FlatJoinTableTest, InsertAndProbe) {
  FlatJoinTable table;
  const Value key(int64_t{7});
  EXPECT_FALSE(table.Insert(key.Hash(), Row(7, "a")));
  EXPECT_EQ(table.size(), 1u);
  EXPECT_EQ(Matches(table, key.Hash(), key),
            (std::vector<std::string>{"a"}));
  // Probing a hash that is not in the table finds nothing.
  EXPECT_TRUE(Matches(table, key.Hash() + 1, key).empty());
}

TEST(FlatJoinTableTest, DuplicateKeysEmitInInsertionOrder) {
  FlatJoinTable table;
  const Value key(int64_t{42});
  EXPECT_FALSE(table.Insert(key.Hash(), Row(42, "first")));
  EXPECT_FALSE(table.Insert(key.Hash(), Row(42, "second")));
  EXPECT_FALSE(table.Insert(key.Hash(), Row(42, "third")));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(table.distinct_hashes(), 1u);
  EXPECT_EQ(Matches(table, key.Hash(), key),
            (std::vector<std::string>{"first", "second", "third"}));
}

TEST(FlatJoinTableTest, ValueIdenticalInsertReportsDuplicate) {
  FlatJoinTable table;
  const Value key(int64_t{5});
  EXPECT_FALSE(table.Insert(key.Hash(), Row(5, "x")));
  // Same key, different payload: a legitimate multi-match, not a dup.
  EXPECT_FALSE(table.Insert(key.Hash(), Row(5, "y")));
  // Value-identical row: flagged, but still stored (matches the join
  // operator's historical duplicate-warning-then-insert behavior).
  EXPECT_TRUE(table.Insert(key.Hash(), Row(5, "x")));
  EXPECT_EQ(table.size(), 3u);
  EXPECT_EQ(Matches(table, key.Hash(), key),
            (std::vector<std::string>{"x", "y", "x"}));
}

TEST(FlatJoinTableTest, HashCollisionsShareAChainButKeepTheirKeys) {
  FlatJoinTable table;
  // Force a collision: two different keys inserted under the same hash.
  const Value k1(int64_t{1});
  const Value k2(int64_t{2});
  const uint64_t hash = 0x1234;
  EXPECT_FALSE(table.Insert(hash, Row(1, "one")));
  EXPECT_FALSE(table.Insert(hash, Row(2, "two")));
  EXPECT_FALSE(table.Insert(hash, Row(1, "uno")));
  EXPECT_EQ(table.distinct_hashes(), 1u);
  // The key filter separates the colliding chains.
  EXPECT_EQ(Matches(table, hash, k1),
            (std::vector<std::string>{"one", "uno"}));
  EXPECT_EQ(Matches(table, hash, k2), (std::vector<std::string>{"two"}));
}

TEST(FlatJoinTableTest, TagAliasesResolveToTheirOwnChains) {
  // Two hashes with the same tag (high byte) and the same home slot in a
  // 16-slot table: the second lands one slot past the first, and lookups
  // must tell them apart by the full hash, not the tag.
  FlatJoinTable table;
  const uint64_t first = 0xAB00000000000001ULL;
  const uint64_t second = 0xAB00000000000011ULL;
  const uint64_t absent = 0xAB00000000000021ULL;
  EXPECT_FALSE(table.Insert(first, Row(1, "a1")));
  EXPECT_FALSE(table.Insert(second, Row(2, "b1")));
  EXPECT_FALSE(table.Insert(first, Row(1, "a2")));
  EXPECT_FALSE(table.Insert(second, Row(2, "b2")));
  ASSERT_EQ(table.slot_capacity(), 16u);
  EXPECT_EQ(table.distinct_hashes(), 2u);

  auto chain = [&](uint64_t hash) {
    std::vector<std::string> out;
    table.ForEachMatch(hash, [&](const Tuple& t) {
      out.push_back(t[1].AsString());
    });
    return out;
  };
  EXPECT_EQ(chain(first), (std::vector<std::string>{"a1", "a2"}));
  EXPECT_EQ(chain(second), (std::vector<std::string>{"b1", "b2"}));
  EXPECT_TRUE(chain(absent).empty());
}

TEST(FlatJoinTableTest, GrowthRehashPreservesAllChains) {
  FlatJoinTable table;
  constexpr int kRows = 5000;  // far beyond the initial slot count
  for (int i = 0; i < kRows; ++i) {
    const Value key(int64_t{i % 100});  // 100 distinct keys, 50 rows each
    EXPECT_FALSE(
        table.Insert(key.Hash(), Row(i % 100, StrCat("p", i))));
  }
  EXPECT_EQ(table.size(), static_cast<size_t>(kRows));
  EXPECT_EQ(table.distinct_hashes(), 100u);
  EXPECT_GE(table.slot_capacity(), 100u);
  for (int k = 0; k < 100; ++k) {
    const Value key(int64_t{k});
    const std::vector<std::string> got = Matches(table, key.Hash(), key);
    ASSERT_EQ(got.size(), 50u) << "key " << k;
    // Insertion order: payload indices ascend by 100.
    for (int j = 0; j < 50; ++j) {
      EXPECT_EQ(got[static_cast<size_t>(j)],
                StrCat("p", k + 100 * j));
    }
  }
}

TEST(FlatJoinTableTest, ReservePresizesSlots) {
  FlatJoinTable table;
  table.Reserve(10'000);
  const size_t presized = table.slot_capacity();
  EXPECT_GE(presized, 10'000u);
  // Inserting up to the reserved cardinality must not grow the slots.
  for (int i = 0; i < 10'000; ++i) {
    const Value key(int64_t{i});
    table.Insert(key.Hash(), Row(i, "r"));
  }
  EXPECT_EQ(table.slot_capacity(), presized);
}

TEST(FlatJoinTableTest, ClearEmptiesTable) {
  FlatJoinTable table;
  const Value key(int64_t{9});
  table.Insert(key.Hash(), Row(9, "z"));
  table.Clear();
  EXPECT_TRUE(table.empty());
  EXPECT_EQ(table.distinct_hashes(), 0u);
  EXPECT_TRUE(Matches(table, key.Hash(), key).empty());
  // Reusable after Clear.
  EXPECT_FALSE(table.Insert(key.Hash(), Row(9, "z2")));
  EXPECT_EQ(Matches(table, key.Hash(), key),
            (std::vector<std::string>{"z2"}));
}

}  // namespace
}  // namespace gqp
