#include "ft/recovery_log.h"

#include <set>

#include <gtest/gtest.h>

namespace gqp {
namespace {

Tuple MakeTuple(int64_t v) {
  static SchemaPtr schema = MakeSchema({{"x", DataType::kInt64}});
  return Tuple(schema, {Value(v)});
}

TEST(RecoveryLogTest, AppendAndSize) {
  RecoveryLog log;
  EXPECT_TRUE(log.empty());
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Append({2, 1, 1, MakeTuple(2)});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.Contains(1));
  EXPECT_FALSE(log.Contains(3));
}

TEST(RecoveryLogTest, AckRemoves) {
  RecoveryLog log;
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Ack(1);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.stats().acked, 1u);
}

TEST(RecoveryLogTest, AckUnknownIsNoop) {
  RecoveryLog log;
  log.Append({1, 0, 0, MakeTuple(1)});
  log.Ack(99);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_EQ(log.stats().acked, 0u);
}

TEST(RecoveryLogTest, AckBatch) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 5; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.AckBatch({1, 3, 5});
  EXPECT_EQ(log.size(), 2u);
  EXPECT_TRUE(log.Contains(2));
  EXPECT_TRUE(log.Contains(4));
}

TEST(RecoveryLogTest, ExtractByPredicateRemovesAndReturnsInSeqOrder) {
  RecoveryLog log;
  log.Append({3, 7, 0, MakeTuple(3)});
  log.Append({1, 7, 0, MakeTuple(1)});
  log.Append({2, 9, 0, MakeTuple(2)});
  auto extracted =
      log.Extract([](const LogRecord& r) { return r.bucket == 7; });
  ASSERT_EQ(extracted.size(), 2u);
  EXPECT_EQ(extracted[0].seq, 1u);
  EXPECT_EQ(extracted[1].seq, 3u);
  EXPECT_EQ(log.size(), 1u);
  EXPECT_TRUE(log.Contains(2));
}

TEST(RecoveryLogTest, ExtractAll) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 4; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  EXPECT_EQ(log.ExtractAll().size(), 4u);
  EXPECT_TRUE(log.empty());
}

TEST(RecoveryLogTest, ReinsertAfterReroute) {
  RecoveryLog log;
  log.Append({5, 2, 0, MakeTuple(5)});
  auto extracted = log.ExtractAll();
  extracted[0].consumer = 1;
  log.Reinsert(extracted[0]);
  EXPECT_TRUE(log.Contains(5));
  EXPECT_EQ(log.size(), 1u);
}

TEST(RecoveryLogTest, HighWatermarkTracksPeak) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 10; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.AckBatch({1, 2, 3, 4, 5});
  log.Append({11, 0, 0, MakeTuple(11)});
  EXPECT_EQ(log.stats().high_watermark, 10u);
  EXPECT_EQ(log.stats().appended, 11u);
}

TEST(RecoveryLogTest, ByteAccountingAcrossAckAndBatch) {
  RecoveryLog log;
  const uint64_t one = MakeTuple(1).WireSize();
  for (uint64_t s = 1; s <= 4; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  EXPECT_EQ(log.stats().bytes_held, 4 * one);
  EXPECT_EQ(log.stats().bytes_peak, 4 * one);

  log.Ack(2);
  EXPECT_EQ(log.stats().bytes_held, 3 * one);
  log.Ack(2);  // duplicate ack: no double reclaim
  EXPECT_EQ(log.stats().bytes_held, 3 * one);

  log.AckBatch({1, 3});
  EXPECT_EQ(log.stats().bytes_held, one);
  log.AckBatch({4});
  EXPECT_EQ(log.stats().bytes_held, 0u);
  EXPECT_EQ(log.stats().bytes_peak, 4 * one);  // peak never decays
}

TEST(RecoveryLogTest, ByteAccountingReclaimsOnExtractAndRechargesOnReinsert) {
  RecoveryLog log;
  const uint64_t one = MakeTuple(1).WireSize();
  log.Append({1, 2, 0, MakeTuple(1)});
  log.Append({2, 5, 0, MakeTuple(2)});

  auto extracted = log.Extract([](const LogRecord& r) { return r.bucket == 2; });
  ASSERT_EQ(extracted.size(), 1u);
  EXPECT_EQ(log.stats().bytes_held, one);

  // Re-routing re-charges exactly what extraction reclaimed.
  extracted[0].consumer = 1;
  log.Reinsert(extracted[0]);
  EXPECT_EQ(log.stats().bytes_held, 2 * one);

  log.ExtractAll();
  EXPECT_EQ(log.stats().bytes_held, 0u);
  EXPECT_EQ(log.stats().bytes_peak, 2 * one);
}

std::vector<int> Consumers(const RecoveryLog& log) {
  std::vector<int> out;
  for (const auto& [seq, consumer] : log.PendingConsumers()) {
    out.push_back(consumer);
  }
  return out;
}

TEST(RecoveryLogTest, InteriorAckHolesKeepLookupsAndOrder) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 10; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.AckBatch({4, 5, 7});  // interior holes, too few to compact
  EXPECT_EQ(log.size(), 7u);
  EXPECT_FALSE(log.Contains(5));
  EXPECT_TRUE(log.Contains(6));
  EXPECT_EQ(log.PendingSeqs(),
            (std::vector<uint64_t>{1, 2, 3, 6, 8, 9, 10}));
  log.Ack(5);  // a hole acknowledges nothing
  EXPECT_EQ(log.stats().acked, 3u);
  // Extraction skips holes and leaves new ones.
  auto extracted =
      log.Extract([](const LogRecord& r) { return r.seq % 2 == 0; });
  std::vector<uint64_t> seqs;
  for (const LogRecord& r : extracted) seqs.push_back(r.seq);
  EXPECT_EQ(seqs, (std::vector<uint64_t>{2, 6, 8, 10}));
  EXPECT_EQ(log.PendingSeqs(), (std::vector<uint64_t>{1, 3, 9}));
}

TEST(RecoveryLogTest, CompactionPreservesContentsAndAccounting) {
  RecoveryLog log;
  const uint64_t one = MakeTuple(1).WireSize();
  for (uint64_t s = 1; s <= 1000; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  // Acknowledge all but every tenth seq, front and interior alike: the
  // holes come to outnumber the live records many times over.
  std::vector<uint64_t> acks;
  std::vector<uint64_t> kept;
  for (uint64_t s = 1; s <= 1000; ++s) {
    (s % 10 == 0 ? kept : acks).push_back(s);
  }
  log.AckBatch(acks);
  EXPECT_EQ(log.size(), 100u);
  EXPECT_EQ(log.PendingSeqs(), kept);
  EXPECT_EQ(log.stats().acked, 900u);
  EXPECT_EQ(log.stats().bytes_held, 100 * one);
  EXPECT_EQ(log.stats().high_watermark, 1000u);
  for (const uint64_t s : kept) EXPECT_TRUE(log.Contains(s));
  EXPECT_FALSE(log.Contains(999));

  // Appends and out-of-order re-inserts still land in seq order.
  log.Append({1001, 0, 0, MakeTuple(1)});
  log.Reinsert({5, 0, 1, MakeTuple(1)});
  EXPECT_EQ(log.PendingSeqs().front(), 5u);
  EXPECT_EQ(log.PendingSeqs().back(), 1001u);
  EXPECT_EQ(log.size(), 102u);

  log.AckBatch(log.PendingSeqs());
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.stats().bytes_held, 0u);
  log.Append({2000, 0, 0, MakeTuple(1)});
  EXPECT_EQ(log.PendingSeqs(), (std::vector<uint64_t>{2000}));
}

TEST(RecoveryLogTest, AckBatchInAnyOrderRemovesExactlyItsSeqs) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 300; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  // Ascending runs with gaps, a jump back, duplicates, unknown seqs.
  std::vector<uint64_t> batch = {3, 4, 9, 40, 41, 250, 2, 7, 7, 299, 300, 301};
  for (uint64_t s = 100; s < 200; s += 3) batch.push_back(s);
  for (uint64_t s = 90; s > 80; --s) batch.push_back(s);
  log.AckBatch(batch);
  std::set<uint64_t> acked(batch.begin(), batch.end());
  acked.erase(301);
  EXPECT_EQ(log.stats().acked, acked.size());
  EXPECT_EQ(log.size(), 300 - acked.size());
  for (uint64_t s = 1; s <= 300; ++s) {
    EXPECT_EQ(log.Contains(s), acked.count(s) == 0) << s;
  }
}

TEST(RecoveryLogTest, RerouteInPlaceKeepsSeqOrderAndStopsAtWatermark) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 8; ++s) {
    log.Append({s, static_cast<int>(s % 2), 0, MakeTuple(1)});
  }
  log.Ack(3);
  // Odd buckets below seq 7: 1 and 5 (3 is acknowledged; 7 is at the
  // watermark and stays put although the predicate matches it).
  std::vector<LogRecord*> recalled = log.SelectForReroute(
      7, [](const LogRecord& r) { return r.bucket == 1; });
  ASSERT_EQ(recalled.size(), 2u);
  EXPECT_EQ(recalled[0]->seq, 1u);
  EXPECT_EQ(recalled[1]->seq, 5u);
  for (LogRecord* rec : recalled) rec->consumer = 2;
  EXPECT_EQ(log.PendingSeqs(), (std::vector<uint64_t>{1, 2, 4, 5, 6, 7, 8}));
  EXPECT_EQ(Consumers(log), (std::vector<int>{2, 0, 0, 2, 0, 0, 0}));
}

TEST(RecoveryLogTest, RerouteAccountsExactlyAsExtractPlusReinsert) {
  RecoveryLog moved;
  RecoveryLog reinserted;
  for (uint64_t s = 1; s <= 6; ++s) {
    const LogRecord rec{s, static_cast<int>(s % 3), 0,
                        MakeTuple(static_cast<int64_t>(s * 1000))};
    moved.Append(rec);
    reinserted.Append(rec);
  }
  moved.AckBatch({2, 6});
  reinserted.AckBatch({2, 6});
  auto pick = [](const LogRecord& r) { return r.bucket != 1; };

  for (LogRecord* rec : moved.SelectForReroute(100, pick)) rec->consumer = 1;
  for (LogRecord rec : reinserted.Extract(pick)) {
    rec.consumer = 1;
    reinserted.Reinsert(std::move(rec));
  }

  const RecoveryLogStats& a = moved.stats();
  const RecoveryLogStats& b = reinserted.stats();
  EXPECT_EQ(a.appended, b.appended);
  EXPECT_EQ(a.acked, b.acked);
  EXPECT_EQ(a.extracted, b.extracted);
  EXPECT_EQ(a.extracted, 2u);  // seqs 3 and 5
  EXPECT_EQ(a.high_watermark, b.high_watermark);
  EXPECT_EQ(a.bytes_held, b.bytes_held);
  EXPECT_EQ(a.bytes_peak, b.bytes_peak);
  EXPECT_EQ(moved.PendingConsumers(), reinserted.PendingConsumers());
}

TEST(RecoveryLogTest, PendingListsAscendAfterOutOfOrderReinserts) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 6; ++s) {
    log.Append({s, 0, static_cast<int>(s), MakeTuple(1)});
  }
  auto extracted =
      log.Extract([](const LogRecord& r) { return r.seq % 2 == 1; });
  // Re-insert in reverse, each on a new consumer.
  for (auto it = extracted.rbegin(); it != extracted.rend(); ++it) {
    it->consumer += 10;
    log.Reinsert(std::move(*it));
  }
  EXPECT_EQ(log.PendingSeqs(), (std::vector<uint64_t>{1, 2, 3, 4, 5, 6}));
  EXPECT_EQ(log.PendingConsumers(),
            (std::vector<std::pair<uint64_t, int>>{
                {1, 11}, {2, 2}, {3, 13}, {4, 4}, {5, 15}, {6, 6}}));
}

TEST(RecoveryLogTest, ForEachListedMergesWithTheLog) {
  RecoveryLog log;
  for (uint64_t s = 1; s <= 6; ++s) log.Append({s, 0, 0, MakeTuple(1)});
  log.Ack(4);
  std::vector<uint64_t> visited;
  // Listed seqs that are acknowledged (4) or never logged (9) are skipped;
  // an unsorted list is visited in seq order.
  log.ForEachListed({9, 5, 2, 4, 2}, [&visited](LogRecord& r) {
    visited.push_back(r.seq);
    r.claimed_by = 1;
  });
  EXPECT_EQ(visited, (std::vector<uint64_t>{2, 5}));
  std::vector<uint64_t> claimed;
  log.ForEach([&claimed](const LogRecord& r) {
    if (r.claimed_by == 1) claimed.push_back(r.seq);
  });
  EXPECT_EQ(claimed, (std::vector<uint64_t>{2, 5}));
}

TEST(AckBatcherTest, SignalsAtInterval) {
  AckBatcher batcher(3);
  EXPECT_FALSE(batcher.Add(1));
  EXPECT_FALSE(batcher.Add(2));
  EXPECT_TRUE(batcher.Add(3));
  EXPECT_EQ(batcher.Drain(), (std::vector<uint64_t>{1, 2, 3}));
  EXPECT_EQ(batcher.pending(), 0u);
}

TEST(AckBatcherTest, RemoveDiscardsPendingSeq) {
  AckBatcher batcher(10);
  batcher.Add(1);
  batcher.Add(2);
  batcher.Remove(1);
  EXPECT_EQ(batcher.Drain(), (std::vector<uint64_t>{2}));
}

TEST(AckBatcherTest, ZeroIntervalTreatedAsOne) {
  AckBatcher batcher(0);
  EXPECT_TRUE(batcher.Add(1));
}

TEST(AckBatcherTest, PendingSeqsVisible) {
  AckBatcher batcher(10);
  batcher.Add(4);
  batcher.Add(7);
  EXPECT_EQ(batcher.pending_seqs(), (std::vector<uint64_t>{4, 7}));
}

}  // namespace
}  // namespace gqp
