// Seeded differential test of the R1 recall set. A brute-force reference
// model keeps the recovery log, the per-round processed set and the sticky
// claim ledger in ordered/hashed containers and applies the recall
// predicate record by record:
//
//   recall(r) = r.seq < watermark
//               && r.seq not reported by any reply of the round
//               && r.seq not claimed (processed) by a still-live consumer
//               && (purge_all || recovery || r.bucket moved)
//
// The producer keeps the same bookkeeping on its flat, seq-ordered log.
// Randomized runs cover hash and round-robin (purge_all) policies,
// recovery rounds with dead consumers, consumers lost mid-round, processed
// vs retained replies (listing acknowledged and not-yet-logged seqs too)
// and acknowledgments interleaved with every step. After every step the
// producer must have recalled exactly the model's seqs, in the same order,
// and its log must match the model's contents and counters.

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/random.h"
#include "common/strings.h"
#include "exec/exchange_producer.h"

namespace gqp {
namespace {

constexpr int kExchangeId = 7;
constexpr int kBuckets = 8;

Tuple KeyTuple(const std::string& key) {
  static SchemaPtr schema = MakeSchema({{"orf", DataType::kString}});
  return Tuple(schema, {Value(key)});
}

SubplanId ConsumerId(int c) { return SubplanId{1, 2, c}; }

/// Brute-force mirror of the producer's recall bookkeeping.
struct Model {
  struct Record {
    int bucket;
    uint64_t bytes;
  };
  std::map<uint64_t, Record> log;
  std::unordered_map<uint64_t, int> claimed_by;
  std::set<int> dead;

  bool round_open = false;
  uint64_t round_id = 0;
  uint64_t watermark = 0;
  bool everything = false;
  std::set<int> moved;
  std::set<int> awaiting;
  std::unordered_set<uint64_t> processed;

  RecoveryLogStats stats;

  void Append(uint64_t seq, int bucket, uint64_t bytes) {
    log[seq] = Record{bucket, bytes};
    ++stats.appended;
    stats.bytes_held += bytes;
    stats.bytes_peak = std::max(stats.bytes_peak, stats.bytes_held);
    stats.high_watermark = std::max(stats.high_watermark, log.size());
  }

  void Ack(int consumer, const std::vector<uint64_t>& seqs) {
    if (dead.count(consumer) > 0) return;
    for (const uint64_t seq : seqs) {
      const auto it = log.find(seq);
      if (it != log.end()) {
        stats.bytes_held -= it->second.bytes;
        log.erase(it);
        ++stats.acked;
      }
      claimed_by.erase(seq);
    }
  }

  /// The recall of a completing round, in seq order.
  std::vector<uint64_t> Complete() {
    std::vector<uint64_t> recalled;
    for (const auto& [seq, rec] : log) {
      if (seq >= watermark) continue;
      if (processed.count(seq) > 0) continue;
      const auto claim = claimed_by.find(seq);
      if (claim != claimed_by.end() && dead.count(claim->second) == 0) {
        continue;
      }
      if (everything || moved.count(rec.bucket) > 0) recalled.push_back(seq);
    }
    // Resends are extracted and re-appended: the log keeps them.
    stats.extracted += recalled.size();
    stats.appended += recalled.size();
    round_open = false;
    processed.clear();
    return recalled;
  }

  size_t LogResidentClaims() const {
    size_t n = 0;
    for (const auto& [seq, consumer] : claimed_by) n += log.count(seq);
    return n;
  }
};

class RecallDiff {
 public:
  RecallDiff(uint64_t seed, PolicyKind policy, int consumers)
      : rng_(seed), policy_kind_(policy), consumers_(consumers) {
    OutputWiring wiring;
    wiring.desc.id = kExchangeId;
    wiring.desc.policy = policy;
    wiring.desc.key_col = 0;
    wiring.desc.num_buckets = kBuckets;
    wiring.desc.consumer_port = 0;
    for (int c = 0; c < consumers; ++c) {
      wiring.consumers.push_back(ConsumerEndpoint{
          ConsumerId(c),
          Address{static_cast<HostId>(2 + c), ConsumerId(c).ToString()}});
      wiring.initial_weights.push_back(1.0 / consumers);
    }
    // A private policy names each tuple's bucket (hash buckets depend on
    // the key only) and replays the producer's bucket moves.
    bucket_policy_ =
        MakePolicy(wiring.desc, wiring.initial_weights).value();
    ExecConfig config;
    config.buffer_tuples = 1;  // every routed tuple is sent at once, in order
    ExchangeProducer::Hooks hooks;
    hooks.send = [this](int idx, PayloadPtr payload) {
      sent_.push_back({idx, std::move(payload)});
      return Status::OK();
    };
    hooks.submit_work = [](double, std::function<void()> done) {
      if (done) done();
    };
    hooks.on_buffer_sent = [](int, double, size_t, size_t) {};
    hooks.on_round_done = [](uint64_t, bool) {};
    producer_ = std::make_unique<ExchangeProducer>(SubplanId{1, 0, 0}, wiring,
                                                   config, std::move(hooks));
    EXPECT_TRUE(producer_->Open().ok());
  }

  /// Runs `steps` random actions; returns the number of rounds completed.
  int Run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure(); ++step) {
      const uint64_t roll = rng_.NextBelow(100);
      if (roll < 35) {
        Offer();
      } else if (roll < 55) {
        Ack();
      } else if (!model_.round_open) {
        OpenRound();
      } else if (roll < 90) {
        Reply();
      } else if (roll < 95) {
        LoseConsumer();
      } else {
        StrayReply();
      }
      CheckLog();
    }
    return rounds_completed_;
  }

 private:
  struct Sent {
    int consumer;
    PayloadPtr payload;
  };

  int RandomConsumer() {
    return static_cast<int>(rng_.NextBelow(static_cast<uint64_t>(consumers_)));
  }

  std::vector<int> Live() const {
    std::vector<int> live;
    for (int c = 0; c < consumers_; ++c) {
      if (model_.dead.count(c) == 0) live.push_back(c);
    }
    return live;
  }

  /// Random ascending subset of the seqs issued so far (acknowledged,
  /// logged and recalled ones alike).
  std::vector<uint64_t> RandomSeqs(uint64_t percent) {
    std::vector<uint64_t> seqs;
    for (uint64_t s = 1; s < next_seq_; ++s) {
      if (rng_.NextBelow(100) < percent) seqs.push_back(s);
    }
    return seqs;
  }

  void Offer() {
    const uint64_t n = 1 + rng_.NextBelow(8);
    for (uint64_t i = 0; i < n; ++i) {
      const Tuple tuple = KeyTuple(StrCat("K", rng_.NextBelow(1000)));
      int bucket = -1;
      bucket_policy_->Route(tuple, &bucket);
      if (policy_kind_ != PolicyKind::kHashBuckets) bucket = -1;
      Result<uint64_t> seq = producer_->Offer(tuple);
      ASSERT_TRUE(seq.ok());
      ASSERT_EQ(*seq, next_seq_);
      ++next_seq_;
      model_.Append(*seq, bucket, tuple.WireSize());
    }
  }

  void Ack() {
    const int c = RandomConsumer();
    std::vector<uint64_t> seqs;
    for (const auto& [seq, rec] : model_.log) {
      if (rng_.NextBelow(100) < 30) seqs.push_back(seq);
    }
    if (next_seq_ > 1 && rng_.NextBelow(2) == 0) {
      seqs.push_back(1 + rng_.NextBelow(next_seq_ - 1));  // maybe acked
    }
    // Consumers acknowledge in processing order, not seq order.
    for (size_t i = seqs.size(); i > 1; --i) {
      std::swap(seqs[i - 1], seqs[rng_.NextBelow(i)]);
    }
    model_.Ack(c, seqs);
    producer_->OnAck(AckPayload(kExchangeId, ConsumerId(c), seqs));
  }

  void OpenRound() {
    std::vector<int> newly_dead;
    const std::vector<int> live = Live();
    if (live.size() > 1 && rng_.NextBelow(100) < 30) {
      newly_dead.push_back(live[rng_.NextBelow(live.size())]);
    }
    std::vector<double> weights(static_cast<size_t>(consumers_), 0.0);
    double total = 0.0;
    for (int c = 0; c < consumers_; ++c) {
      const bool dead = model_.dead.count(c) > 0 ||
                        std::count(newly_dead.begin(), newly_dead.end(), c) > 0;
      if (!dead) weights[static_cast<size_t>(c)] = 0.05 + rng_.NextDouble();
      total += weights[static_cast<size_t>(c)];
    }
    for (double& w : weights) w /= total;

    const uint64_t round = ++round_ids_;
    model_.round_open = true;
    model_.round_id = round;
    model_.watermark = next_seq_;
    model_.everything = policy_kind_ != PolicyKind::kHashBuckets ||
                        !newly_dead.empty();
    model_.moved.clear();
    model_.awaiting.clear();
    for (const int d : newly_dead) model_.dead.insert(d);

    // The private policy sees the same weight history, so it makes the
    // same bucket moves — including those away from consumers lost
    // mid-round, which get no StateMoveRequest.
    Result<std::vector<BucketMove>> moves =
        bucket_policy_->UpdateWeights(weights);
    ASSERT_TRUE(moves.ok());
    std::set<int> losers;
    for (const BucketMove& m : *moves) {
      model_.moved.insert(m.bucket);
      losers.insert(m.from_consumer);
    }
    for (const int c : Live()) {
      if (model_.everything || losers.count(c) > 0) model_.awaiting.insert(c);
    }

    const size_t mark = sent_.size();
    ASSERT_TRUE(producer_
                    ->HandleRedistribute(RedistributeRequestPayload(
                        round, 2, weights, /*retrospective=*/true, newly_dead))
                    .ok());
    if (model_.awaiting.empty()) CheckRecall(mark, model_.Complete());
    ASSERT_EQ(producer_->round_in_flight(), model_.round_open);
  }

  void Reply() {
    const std::vector<int> awaiting(model_.awaiting.begin(),
                                    model_.awaiting.end());
    const int c = awaiting[rng_.NextBelow(awaiting.size())];
    std::vector<uint64_t> processed = RandomSeqs(40);
    std::vector<uint64_t> retained = RandomSeqs(15);
    model_.awaiting.erase(c);
    for (const uint64_t seq : processed) {
      model_.processed.insert(seq);
      model_.claimed_by[seq] = c;
    }
    for (const uint64_t seq : retained) model_.processed.insert(seq);
    const size_t mark = sent_.size();
    ASSERT_TRUE(producer_
                    ->HandleStateMoveReply(StateMoveReplyPayload(
                        model_.round_id, kExchangeId, ConsumerId(c),
                        std::move(processed), std::move(retained), 0))
                    .ok());
    if (model_.awaiting.empty()) CheckRecall(mark, model_.Complete());
    ASSERT_EQ(producer_->round_in_flight(), model_.round_open);
  }

  /// The coordinator reports an awaited consumer lost mid-round: it can
  /// never reply, and its claims stop protecting records.
  void LoseConsumer() {
    if (Live().size() < 2) return;
    const std::vector<int> awaiting(model_.awaiting.begin(),
                                    model_.awaiting.end());
    const int c = awaiting[rng_.NextBelow(awaiting.size())];
    model_.dead.insert(c);
    model_.awaiting.erase(c);
    const size_t mark = sent_.size();
    ASSERT_TRUE(producer_->HandleConsumerLost(ConsumerId(c)).ok());
    if (model_.awaiting.empty()) CheckRecall(mark, model_.Complete());
    ASSERT_EQ(producer_->round_in_flight(), model_.round_open);
  }

  /// A reply the producer must ignore: from a dead consumer (fenced) or
  /// for a stale round.
  void StrayReply() {
    const bool stale = model_.dead.empty() || rng_.NextBelow(2) == 0;
    const int c = stale ? RandomConsumer() : *model_.dead.begin();
    const uint64_t round = stale ? model_.round_id + 100 : model_.round_id;
    ASSERT_TRUE(producer_
                    ->HandleStateMoveReply(StateMoveReplyPayload(
                        round, kExchangeId, ConsumerId(c), RandomSeqs(50),
                        RandomSeqs(20), 0))
                    .ok());
    ASSERT_EQ(producer_->round_in_flight(), model_.round_open);
  }

  /// The resend batches sent since `mark` carry the recalled seqs in
  /// recall order, except those routed to a consumer lost mid-round
  /// (dropped unsent; they stay logged for the next recovery round).
  void CheckRecall(size_t mark, const std::vector<uint64_t>& expected) {
    ++rounds_completed_;
    std::map<uint64_t, int> owner;
    for (const auto& [seq, consumer] : producer_->log().PendingConsumers()) {
      owner[seq] = consumer;
    }
    std::vector<uint64_t> delivered_expected;
    for (const uint64_t seq : expected) {
      if (model_.dead.count(owner.at(seq)) == 0) {
        delivered_expected.push_back(seq);
      }
    }
    std::vector<uint64_t> resent;
    for (size_t i = mark; i < sent_.size(); ++i) {
      const auto* batch =
          dynamic_cast<const TupleBatchPayload*>(sent_[i].payload.get());
      if (batch == nullptr || !batch->resend()) continue;
      for (const RoutedTuple& rt : batch->tuples()) resent.push_back(rt.seq);
    }
    EXPECT_EQ(resent, delivered_expected) << "round " << model_.round_id;
    EXPECT_EQ(producer_->stats().resent_tuples - resent_before_,
              expected.size());
    resent_before_ = producer_->stats().resent_tuples;
  }

  void CheckLog() {
    std::vector<uint64_t> seqs;
    for (const auto& [seq, rec] : model_.log) seqs.push_back(seq);
    const RecoveryLog& log = producer_->log();
    ASSERT_EQ(log.PendingSeqs(), seqs);
    EXPECT_EQ(log.stats().appended, model_.stats.appended);
    EXPECT_EQ(log.stats().acked, model_.stats.acked);
    EXPECT_EQ(log.stats().extracted, model_.stats.extracted);
    EXPECT_EQ(log.stats().bytes_held, model_.stats.bytes_held);
    EXPECT_EQ(log.stats().bytes_peak, model_.stats.bytes_peak);
    EXPECT_EQ(log.stats().high_watermark, model_.stats.high_watermark);
    // Claims are bounded by the log: acknowledged seqs that a later reply
    // lists again never re-enter the ledger.
    EXPECT_EQ(producer_->claimed_records(), model_.LogResidentClaims());
  }

  Rng rng_;
  PolicyKind policy_kind_;
  int consumers_;
  std::unique_ptr<DistributionPolicy> bucket_policy_;
  std::unique_ptr<ExchangeProducer> producer_;
  std::vector<Sent> sent_;
  Model model_;
  uint64_t next_seq_ = 1;
  uint64_t round_ids_ = 0;
  uint64_t resent_before_ = 0;
  int rounds_completed_ = 0;
};

/// Stray replies make the producer warn; keep the runs quiet.
class RecallDiffTest : public ::testing::Test {
 protected:
  void SetUp() override {
    saved_ = Logger::level();
    Logger::SetLevel(LogLevel::kError);
  }
  void TearDown() override { Logger::SetLevel(saved_); }

 private:
  LogLevel saved_ = LogLevel::kInfo;
};

TEST_F(RecallDiffTest, HashPolicyMatchesReferenceModel) {
  int rounds = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    RecallDiff diff(seed, PolicyKind::kHashBuckets,
                    2 + static_cast<int>(seed % 3));
    rounds += diff.Run(120);
    if (HasFailure()) return;
  }
  EXPECT_GT(rounds, 1000);
}

TEST_F(RecallDiffTest, RoundRobinPurgeAllMatchesReferenceModel) {
  int rounds = 0;
  for (uint64_t seed = 1; seed <= 150; ++seed) {
    SCOPED_TRACE(testing::Message() << "seed " << seed);
    RecallDiff diff(1000 + seed, PolicyKind::kWeightedRoundRobin,
                    2 + static_cast<int>(seed % 3));
    rounds += diff.Run(120);
    if (HasFailure()) return;
  }
  EXPECT_GT(rounds, 1000);
}

}  // namespace
}  // namespace gqp
