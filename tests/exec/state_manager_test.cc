// StateManager unit tests, driven through recording hooks: checkpoint-
// batched acknowledgments, the cascading-ack protocol (inputs release only
// when all derived outputs are durable downstream), retained-input
// lifetime across state moves (AckAllRetained / PruneRetained), the
// StateMoveReply contents, and the state-move round lifecycle.

#include "exec/state_manager.h"

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "sim/simulator.h"

namespace gqp {
namespace {

struct SentMessage {
  Address to;
  PayloadPtr payload;
};

/// A StateManager on a one-node simulator with one registered producer.
/// Ack sends go through GridNode::SubmitWork, so tests run the simulator
/// before asserting on `sent`.
struct Harness {
  explicit Harness(int checkpoint_interval = 3) {
    config.checkpoint_interval = checkpoint_interval;
    StateManager::Hooks hooks;
    hooks.send_to = [this](const Address& to, PayloadPtr payload) {
      sent.push_back({to, std::move(payload)});
      return Status::OK();
    };
    hooks.fail = [this](const Status& s) { failures.push_back(s); };
    state = std::make_unique<StateManager>(&node, &config, SubplanId{1, 2, 0},
                                           &stats, std::move(hooks));
    state->AddPort();
    state->RegisterProducer(0, "p", Address{1, "p"}, 7);
  }

  std::vector<const AckPayload*> Acks() {
    std::vector<const AckPayload*> out;
    for (const SentMessage& m : sent) {
      if (const auto* a = dynamic_cast<const AckPayload*>(m.payload.get())) {
        out.push_back(a);
      }
    }
    return out;
  }

  /// Processes `seq` with no derived outputs: eligible to ack at once.
  void Process(uint64_t seq, bool finished = false) {
    state->RecordProcessed(0, "p", seq, /*bucket=*/0, /*retained=*/false,
                           /*output_seqs=*/{}, /*has_producer=*/true,
                           finished);
  }

  Simulator sim;
  GridNode node{&sim, 0, "consumer"};
  ExecConfig config;
  FragmentStats stats;
  std::unique_ptr<StateManager> state;
  std::vector<SentMessage> sent;
  std::vector<Status> failures;
};

TEST(StateManagerTest, AcksBatchUntilCheckpointInterval) {
  Harness h(/*checkpoint_interval=*/3);
  h.Process(0);
  h.Process(1);
  h.sim.Run();
  EXPECT_TRUE(h.Acks().empty()) << "ack sent below the checkpoint interval";
  EXPECT_EQ(h.state->AcksPendingTotal(0), 2u);

  h.Process(2);
  h.sim.Run();
  auto acks = h.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->seqs(), (std::vector<uint64_t>{0, 1, 2}));
  EXPECT_EQ(acks[0]->exchange_id(), 7);
  EXPECT_EQ(h.state->AcksPendingTotal(0), 0u);
  EXPECT_EQ(h.stats.acks_sent, 1u);
  EXPECT_TRUE(h.failures.empty());
}

TEST(StateManagerTest, FinishedFragmentStopsBatching) {
  Harness h(/*checkpoint_interval=*/25);
  h.Process(0, /*finished=*/true);
  h.sim.Run();
  auto acks = h.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->seqs(), (std::vector<uint64_t>{0}));
}

TEST(StateManagerTest, InputAcksOnlyAfterAllOutputsAcked) {
  Harness h(/*checkpoint_interval=*/1);
  h.state->RecordProcessed(0, "p", /*seq=*/5, /*bucket=*/0,
                           /*retained=*/false, /*output_seqs=*/{100, 101},
                           /*has_producer=*/true, /*finished=*/false);
  h.sim.Run();
  EXPECT_TRUE(h.Acks().empty()) << "input acked before its outputs";

  h.state->OnOutputsAcked({100}, /*finished=*/false);
  h.sim.Run();
  EXPECT_TRUE(h.Acks().empty()) << "input acked with one output pending";

  h.state->OnOutputsAcked({101}, /*finished=*/false);
  h.sim.Run();
  auto acks = h.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->seqs(), (std::vector<uint64_t>{5}));

  // Unknown output seqs (other inputs' cascade already resolved) are
  // ignored, not double-acked.
  h.state->OnOutputsAcked({100, 101, 999}, /*finished=*/false);
  h.sim.Run();
  EXPECT_EQ(h.Acks().size(), 1u);
}

TEST(StateManagerTest, RetainedInputsHoldTheirAckUntilReleased) {
  Harness h(/*checkpoint_interval=*/1);
  h.state->RecordProcessed(0, "p", /*seq=*/3, /*bucket=*/2, /*retained=*/true,
                           /*output_seqs=*/{}, /*has_producer=*/true,
                           /*finished=*/false);
  h.sim.Run();
  // The retained tuple is the recovery copy of the state: no ack yet,
  // but it counts as pending work.
  EXPECT_TRUE(h.Acks().empty());
  EXPECT_EQ(h.state->AcksPendingTotal(0), 1u);

  h.state->AckAllRetained();
  h.sim.Run();
  auto acks = h.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->seqs(), (std::vector<uint64_t>{3}));
  EXPECT_EQ(h.state->AcksPendingTotal(0), 0u);
}

TEST(StateManagerTest, PruneRetainedForgetsMovedBuckets) {
  Harness h(/*checkpoint_interval=*/1);
  h.state->RecordProcessed(0, "p", /*seq=*/1, /*bucket=*/0, /*retained=*/true,
                           {}, true, false);
  h.state->RecordProcessed(0, "p", /*seq=*/2, /*bucket=*/4, /*retained=*/true,
                           {}, true, false);

  // Bucket 4 moved away: its retained tuple is the new owner's problem.
  // Acking it here would prune the producer's only copy.
  h.state->PruneRetained(0, "p", /*buckets_lost=*/{4});
  h.state->AckAllRetained();
  h.sim.Run();
  auto acks = h.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->seqs(), (std::vector<uint64_t>{1}));

  // Several lost buckets, listed unsorted and with a duplicate, plus
  // bucket 50 that no retained entry holds and bucket 2000 past the
  // lookup's inline bitmap: only the entries in listed buckets go.
  Harness many(/*checkpoint_interval=*/1);
  const std::vector<std::pair<uint64_t, int>> seq_buckets = {
      {1, 0}, {2, 4}, {3, 2}, {4, 7}, {5, 9}, {6, 2000}, {7, 2001}};
  for (const auto& [seq, bucket] : seq_buckets) {
    many.state->RecordProcessed(0, "p", seq, bucket, /*retained=*/true, {},
                                true, false);
  }
  many.state->PruneRetained(0, "p",
                            /*buckets_lost=*/{9, 4, 50, 2, 4, 2000});
  many.state->AckAllRetained();
  many.sim.Run();
  acks = many.Acks();
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0]->seqs(), (std::vector<uint64_t>{1, 4, 7}));
}

TEST(StateManagerTest, BuildReplySortsAndFiltersLostBuckets) {
  Harness h;
  h.Process(9);
  h.Process(3);
  h.Process(7);
  h.state->RecordProcessed(0, "p", /*seq=*/20, /*bucket=*/1, /*retained=*/true,
                           {}, true, false);
  h.state->RecordProcessed(0, "p", /*seq=*/15, /*bucket=*/0, /*retained=*/true,
                           {}, true, false);
  h.state->RecordProcessed(0, "p", /*seq=*/18, /*bucket=*/1, /*retained=*/true,
                           {}, true, false);

  std::vector<uint64_t> processed;
  std::vector<uint64_t> retained;
  h.state->BuildReply(0, "p", /*buckets_lost=*/{1}, &processed, &retained);
  EXPECT_EQ(processed, (std::vector<uint64_t>{3, 7, 9}));
  // Bucket 1 is leaving: its retained seqs are NOT claimed (the new owner
  // needs the producer to resend them).
  EXPECT_EQ(retained, (std::vector<uint64_t>{15}));

  // Several lost buckets, unsorted, duplicated, one (bucket 8) beyond
  // every retained entry and one (bucket 1500) past the lookup's inline
  // bitmap: the reply claims exactly the retained seqs of kept buckets.
  const std::vector<std::pair<uint64_t, int>> seq_buckets = {
      {30, 3}, {31, 5}, {32, 0}, {33, 1500}, {34, 5}, {35, 2}, {36, 1501}};
  for (const auto& [seq, bucket] : seq_buckets) {
    h.state->RecordProcessed(0, "p", seq, bucket, /*retained=*/true, {}, true,
                             false);
  }
  processed.clear();
  retained.clear();
  h.state->BuildReply(0, "p", /*buckets_lost=*/{5, 1, 8, 1500, 5},
                      &processed, &retained);
  EXPECT_EQ(processed, (std::vector<uint64_t>{3, 7, 9}));
  EXPECT_EQ(retained, (std::vector<uint64_t>{15, 30, 32, 35, 36}));
}

TEST(StateManagerTest, ProcessedSetStaysSortedAndDuplicateFree) {
  Harness h(/*checkpoint_interval=*/100);
  // Resent tuples arrive below seqs already processed, and a resend of a
  // tuple processed before may be processed again.
  for (const uint64_t seq : {5, 9, 3, 9, 12, 1, 5, 10}) h.Process(seq);
  const std::vector<uint64_t> want = {1, 3, 5, 9, 10, 12};
  std::vector<uint64_t> processed;
  std::vector<uint64_t> retained;
  h.state->BuildReply(0, "p", /*buckets_lost=*/{}, &processed, &retained);
  EXPECT_EQ(processed, want);
  EXPECT_TRUE(retained.empty());
  EXPECT_EQ(h.state->ProcessedSeqs(0).at("p"), want);
}

TEST(StateManagerTest, RoundLifecycleGatesQuiescence) {
  Harness h;
  EXPECT_TRUE(h.state->quiescent());

  h.state->OpenRound("p", 1);
  h.state->OpenRound("p", 2);
  EXPECT_TRUE(h.state->rounds_open());
  EXPECT_FALSE(h.state->quiescent());

  h.state->CloseRound("p", 1);
  EXPECT_FALSE(h.state->quiescent());
  h.state->CloseRound("p", 2);
  EXPECT_TRUE(h.state->quiescent());

  // A restoring bucket also blocks completion until it lands.
  h.state->AwaitRestore(5);
  EXPECT_FALSE(h.state->quiescent());
  EXPECT_TRUE(h.state->AwaitingRestore(5));
  h.state->RestoreBucket(5);
  EXPECT_TRUE(h.state->quiescent());
}

TEST(StateManagerTest, AbandonProducerDropsItsOpenRounds) {
  Harness h;
  h.state->OpenRound("dead", 1);
  h.state->BeginBuildRecovery("dead", 1);
  h.state->OpenRound("alive", 3);
  EXPECT_FALSE(h.state->build_recovery_empty());

  // The producer crashed: no RestoreComplete will ever close its rounds.
  h.state->AbandonProducer("dead");
  EXPECT_TRUE(h.state->build_recovery_empty());
  EXPECT_TRUE(h.state->rounds_open());  // the live producer's round remains
  h.state->CloseRound("alive", 3);
  EXPECT_TRUE(h.state->quiescent());
}

}  // namespace
}  // namespace gqp
