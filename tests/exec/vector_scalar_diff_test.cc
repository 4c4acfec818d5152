// Batch-size invariance harness (DESIGN.md §D13). Every operator is
// driven over randomized inputs through ProcessBatch exactly as
// OperatorDriver walks a chain, once at batch size 1 — the row-at-a-time
// reference, what the suite's name calls "scalar" — and once at each
// wider size; every run must agree with the reference exactly:
//
//   * byte-identical result sets (rendered rows, in emission order),
//   * per-row identical retention decisions, and
//   * bit-identical total charged cost via the ChargeLedger (integer
//     counts per (tag, unit) pair; the totals are summed by the same
//     sequence of floating-point operations at every batch size, so
//     EXPECT_EQ on the doubles is exact, not a tolerance check).
//
// Batch sizes cover small primes that force ragged final batches, the
// common power-of-two widths, and a batch wider than the whole input.
// Seeds are fixed: a red run is reproducible.

#include <cstdint>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "exec/operators.h"
#include "plan/cost_model.h"

namespace gqp {
namespace {

constexpr size_t kBatchSizes[] = {1, 3, 7, 16, 64, 4096};

SchemaPtr SeqSchema() {
  return MakeSchema(
      {{"orf", DataType::kString}, {"sequence", DataType::kString}});
}

/// One input row of a differential stream: the port it arrives on (0
/// except for join probes) and the logical partition.
struct StreamRow {
  int port = 0;
  Tuple tuple;
  int bucket = -1;
};

/// Randomized protein-ish rows: a small ORF key space (join collisions,
/// aggregate groups) and short random sequences (entropy, length
/// predicates). Pure function of the seed.
std::vector<StreamRow> MakeSeqStream(uint64_t seed, size_t n, int port,
                                     int num_buckets) {
  std::mt19937_64 rng(seed);
  std::vector<StreamRow> rows;
  rows.reserve(n);
  const SchemaPtr schema = SeqSchema();
  for (size_t i = 0; i < n; ++i) {
    const std::string orf = "ORF" + std::to_string(rng() % 23);
    std::string sequence;
    const size_t len = 1 + rng() % 12;
    for (size_t j = 0; j < len; ++j) {
      sequence.push_back("acgt"[rng() % 4]);
    }
    StreamRow row;
    row.port = port;
    row.tuple = Tuple(schema, {Value(orf), Value(sequence)});
    row.bucket = num_buckets > 0 ? static_cast<int>(rng() % num_buckets) : -1;
    rows.push_back(std::move(row));
  }
  return rows;
}

using Chain = std::vector<std::unique_ptr<PhysicalOperator>>;

/// Everything a run observes: rendered outputs in emission order,
/// per-input retention decisions in input order, and the cumulative
/// charge ledger.
struct RunTrace {
  std::vector<std::string> outputs;
  std::vector<bool> retained;
  ChargeLedger ledger;
};

/// Walks `in` through ops[first..] the way OperatorDriver::RunChainBatch
/// does — ping-ponging two scratch batches — and returns the survivors of
/// the last operator.
TupleBatch WalkChain(const Chain& ops, size_t first, int port, TupleBatch in,
                     ExecContext* ctx) {
  TupleBatch next;
  for (size_t i = first; i < ops.size(); ++i) {
    next.Clear();
    EXPECT_TRUE(ops[i]->ProcessBatch(port, &in, &next, ctx).ok());
    in.Swap(next);
    port = 0;
  }
  return in;
}

/// Slices the stream into port-homogeneous batches of at most
/// `batch_size` rows (ragged final slice included) and walks each through
/// the chain; with `finish`, runs every operator's Finish in chain order
/// and walks its flushed rows through the rest of the chain, as
/// OperatorDriver::FinishChain does.
RunTrace RunBatched(const Chain& ops, const std::vector<StreamRow>& rows,
                    size_t batch_size, bool finish) {
  ExecContext ctx;
  RunTrace trace;
  size_t pos = 0;
  while (pos < rows.size()) {
    const int port = rows[pos].port;
    TupleBatch in;
    while (pos < rows.size() && in.size() < batch_size &&
           rows[pos].port == port) {
      in.Append(rows[pos].tuple, rows[pos].bucket,
                static_cast<uint32_t>(in.size()));
      ++pos;
    }
    const size_t batch_rows = in.size();
    ctx.ResetForBatch(batch_rows);
    const TupleBatch survivors = WalkChain(ops, 0, port, std::move(in), &ctx);
    for (size_t i = 0; i < survivors.size(); ++i) {
      trace.outputs.push_back(survivors.tuple(i).ToString());
    }
    for (size_t i = 0; i < batch_rows; ++i) {
      trace.retained.push_back(ctx.row_retained[i] != 0);
    }
  }
  if (finish) {
    for (size_t i = 0; i < ops.size(); ++i) {
      ctx.ResetForBatch(0);
      EXPECT_TRUE(ops[i]->Finish(&ctx).ok());
      TupleBatch flushed;
      for (size_t r = 0; r < ctx.out.size(); ++r) {
        flushed.Append(ctx.out[r], -1, static_cast<uint32_t>(r));
      }
      const TupleBatch survivors =
          WalkChain(ops, i + 1, 0, std::move(flushed), &ctx);
      for (size_t r = 0; r < survivors.size(); ++r) {
        trace.outputs.push_back(survivors.tuple(r).ToString());
      }
    }
  }
  trace.ledger = ctx.ledger;
  return trace;
}

void ExpectTracesEqual(const RunTrace& reference, const RunTrace& batched,
                       uint64_t seed, size_t batch_size) {
  const std::string where =
      "seed=" + std::to_string(seed) + " batch=" + std::to_string(batch_size);
  ASSERT_EQ(reference.outputs, batched.outputs) << where;
  ASSERT_EQ(reference.retained, batched.retained) << where;
  ASSERT_EQ(reference.ledger.entries.size(), batched.ledger.entries.size())
      << where;
  for (size_t i = 0; i < reference.ledger.entries.size(); ++i) {
    EXPECT_EQ(reference.ledger.entries[i].tag, batched.ledger.entries[i].tag)
        << where;
    EXPECT_EQ(reference.ledger.entries[i].unit_ms,
              batched.ledger.entries[i].unit_ms)
        << where;
    EXPECT_EQ(reference.ledger.entries[i].count,
              batched.ledger.entries[i].count)
        << where;
  }
  // Bit-identical, not approximately equal: both totals are the same
  // float operations in the same order (DESIGN.md §D13).
  EXPECT_EQ(reference.ledger.TotalMs(), batched.ledger.TotalMs()) << where;
  EXPECT_EQ(reference.ledger.TotalCount(), batched.ledger.TotalCount())
      << where;
}

/// Runs `make_chain()` over `rows` at batch 1 and at every kBatchSizes
/// width, comparing each against the batch-1 reference. Returns the
/// reference trace.
template <typename MakeChain>
RunTrace ExpectBatchSizeInvariant(MakeChain make_chain,
                                  const std::vector<StreamRow>& rows,
                                  bool finish, uint64_t seed) {
  const RunTrace reference = RunBatched(make_chain(), rows, 1, finish);
  for (size_t batch : kBatchSizes) {
    ExpectTracesEqual(reference, RunBatched(make_chain(), rows, batch, finish),
                      seed, batch);
  }
  return reference;
}

// ---- Chain builders (fresh state per run: stateful operators cannot be
// shared between runs) ---------------------------------------------------

Chain MakeFilterProjectOpcallChain(uint64_t seed) {
  // Vary the predicate threshold with the seed so selectivity ranges from
  // keep-almost-everything to drop-almost-everything.
  const int64_t min_len = 1 + static_cast<int64_t>(seed % 12);

  PhysOpDesc filter;
  filter.kind = PhysOpKind::kFilter;
  filter.predicate = Cmp(CompareOp::kGe, Call("LENGTH", {Col(1, "sequence")}),
                         Lit(Value(min_len)));
  filter.base_cost_ms = 0.1;
  filter.cost_tag = "op:filter";

  PhysOpDesc opcall;
  opcall.kind = PhysOpKind::kOperationCall;
  opcall.ws_name = "EntropyAnalyser";
  opcall.arg_col = 1;
  opcall.base_cost_ms = 0.25;
  opcall.cost_tag = CostModel::WsTag("EntropyAnalyser");
  opcall.out_schema = MakeSchema({{"orf", DataType::kString},
                                  {"sequence", DataType::kString},
                                  {"e", DataType::kDouble}});

  PhysOpDesc project;
  project.kind = PhysOpKind::kProject;
  project.exprs = {Col(0, "orf"), Call("LENGTH", {Col(1, "sequence")}),
                   Col(2, "e")};
  project.out_schema = MakeSchema({{"orf", DataType::kString},
                                   {"len", DataType::kInt64},
                                   {"e", DataType::kDouble}});
  project.base_cost_ms = 0.05;
  project.cost_tag = "op:project";

  Chain ops;
  ops.push_back(std::make_unique<FilterOperator>(filter));
  ops.push_back(std::make_unique<OperationCallOperator>(opcall));
  ops.push_back(std::make_unique<ProjectOperator>(project));
  return ops;
}

Chain MakeJoinChain() {
  PhysOpDesc join;
  join.kind = PhysOpKind::kHashJoin;
  join.build_key = 0;
  join.probe_key = 0;
  join.base_cost_ms = 0.1;
  join.build_cost_ms = 0.05;
  join.cost_tag = "op:hash_join";
  join.out_schema = MakeSchema({{"orf", DataType::kString},
                                {"sequence", DataType::kString},
                                {"orf_p", DataType::kString},
                                {"sequence_p", DataType::kString}});
  Chain ops;
  ops.push_back(std::make_unique<HashJoinOperator>(join));
  return ops;
}

Chain MakeAggregateChain() {
  PhysOpDesc agg;
  agg.kind = PhysOpKind::kHashAggregate;
  agg.group_exprs = {Col(0, "orf")};
  AggSpec count;
  count.kind = AggKind::kCount;
  count.name = "count(*)";
  AggSpec sum;
  sum.kind = AggKind::kSum;
  sum.arg = Call("LENGTH", {Col(1, "sequence")});
  sum.name = "sum(len)";
  sum.result_type = DataType::kInt64;
  AggSpec min;
  min.kind = AggKind::kMin;
  min.arg = Col(1, "sequence");
  min.name = "min(sequence)";
  min.result_type = DataType::kString;
  agg.aggs = {count, sum, min};
  agg.out_schema = MakeSchema({{"orf", DataType::kString},
                               {"count", DataType::kInt64},
                               {"sum", DataType::kInt64},
                               {"min", DataType::kString}});
  agg.base_cost_ms = 0.03;
  agg.cost_tag = "op:hash_aggregate";
  Chain ops;
  ops.push_back(std::make_unique<HashAggregateOperator>(agg));
  return ops;
}

Chain MakeCollectChain() {
  PhysOpDesc collect;
  collect.kind = PhysOpKind::kCollect;
  collect.base_cost_ms = 0.01;
  collect.cost_tag = "op:collect";
  Chain ops;
  ops.push_back(std::make_unique<CollectOperator>(collect));
  return ops;
}

Chain MakeAggregateProjectChain() {
  Chain ops = MakeAggregateChain();
  PhysOpDesc project;
  project.kind = PhysOpKind::kProject;
  project.exprs = {Col(0, "orf"), Col(2, "sum")};
  project.out_schema = MakeSchema(
      {{"orf", DataType::kString}, {"sum", DataType::kInt64}});
  project.base_cost_ms = 0.05;
  project.cost_tag = "op:project";
  ops.push_back(std::make_unique<ProjectOperator>(project));
  return ops;
}

// ---- Invariance sweeps ----------------------------------------------------

TEST(VectorScalarDiffTest, FilterOpcallProjectChain) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed, 40 + seed % 37, /*port=*/0, /*num_buckets=*/0);
    ExpectBatchSizeInvariant([seed] { return MakeFilterProjectOpcallChain(seed); },
                             rows, /*finish=*/false, seed);
  }
}

TEST(VectorScalarDiffTest, JoinBuildThenProbe) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    // Build and probe share the 23-key ORF space, so probes see misses,
    // single matches and multi-match fan-out; 4 logical buckets exercise
    // the per-bucket tables. Equal keys must share a bucket (as the hash
    // exchange guarantees), so bucket = f(key), not an independent draw.
    std::vector<StreamRow> rows =
        MakeSeqStream(seed * 2 + 1, 30 + seed % 29, /*port=*/0,
                      /*num_buckets=*/0);
    std::vector<StreamRow> probes =
        MakeSeqStream(seed * 2 + 2, 35 + seed % 31, /*port=*/1,
                      /*num_buckets=*/0);
    for (StreamRow& r : rows) {
      r.bucket = r.tuple[0].AsString().back() % 4;
    }
    for (StreamRow& r : probes) {
      r.port = 1;
      r.bucket = r.tuple[0].AsString().back() % 4;
    }
    rows.insert(rows.end(), probes.begin(), probes.end());
    ExpectBatchSizeInvariant(MakeJoinChain, rows, /*finish=*/false, seed);
  }
}

TEST(VectorScalarDiffTest, AggregateAccumulateAndFinish) {
  for (uint64_t seed = 0; seed < 50; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed + 1000, 45 + seed % 23, /*port=*/0,
                      /*num_buckets=*/3);
    const RunTrace reference =
        ExpectBatchSizeInvariant(MakeAggregateChain, rows, /*finish=*/true,
                                 seed);
    // Every input row is absorbed into state; one output row per group.
    for (const bool retained : reference.retained) EXPECT_TRUE(retained);
    EXPECT_FALSE(reference.outputs.empty());
    // Finish's flushed groups flow through the rest of the chain.
    ExpectBatchSizeInvariant(MakeAggregateProjectChain, rows,
                             /*finish=*/true, seed);
  }
}

TEST(VectorScalarDiffTest, CollectSink) {
  for (uint64_t seed = 0; seed < 10; ++seed) {
    const std::vector<StreamRow> rows =
        MakeSeqStream(seed + 2000, 25 + seed, /*port=*/0, /*num_buckets=*/0);
    // The sink swallows rows into results_ instead of emitting, so the
    // check is on the collected rows plus the ledger.
    Chain reference_chain = MakeCollectChain();
    const RunTrace reference =
        RunBatched(reference_chain, rows, 1, /*finish=*/false);
    const auto* reference_sink =
        static_cast<CollectOperator*>(reference_chain[0].get());
    for (size_t batch : kBatchSizes) {
      Chain chain = MakeCollectChain();
      ExpectTracesEqual(reference, RunBatched(chain, rows, batch, false), seed,
                        batch);
      const auto* sink = static_cast<CollectOperator*>(chain[0].get());
      ASSERT_EQ(reference_sink->results().size(), sink->results().size());
      for (size_t i = 0; i < sink->results().size(); ++i) {
        EXPECT_EQ(reference_sink->results()[i].ToString(),
                  sink->results()[i].ToString());
      }
    }
  }
}

// Exact per-row charge accounting. The ledger total must be bit-identical
// across every batch size — not within an epsilon — because per-batch
// parts are charged as (unit, count) and only multiplied out in one
// canonical entry order.
TEST(VectorScalarDiffTest, ChargeTotalsBitIdenticalAcrossBatchSizes) {
  const std::vector<StreamRow> rows =
      MakeSeqStream(77, 333, /*port=*/0, /*num_buckets=*/0);
  const RunTrace reference =
      RunBatched(MakeFilterProjectOpcallChain(77), rows, 1, /*finish=*/false);
  const double canonical = reference.ledger.TotalMs();
  ASSERT_GT(canonical, 0.0);
  for (size_t batch : {size_t{7}, size_t{64}, size_t{1024}}) {
    const RunTrace batched = RunBatched(MakeFilterProjectOpcallChain(77), rows,
                                        batch, /*finish=*/false);
    EXPECT_EQ(batched.ledger.TotalMs(), canonical) << "batch=" << batch;
    EXPECT_EQ(batched.ledger.TotalCount(), reference.ledger.TotalCount())
        << "batch=" << batch;
  }
}

}  // namespace
}  // namespace gqp
