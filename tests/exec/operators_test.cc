#include "exec/operators.h"

#include <gtest/gtest.h>

#include "plan/cost_model.h"
#include "tests/exec/batch_step.h"
#include "storage/datagen.h"

namespace gqp {
namespace {

SchemaPtr SeqSchema() {
  return MakeSchema({{"orf", DataType::kString},
                     {"sequence", DataType::kString}});
}

Tuple SeqRow(const std::string& orf, const std::string& seq) {
  return Tuple(SeqSchema(), {Value(orf), Value(seq)});
}

TEST(OperatorFactoryTest, RejectsScan) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kScan;
  EXPECT_FALSE(MakeOperator(desc).ok());
}

TEST(FilterOperatorTest, DropsNonMatching) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kFilter;
  desc.predicate = Cmp(CompareOp::kEq, Col(0, "orf"), Lit(Value("A")));
  desc.base_cost_ms = 0.1;
  desc.cost_tag = "op:filter";
  FilterOperator filter(desc);
  ExecContext ctx;
  ASSERT_TRUE(StepRow(&filter, 0, SeqRow("A", "x"), -1, &ctx).ok());
  ASSERT_TRUE(StepRow(&filter, 0, SeqRow("B", "x"), -1, &ctx).ok());
  ASSERT_EQ(ctx.out.size(), 1u);
  EXPECT_EQ(ctx.out[0][0].AsString(), "A");
  // Cost charged for both evaluations.
  EXPECT_EQ(ctx.charges.size(), 2u);
}

TEST(ProjectOperatorTest, ComputesExpressions) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kProject;
  desc.exprs = {Call("LENGTH", {Col(1, "sequence")}), Col(0, "orf")};
  desc.out_schema = MakeSchema(
      {{"len", DataType::kInt64}, {"orf", DataType::kString}});
  ProjectOperator project(desc);
  ExecContext ctx;
  ASSERT_TRUE(StepRow(&project, 0, SeqRow("K", "abcde"), -1, &ctx).ok());
  ASSERT_EQ(ctx.out.size(), 1u);
  EXPECT_EQ(ctx.out[0][0].AsInt64(), 5);
  EXPECT_EQ(ctx.out[0][1].AsString(), "K");
}

TEST(OperationCallOperatorTest, AppendsComputedColumn) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kOperationCall;
  desc.ws_name = "EntropyAnalyser";
  desc.arg_col = 1;
  desc.base_cost_ms = 0.25;
  desc.cost_tag = CostModel::WsTag("EntropyAnalyser");
  desc.out_schema = MakeSchema({{"orf", DataType::kString},
                                {"sequence", DataType::kString},
                                {"e", DataType::kDouble}});
  OperationCallOperator op(desc);
  ExecContext ctx;
  ASSERT_TRUE(StepRow(&op, 0, SeqRow("K", "abab"), -1, &ctx).ok());
  ASSERT_EQ(ctx.out.size(), 1u);
  ASSERT_EQ(ctx.out[0].size(), 3u);
  EXPECT_DOUBLE_EQ(ctx.out[0][2].AsDouble(), 1.0);
  ASSERT_EQ(ctx.charges.size(), 1u);
  EXPECT_EQ(ctx.charges[0].tag, "ws:EntropyAnalyser");
}

TEST(OperationCallOperatorTest, BadArgColumnFails) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kOperationCall;
  desc.ws_name = "EntropyAnalyser";
  desc.arg_col = 9;
  OperationCallOperator op(desc);
  ExecContext ctx;
  EXPECT_TRUE(StepRow(&op, 0, SeqRow("K", "x"), -1, &ctx).IsOutOfRange());
}

class HashJoinTest : public ::testing::Test {
 protected:
  HashJoinTest() {
    PhysOpDesc desc;
    desc.kind = PhysOpKind::kHashJoin;
    desc.build_key = 0;
    desc.probe_key = 0;
    desc.base_cost_ms = 0.1;
    desc.build_cost_ms = 0.05;
    desc.cost_tag = "op:hash_join";
    desc.out_schema = MakeSchema({{"orf", DataType::kString},
                                  {"sequence", DataType::kString},
                                  {"orf1", DataType::kString},
                                  {"orf2", DataType::kString}});
    join_ = std::make_unique<HashJoinOperator>(desc);
  }

  SchemaPtr ProbeSchema() {
    return MakeSchema({{"orf1", DataType::kString},
                       {"orf2", DataType::kString}});
  }
  Tuple ProbeRow(const std::string& orf1, const std::string& orf2) {
    return Tuple(ProbeSchema(), {Value(orf1), Value(orf2)});
  }

  std::unique_ptr<HashJoinOperator> join_;
  ExecContext ctx_;
};

TEST_F(HashJoinTest, BuildRetainsTuples) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  EXPECT_TRUE(LastRowRetained(ctx_));
  EXPECT_TRUE(ctx_.out.empty());
  EXPECT_EQ(join_->StateSize(), 1u);
  EXPECT_EQ(join_->StateSizeForBucket(3), 1u);
}

TEST_F(HashJoinTest, ProbeEmitsMatches) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("A", "B"), 3, &ctx_).ok());
  ASSERT_EQ(ctx_.out.size(), 1u);
  EXPECT_EQ(ctx_.out[0].size(), 4u);
  EXPECT_EQ(ctx_.out[0][0].AsString(), "A");
  EXPECT_EQ(ctx_.out[0][3].AsString(), "B");
  EXPECT_FALSE(LastRowRetained(ctx_));
}

TEST_F(HashJoinTest, ProbeMissEmitsNothing) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("Z", "B"), 3, &ctx_).ok());
  EXPECT_TRUE(ctx_.out.empty());
}

TEST_F(HashJoinTest, DuplicateBuildKeysAllMatch) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s2"), 3, &ctx_).ok());
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("A", "B"), 3, &ctx_).ok());
  EXPECT_EQ(ctx_.out.size(), 2u);
}

TEST_F(HashJoinTest, ProbeOnlySeesOwnBucket) {
  // Equal keys always share a bucket in production; a mismatched bucket
  // (as after a partition purge) must find nothing.
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("A", "B"), 4, &ctx_).ok());
  EXPECT_TRUE(ctx_.out.empty());
}

TEST_F(HashJoinTest, PurgeBucketsDropsState) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("B", "s2"), 5, &ctx_).ok());
  join_->PurgeBuckets({3});
  EXPECT_EQ(join_->StateSize(), 1u);
  EXPECT_EQ(join_->StateSizeForBucket(3), 0u);
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("A", "x"), 3, &ctx_).ok());
  EXPECT_TRUE(ctx_.out.empty());
}

TEST_F(HashJoinTest, StateRebuildAfterPurge) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  join_->PurgeBuckets({3});
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  EXPECT_EQ(join_->duplicate_build_inserts(), 0u);
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("A", "B"), 3, &ctx_).ok());
  EXPECT_EQ(ctx_.out.size(), 1u);
}

TEST_F(HashJoinTest, DuplicateInsertDetectorFires) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), 3, &ctx_).ok());
  EXPECT_EQ(join_->duplicate_build_inserts(), 1u);
}

TEST_F(HashJoinTest, NegativeBucketNormalizedToZero) {
  ASSERT_TRUE(StepRow(join_.get(), 0, SeqRow("A", "s1"), -1, &ctx_).ok());
  ctx_.ResetForBatch(0);
  ASSERT_TRUE(StepRow(join_.get(), 1, ProbeRow("A", "B"), -1, &ctx_).ok());
  EXPECT_EQ(ctx_.out.size(), 1u);
}

TEST_F(HashJoinTest, InvalidPortFails) {
  EXPECT_TRUE(
      StepRow(join_.get(), 2, SeqRow("A", "s"), 0, &ctx_).IsInvalidArgument());
}

TEST(CollectOperatorTest, AccumulatesResults) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kCollect;
  desc.base_cost_ms = 0.01;
  desc.cost_tag = "op:collect";
  CollectOperator collect(desc);
  ExecContext ctx;
  ASSERT_TRUE(StepRow(&collect, 0, SeqRow("A", "x"), -1, &ctx).ok());
  ASSERT_TRUE(StepRow(&collect, 0, SeqRow("B", "y"), -1, &ctx).ok());
  EXPECT_EQ(collect.results().size(), 2u);
  EXPECT_TRUE(ctx.out.empty());  // collect is a sink
}

TEST(CollectOperatorTest, SingleRowBatchesGrowResultsGeometrically) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kCollect;
  desc.base_cost_ms = 0.01;
  desc.cost_tag = "op:collect";
  CollectOperator collect(desc);
  ExecContext ctx;
  constexpr size_t kRows = 4096;
  size_t capacity_changes = 0;
  size_t capacity = collect.results().capacity();
  for (size_t i = 0; i < kRows; ++i) {
    ASSERT_TRUE(StepRow(&collect, 0, SeqRow("A", "x"), -1, &ctx).ok());
    if (collect.results().capacity() != capacity) {
      capacity = collect.results().capacity();
      ++capacity_changes;
    }
  }
  EXPECT_EQ(collect.results().size(), kRows);
  // Geometric growth reallocates O(log n) times (13 doublings for 4096
  // rows); an exact-fit reserve per batch would reallocate on every row.
  EXPECT_LE(capacity_changes, 2 * 13u);
}

TEST(OperatorChainTest, EmitFlowsThroughChain) {
  PhysOpDesc filter_desc;
  filter_desc.kind = PhysOpKind::kFilter;
  filter_desc.predicate =
      Cmp(CompareOp::kNe, Col(0, "orf"), Lit(Value("skip")));
  FilterOperator filter(filter_desc);

  PhysOpDesc project_desc;
  project_desc.kind = PhysOpKind::kProject;
  project_desc.exprs = {Col(0, "orf")};
  project_desc.out_schema = MakeSchema({{"orf", DataType::kString}});
  ProjectOperator project(project_desc);

  // The driver's chain walk: each operator's output batch is the next
  // one's input.
  ExecContext ctx;
  ctx.ResetForBatch(2);
  TupleBatch in, filtered, projected;
  in.Append(SeqRow("keep", "x"), -1, 0);
  in.Append(SeqRow("skip", "x"), -1, 1);
  ASSERT_TRUE(filter.ProcessBatch(0, &in, &filtered, &ctx).ok());
  ASSERT_TRUE(project.ProcessBatch(0, &filtered, &projected, &ctx).ok());
  ASSERT_EQ(projected.size(), 1u);
  EXPECT_EQ(projected.tuple(0).size(), 1u);
  EXPECT_EQ(projected.origin(0), 0u);
}

TEST(ExecContextTest, ResetClearsPerTupleState) {
  ExecContext ctx;
  ctx.ResetForBatch(1);
  ctx.Charge("a", 1.0);
  ctx.row_retained[0] = 1;
  ctx.out.push_back(SeqRow("x", "y"));
  ctx.out_origin.push_back(0);
  ctx.ResetForBatch(2);
  EXPECT_TRUE(ctx.charges.empty());
  EXPECT_EQ(ctx.row_retained, (std::vector<unsigned char>{0, 0}));
  EXPECT_TRUE(ctx.out.empty());
  EXPECT_TRUE(ctx.out_origin.empty());
  // The whole-run ledger survives the reset.
  EXPECT_EQ(ctx.ledger.TotalCount(), 1u);
}

TEST(ExecContextTest, TotalBaseCostSums) {
  ExecContext ctx;
  ctx.Charge("a", 1.5);
  ctx.Charge("b", 2.5);
  EXPECT_DOUBLE_EQ(ctx.TotalBaseCost(), 4.0);
}

}  // namespace
}  // namespace gqp
