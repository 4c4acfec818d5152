// Runtime physical operators. Fragments run a chain of batch steps: the
// OperatorDriver feeds a TupleBatch into ops[0] and hands each operator's
// output batch to the next; each operator does its real work (predicates,
// hash tables, web-service computations) and charges its virtual CPU cost
// per row to the ExecContext; the chain's survivors are staged for the
// exchange producer (or the result collector).
//
// Stateful operators implement PurgeBuckets() so retrospective adaptation
// can drop (and later rebuild elsewhere) the state of moved partitions.

#ifndef GRIDQP_EXEC_OPERATORS_H_
#define GRIDQP_EXEC_OPERATORS_H_

#include <functional>
#include <map>
#include <memory>
#include <string_view>
#include <vector>

#include "common/interner.h"
#include "common/result.h"
#include "exec/flat_join_table.h"
#include "expr/expression.h"
#include "grid/node.h"
#include "plan/physical_plan.h"
#include "storage/table.h"
#include "storage/tuple_batch.h"

namespace gqp {

/// Cumulative record of every cost charged through an ExecContext, kept as
/// integer counts per distinct (tag, unit cost) pair. Because the counts
/// are exact and the entry order depends only on the order of first
/// encounter (the chain order, whatever the batch size), TotalMs() is
/// computed by the *same* sequence of floating-point operations for every
/// batch size — so runs of the same input at batch 1 and batch N agree
/// bit-for-bit, with none of the drift that re-associating per-row
/// additions into per-batch multiplies would introduce (DESIGN.md §D13).
struct ChargeLedger {
  using Entry = ChargePart;
  std::vector<Entry> entries;

  void Add(std::string_view tag, double unit_ms, uint64_t n) {
    // Charges repeat the same (tag, unit) in runs; scan from the back so
    // the common case is a first-probe hit.
    for (auto it = entries.rbegin(); it != entries.rend(); ++it) {
      if (it->unit_ms == unit_ms && it->tag == tag) {
        it->count += n;
        return;
      }
    }
    entries.push_back(Entry{tag, unit_ms, n});
  }
  double TotalMs() const {
    double total = 0.0;
    for (const Entry& e : entries) {
      total += e.unit_ms * static_cast<double>(e.count);
    }
    return total;
  }
  uint64_t TotalCount() const {
    uint64_t total = 0;
    for (const Entry& e : entries) total += e.count;
    return total;
  }
  void Clear() { entries.clear(); }
};

/// Per-batch execution context: cost charges, per-row retention, staging
/// area for chain outputs.
struct ExecContext {
  /// Charge parts accumulated while processing the current batch; the
  /// driver submits them as one composite node work item, which applies
  /// the effective cost once per unit (per row). Tags are interned views
  /// (InternString): charging is allocation-free on the hot path, and
  /// the views stay valid for the lifetime of any node work item they
  /// are copied into.
  std::vector<ChargePart> charges;
  /// Tuples emitted by the chain for the current batch (and the rows an
  /// operator's Finish flushes).
  std::vector<Tuple> out;
  /// out_origin[i] is the input-batch row index `out[i]` derives from
  /// (parallel to `out`). Survives the egress clearing `out` so the
  /// executor can map delivered output seqs back to the input tuples
  /// awaiting acknowledgment.
  std::vector<uint32_t> out_origin;
  /// row_retained[i] != 0 when input-batch row i was absorbed into
  /// operator state (indexed by origin, sized by ResetForBatch).
  std::vector<unsigned char> row_retained;
  /// Cumulative (whole-run) charge counts; never reset between batches.
  /// The canonical total cost batch sizes are compared on.
  ChargeLedger ledger;
  /// Scalar function implementations for filter/project expressions.
  const FunctionRegistry* functions = &FunctionRegistry::Builtins();

  void Charge(std::string_view tag, double ms) { ChargeN(tag, ms, 1); }
  /// Charges `n` rows at `unit_ms` each as one part. No-op for an empty
  /// batch.
  void ChargeN(std::string_view tag, double unit_ms, uint64_t n) {
    if (n == 0) return;
    charges.push_back(ChargePart{tag, unit_ms, n});
    ledger.Add(tag, unit_ms, n);
  }
  void ResetForBatch(size_t rows) {
    charges.clear();
    out.clear();
    out_origin.clear();
    row_retained.assign(rows, 0);
  }
  double TotalBaseCost() const {
    double total = 0.0;
    for (const ChargePart& part : charges) {
      total += part.unit_ms * static_cast<double>(part.count);
    }
    return total;
  }
};

/// \brief Base class for chain operators.
class PhysicalOperator {
 public:
  virtual ~PhysicalOperator() = default;

  virtual Status Open(ExecContext* ctx);

  /// The operator step: consumes the rows of `in` arriving on input
  /// `port` (0 for single-input operators; hash join: 0 = build, 1 =
  /// probe) and appends this operator's outputs to `out`. `in` may be
  /// left moved-from. Each row carries the logical partition assigned by
  /// the upstream exchange (-1 when not partitioned). The driver walks
  /// the chain, handing each operator's output batch to the next (run to
  /// completion over the batch). Emitted rows carry bucket -1 and inherit
  /// the origin of the input row they derive from; rows absorbed into
  /// operator state mark ctx->row_retained[origin].
  virtual Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                              ExecContext* ctx) = 0;

  /// The whole fragment input is complete: appends any buffered output
  /// to ctx->out (the driver runs it through the rest of the chain).
  /// Default: nothing buffered.
  virtual Status Finish(ExecContext* ctx);

  /// Drops operator state belonging to the given partitions (retrospective
  /// adaptation). Default: no state, no-op.
  virtual void PurgeBuckets(const std::vector<int>& buckets);
};

/// Predicate filter.
class FilterOperator : public PhysicalOperator {
 public:
  explicit FilterOperator(const PhysOpDesc& desc);
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

 private:
  ExprPtr predicate_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
};

/// Expression projection.
class ProjectOperator : public PhysicalOperator {
 public:
  explicit ProjectOperator(const PhysOpDesc& desc);
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

 private:
  std::vector<ExprPtr> exprs_;
  SchemaPtr out_schema_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
};

/// Web-service operation call (the paper's operation_call operator). The
/// registered scalar function is genuinely evaluated; the per-call cost is
/// the perturbation target of the Q1 experiments.
class OperationCallOperator : public PhysicalOperator {
 public:
  explicit OperationCallOperator(const PhysOpDesc& desc);
  /// The registry lookup (a std::function copy) is amortized: one Find
  /// per batch, reused for every row.
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

 private:
  std::string ws_name_;
  size_t arg_col_;
  SchemaPtr out_schema_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
};

/// Partitioned hash join (stateful). Build state is bucketed by the
/// exchange's logical partition so moved partitions can be purged and
/// recreated elsewhere.
class HashJoinOperator : public PhysicalOperator {
 public:
  explicit HashJoinOperator(const PhysOpDesc& desc);

  /// Build: inserts each row into its bucket's table and marks it
  /// retained. Probe: emits each row's matches in build insertion order.
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;
  void PurgeBuckets(const std::vector<int>& buckets) override;

  /// Number of build tuples currently held in state.
  size_t StateSize() const;
  /// Value-identical build tuples inserted while an equal tuple was
  /// already in state — an invariant violation under state moves (unless
  /// the input itself has duplicate rows).
  size_t duplicate_build_inserts() const { return duplicate_build_inserts_; }
  /// Build tuples held for one bucket (tests/inspection).
  size_t StateSizeForBucket(int bucket) const;

 private:
  /// Lazily creates bucket `bucket`'s table, pre-sized from the
  /// optimizer's build-side estimate.
  FlatJoinTable& TableForBucket(int bucket);

  size_t build_key_;
  size_t probe_key_;
  SchemaPtr out_schema_;
  double probe_cost_ms_;
  double build_cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
  /// Per-bucket pre-size hint: estimated build rows / logical buckets.
  size_t bucket_reserve_hint_;
  // Build state, one flat table per logical partition (DESIGN.md
  // "Performance engineering"); index = bucket id, grown on demand.
  std::vector<FlatJoinTable> state_;
  size_t duplicate_build_inserts_ = 0;
};

/// Partitioned hash aggregation (stateful). Partial aggregates are
/// bucketed by the exchange's logical partition: moved partitions are
/// purged here and rebuilt at their new owner from the recovery-logged
/// input tuples, exactly like hash-join state.
class HashAggregateOperator : public PhysicalOperator {
 public:
  explicit HashAggregateOperator(const PhysOpDesc& desc);

  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;
  /// Appends one output tuple per group to ctx->out and drops the state.
  Status Finish(ExecContext* ctx) override;
  void PurgeBuckets(const std::vector<int>& buckets) override;

  /// Number of groups currently held.
  size_t GroupCount() const;

 private:
  struct Accumulator {
    int64_t count = 0;
    double sum = 0.0;
    Value min;
    Value max;
    bool has_value = false;
  };
  struct GroupState {
    std::vector<Value> group_values;
    std::vector<Accumulator> accums;
  };
  // bucket -> encoded group key -> state. Ordered maps: Finish() emits in
  // traversal order, and output order must not depend on hash-table
  // layout (replay determinism, DESIGN.md "Testing & determinism
  // contract").
  using BucketGroups = std::map<std::string, GroupState>;

  Status Accumulate(GroupState* group, const Tuple& tuple, ExecContext* ctx);
  Value Finalize(const AggSpec& spec, const Accumulator& acc) const;

  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  SchemaPtr out_schema_;
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
  std::map<int, BucketGroups> state_;
};

/// Result sink at the coordinator.
class CollectOperator : public PhysicalOperator {
 public:
  explicit CollectOperator(const PhysOpDesc& desc);
  Status ProcessBatch(int port, TupleBatch* in, TupleBatch* out,
                      ExecContext* ctx) override;

  const std::vector<Tuple>& results() const { return results_; }
  std::vector<Tuple> TakeResults() { return std::move(results_); }

 private:
  double cost_ms_;
  /// Interned (process-lifetime) operation tag.
  std::string_view tag_;
  std::vector<Tuple> results_;
};

/// Instantiates the runtime operator for a descriptor. kScan descriptors
/// are rejected (scans are driven directly by the FragmentExecutor).
Result<std::unique_ptr<PhysicalOperator>> MakeOperator(
    const PhysOpDesc& desc);

}  // namespace gqp

#endif  // GRIDQP_EXEC_OPERATORS_H_
