// Operator-chain driver of a fragment instance (DESIGN.md §D12): builds
// and owns the physical operator chain, runs batches through it with cost
// charging into the shared ExecContext, and owns the M1 self-monitoring
// loop (cost/wait per tuple, selectivity) between emissions. Scheduling —
// when a tuple runs, how its composite work item is submitted, what
// happens on completion — stays with the composition root
// (FragmentExecutor).

#ifndef GRIDQP_EXEC_OPERATOR_DRIVER_H_
#define GRIDQP_EXEC_OPERATOR_DRIVER_H_

#include <functional>
#include <memory>
#include <string_view>
#include <vector>

#include "exec/instance_plan.h"
#include "exec/operators.h"
#include "grid/node.h"

namespace gqp {

class OperatorDriver {
 public:
  struct Hooks {
    /// Delivers an M1 monitoring event over the bus.
    std::function<Status(const Address&, PayloadPtr)> send_to;
    /// Reports a chain error (the executor records it and keeps running).
    std::function<void(const Status&)> fail;
  };

  OperatorDriver(GridNode* node, const FragmentInstancePlan* plan,
                 FragmentStats* stats, Hooks hooks);
  ~OperatorDriver();

  /// Instantiates and opens the chain (scan leaves skip the scan
  /// descriptor: the executor itself drives the table).
  Status BuildAndOpen();

  bool has_ops() const { return !ops_.empty(); }
  ExecContext* ctx() { return &ctx_; }

  /// Runs `n` scan rows starting at `start` through the chain as one
  /// batch, charging the scan cost per row.
  Status RunScanBatch(const Table& table, size_t start, size_t n);
  /// Runs a popped batch of exchange tuples through the chain. `in` is
  /// consumed; per-row retention lands in ctx()->row_retained, outputs in
  /// ctx()->out with their input-row origin in ctx()->out_origin.
  Status RunBatch(int port, TupleBatch* in);

  /// Resets the context and runs every operator's Finish in chain order,
  /// feeding each one's flushed rows through the rest of the chain.
  /// Returns true when the chain exists (the caller delivers ctx()->out).
  bool FinishChain();

  void PurgeBuckets(const std::vector<int>& buckets);

  // --- M1 self-monitoring ----------------------------------------------
  /// Records the actual (perturbed) cost of one work item covering `n`
  /// tuples: the M1 accumulators advance by the whole batch at once
  /// (batch-boundary monitoring granularity).
  void AccumulateBatchCost(double actual_ms, uint64_t n) {
    stats_->busy_ms += actual_ms;
    m1_cost_ms_ += actual_ms;
    m1_tuples_ += n;
  }
  /// Records an idle wait that ended when a tuple became runnable.
  void AccumulateWait(double wait_ms) {
    stats_->idle_wait_ms += wait_ms;
    m1_wait_ms_ += wait_ms;
  }
  struct M1Sample {
    double cost_per_tuple_ms = 0.0;
    double wait_per_tuple_ms = 0.0;
    double selectivity = 1.0;
  };
  /// Computes the due sample and resets the accumulators.
  M1Sample TakeM1(uint64_t tuples_processed, uint64_t tuples_emitted);
  /// Emits an M1 event to the MED when a sample is due (monitoring on,
  /// the fragment has an output, and m1_frequency tuples accumulated).
  void MaybeEmitM1(bool has_producer);

  // --- introspection ----------------------------------------------------
  /// Results collected by a root fragment (empty otherwise).
  const std::vector<Tuple>& Results() const;
  /// The chain's hash join, if any (tests inspect its state).
  const HashJoinOperator* FindHashJoin() const;

 private:
  GridNode* node_;
  const FragmentInstancePlan* plan_;
  const FragmentDesc* fragment_;
  FragmentStats* stats_;
  Hooks hooks_;
  /// Walks the batch through ops_[first..]; the survivors of the last
  /// operator move into ctx_.out / ctx_.out_origin.
  Status RunChainBatch(size_t first, int port, TupleBatch* in);

  std::vector<std::unique_ptr<PhysicalOperator>> ops_;
  ExecContext ctx_;
  /// Ping-pong scratch batches for RunChainBatch (capacity reused).
  TupleBatch scratch_a_;
  TupleBatch scratch_b_;
  /// Staging batch for scan rows and Finish flushes (capacity reused).
  TupleBatch staging_;
  /// Interned scan tag + base cost (scan leaves only).
  std::string_view scan_tag_;
  double scan_cost_ms_ = 0.0;

  // M1 accumulation since the last emission.
  uint64_t m1_tuples_ = 0;
  double m1_cost_ms_ = 0.0;
  double m1_wait_ms_ = 0.0;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_OPERATOR_DRIVER_H_
