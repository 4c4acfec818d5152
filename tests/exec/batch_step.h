// Test helper: drives one operator the way OperatorDriver steps a chain,
// one single-row batch at a time.

#ifndef GRIDQP_TESTS_EXEC_BATCH_STEP_H_
#define GRIDQP_TESTS_EXEC_BATCH_STEP_H_

#include "exec/operators.h"
#include "storage/tuple_batch.h"

namespace gqp {

/// Runs `row` (routed to `bucket`) through `op` on `port` as a one-row
/// batch. The operator's outputs are appended to ctx->out and the row's
/// retention lands in ctx->row_retained[0]; charges and earlier outputs
/// are kept, so consecutive steps accumulate like a row-at-a-time stream.
inline Status StepRow(PhysicalOperator* op, int port, const Tuple& row,
                      int bucket, ExecContext* ctx) {
  TupleBatch in;
  TupleBatch out;
  in.Append(row, bucket, 0);
  ctx->row_retained.assign(1, 0);
  const Status status = op->ProcessBatch(port, &in, &out, ctx);
  for (size_t i = 0; i < out.size(); ++i) ctx->out.push_back(out.TakeTuple(i));
  return status;
}

/// True when the last StepRow absorbed its row into operator state.
inline bool LastRowRetained(const ExecContext& ctx) {
  return !ctx.row_retained.empty() && ctx.row_retained[0] != 0;
}

}  // namespace gqp

#endif  // GRIDQP_TESTS_EXEC_BATCH_STEP_H_
