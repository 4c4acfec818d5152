// TupleBatch: a run of tuples, the unit of work of an operator step
// (DESIGN.md §D13). A batch carries, per row,
// the tuple itself, the logical exchange bucket it was routed to, and the
// row's *origin* — its index in the batch the driver popped from the input
// queue — so per-input-tuple bookkeeping (retained flags, the
// output-to-input acknowledgment cascade) survives filtering and joins
// that reshape the row set.
//
// Batches are transient scratch space: operators consume one batch and
// append to the next, so the backing vectors are reused across steps
// (Clear keeps capacity).

#ifndef GRIDQP_STORAGE_TUPLE_BATCH_H_
#define GRIDQP_STORAGE_TUPLE_BATCH_H_

#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace gqp {

class TupleBatch {
 public:
  TupleBatch() = default;

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }

  void Reserve(size_t n) {
    tuples_.reserve(n);
    buckets_.reserve(n);
    origins_.reserve(n);
  }

  /// Drops all rows, keeping the backing capacity (batches are recycled
  /// across chain steps).
  void Clear() {
    tuples_.clear();
    buckets_.clear();
    origins_.clear();
  }

  void Append(Tuple tuple, int bucket, uint32_t origin) {
    tuples_.push_back(std::move(tuple));
    buckets_.push_back(bucket);
    origins_.push_back(origin);
  }

  const Tuple& tuple(size_t i) const { return tuples_[i]; }
  int bucket(size_t i) const { return buckets_[i]; }
  uint32_t origin(size_t i) const { return origins_[i]; }

  void Swap(TupleBatch& other) {
    tuples_.swap(other.tuples_);
    buckets_.swap(other.buckets_);
    origins_.swap(other.origins_);
  }

  /// Moves row i's tuple out (tail-of-chain handoff into the staged
  /// output); the batch is in a moved-from state afterwards.
  Tuple TakeTuple(size_t i) { return std::move(tuples_[i]); }

 private:
  std::vector<Tuple> tuples_;
  std::vector<int> buckets_;
  std::vector<uint32_t> origins_;
};

}  // namespace gqp

#endif  // GRIDQP_STORAGE_TUPLE_BATCH_H_
