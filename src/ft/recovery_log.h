// Recovery log: the fault-tolerance substrate (after Smith & Watson,
// CS-TR-893) that the paper reuses for retrospective (R1) state
// repartitioning. Exchange producers append every outgoing tuple; records
// are pruned when acknowledgment tuples return from consumers. At any
// instant the log therefore holds exactly the tuples that are in transit,
// queued unprocessed at consumers, or resident in downstream operator
// state — the set R1 redistributes.

#ifndef GRIDQP_FT_RECOVERY_LOG_H_
#define GRIDQP_FT_RECOVERY_LOG_H_

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "storage/tuple.h"

namespace gqp {

/// One logged outgoing tuple.
struct LogRecord {
  /// Producer-global sequence number (unique per producer instance).
  uint64_t seq = 0;
  /// Logical partition bucket (hash policies) or -1 (round-robin policies).
  int bucket = -1;
  /// Consumer index the tuple was sent to.
  int consumer = -1;
  Tuple tuple;
  /// R1 bookkeeping kept on the record, so it leaves the log with the
  /// record (an acknowledged seq carries no claim). Consumer index whose
  /// StateMoveReply listed the record as processed — its outputs hold the
  /// record's results while it lives — or -1.
  int claimed_by = -1;
  /// Latest R1 round (producer-local serial) in which a consumer reported
  /// holding the record, processed or retained; that round keeps it.
  uint64_t held_in_round = 0;
};

/// Aggregate counters for overhead reporting.
struct RecoveryLogStats {
  uint64_t appended = 0;
  uint64_t acked = 0;
  uint64_t extracted = 0;
  size_t high_watermark = 0;
  /// Bytes of tuple payload currently held (Tuple::WireSize is memoized,
  /// so the charge/reclaim symmetry is exact even across Reinsert).
  uint64_t bytes_held = 0;
  uint64_t bytes_peak = 0;
};

/// \brief Per-producer log of unacknowledged outgoing tuples.
///
/// A flat array in seq order. Acknowledged and extracted records leave
/// holes that are compacted away in one pass once they outnumber the live
/// records, so appends, acks and compaction cost amortized O(1) per record
/// (acks add an O(log size) search) and no record owns a heap node.
class RecoveryLog {
 public:
  /// Appends a record. Fresh tuples arrive with a seq above every logged
  /// one and append in O(1); a lower seq (a record Extract returned,
  /// re-inserted) is placed in seq order in O(size). A seq already logged
  /// keeps its record.
  void Append(LogRecord record);

  /// Removes a record upon acknowledgment. Unknown seqs are ignored
  /// (acks may race with retrospective extraction).
  void Ack(uint64_t seq);

  /// Removes a batch of acknowledged records.
  void AckBatch(const std::vector<uint64_t>& seqs);

  /// \brief Extracts (removes and returns) all records matching `pred`,
  /// in sequence order. `pred` is any callable on `const LogRecord&`.
  template <typename Pred>
  std::vector<LogRecord> Extract(Pred&& pred);

  /// Extracts every record (round-robin policies redistribute all
  /// unprocessed tuples).
  std::vector<LogRecord> ExtractAll();

  /// Re-inserts a record after re-routing (it is still unacknowledged, now
  /// owned by a different consumer).
  void Reinsert(LogRecord record) { Append(std::move(record)); }

  /// \brief Selects, in seq order, the records below `before_seq` that
  /// `select` picks, for re-routing in place.
  ///
  /// An R1 resend keeps its seq and stays unacknowledged, so rather than
  /// extracting each record and re-inserting it, the caller assigns the
  /// new consumer through the returned pointers; the scan stops at the
  /// round's recall watermark. The stats count every selected record as
  /// extracted and re-appended, exactly as Extract + Reinsert would. The
  /// pointers stay valid until the log is next modified.
  template <typename Select>
  std::vector<LogRecord*> SelectForReroute(uint64_t before_seq,
                                           Select&& select);

  /// Calls `fn(record)` on every logged record whose seq is listed in
  /// `seqs`, by one merge of the log with the list: O(size + seqs.size()).
  /// `seqs` should be ascending (an unsorted list is sorted first). `fn`
  /// may update the record's routing and R1 bookkeeping, never its seq.
  template <typename Fn>
  void ForEachListed(const std::vector<uint64_t>& seqs, Fn&& fn);

  /// Calls `fn(record)` on every logged record, in seq order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Slot& slot : slots_) {
      if (slot.live) fn(slot.record);
    }
  }

  size_t size() const { return live_; }
  bool empty() const { return live_ == 0; }
  bool Contains(uint64_t seq) const;
  const RecoveryLogStats& stats() const { return stats_; }

  /// Sequence numbers still unacknowledged, ascending. A query that ran to
  /// completion must leave every producer log empty; the chaos harness
  /// reports the stranded seqs when that invariant breaks.
  std::vector<uint64_t> PendingSeqs() const;

  /// Pending (seq, consumer index) pairs, ascending by seq. The chaos
  /// invariants exempt entries whose consumer died unreported: their acks
  /// were abandoned and the retained copy is the at-least-once insurance.
  std::vector<std::pair<uint64_t, int>> PendingConsumers() const;

 private:
  struct Slot {
    LogRecord record;
    /// False once acknowledged or extracted: a hole awaiting compaction.
    bool live = true;
  };

  /// Orders slots against a seq, for std::lower_bound.
  static bool SeqBelow(const Slot& slot, uint64_t seq) {
    return slot.record.seq < seq;
  }
  /// Acknowledges `seq`, searching forward from slot `hint` when the seq
  /// lies there or beyond (else the whole log). Returns the slot index
  /// where the search ended: the next ack's hint.
  size_t AckFrom(size_t hint, uint64_t seq);
  /// Turns a live slot into a hole, reclaiming its bytes; returns the
  /// record.
  LogRecord Remove(Slot* slot);
  /// Drops the holes once they outnumber the live records.
  void MaybeCompact();

  /// Seq-ascending; holes keep their seq, so the order holds throughout.
  std::vector<Slot> slots_;
  size_t live_ = 0;
  RecoveryLogStats stats_;
};

template <typename Pred>
std::vector<LogRecord> RecoveryLog::Extract(Pred&& pred) {
  std::vector<LogRecord> out;
  for (Slot& slot : slots_) {
    if (!slot.live || !pred(static_cast<const LogRecord&>(slot.record))) {
      continue;
    }
    out.push_back(Remove(&slot));
  }
  stats_.extracted += out.size();
  MaybeCompact();
  return out;
}

template <typename Select>
std::vector<LogRecord*> RecoveryLog::SelectForReroute(uint64_t before_seq,
                                                      Select&& select) {
  std::vector<LogRecord*> out;
  const auto end =
      std::lower_bound(slots_.begin(), slots_.end(), before_seq, SeqBelow);
  for (auto it = slots_.begin(); it != end; ++it) {
    if (it->live && select(static_cast<const LogRecord&>(it->record))) {
      out.push_back(&it->record);
    }
  }
  stats_.extracted += out.size();
  stats_.appended += out.size();
  return out;
}

template <typename Fn>
void RecoveryLog::ForEachListed(const std::vector<uint64_t>& seqs, Fn&& fn) {
  if (!std::is_sorted(seqs.begin(), seqs.end())) {
    std::vector<uint64_t> sorted = seqs;
    std::sort(sorted.begin(), sorted.end());
    ForEachListed(sorted, std::forward<Fn>(fn));
    return;
  }
  auto slot = slots_.begin();
  auto seq = seqs.begin();
  while (slot != slots_.end() && seq != seqs.end()) {
    if (slot->record.seq < *seq) {
      ++slot;
    } else if (*seq < slot->record.seq) {
      ++seq;
    } else {
      if (slot->live) fn(slot->record);
      ++slot;
      ++seq;
    }
  }
}

/// \brief Consumer-side acknowledgment batching.
///
/// Consumers acknowledge at checkpoint granularity: processed sequence
/// numbers accumulate and are drained every `checkpoint_interval` tuples
/// (or explicitly at end-of-stream), mirroring the paper's checkpoint /
/// acknowledgment-tuple protocol.
class AckBatcher {
 public:
  explicit AckBatcher(size_t checkpoint_interval)
      : interval_(checkpoint_interval == 0 ? 1 : checkpoint_interval) {}

  /// Records a processed tuple. Returns true when a checkpoint boundary is
  /// reached and Drain() should be sent upstream.
  bool Add(uint64_t seq);

  /// Returns and clears the pending acknowledgment batch.
  std::vector<uint64_t> Drain();

  /// Discards a pending seq (the tuple was recalled before its ack went
  /// out; the producer will resend it elsewhere).
  void Remove(uint64_t seq);

  size_t pending() const { return pending_.size(); }

  /// Seqs currently awaiting acknowledgment (used in StateMove replies so
  /// producers do not resend tuples that were already processed).
  const std::vector<uint64_t>& pending_seqs() const { return pending_; }

 private:
  size_t interval_;
  std::vector<uint64_t> pending_;
};

}  // namespace gqp

#endif  // GRIDQP_FT_RECOVERY_LOG_H_
