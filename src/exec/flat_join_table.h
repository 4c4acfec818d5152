// Flat hash-join build table: open addressing over one contiguous entry
// vector, replacing the former unordered_map<hash, vector<BuildEntry>>
// forest (one node allocation per distinct key plus a vector per chain).
//
// Layout: every build row is appended to `entries_` in arrival order and
// never moves; rows with equal key hash form a chain threaded through
// 1-based `next` offsets, appended at the tail so probe emission order is
// exactly insertion order (replay determinism, DESIGN.md "Testing &
// determinism contract"). The slot array maps hash -> chain head by
// linear probing and stores 1-based entry offsets, so growth rehashes
// only the head pointers — entries stay put.

#ifndef GRIDQP_EXEC_FLAT_JOIN_TABLE_H_
#define GRIDQP_EXEC_FLAT_JOIN_TABLE_H_

#include <cstdint>
#include <vector>

#include "storage/tuple.h"

namespace gqp {

/// \brief Open-addressing multimap from key hash to build tuples.
class FlatJoinTable {
 public:
  FlatJoinTable() = default;

  /// Pre-sizes the table for an expected number of build rows (e.g. the
  /// optimizer's build-side cardinality estimate divided by the number of
  /// partitions). Never shrinks.
  void Reserve(size_t expected_rows);

  /// Appends one build row. Returns true when a value-identical tuple with
  /// the same hash already sits in the table (the duplicate-build-insert
  /// invariant the join operator tracks). The join key is not stored — it
  /// lives in the tuple itself; probes re-read it from the matched tuple's
  /// key column when filtering hash collisions.
  bool Insert(uint64_t hash, const Tuple& tuple);

  /// Invokes `fn(const Tuple& tuple)` for every entry whose hash matches,
  /// in insertion order. Callers skip hash collisions by comparing the
  /// tuple's key column.
  template <typename Fn>
  void ForEachMatch(uint64_t hash, Fn&& fn) const {
    if (entries_.empty()) return;
    for (uint32_t at = FindHead(hash); at != 0; at = entries_[at - 1].next) {
      fn(entries_[at - 1].tuple);
    }
  }

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }
  /// Number of distinct key hashes (occupied slots) — exposed for tests.
  size_t distinct_hashes() const { return occupied_; }
  /// Current slot-array capacity — exposed for growth tests.
  size_t slot_capacity() const { return slots_.size(); }

  void Clear();

 private:
  // 24 bytes: small enough that a chain walk touches few cache lines. The
  // key is deliberately absent — it is a column of `tuple`.
  struct Entry {
    uint64_t hash;
    uint32_t next;  // 1-based offset of the next same-hash entry; 0 = end
    uint32_t tail;  // chain heads: 1-based offset of the chain's last entry
    Tuple tuple;
  };

  /// Slot tag: the hash's high byte (the slot index comes from the low
  /// bits, so the tag adds independent entropy). A one-byte compare
  /// rejects 255/256 of probe collisions without touching the entry
  /// vector.
  static uint8_t TagOf(uint64_t hash) {
    return static_cast<uint8_t>(hash >> 56);
  }

  /// 1-based offset of the chain head for `hash`, or 0. Precondition:
  /// slots_ non-empty.
  uint32_t FindHead(uint64_t hash) const;

  void Rehash(size_t new_slot_count);

  std::vector<Entry> entries_;
  std::vector<uint32_t> slots_;  // 1-based entry offsets; 0 = empty
  std::vector<uint8_t> tags_;    // parallel to slots_: occupant hash tag
  size_t occupied_ = 0;          // slots in use (distinct hashes)
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_FLAT_JOIN_TABLE_H_
