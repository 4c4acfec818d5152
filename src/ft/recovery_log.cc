#include "ft/recovery_log.h"

namespace gqp {

namespace {

/// Holes below this count are never compacted: small logs would churn.
constexpr size_t kMinHolesToCompact = 64;

}  // namespace

void RecoveryLog::Append(LogRecord record) {
  stats_.bytes_held += record.tuple.WireSize();
  stats_.bytes_peak = std::max(stats_.bytes_peak, stats_.bytes_held);
  ++stats_.appended;
  if (slots_.empty() || slots_.back().record.seq < record.seq) {
    slots_.push_back(Slot{std::move(record)});
    ++live_;
  } else {
    const auto it = std::lower_bound(slots_.begin(), slots_.end(),
                                     record.seq, SeqBelow);
    if (it == slots_.end() || it->record.seq != record.seq) {
      slots_.insert(it, Slot{std::move(record)});
      ++live_;
    } else if (!it->live) {
      it->record = std::move(record);
      it->live = true;
      ++live_;
    }
  }
  stats_.high_watermark = std::max(stats_.high_watermark, live_);
}

LogRecord RecoveryLog::Remove(Slot* slot) {
  const uint64_t bytes = slot->record.tuple.WireSize();
  stats_.bytes_held -= std::min(stats_.bytes_held, bytes);
  slot->live = false;
  --live_;
  // Moving the record out drops the hole's reference to the tuple.
  return std::move(slot->record);
}

void RecoveryLog::MaybeCompact() {
  if (live_ == 0) {
    // A drained log hands its buffer back: many producers drain at
    // different times, and idle capacity kept by each would add up.
    std::vector<Slot>().swap(slots_);
    return;
  }
  const size_t holes = slots_.size() - live_;
  if (holes < kMinHolesToCompact || holes <= live_) return;
  slots_.erase(std::remove_if(slots_.begin(), slots_.end(),
                              [](const Slot& slot) { return !slot.live; }),
               slots_.end());
}

size_t RecoveryLog::AckFrom(size_t hint, uint64_t seq) {
  // Acks mostly arrive in ascending order, a few slots apart: gallop
  // forward from the previous ack before falling back to a full search.
  auto first = slots_.begin();
  auto last = slots_.end();
  if (hint < slots_.size() && slots_[hint].record.seq <= seq) {
    size_t step = 1;
    while (hint + step < slots_.size() &&
           slots_[hint + step].record.seq < seq) {
      step *= 2;
    }
    first += static_cast<std::ptrdiff_t>(hint + step / 2);
    last = first + static_cast<std::ptrdiff_t>(
                       std::min(step / 2 + 1, slots_.size() - hint - step / 2));
  }
  const auto it = std::lower_bound(first, last, seq, SeqBelow);
  if (it != slots_.end() && it->record.seq == seq && it->live) {
    Remove(&*it);
    ++stats_.acked;
  }
  return static_cast<size_t>(it - slots_.begin());
}

void RecoveryLog::Ack(uint64_t seq) {
  AckFrom(slots_.size(), seq);
  MaybeCompact();
}

void RecoveryLog::AckBatch(const std::vector<uint64_t>& seqs) {
  size_t hint = slots_.size();
  for (const uint64_t seq : seqs) hint = AckFrom(hint, seq);
  MaybeCompact();
}

std::vector<LogRecord> RecoveryLog::ExtractAll() {
  return Extract([](const LogRecord&) { return true; });
}

bool RecoveryLog::Contains(uint64_t seq) const {
  const auto it = std::lower_bound(slots_.begin(), slots_.end(), seq, SeqBelow);
  return it != slots_.end() && it->record.seq == seq && it->live;
}

std::vector<uint64_t> RecoveryLog::PendingSeqs() const {
  std::vector<uint64_t> seqs;
  seqs.reserve(live_);
  ForEach([&seqs](const LogRecord& rec) { seqs.push_back(rec.seq); });
  return seqs;
}

std::vector<std::pair<uint64_t, int>> RecoveryLog::PendingConsumers() const {
  std::vector<std::pair<uint64_t, int>> pairs;
  pairs.reserve(live_);
  ForEach([&pairs](const LogRecord& rec) {
    pairs.emplace_back(rec.seq, rec.consumer);
  });
  return pairs;
}

bool AckBatcher::Add(uint64_t seq) {
  pending_.push_back(seq);
  return pending_.size() >= interval_;
}

std::vector<uint64_t> AckBatcher::Drain() {
  std::vector<uint64_t> out;
  out.swap(pending_);
  return out;
}

void AckBatcher::Remove(uint64_t seq) {
  pending_.erase(std::remove(pending_.begin(), pending_.end(), seq),
                 pending_.end());
}

}  // namespace gqp
