#include "exec/state_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/operator_driver.h"
#include "exec/port_queue_manager.h"

namespace gqp {

namespace {

/// Adds `seq` to an ascending, duplicate-free list. Seqs mostly arrive in
/// order (an append); a resent tuple lands in the middle.
void InsertSorted(std::vector<uint64_t>* seqs, uint64_t seq) {
  if (seqs->empty() || seqs->back() < seq) {
    seqs->push_back(seq);
    return;
  }
  const auto it = std::lower_bound(seqs->begin(), seqs->end(), seq);
  if (*it != seq) seqs->insert(it, seq);
}

}  // namespace

StateManager::StateManager(GridNode* node, const ExecConfig* config,
                           const SubplanId& self, FragmentStats* stats,
                           Hooks hooks)
    : node_(node),
      config_(config),
      self_(self),
      stats_(stats),
      hooks_(std::move(hooks)) {}

StateManager::~StateManager() = default;

void StateManager::AddPort() { ports_.emplace_back(); }

void StateManager::RegisterProducer(int port, const std::string& key,
                                    const Address& address, int exchange_id) {
  auto& producers = ports_[static_cast<size_t>(port)];
  auto it = producers.find(key);
  if (it == producers.end()) {
    Entry entry;
    entry.address = address;
    entry.acks = std::make_unique<AckBatcher>(config_->checkpoint_interval);
    entry.exchange_id = exchange_id;
    producers.emplace(key, std::move(entry));
  }
}

void StateManager::RecordProcessed(int port, const std::string& key,
                                   uint64_t seq, int bucket, bool retained,
                                   const std::vector<uint64_t>& output_seqs,
                                   bool has_producer, bool finished) {
  auto& producers = ports_[static_cast<size_t>(port)];
  auto it = producers.find(key);
  if (it == producers.end()) return;
  if (retained) {
    it->second.retained_unacked.push_back(Entry::RetainedInput{seq, bucket});
    return;
  }
  InsertSorted(&it->second.processed, seq);
  if (output_seqs.empty() || !has_producer) {
    AckInput(port, key, seq, finished);
    return;
  }
  auto pending = std::make_shared<PendingInput>();
  pending->port = port;
  pending->producer_key = key;
  pending->seq = seq;
  pending->remaining_outputs = output_seqs.size();
  for (const uint64_t out_seq : output_seqs) {
    output_to_input_.emplace(out_seq, pending);
  }
}

void StateManager::AckInput(int port, const std::string& key, uint64_t seq,
                            bool finished) {
  auto& producers = ports_[static_cast<size_t>(port)];
  auto it = producers.find(key);
  if (it == producers.end()) return;
  const bool checkpoint_due = it->second.acks->Add(seq);
  // After the fragment finished, acknowledgments no longer batch: late
  // cascading acks (outputs confirmed downstream after our completion)
  // must still reach the producer, or its recovery log never drains.
  if (checkpoint_due || finished) {
    FlushAcks(port, key, /*force=*/finished);
  }
}

void StateManager::OnOutputsAcked(const std::vector<uint64_t>& seqs,
                                  bool finished) {
  for (const uint64_t out_seq : seqs) {
    auto it = output_to_input_.find(out_seq);
    if (it == output_to_input_.end()) continue;
    const std::shared_ptr<PendingInput> pending = it->second;
    output_to_input_.erase(it);
    if (pending->remaining_outputs == 0) continue;  // defensive
    if (--pending->remaining_outputs == 0) {
      AckInput(pending->port, pending->producer_key, pending->seq, finished);
    }
  }
}

void StateManager::AckAllRetained() {
  for (size_t p = 0; p < ports_.size(); ++p) {
    std::vector<std::string> keys;
    for (const auto& [key, entry] : ports_[p]) {
      if (!entry.retained_unacked.empty()) keys.push_back(key);
    }
    for (const std::string& key : keys) {
      Entry& entry = ports_[p].at(key);
      for (const Entry::RetainedInput& r : entry.retained_unacked) {
        entry.acks->Add(r.seq);
      }
      entry.retained_unacked.clear();
      FlushAcks(static_cast<int>(p), key, /*force=*/true);
    }
  }
}

void StateManager::FlushAcks(int port, const std::string& key, bool force) {
  auto& producers = ports_[static_cast<size_t>(port)];
  auto it = producers.find(key);
  if (it == producers.end()) return;
  Entry& entry = it->second;
  if (!force && entry.acks->pending() < config_->checkpoint_interval) {
    return;
  }
  std::vector<uint64_t> seqs = entry.acks->Drain();
  if (seqs.empty()) return;
  auto ack = std::make_shared<AckPayload>(entry.exchange_id, self_,
                                          std::move(seqs));
  ++stats_->acks_sent;
  const Address to = entry.address;
  node_->SubmitWork(kExchangeTag, config_->exchange_send_cost_ms,
                    [this, to, ack]() {
                      const Status s = hooks_.send_to(to, ack);
                      if (!s.ok()) hooks_.fail(s);
                    });
}

void StateManager::FlushAllAcks() {
  for (size_t p = 0; p < ports_.size(); ++p) {
    std::vector<std::string> keys;
    for (const auto& [key, entry] : ports_[p]) {
      keys.push_back(key);
    }
    for (const std::string& key : keys) {
      FlushAcks(static_cast<int>(p), key, /*force=*/true);
    }
  }
}

void StateManager::ApplyStateMove(const StateMoveRequestPayload& request,
                                  const std::string& key, const Address& from,
                                  bool stateful, PortQueueManager* queues,
                                  OperatorDriver* driver) {
  // Coordinator-epoch fence (D14): a round initiated under a deposed
  // coordinator must not purge queues or freeze state — the standby's
  // reconciliation owns this query now.
  if (epoch_guard_ != nullptr &&
      !epoch_guard_->Admit(request.coordinator_epoch())) {
    return;
  }
  const int port = request.consumer_port();
  // The round stays open (and the fragment unfinishable) until the
  // producer's RestoreComplete marker arrives behind any resent tuples.
  OpenRound(key, request.round());

  // 1. Purge unprocessed queued/parked tuples of this producer in scope.
  const PortQueueManager::PurgeResult purged =
      queues->Purge(port, key, request.round(),
                    request.purge_all() || request.recovery(),
                    request.buckets_lost());
  // Purged tuples release their credit: the producer's recovery resend
  // re-charges whichever link the new routing map picks.
  queues->ReleaseCredit(port, key, purged.credit_bytes);
  if (purged.discarded > 0) {
    GQP_LOG_DEBUG << "fragment " << self_.ToString() << " round "
                  << request.round() << ": discarded "
                  << StrJoin(purged.seqs, " ") << " from " << key
                  << " (producer will resend)";
  }
  stats_->tuples_discarded_in_moves += purged.discarded;
  if (purged.discarded > 0) {
    node_->SubmitWork(kExchangeTag,
                      config_->consumer_discard_cost_ms *
                          static_cast<double>(purged.discarded),
                      nullptr);
  }

  // 2. Stateful fragments: port 0 carries build state.
  if (stateful && port == 0) {
    if (request.recovery()) {
      // The recovery purge above discarded queued build tuples of every
      // bucket, kept ones included. Probe processing must pause entirely
      // until this producer's resends land (RestoreComplete), or probes
      // would run against incomplete state and silently drop matches.
      BeginBuildRecovery(key, request.round());
    }
    if (!request.buckets_lost().empty()) {
      driver->PurgeBuckets(request.buckets_lost());
      // Probe tuples of lost buckets must not run against the now-missing
      // state; they stay parked until the probe-side purge removes them.
      for (const int b : request.buckets_lost()) Freeze(b);
      PruneRetained(port, key, request.buckets_lost());
    }
    for (const int b : request.buckets_gained()) AwaitRestore(b);
  }
  if (stateful && port != 0 && !request.buckets_lost().empty()) {
    // The probe-side purge arrived: those buckets can thaw.
    for (const int b : request.buckets_lost()) Thaw(b);
  }

  // 3. Reply with everything this consumer holds — processed seqs (its
  // outputs carry their results while it lives) plus retained
  // (state-resident) seqs of buckets it keeps — so nothing it already
  // has is resent and duplicated.
  if (request.purge_all() || request.recovery() ||
      !request.buckets_lost().empty()) {
    std::vector<uint64_t> processed;
    std::vector<uint64_t> retained;
    BuildReply(port, key, request.buckets_lost(), &processed, &retained);
    auto reply = std::make_shared<StateMoveReplyPayload>(
        request.round(), request.exchange_id(), self_, std::move(processed),
        std::move(retained), purged.discarded);
    node_->SubmitWork(kExchangeTag, config_->exchange_send_cost_ms,
                      [this, from, reply]() {
                        const Status s = hooks_.send_to(from, reply);
                        if (!s.ok()) hooks_.fail(s);
                      });
  }
}

void StateManager::ApplyRestoreComplete(const RestoreCompletePayload& restore,
                                        const std::string& key, bool stateful,
                                        PortQueueManager* queues) {
  CloseRound(key, restore.round());
  if (restore.consumer_port() != 0 || !stateful) return;
  EndBuildRecovery(key, restore.round());
  if (restore.all_buckets()) {
    ClearAwaitingRestore();
  } else {
    for (const int b : restore.buckets()) RestoreBucket(b);
  }
  // Unpark probe tuples whose buckets are clear again (none while a
  // build-side recovery round is still restoring state).
  if (build_recovery_empty()) {
    queues->Unpark([this](int bucket) {
      return AwaitingRestore(bucket) || Frozen(bucket);
    });
  }
}

void StateManager::OpenRound(const std::string& key, uint64_t round) {
  open_state_rounds_[key].insert(round);
}

void StateManager::CloseRound(const std::string& key, uint64_t round) {
  auto it = open_state_rounds_.find(key);
  if (it != open_state_rounds_.end()) {
    it->second.erase(round);
    if (it->second.empty()) open_state_rounds_.erase(it);
  }
}

void StateManager::AbandonProducer(const std::string& key) {
  open_state_rounds_.erase(key);
  for (auto it = build_recovery_rounds_.begin();
       it != build_recovery_rounds_.end();) {
    it = it->first == key ? build_recovery_rounds_.erase(it) : std::next(it);
  }
}

void StateManager::BeginBuildRecovery(const std::string& key,
                                      uint64_t round) {
  build_recovery_rounds_.insert({key, round});
}

void StateManager::EndBuildRecovery(const std::string& key, uint64_t round) {
  build_recovery_rounds_.erase({key, round});
}

void StateManager::PruneRetained(int port, const std::string& key,
                                 const std::vector<int>& buckets_lost) {
  auto& producers = ports_[static_cast<size_t>(port)];
  auto it = producers.find(key);
  if (it == producers.end()) return;
  auto& retained = it->second.retained_unacked;
  const BucketSet lost(buckets_lost);
  retained.erase(std::remove_if(retained.begin(), retained.end(),
                                [&lost](const Entry::RetainedInput& r) {
                                  return lost.contains(r.bucket);
                                }),
                 retained.end());
}

void StateManager::BuildReply(int port, const std::string& key,
                              const std::vector<int>& buckets_lost,
                              std::vector<uint64_t>* processed,
                              std::vector<uint64_t>* retained) const {
  const auto& producers = ports_[static_cast<size_t>(port)];
  auto it = producers.find(key);
  if (it == producers.end()) return;
  *processed = it->second.processed;
  const BucketSet lost(buckets_lost);
  for (const Entry::RetainedInput& r : it->second.retained_unacked) {
    if (!lost.contains(r.bucket)) {
      retained->push_back(r.seq);
    }
  }
  std::sort(retained->begin(), retained->end());
}

std::unordered_map<std::string, std::vector<uint64_t>>
StateManager::ProcessedSeqs(int port) const {
  std::unordered_map<std::string, std::vector<uint64_t>> out;
  if (port < 0 || static_cast<size_t>(port) >= ports_.size()) return out;
  for (const auto& [key, entry] : ports_[static_cast<size_t>(port)]) {
    out[key] = entry.processed;
  }
  return out;
}

size_t StateManager::AcksPendingTotal(int port) const {
  size_t acks_pending = 0;
  for (const auto& [key, entry] : ports_[static_cast<size_t>(port)]) {
    acks_pending += entry.acks->pending();
    acks_pending += entry.retained_unacked.size();
  }
  return acks_pending;
}

std::string StateManager::DebugSuffix() const {
  std::string out;
  if (!open_state_rounds_.empty()) {
    out += " open_rounds={";
    bool first = true;
    for (const auto& [key, rounds] : open_state_rounds_) {
      if (!first) out += " ";
      first = false;
      out += StrCat(key, ":", rounds.size());
    }
    out += "}";
  }
  if (!awaiting_restore_.empty()) {
    out += StrCat(" awaiting_restore=", awaiting_restore_.size());
  }
  if (!frozen_lost_.empty()) out += StrCat(" frozen=", frozen_lost_.size());
  return out;
}

}  // namespace gqp
