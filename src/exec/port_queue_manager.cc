#include "exec/port_queue_manager.h"

#include <algorithm>

#include "common/logging.h"
#include "common/strings.h"
#include "monitor/monitoring_events.h"

namespace gqp {

PortQueueManager::PortQueueManager(GridNode* node, Simulator* simulator,
                                   const ExecConfig* config,
                                   const SubplanId& self,
                                   const AdaptivityWiring* adaptivity,
                                   FragmentStats* stats, Hooks hooks)
    : node_(node),
      simulator_(simulator),
      config_(config),
      self_(self),
      adaptivity_(adaptivity),
      stats_(stats),
      hooks_(std::move(hooks)) {}

void PortQueueManager::AddPort(int num_producers) {
  Port port;
  port.num_producers = num_producers;
  ports_.push_back(std::move(port));
}

void PortQueueManager::RegisterProducer(int port, const std::string& key,
                                        const Address& address,
                                        int exchange_id) {
  Port& p = ports_[static_cast<size_t>(port)];
  auto it = p.producers.find(key);
  if (it == p.producers.end()) {
    Producer producer;
    producer.address = address;
    producer.exchange_id = exchange_id;
    p.producers.emplace(key, std::move(producer));
  }
}

size_t PortQueueManager::CreditGrantThreshold() const {
  const double t = static_cast<double>(config_->credit_window_bytes) *
                   config_->credit_grant_fraction;
  return t < 1.0 ? 1 : static_cast<size_t>(t);
}

void PortQueueManager::EnqueueBatch(int port_idx, const std::string& key,
                                    const TupleBatchPayload& batch) {
  Port& port = ports_[static_cast<size_t>(port_idx)];
  Producer& producer = port.producers.at(key);
  const bool fc = flow_control_on();
  for (const RoutedTuple& rt : batch.tuples()) {
    QueuedTuple qt{rt, key, batch.round()};
    // Byte accounting runs with flow control off too (WireSize is
    // memoized): the peaks are what an A/B run compares FC against.
    qt.wire_bytes = RoutedTupleWireBytes(rt.tuple.WireSize());
    if (fc) producer.credit.Hold(qt.wire_bytes);
    port.held_bytes += qt.wire_bytes;
    port.queue.push_back(std::move(qt));
  }
  stats_->queue_high_watermark =
      std::max(stats_->queue_high_watermark, port.queue.size());
  port.peak_held_bytes = std::max(port.peak_held_bytes, port.held_bytes);
  stats_->queued_bytes_peak =
      std::max(stats_->queued_bytes_peak, port.held_bytes);
  if (fc) UpdateQueuePressure(port_idx);
  node_->SubmitWork(kExchangeTag,
                    config_->consumer_enqueue_cost_ms *
                        static_cast<double>(batch.tuples().size()),
                    nullptr);
}

bool PortQueueManager::QueueEmpty(int port) const {
  return ports_[static_cast<size_t>(port)].queue.empty();
}

int PortQueueManager::PickRunnablePort(
    const std::function<bool(int port)>& eos_complete) const {
  for (size_t p = 0; p < ports_.size(); ++p) {
    if (ports_[p].queue.empty()) continue;
    bool runnable = true;
    for (size_t q = 0; q < p; ++q) {
      if (!eos_complete(static_cast<int>(q)) || !ports_[q].queue.empty()) {
        runnable = false;
        break;
      }
    }
    if (runnable) return static_cast<int>(p);
  }
  return -1;
}

int PortQueueManager::FrontBucket(int port) const {
  return ports_[static_cast<size_t>(port)].queue.front().rt.bucket;
}

QueuedTuple PortQueueManager::PopFront(int port) {
  Port& p = ports_[static_cast<size_t>(port)];
  QueuedTuple qt = std::move(p.queue.front());
  p.queue.pop_front();
  return qt;
}

void PortQueueManager::ParkBlocked(
    int port, const std::function<bool(int bucket)>& blocked) {
  Port& p = ports_[static_cast<size_t>(port)];
  while (!p.queue.empty()) {
    if (!blocked(p.queue.front().rt.bucket)) break;
    p.parked.push_back(std::move(p.queue.front()));
    p.queue.pop_front();
    ++stats_->tuples_parked;
    stats_->parked_peak = std::max(stats_->parked_peak, p.parked.size());
  }
}

void PortQueueManager::Unpark(
    const std::function<bool(int bucket)>& still_blocked) {
  for (Port& port : ports_) {
    auto kept = port.parked.begin();
    for (auto it = port.parked.begin(); it != port.parked.end(); ++it) {
      if (!still_blocked(it->rt.bucket)) {
        port.queue.push_back(std::move(*it));
      } else {
        if (kept != it) *kept = std::move(*it);
        ++kept;
      }
    }
    port.parked.erase(kept, port.parked.end());
  }
}

PortQueueManager::PurgeResult PortQueueManager::Purge(
    int port_idx, const std::string& key, uint64_t round, bool unconditional,
    const std::vector<int>& buckets_lost) {
  Port& port = ports_[static_cast<size_t>(port_idx)];
  PurgeResult result;
  const BucketSet lost(buckets_lost);
  auto purge = [&](std::deque<QueuedTuple>* q) {
    auto kept = q->begin();
    for (auto it = q->begin(); it != q->end(); ++it) {
      const bool mine = it->producer_key == key;
      // Batches stamped with this round (or a later one) were routed
      // under its new map AFTER the producer froze its recall watermark:
      // the producer will never resend them, so purging them here would
      // lose them outright. They slip in when this request's dispatch was
      // deferred behind a slow in-flight tuple.
      const bool in_scope =
          it->round < round &&
          (unconditional || lost.contains(it->rt.bucket));
      if (mine && in_scope) {
        ++result.discarded;
        result.credit_bytes += it->wire_bytes;
        result.seqs.push_back(it->rt.seq);
      } else {
        if (kept != it) *kept = std::move(*it);
        ++kept;
      }
    }
    q->erase(kept, q->end());
  };
  purge(&port.queue);
  purge(&port.parked);
  return result;
}

void PortQueueManager::ReleaseCredit(int port_idx, const std::string& key,
                                     size_t bytes) {
  if (bytes == 0) return;
  Port& port = ports_[static_cast<size_t>(port_idx)];
  port.held_bytes -= std::min<uint64_t>(bytes, port.held_bytes);
  if (!flow_control_on()) return;
  auto it = port.producers.find(key);
  if (it != port.producers.end()) {
    const bool due = it->second.credit.Release(bytes, CreditGrantThreshold());
    // No grants to fenced producers: their link was voided at the
    // producer side, and recovery owns their bytes now.
    if (due && !hooks_.is_lost(port_idx, key)) {
      SendCreditGrant(&it->second);
    }
  }
  UpdateQueuePressure(port_idx);
}

void PortQueueManager::FlushCreditGrants() {
  if (!flow_control_on()) return;
  for (size_t p = 0; p < ports_.size(); ++p) {
    Port& port = ports_[p];
    std::vector<std::string> keys;
    for (const auto& [key, producer] : port.producers) {
      if (producer.credit.pending_grant_bytes > 0 &&
          !hooks_.is_lost(static_cast<int>(p), key)) {
        keys.push_back(key);
      }
    }
    std::sort(keys.begin(), keys.end());
    for (const std::string& key : keys) {
      SendCreditGrant(&port.producers.at(key));
    }
  }
}

void PortQueueManager::SendCreditGrant(Producer* producer) {
  const uint64_t released = producer->credit.TakeGrant();
  auto grant = std::make_shared<CreditGrantPayload>(producer->exchange_id,
                                                    self_, released);
  ++stats_->credit_grants_sent;
  const Address to = producer->address;
  node_->SubmitWork(kExchangeTag, config_->exchange_send_cost_ms,
                    [this, to, grant]() {
                      const Status s = hooks_.send_to(to, grant);
                      if (!s.ok()) {
                        GQP_LOG_WARN << "credit grant send failed: "
                                     << s.ToString();
                      }
                    });
}

void PortQueueManager::UpdateQueuePressure(int port_idx) {
  if (!flow_control_on()) return;
  Port& port = ports_[static_cast<size_t>(port_idx)];
  const double window = static_cast<double>(config_->credit_window_bytes) *
                        static_cast<double>(std::max(port.num_producers, 1));
  const bool over = static_cast<double>(port.held_bytes) >=
                    config_->pressure_fraction * window;
  if (!over) {
    // Relief re-arms the episode detector.
    port.pressure_since = -1.0;
    port.pressure_emitted = false;
    return;
  }
  const SimTime now = simulator_->Now();
  if (port.pressure_since < 0.0) {
    port.pressure_since = now;
    return;
  }
  if (port.pressure_emitted ||
      now - port.pressure_since < config_->pressure_threshold_ms) {
    return;
  }
  port.pressure_emitted = true;
  ++stats_->queue_pressure_events;
  if (adaptivity_->med.host == kInvalidHost) return;
  node_->SubmitWork(kExchangeTag, config_->monitor_emit_cost_ms, nullptr);
  const Status s = hooks_.send_to(
      adaptivity_->med,
      std::make_shared<QueuePressurePayload>(self_, port_idx, port.held_bytes,
                                             static_cast<uint64_t>(window)));
  if (!s.ok()) {
    GQP_LOG_WARN << "QueuePressure emission failed: " << s.ToString();
  }
}

size_t PortQueueManager::queue_size(int port) const {
  return ports_[static_cast<size_t>(port)].queue.size();
}

size_t PortQueueManager::parked_size(int port) const {
  return ports_[static_cast<size_t>(port)].parked.size();
}

size_t PortQueueManager::QueuedTuples(int port) const {
  if (port < 0 || static_cast<size_t>(port) >= ports_.size()) return 0;
  const Port& p = ports_[static_cast<size_t>(port)];
  return p.queue.size() + p.parked.size();
}

uint64_t PortQueueManager::held_bytes(int port) const {
  return ports_[static_cast<size_t>(port)].held_bytes;
}

bool PortQueueManager::AllQueuesEmpty() const {
  for (const Port& port : ports_) {
    if (!port.queue.empty() || !port.parked.empty()) return false;
  }
  return true;
}

}  // namespace gqp
