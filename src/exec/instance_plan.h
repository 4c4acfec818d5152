// Deployment-time description of one fragment instance plus its runtime
// counters. Shared by the executor components (ingress, port queues,
// state manager, operator driver, egress) so none of them needs the
// FragmentExecutor header.

#ifndef GRIDQP_EXEC_INSTANCE_PLAN_H_
#define GRIDQP_EXEC_INSTANCE_PLAN_H_

#include <algorithm>
#include <bitset>
#include <cstdint>
#include <optional>
#include <string_view>
#include <vector>

#include "exec/exchange_producer.h"
#include "exec/exec_config.h"
#include "net/message.h"
#include "plan/physical_plan.h"
#include "storage/table.h"

namespace gqp {

/// Work-item tag every exchange-machinery CPU charge runs under.
inline constexpr std::string_view kExchangeTag = "op:exchange";

/// Membership test over a bucket list (a state move's lost buckets),
/// built once per call so each per-entry check is a bit test instead of
/// a scan of the list. Accepts lists in any order and with duplicates.
/// Ids in [0, kBits) — every bucket of a plan with up to kBits buckets —
/// live in an inline bitmap (no allocation); other ids fall back to
/// scanning the list.
class BucketSet {
 public:
  explicit BucketSet(const std::vector<int>& buckets) : list_(buckets) {
    for (const int b : buckets) {
      if (InRange(b)) bits_.set(static_cast<size_t>(b));
    }
  }

  bool contains(int bucket) const {
    if (InRange(bucket)) return bits_.test(static_cast<size_t>(bucket));
    return std::find(list_.begin(), list_.end(), bucket) != list_.end();
  }

 private:
  static constexpr int kBits = 1024;
  static bool InRange(int bucket) { return bucket >= 0 && bucket < kBits; }

  const std::vector<int>& list_;
  std::bitset<kBits> bits_;
};

/// Wiring of one input port.
struct InputWiring {
  ExchangeDesc desc;
  int num_producers = 1;
};

/// Adaptivity wiring of a fragment instance.
struct AdaptivityWiring {
  bool enabled = false;
  /// Local MonitoringEventDetector receiving raw M1/M2 events.
  Address med;
  /// The query's Responder (state-move outcomes + completion handshake).
  Address responder;
};

/// Everything a GQES needs to instantiate one fragment instance.
struct FragmentInstancePlan {
  SubplanId id;
  FragmentDesc fragment;
  std::vector<InputWiring> inputs;
  std::optional<OutputWiring> output;
  ExecConfig config;
  AdaptivityWiring adaptivity;
  /// Coordinator (GDQS) endpoint for completion notifications.
  Address coordinator;
  /// Coordinator epoch the deployment belongs to (D14): the instance's
  /// fence starts here, and commands from older epochs are dropped. 0 is
  /// the pre-failover epoch every legacy deployment carries.
  uint64_t coordinator_epoch = 0;
};

/// Deployment-time sanity checks shared by Prepare().
inline Status ValidateInstancePlan(const FragmentInstancePlan& plan,
                                   const Table* scan_table) {
  if (plan.fragment.ops.empty()) {
    return Status::InvalidArgument("fragment has no operators");
  }
  const bool is_scan = plan.fragment.IsScanLeaf();
  if (is_scan && scan_table == nullptr) {
    return Status::FailedPrecondition("no local table for scan fragment " +
                                      plan.fragment.ops.front().table);
  }
  if (!is_scan && static_cast<int>(plan.inputs.size()) !=
                      plan.fragment.num_input_ports) {
    return Status::InvalidArgument("input wiring/port count mismatch");
  }
  return Status::OK();
}

/// Per-instance execution counters.
struct FragmentStats {
  /// Tuples delivered by upstream exchanges (includes resends).
  uint64_t tuples_received = 0;
  /// Tuples rejected because their producer was fenced: it was reported
  /// failed (possibly a false suspicion) and recovery reassigned its
  /// work, so late output from it must not contribute twice.
  uint64_t tuples_fenced = 0;
  uint64_t tuples_processed = 0;
  uint64_t tuples_emitted = 0;
  uint64_t tuples_discarded_in_moves = 0;
  uint64_t tuples_parked = 0;
  uint64_t m1_sent = 0;
  uint64_t m2_sent = 0;
  uint64_t acks_sent = 0;
  double busy_ms = 0.0;
  double idle_wait_ms = 0.0;
  size_t queue_high_watermark = 0;
  /// Peak number of tuples parked at once across all ports.
  size_t parked_peak = 0;
  // --- flow control (D11); all zero with it off -------------------------
  /// Peak bytes held (queued + parked) on any single input port.
  uint64_t queued_bytes_peak = 0;
  uint64_t credit_grants_sent = 0;
  uint64_t queue_pressure_events = 0;
};

}  // namespace gqp

#endif  // GRIDQP_EXEC_INSTANCE_PLAN_H_
