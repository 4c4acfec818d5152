// GridNode: a simulated grid machine with a single CPU that executes work
// items serially in FIFO order. Work is tagged with an operation name
// (e.g. "ws:EntropyAnalyser", "op:hash_join") so that perturbation profiles
// can target specific operations, exactly as the paper perturbs the WS call
// or the join on one machine.

#ifndef GRIDQP_GRID_NODE_H_
#define GRIDQP_GRID_NODE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/interner.h"
#include "grid/perturbation.h"
#include "net/message.h"
#include "sim/simulator.h"

namespace gqp {

/// One tagged part of a composite work item: `count` units of
/// `unit_ms` each, charged under `tag`. The node applies the effective
/// cost (capacity, perturbations) once per unit, in order, so a part of
/// count k costs exactly what k single-unit parts would — including the
/// paper's per-tuple perturbations (a fixed delay or a random factor per
/// tuple).
struct ChargePart {
  std::string_view tag;
  double unit_ms = 0.0;
  uint64_t count = 1;
};

/// Per-node utilization counters. The tag map accepts string_view lookups
/// (transparent hashing): hot-path charges carry interned views, never
/// temporary strings.
struct NodeStats {
  uint64_t work_items = 0;
  double busy_ms = 0.0;
  /// Perturbed cost charged per operation tag.
  std::unordered_map<std::string, double, StringHash, std::equal_to<>>
      busy_ms_by_tag;
};

/// \brief A simulated machine.
///
/// `capacity` scales all costs: a node with capacity 2.0 executes work in
/// half the base time (heterogeneous grids). Perturbation profiles then
/// apply on top, per operation tag or node-wide.
class GridNode {
 public:
  GridNode(Simulator* sim, HostId id, std::string name, double capacity = 1.0);

  GridNode(const GridNode&) = delete;
  GridNode& operator=(const GridNode&) = delete;

  HostId id() const { return id_; }
  const std::string& name() const { return name_; }
  double capacity() const { return capacity_; }

  /// Installs a perturbation for a specific operation tag on this node.
  void SetPerturbation(std::string_view tag, PerturbationPtr profile);

  /// Installs a node-wide perturbation applied to every work item (after
  /// any tag-specific profile).
  void SetNodePerturbation(PerturbationPtr profile);

  /// Removes all perturbations.
  void ClearPerturbations();

  /// \brief Enqueues a work item.
  ///
  /// The item costs `base_cost_ms` at capacity 1.0 with no perturbation;
  /// the effective duration is computed when execution starts (so
  /// time-varying profiles see the correct virtual time). `done` runs when
  /// the work completes. Work items on a node never overlap.
  ///
  /// The tag is held by view until execution: callers pass literals or
  /// interned tags (InternString), never transient strings.
  void SubmitWork(std::string_view tag, double base_cost_ms,
                  std::function<void()> done);

  /// \brief Enqueues a composite work item made of several tagged parts
  /// (e.g. one batch flowing through a chain of operators, each charging
  /// its own per-row cost).
  ///
  /// Per-tag perturbations apply to each unit of each part; the parts
  /// execute as one uninterruptible unit. `done` receives the total effective duration —
  /// the engine's self-monitoring instrumentation reports it as the
  /// tuple's processing cost. Part tags follow the SubmitWork view
  /// contract (literals or interned).
  void SubmitComposite(std::vector<ChargePart> parts,
                       std::function<void(double actual_ms)> done);

  /// The perturbed, capacity-scaled cost this node would charge for the
  /// given work right now (without enqueueing). Used by tests and by
  /// self-monitoring instrumentation.
  double EffectiveCost(std::string_view tag, double base_cost_ms);

  /// True if the CPU is idle and no work is queued.
  bool Idle() const { return !running_ && queue_.empty(); }

  /// Simulates a machine crash: queued work is dropped and completion
  /// callbacks of in-flight work are suppressed; subsequent submissions
  /// are ignored.
  void Kill();
  bool dead() const { return dead_; }

  size_t queue_length() const { return queue_.size(); }
  const NodeStats& stats() const { return stats_; }
  Simulator* simulator() const { return sim_; }

 private:
  struct WorkItem {
    std::vector<ChargePart> parts;
    std::function<void(double)> done;
  };

  void StartNext();

  Simulator* sim_;
  HostId id_;
  std::string name_;
  double capacity_;
  bool running_ = false;
  bool dead_ = false;
  std::deque<WorkItem> queue_;
  std::unordered_map<std::string, PerturbationPtr, StringHash,
                     std::equal_to<>>
      tag_perturbations_;
  PerturbationPtr node_perturbation_;
  NodeStats stats_;
};

}  // namespace gqp

#endif  // GRIDQP_GRID_NODE_H_
