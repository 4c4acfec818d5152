#include "grid/node.h"

#include <cassert>
#include <utility>

namespace gqp {

GridNode::GridNode(Simulator* sim, HostId id, std::string name,
                   double capacity)
    : sim_(sim), id_(id), name_(std::move(name)), capacity_(capacity) {
  assert(capacity > 0.0);
}

void GridNode::SetPerturbation(std::string_view tag,
                               PerturbationPtr profile) {
  // Heterogeneous operator[] is unavailable: find-or-emplace by hand.
  auto it = tag_perturbations_.find(tag);
  if (it == tag_perturbations_.end()) {
    tag_perturbations_.emplace(std::string(tag), std::move(profile));
  } else {
    it->second = std::move(profile);
  }
}

void GridNode::SetNodePerturbation(PerturbationPtr profile) {
  node_perturbation_ = std::move(profile);
}

void GridNode::ClearPerturbations() {
  tag_perturbations_.clear();
  node_perturbation_.reset();
}

double GridNode::EffectiveCost(std::string_view tag, double base_cost_ms) {
  double cost = base_cost_ms / capacity_;
  auto it = tag_perturbations_.find(tag);
  if (it != tag_perturbations_.end() && it->second != nullptr) {
    cost = it->second->Apply(cost, sim_->Now());
  }
  if (node_perturbation_ != nullptr) {
    cost = node_perturbation_->Apply(cost, sim_->Now());
  }
  return cost;
}

void GridNode::SubmitWork(std::string_view tag, double base_cost_ms,
                          std::function<void()> done) {
  SubmitComposite({{tag, base_cost_ms, 1}},
                  [done = std::move(done)](double) {
                    if (done) done();
                  });
}

void GridNode::SubmitComposite(
    std::vector<ChargePart> parts,
    std::function<void(double)> done) {
  if (dead_) return;
  queue_.push_back(WorkItem{std::move(parts), std::move(done)});
  if (!running_) StartNext();
}

void GridNode::Kill() {
  dead_ = true;
  queue_.clear();
}

void GridNode::StartNext() {
  if (queue_.empty()) {
    running_ = false;
    return;
  }
  running_ = true;
  WorkItem item = std::move(queue_.front());
  queue_.pop_front();

  double duration = 0.0;
  for (const ChargePart& part : item.parts) {
    auto it = stats_.busy_ms_by_tag.find(part.tag);
    if (it == stats_.busy_ms_by_tag.end()) {
      it = stats_.busy_ms_by_tag.emplace(std::string(part.tag), 0.0).first;
    }
    for (uint64_t i = 0; i < part.count; ++i) {
      const double unit = EffectiveCost(part.tag, part.unit_ms);
      it->second += unit;
      duration += unit;
    }
  }
  ++stats_.work_items;
  stats_.busy_ms += duration;

  sim_->Schedule(duration, [this, duration, done = std::move(item.done)]() {
    if (dead_) return;  // the machine crashed while this work was running
    if (done) done(duration);
    StartNext();
  });
}

}  // namespace gqp
