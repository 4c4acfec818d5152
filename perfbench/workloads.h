// The benchmark's three workloads. Each drives the stack through its
// stable top-level entry points (RunExperiment, chaos::RunScenario,
// WorkloadDriver over a GridSetup) and can also assemble the same item from
// the layers' public calls with a span around each, for the traced run.

#ifndef GRIDQP_PERFBENCH_WORKLOADS_H_
#define GRIDQP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"
#include "spans.h"
#include "workload/driver.h"

namespace perfbench {

/// What one item produced, as checked by its oracle.
struct ItemSummary {
  bool ok = false;
  /// Oracle failure, empty when ok.
  std::string error;
  /// Simulated events executed; 0 when the entry point does not expose it.
  uint64_t events = 0;
  /// Traced runs: events executed inside the "sim.run" spans.
  uint64_t sim_run_events = 0;
  /// Virtual response times (ms) of the completed, admitted queries.
  std::vector<double> responses;
  uint64_t submitted = 0;
  uint64_t rejected = 0;
  /// Exact per-layer work counts read from public stats ("net.messages").
  std::map<std::string, uint64_t> counts;
};

/// True when both summaries hold the same virtual response times, bit for
/// bit.
bool SameResponses(const ItemSummary& a, const ItemSummary& b);

class Workload {
 public:
  virtual ~Workload() = default;

  /// Items of one mix cycle. Runs time whole cycles, so every run times
  /// the same mix of item kinds.
  virtual size_t cycle() const = 0;
  /// Items of the fixed measured set (a multiple of cycle(), at least
  /// 100). Exact metrics are computed over exactly these items.
  virtual size_t num_items() const = 0;
  /// Items of the fixed set whose per-layer counts the traced run reports
  /// (a multiple of cycle(), at most num_items()).
  virtual size_t traced_items() const = 0;

  /// Generates the inputs of items [0, num_items()) from the run seed, and
  /// the warm-up item at index num_items(), outside the measured set.
  virtual void Generate(uint64_t seed) = 0;

  /// Runs item i through the workload's entry point. Timed by the caller;
  /// keeps the raw outputs for Check().
  virtual void Run(size_t i) = 0;

  /// Checks the outputs of the last Run(i) and summarizes them. Untimed.
  /// With `exact`, also counts the item's simulated events when the entry
  /// point does not report them (the caller asks for the items of the
  /// first cycle).
  virtual ItemSummary Check(size_t i, bool exact) = 0;

  /// Runs item i assembled from the layers' public calls, recording a
  /// span around each call, and checks it like Check(). The root span is
  /// "bench.item".
  virtual ItemSummary RunTraced(size_t i, SpanRecorder* spans) = 0;
};

/// "paper_cells", "chaos_faults" or "tenant_storm"; null for other names.
std::unique_ptr<Workload> MakeWorkload(const std::string& name);

/// tenant_storm's traffic: the driver configuration of the storm with
/// `seed` at `rate_qps` arrivals per tenant per simulated second.
gqp::DriverConfig StormConfig(uint64_t seed, double rate_qps);

/// Runs one storm on a fresh tenant_storm grid, as a tenant_storm item
/// does; `events` receives the simulated events it executed.
gqp::Status RunStorm(const gqp::DriverConfig& config,
                     gqp::DriverReport* report, uint64_t* events);

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_WORKLOADS_H_
