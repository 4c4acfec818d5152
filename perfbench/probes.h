// Layer probes: a fixed sequence of calls to one layer's public functions,
// with inputs shaped like the workloads, timed on the host and reported
// per unit of work. Operators are driven through ProcessBatch only.

#ifndef GRIDQP_PERFBENCH_PROBES_H_
#define GRIDQP_PERFBENCH_PROBES_H_

#include <functional>
#include <string>
#include <vector>

namespace perfbench {

struct ProbeResult {
  /// Metric name ("exec.probe_join_ns_per_row").
  std::string name;
  std::string unit;
  /// Host time per unit of work, normalized to the nominal host.
  double value = 0.0;
};

/// Runs every probe. `ref_ms` times the reference kernel once; each probe
/// is repeated and normalized by the reference time measured next to it.
std::vector<ProbeResult> RunProbes(const std::function<double()>& ref_ms);

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_PROBES_H_
