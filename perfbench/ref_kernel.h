// Host-speed reference kernel. Host time on a shared VM drifts by tens of
// percent between runs of the same binary; timing a fixed,
// program-independent kernel before each measured item and rescaling the
// run's host times by its median timing removes about half to three
// quarters of that drift. The kernel mixes a sort with an open-addressing
// hash-table build and probe, which slows down with the same host effects
// (cache pressure, branchy integer code) as the GridQP data and control
// planes; a pure memory-latency chase tracks them less well.

#ifndef GRIDQP_PERFBENCH_REF_KERNEL_H_
#define GRIDQP_PERFBENCH_REF_KERNEL_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Reference kernel time of the nominal host, in ms. Normalized time is
/// host time * kNominalRefMs / (reference time measured next to it).
inline constexpr double kNominalRefMs = 1.5;

class RefKernel {
 public:
  /// Allocates and fills every buffer; RunMs() allocates nothing.
  RefKernel();

  /// Runs the kernel once and returns its host time in ms. Aborts if the
  /// result differs from the first run's (the work was not all done).
  double RunMs();

 private:
  uint64_t RunOnce();

  std::vector<uint64_t> source_;
  std::vector<uint64_t> work_;
  std::vector<uint64_t> table_;
  uint64_t checksum_ = 0;
};

/// Median of a sample (the sample is reordered); 0 for an empty sample.
double Median(std::vector<double> v);

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_REF_KERNEL_H_
