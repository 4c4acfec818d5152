// Counts heap allocations made through the global operator new of this
// binary (the GridQP libraries are linked statically, so their allocations
// are counted too). Deterministic code makes the same allocations for the
// same input, so per-item deltas are exact work counts.

#ifndef GRIDQP_PERFBENCH_ALLOC_COUNTER_H_
#define GRIDQP_PERFBENCH_ALLOC_COUNTER_H_

#include <cstdint>

namespace perfbench {

/// Allocations made through any operator new since process start.
uint64_t AllocationCount();

}  // namespace perfbench

#endif  // GRIDQP_PERFBENCH_ALLOC_COUNTER_H_
