// Work-count guard for the engine's hot loops: heap allocations must not
// grow with the number of events or rows. Each case runs the same loop at
// N and at 10·N and bounds the difference, so a reintroduced per-event or
// per-row allocation (thousands more at 10·N) fails on any host, while
// amortized container growth (a few doublings) passes. Exact counts are
// not pinned: they vary across standard library versions.
//
// This binary replaces the global operator new/delete with a counting
// pair, so it must stay a binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <utility>
#include <vector>

#include "exec/distribution_policy.h"
#include "exec/operators.h"
#include "ft/recovery_log.h"
#include "sim/simulator.h"
#include "storage/datagen.h"
#include "storage/tuple_batch.h"

namespace {

std::atomic<int64_t> g_allocations{0};

/// Counts one allocation; nullptr on failure.
void* Allocate(std::size_t size, std::size_t align = 0) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size == 0) size = 1;
  // aligned_alloc requires the size to be a multiple of the alignment.
  return align == 0 ? std::malloc(size)
                    : std::aligned_alloc(align,
                                         (size + align - 1) / align * align);
}

void* AllocateOrThrow(std::size_t size, std::size_t align = 0) {
  void* p = Allocate(size, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

// Every form is replaced, deletes included, so that sanitizer runtimes see
// matching malloc/free pairs.
void* operator new(std::size_t n) { return AllocateOrThrow(n); }
void* operator new[](std::size_t n) { return AllocateOrThrow(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return AllocateOrThrow(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return Allocate(n);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace gqp {
namespace {

int64_t Allocations() { return g_allocations.load(); }

/// Fails unless `at_10n` (allocations at 10·N) exceeds `at_n` (at N) by
/// at most a handful of container doublings per table.
void ExpectFlat(const char* what, int64_t at_n, int64_t at_10n) {
  constexpr int64_t kSlack = 64;
  EXPECT_LE(at_10n - at_n, kSlack)
      << what << ": " << at_n << " allocations at N, " << at_10n
      << " at 10N";
}

// One self-rescheduling chain whose every firing also arms and cancels a
// timer: the reliable transport's retransmit pattern.
struct ChainFn {
  Simulator* sim;
  uint64_t* fired;
  uint64_t target;
  double period;

  void operator()() const {
    ++*fired;
    sim->Cancel(sim->Schedule(3 * period, [] {}));
    if (*fired < target) sim->Schedule(period, *this);
  }
};

int64_t KernelAllocations(uint64_t events) {
  const int64_t before = Allocations();
  Simulator sim;
  uint64_t fired = 0;
  for (int i = 0; i < 64; ++i) {  // staggered periods mix the heap
    const double period = 1.0 + 0.1 * i;
    sim.Schedule(period, ChainFn{&sim, &fired, events, period});
  }
  sim.RunToCompletion();
  EXPECT_GE(fired, events);
  return Allocations() - before;
}

TEST(WorkCountTest, KernelScheduleFireAndCancel) {
  ExpectFlat("kernel events", KernelAllocations(10'000),
             KernelAllocations(100'000));
}

/// Allocations of `rows` build rows (two per key, four buckets) and of
/// `rows` probes (about half of them hits) stepped through the join one
/// row at a time, the executor's default batch size. Inputs are made
/// before counting; each step's output is dropped before the next.
std::pair<int64_t, int64_t> JoinAllocations(int64_t rows) {
  PhysOpDesc desc;
  desc.kind = PhysOpKind::kHashJoin;
  desc.out_schema = MakeSchema({{"k", DataType::kInt64},
                                {"v", DataType::kInt64},
                                {"k2", DataType::kInt64}});
  desc.cost_tag = "join";
  const SchemaPtr build_schema =
      MakeSchema({{"k", DataType::kInt64}, {"v", DataType::kInt64}});
  const SchemaPtr probe_schema = MakeSchema({{"k", DataType::kInt64}});
  std::vector<Tuple> inputs[2];
  for (int64_t i = 0; i < rows; ++i) {
    inputs[0].emplace_back(build_schema,
                           std::vector<Value>{Value(i / 2), Value(i)});
    inputs[1].emplace_back(probe_schema,
                           std::vector<Value>{Value(i * 7919 % rows)});
  }
  std::unique_ptr<PhysicalOperator> op = MakeOperator(desc).TakeValue();
  ExecContext ctx;
  TupleBatch in;
  TupleBatch out;
  int64_t counts[2];
  size_t matches = 0;
  for (int port = 0; port < 2; ++port) {
    const int64_t before = Allocations();
    for (const Tuple& t : inputs[port]) {
      in.Clear();
      out.Clear();
      in.Append(t, static_cast<int>(t.at(0).AsInt64() % 4), 0);
      ctx.ResetForBatch(1);
      EXPECT_TRUE(op->ProcessBatch(port, &in, &out, &ctx).ok());
      matches += out.size();
    }
    in.Clear();
    out.Clear();
    counts[port] = Allocations() - before;
  }
  EXPECT_EQ(matches, static_cast<size_t>(rows));
  return {counts[0], counts[1]};
}

TEST(WorkCountTest, JoinBuildAndProbeAtBatchOne) {
  const auto [build_n, probe_n] = JoinAllocations(2'000);
  const auto [build_10n, probe_10n] = JoinAllocations(20'000);
  ExpectFlat("join build rows", build_n, build_10n);
  ExpectFlat("join probe rows", probe_n, probe_10n);
}

int64_t RouteAllocations(size_t rows) {
  ExchangeDesc desc;
  desc.policy = PolicyKind::kHashBuckets;
  desc.key_col = 0;
  desc.num_buckets = 120;
  std::unique_ptr<DistributionPolicy> policy =
      MakePolicy(desc, {0.5, 0.3, 0.2}).TakeValue();
  const SchemaPtr schema = MakeSchema({{"orf", DataType::kString}});
  std::vector<Tuple> tuples;
  for (size_t i = 0; i < 512; ++i) {
    tuples.emplace_back(schema, std::vector<Value>{Value(OrfKey(i))});
  }
  const int64_t before = Allocations();
  for (size_t i = 0; i < rows; ++i) {
    int bucket = -1;
    const int consumer = policy->Route(tuples[i % tuples.size()], &bucket);
    if (consumer < 0 || bucket < 0) ADD_FAILURE() << "unrouted row " << i;
  }
  return Allocations() - before;
}

TEST(WorkCountTest, HashBucketRouting) {
  ExpectFlat("hash-bucket routes", RouteAllocations(10'000),
             RouteAllocations(100'000));
}

int64_t LogAllocations(uint64_t records) {
  const Tuple t(MakeSchema({{"x", DataType::kInt64}}),
                std::vector<Value>{Value(int64_t{42})});
  const int64_t before = Allocations();
  RecoveryLog log;
  for (uint64_t s = 1; s <= records; ++s) {
    log.Append(LogRecord{s, static_cast<int>(s % 120), 0, t});
  }
  for (uint64_t s = 1; s <= records; ++s) log.Ack(s);
  EXPECT_TRUE(log.empty());
  return Allocations() - before;
}

TEST(WorkCountTest, RecoveryLogAppendAndAck) {
  ExpectFlat("recovery-log append+ack pairs", LogAllocations(1'000),
             LogAllocations(10'000));
}

}  // namespace
}  // namespace gqp
