// GridQP benchmark: one single-threaded process that drives one workload
// for a fixed host-time budget and prints its metrics as one JSON line.
//
//   perfbench --workload paper_cells --seed 1 --seconds 10 --trace 0
//
// --trace 0 reports the end-to-end metrics: host-normalized throughput and
// per-item latency, set-up time, peak memory, and exact work counts
// (simulated events, heap allocations, virtual response times, admitted
// share). --trace 1 instead reports per-layer metrics: span self times of
// the same items assembled from the layers' public calls, exact per-layer
// counts, layer probes and the tracing overhead.
//
// Every host time is normalized: a fixed reference kernel is timed before
// each item and the run's host times are rescaled by the median of those
// timings to the nominal host speed (ref_kernel.h). Raw wall-clock figures
// are kept only as context.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "alloc_counter.h"
#include "common/strings.h"
#include "probes.h"
#include "ref_kernel.h"
#include "spans.h"
#include "storage/schema.h"
#include "storage/tuple.h"
#include "workload/driver.h"
#include "workload/experiment.h"
#include "workloads.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
constexpr int kCalibrationRuns = 9;
/// Items of the fixed set an end-to-end run re-runs at least, to self-test
/// that their exact metrics repeat.
constexpr size_t kMinRerunItems = 20;
/// A run stops timing new cycles after this long whatever its budget, so
/// it always ends well inside the harness's time limit.
constexpr double kHardStopS = 120.0;

/// Per-item exact counts reported by the traced run, in output order.
const char* const kCountNames[] = {
    "net.messages",          "net.wire_bytes",        "net.loss_drops",
    "rpc.retransmits",       "detect.heartbeats",     "detect.suspicions",
    "ft.resent_tuples",      "dqp.takeovers",         "exec.credit_grants",
    "exec.credit_blocked",   "exec.queued_bytes_peak", "dqp.admitted",
    "dqp.rejected",          "monitor.m1_events",     "monitor.notifications",
    "adapt.proposals",       "adapt.rounds_applied",
};

/// Span names reported as per-layer self time per item.
const char* const kSpanNames[] = {
    "storage.datagen", "workload.grid_setup", "workload.grid_populate",
    "dqp.submit",      "sim.run",             "dqp.collect",
    "workload.grid_teardown",
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && args->seconds > 0;
}

double NowS() { return static_cast<double>(NowNs()) / 1e9; }

/// Reference-kernel timings of one run. The kernel is timed before every
/// item, and all of the run's host times are rescaled by the median of
/// those timings. On a shared 4-vCPU VM, normalizing each item by the
/// timings next to it (windows of 1 to 129) left the same or a wider
/// run-to-run spread than the run median did.
class HostSpeed {
 public:
  void Measure() { refs_.push_back(kernel_.RunMs()); }
  /// Multiplier from this run's host time to nominal-host time.
  double Factor() const { return kNominalRefMs / Median(refs_); }
  double MedianRefMs() const { return Median(refs_); }
  RefKernel* kernel() { return &kernel_; }

 private:
  RefKernel kernel_;
  std::vector<double> refs_;
};

class Output {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(value) ? value : 0.0);
    if (!metrics_.empty()) metrics_ += ", ";
    metrics_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" +
                unit + "\"}";
  }
  void Print(bool correct, uint64_t attempted, uint64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), metrics_.c_str());
  }

 private:
  std::string metrics_;
};

/// Peak resident memory of this program in MB (VmHWM), or a negative
/// value when it cannot be read. getrusage's ru_maxrss is not used: Linux
/// carries it across exec, so it would report the peak of the launcher
/// (run.py's Python interpreter) whenever that is higher.
double PeakRssMb() {
  std::FILE* status = std::fopen("/proc/self/status", "r");
  if (status == nullptr) return -1.0;
  double kb = -1.0;
  char line[256];
  while (std::fgets(line, sizeof(line), status) != nullptr) {
    if (std::sscanf(line, "VmHWM: %lf kB", &kb) == 1) break;
  }
  std::fclose(status);
  return kb < 0 ? -1.0 : kb / 1024.0;
}

gqp::SchemaPtr IntSchema(size_t width) {
  std::vector<gqp::Field> columns;
  for (size_t c = 0; c < width; ++c) {
    columns.push_back({gqp::StrCat("c", c), gqp::DataType::kInt64});
  }
  return gqp::MakeSchema(columns);
}

/// Row widths whose process-wide tuple freelist holds a block, that is the
/// pooled widths the queries run so far used: building one row of such a
/// width allocates nothing. Probing a width no query used parks one block
/// in its freelist, so this is asked once per process.
std::vector<size_t> PooledWidthsInUse() {
  constexpr size_t kMaxPooledWidth = 16;
  std::vector<size_t> widths;
  for (size_t width = 1; width <= kMaxPooledWidth; ++width) {
    const gqp::SchemaPtr schema = IntSchema(width);
    std::vector<gqp::Value> values(width, gqp::Value(int64_t{1}));
    const uint64_t before = AllocationCount();
    { const gqp::Tuple probe(schema, std::move(values)); }
    if (AllocationCount() == before) widths.push_back(width);
  }
  return widths;
}

/// Fills the tuple freelists of `widths` to their caps by allocating and
/// releasing rows. Afterwards every item starts from the same freelist
/// state, so its allocation count does not depend on which items ran
/// before it. Widths no query uses stay unfilled, so that their blocks do
/// not inflate peak memory.
void PrimeTuplePools(const std::vector<size_t>& widths) {
  constexpr size_t kRowsPerWidth = 8192;
  for (const size_t width : widths) {
    const gqp::SchemaPtr schema = IntSchema(width);
    std::vector<gqp::Tuple> rows;
    rows.reserve(kRowsPerWidth);
    for (size_t r = 0; r < kRowsPerWidth; ++r) {
      rows.emplace_back(schema, std::vector<gqp::Value>(width, gqp::Value(int64_t{1})));
    }
  }
}

/// Runs each query template once on tiny tables, so the process-wide
/// string interner already holds every operation tag before timing.
bool PrimeInterner() {
  for (const gqp::QueryKind kind :
       {gqp::QueryKind::kQ1, gqp::QueryKind::kQ2, gqp::QueryKind::kScanAgg}) {
    gqp::ExperimentParams params;
    params.query = kind;
    params.response = gqp::ResponseType::kRetrospective;
    params.sequences = 40;
    params.interactions = 60;
    params.sequence_length = 16;
    params.repetitions = 1;
    if (!gqp::RunExperiment(params).ok) return false;
  }
  return true;
}

/// Input generation, interner and freelist priming, calibration and one
/// warm-up item, repeated; returns the median normalized time in s.
double TimeSetup(Workload* wl, HostSpeed* host, uint64_t seed, bool* ok) {
  std::vector<double> setups;
  std::vector<size_t> widths;
  for (int r = 0; r < kSetupRepeats; ++r) {
    const double t0 = NowS();
    wl->Generate(seed);
    if (!PrimeInterner()) {
      std::fprintf(stderr, "perfbench: priming query failed\n");
      *ok = false;
    }
    std::vector<double> cal;
    for (int k = 0; k < kCalibrationRuns; ++k) cal.push_back(host->kernel()->RunMs());
    wl->Run(wl->num_items());
    const ItemSummary warm = wl->Check(wl->num_items(), false);
    if (r == 0) widths = PooledWidthsInUse();
    PrimeTuplePools(widths);
    const double t1 = NowS();
    if (!warm.ok) {
      std::fprintf(stderr, "perfbench: warm-up item failed: %s\n",
                   warm.error.c_str());
      *ok = false;
    }
    setups.push_back((t1 - t0) * kNominalRefMs / Median(cal));
  }
  return Median(setups);
}

bool SameExact(const ItemSummary& a, uint64_t a_allocs, const ItemSummary& b,
               uint64_t b_allocs) {
  return a_allocs == b_allocs && a.events == b.events &&
         a.submitted == b.submitted && a.rejected == b.rejected &&
         SameResponses(a, b);
}

void Report(const char* what, size_t index, const std::string& error) {
  std::fprintf(stderr, "perfbench: item %zu %s: %s\n", index, what,
               error.c_str());
}

/// End-to-end run: items through the workload's entry point.
int RunEndToEnd(const Args& args, Workload* wl) {
  HostSpeed host;
  bool ok = true;
  const double setup_s = TimeSetup(wl, &host, args.seed, &ok);

  const size_t n = wl->num_items();
  const size_t cycle = wl->cycle();
  const size_t min_rerun = std::min(n, kMinRerunItems);
  std::vector<ItemSummary> first(n);
  std::vector<uint64_t> first_allocs(n);
  std::vector<double> wall_ms;
  // Host times of each item's executions; an item's time is their median.
  std::vector<std::vector<double>> item_ms(n);
  uint64_t failed = 0;
  size_t compared = 0;
  const double start = NowS();
  for (size_t j = 0;; ++j) {
    const double elapsed = NowS() - start;
    if (j % cycle == 0 && ((j >= n + min_rerun && elapsed >= args.seconds) ||
                           (j >= n && elapsed >= kHardStopS))) {
      break;
    }
    const size_t i = j % n;
    const bool exact_pass = j < n;
    host.Measure();
    const uint64_t a0 = AllocationCount();
    const double t0 = NowS();
    wl->Run(i);
    const double t1 = NowS();
    const uint64_t allocs = AllocationCount() - a0;
    wall_ms.push_back((t1 - t0) * 1e3);
    item_ms[i].push_back(wall_ms.back());
    ItemSummary s = wl->Check(i, i < cycle);
    if (!s.ok) {
      Report("failed", i, s.error);
      ++failed;
      continue;
    }
    if (exact_pass) {
      first[i] = std::move(s);
      first_allocs[i] = allocs;
    } else {
      // Self-test: an item's exact metrics repeat in a later pass.
      if (!SameExact(first[i], first_allocs[i], s, allocs)) {
        Report("repeated with different exact metrics", i,
               "allocs " + std::to_string(first_allocs[i]) + " vs " +
                   std::to_string(allocs));
        ++failed;
      }
      ++compared;
    }
  }

  double wall_total_ms = 0.0;
  for (const double ms : wall_ms) wall_total_ms += ms;
  const double norm_total_ms = wall_total_ms * host.Factor();
  std::vector<double> norm_ms;
  for (const std::vector<double>& runs : item_ms) {
    norm_ms.push_back(Median(runs) * host.Factor());
  }
  uint64_t events = 0, allocs = 0, submitted = 0, rejected = 0;
  size_t with_events = 0;
  std::vector<double> responses;
  for (size_t i = 0; i < n; ++i) {
    events += first[i].events;
    with_events += first[i].events != 0 ? 1 : 0;
    allocs += first_allocs[i];
    submitted += first[i].submitted;
    rejected += first[i].rejected;
    responses.insert(responses.end(), first[i].responses.begin(),
                     first[i].responses.end());
  }
  const double items = static_cast<double>(wall_ms.size());

  Output out;
  out.Add("norm_items_per_s", items / (norm_total_ms / 1e3), "1/s");
  out.Add("norm_item_ms_p50", gqp::NearestRankPercentile(norm_ms, 50), "ms");
  out.Add("norm_item_ms_p90", gqp::NearestRankPercentile(norm_ms, 90), "ms");
  out.Add("setup_s", setup_s, "s");
  const double peak_rss_mb = PeakRssMb();
  if (peak_rss_mb <= 0) {
    std::fprintf(stderr, "perfbench: cannot read peak resident memory\n");
    ok = false;
  }
  out.Add("peak_rss_mb", peak_rss_mb, "MB");
  out.Add("sim_events_per_item",
          static_cast<double>(events) / static_cast<double>(with_events), "count");
  out.Add("allocs_per_item", static_cast<double>(allocs) / n, "count");
  out.Add("sim_response_ms_p50", gqp::NearestRankPercentile(responses, 50), "sim_ms");
  out.Add("sim_response_ms_p90", gqp::NearestRankPercentile(responses, 90), "sim_ms");
  out.Add("sim_admitted_share",
          submitted == 0 ? 0.0
                         : static_cast<double>(submitted - rejected) / submitted,
          "share");
  std::fprintf(stderr,
               "perfbench: %s seed=%llu items=%zu self-tested=%zu "
               "wall_items_per_s=%.4f norm_items_per_s=%.4f ref_ms=%.4f\n",
               args.workload.c_str(), static_cast<unsigned long long>(args.seed),
               wall_ms.size(), compared, items / (wall_total_ms / 1e3),
               items / (norm_total_ms / 1e3), host.MedianRefMs());
  const bool correct = ok && failed == 0 && compared >= min_rerun;
  out.Print(correct, wall_ms.size(), failed);
  return 0;
}

/// Traced run: each item runs through the entry point, then again
/// assembled from the layers' public calls with spans, and the two must
/// agree. Exact counts cover the first traced_items() items.
int RunTraced(const Args& args, Workload* wl) {
  HostSpeed host;
  bool ok = true;
  TimeSetup(wl, &host, args.seed, &ok);

  const size_t n = wl->num_items();
  const size_t counted = wl->traced_items();
  const size_t cycle = wl->cycle();
  SpanRecorder spans;
  double plain_wall_ms = 0.0;
  size_t items = 0;
  std::map<std::string, double> counts;
  uint64_t sim_run_events = 0;
  uint64_t failed = 0;
  size_t matched = 0;
  const double start = NowS();
  for (size_t j = 0;; ++j) {
    const double elapsed = NowS() - start;
    if (j % cycle == 0 && ((j >= counted && elapsed >= args.seconds) ||
                           (j >= cycle && elapsed >= kHardStopS))) {
      break;
    }
    const size_t i = j % n;
    host.Measure();
    const double t0 = NowS();
    wl->Run(i);
    plain_wall_ms += (NowS() - t0) * 1e3;
    ++items;
    const ItemSummary s = wl->Check(i, false);

    host.Measure();
    spans.set_item(static_cast<int>(j));
    ItemSummary traced = wl->RunTraced(i, &spans);
    if (!s.ok || !traced.ok) {
      Report("failed", i, s.ok ? traced.error : s.error);
      ++failed;
      continue;
    }
    // The spans must measure the real path: the assembled item reproduces
    // the entry point's virtual-time results bit for bit.
    const bool same = traced.rejected == s.rejected &&
                      traced.submitted == s.submitted &&
                      SameResponses(traced, s) &&
                      (s.events == 0 || s.events == traced.events);
    if (!same) {
      Report("traced assembly differs from the entry point", i, "");
      ++failed;
      continue;
    }
    ++matched;
    sim_run_events += traced.sim_run_events;
    if (j < counted) {
      for (const auto& [name, value] : s.counts) traced.counts[name] = value;
      traced.counts["dqp.admitted"] = s.submitted - s.rejected;
      traced.counts["dqp.rejected"] = s.rejected;
      for (const auto& [name, value] : traced.counts) counts[name] += value;
    }
  }

  // Normalized self time per span name, and the traced items' own time.
  const double factor = host.Factor();
  const std::vector<Span>& all = spans.spans();
  const std::vector<int64_t> self = spans.SelfNs();
  std::map<std::string, double> self_ms;
  double traced_norm_ms = 0.0;
  for (size_t k = 0; k < all.size(); ++k) {
    self_ms[all[k].name] += static_cast<double>(self[k]) / 1e6 * factor;
    if (std::strcmp(all[k].name, "bench.item") == 0) {
      traced_norm_ms +=
          static_cast<double>(all[k].end_ns - all[k].start_ns) / 1e6 * factor;
    }
  }
  const double n_items = static_cast<double>(items);

  Output out;
  for (const char* name : kSpanNames) {
    out.Add(std::string(name) + "_ms", self_ms[name] / n_items, "ms");
  }
  out.Add("sim.ns_per_event",
          self_ms["sim.run"] * 1e6 / static_cast<double>(sim_run_events), "ns");
  const double plain_rate = n_items / (plain_wall_ms * factor / 1e3);
  const double traced_rate = n_items / (traced_norm_ms / 1e3);
  out.Add("trace.norm_items_per_s", traced_rate, "1/s");
  out.Add("trace.overhead_pct", (plain_rate / traced_rate - 1.0) * 100.0, "%");
  out.Add("trace.crosscheck_items", static_cast<double>(matched), "count");
  for (const char* name : kCountNames) {
    const bool bytes = std::strstr(name, "bytes") != nullptr;
    out.Add(name, counts[name] / static_cast<double>(counted),
            bytes ? "bytes" : "count");
  }
  for (const ProbeResult& p : RunProbes([&host] { return host.kernel()->RunMs(); })) {
    out.Add(p.name, p.value, p.unit);
  }
  out.Add("host.ref_ms", host.MedianRefMs(), "ms");
  out.Add("host.wall_items_per_s", n_items / (plain_wall_ms / 1e3), "1/s");

  if (!args.trace_out.empty() && !spans.WriteChromeTrace(args.trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    ok = false;
  }
  const bool correct = ok && failed == 0 && matched >= counted;
  out.Print(correct, items, failed);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload paper_cells|chaos_faults|"
                 "tenant_storm --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  std::unique_ptr<perfbench::Workload> wl = perfbench::MakeWorkload(args.workload);
  if (wl == nullptr) {
    std::fprintf(stderr, "perfbench: unknown workload %s\n", args.workload.c_str());
    return 2;
  }
  return args.trace ? perfbench::RunTraced(args, wl.get())
                    : perfbench::RunEndToEnd(args, wl.get());
}
