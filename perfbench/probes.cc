#include "probes.h"

#include <chrono>
#include <cstdio>
#include <memory>

#include "exec/operators.h"
#include "ft/recovery_log.h"
#include "monitor/monitoring_event_detector.h"
#include "monitor/monitoring_events.h"
#include "net/network.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/scheduler.h"
#include "ref_kernel.h"
#include "rpc/message_bus.h"
#include "sim/simulator.h"
#include "sql/parser.h"
#include "storage/datagen.h"
#include "storage/tuple_batch.h"
#include "workload/experiment.h"
#include "workload/grid_setup.h"

namespace perfbench {

namespace {

constexpr int kReps = 7;
/// Rows per ProcessBatch call: the executor's default batch size.
constexpr size_t kBatchRows = 64;
/// Logical partitions of the optimizer's hash exchanges.
constexpr int kBuckets = 120;

/// Normalized ms of `body`: the median over repetitions of its host time,
/// each rescaled by the reference time measured just before it.
double TimeNormalizedMs(const std::function<double()>& ref_ms,
                        const std::function<void()>& body) {
  std::vector<double> norm;
  for (int r = 0; r < kReps; ++r) {
    const double ref = ref_ms();
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    norm.push_back(std::chrono::duration<double, std::milli>(t1 - t0).count() *
                   kNominalRefMs / ref);
  }
  return Median(norm);
}

void Require(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "perfbench: probe failed: %s\n", what);
    std::exit(1);
  }
}

/// Fixed inputs shaped like the workloads: the paper's tables, the tenant
/// storm's tiny ones, and the three query templates compiled against them.
struct Inputs {
  gqp::TablePtr sequences;
  gqp::TablePtr interactions;
  gqp::TablePtr tiny_interactions;
  std::unique_ptr<gqp::GridSetup> grid;

  gqp::PhysOpDesc FindOp(gqp::QueryKind kind, gqp::PhysOpKind op_kind) const {
    auto logical = gqp::PlanSql(gqp::QuerySql(kind), *grid->catalog());
    Require(logical.ok(), "plan template");
    auto physical = gqp::CreatePhysicalPlan(*logical, gqp::OptimizerOptions());
    Require(physical.ok(), "optimize template");
    for (const gqp::FragmentDesc& f : physical->fragments) {
      for (const gqp::PhysOpDesc& op : f.ops) {
        if (op.kind == op_kind) return op;
      }
    }
    Require(false, "operator not in plan");
    return {};
  }
};

Inputs MakeInputs() {
  Inputs in;
  gqp::ProteinSequencesSpec seq;
  in.sequences = gqp::GenerateProteinSequences(seq);
  gqp::ProteinInteractionsSpec inter;
  in.interactions = gqp::GenerateProteinInteractions(inter);
  gqp::ProteinInteractionsSpec tiny;
  tiny.num_rows = 150;
  tiny.num_orfs = 100;
  in.tiny_interactions = gqp::GenerateProteinInteractions(tiny);
  gqp::GridOptions options;
  in.grid = std::make_unique<gqp::GridSetup>(options);
  Require(in.grid->Initialize().ok(), "grid");
  Require(in.grid->AddTable(in.sequences).ok(), "add table");
  Require(in.grid->AddTable(in.interactions).ok(), "add table");
  Require(in.grid->AddWebService("EntropyAnalyser", gqp::DataType::kDouble, 0.21)
              .ok(),
          "add web service");
  return in;
}

/// Feeds `rows` to `op` on `port` in executor-sized batches; returns the
/// rows the operator emitted. Buckets follow the hash exchange's routing
/// of column `key_col` (-1: unpartitioned).
size_t FeedBatches(gqp::PhysicalOperator* op, gqp::ExecContext* ctx, int port,
                   const std::vector<gqp::Tuple>& rows, int key_col) {
  size_t emitted = 0;
  gqp::TupleBatch in;
  gqp::TupleBatch out;
  for (size_t start = 0; start < rows.size(); start += kBatchRows) {
    const size_t end = std::min(rows.size(), start + kBatchRows);
    in.Clear();
    out.Clear();
    for (size_t i = start; i < end; ++i) {
      const int bucket =
          key_col < 0 ? -1
                      : static_cast<int>(rows[i].at(static_cast<size_t>(key_col)).Hash() %
                                         kBuckets);
      in.Append(rows[i], bucket, static_cast<uint32_t>(i - start));
    }
    ctx->ResetForBatch(in.size());
    Require(op->ProcessBatch(port, &in, &out, ctx).ok(), "ProcessBatch");
    emitted += out.size();
  }
  return emitted;
}

std::unique_ptr<gqp::PhysicalOperator> Open(const gqp::PhysOpDesc& desc,
                                            gqp::ExecContext* ctx) {
  auto op = gqp::MakeOperator(desc);
  Require(op.ok(), "MakeOperator");
  Require((*op)->Open(ctx).ok(), "Open");
  return std::move(*op);
}

/// Events that reschedule themselves at pseudo-random delays, like the
/// grid's per-host work, network and timer events.
struct EventChain {
  gqp::Simulator* sim;
  uint64_t state;
  uint64_t* remaining;
  void Fire() {
    if (*remaining == 0) return;
    --*remaining;
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    sim->Schedule(static_cast<double>(state % 1000) / 100.0, [this] { Fire(); });
  }
};

class ProbePayload : public gqp::Payload {
 public:
  size_t WireSize() const override { return 64; }
  std::string_view TypeName() const override { return "Probe"; }
};

}  // namespace

std::vector<ProbeResult> RunProbes(const std::function<double()>& ref_ms) {
  const Inputs in = MakeInputs();
  std::vector<ProbeResult> out;
  const auto add = [&out](const char* name, const char* unit, double value) {
    out.push_back({name, unit, value});
  };

  {  // Event kernel: 64 concurrent chains, 200k events.
    constexpr uint64_t kEvents = 200000;
    const double ms = TimeNormalizedMs(ref_ms, [] {
      gqp::Simulator sim;
      uint64_t remaining = kEvents;
      std::vector<EventChain> chains;
      for (uint64_t c = 0; c < 64; ++c) chains.push_back({&sim, c * 7919 + 1, &remaining});
      for (EventChain& chain : chains) chain.Fire();
      Require(sim.Run().ok(), "simulator run");
      Require(sim.events_executed() == kEvents, "event count");
    });
    add("sim.probe_ns_per_event", "ns", ms * 1e6 / kEvents);
  }

  {  // Tuple layer: build Q1-shaped rows, batch them, size them for the wire.
    std::vector<std::vector<gqp::Value>> values;
    for (const gqp::Tuple& row : in.sequences->rows()) {
      values.push_back({row.at(0), row.at(1)});
    }
    const gqp::SchemaPtr schema = in.sequences->schema();
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      std::vector<gqp::Tuple> rows;
      rows.reserve(values.size());
      for (const auto& v : values) rows.emplace_back(schema, v);
      gqp::TupleBatch batch;
      size_t bytes = 0;
      for (size_t i = 0; i < rows.size(); ++i) {
        batch.Append(rows[i], -1, static_cast<uint32_t>(i));
        bytes += rows[i].WireSize();
      }
      Require(bytes > 0, "wire size");
    });
    add("storage.probe_ns_per_tuple", "ns", ms * 1e6 / static_cast<double>(values.size()));
  }

  {  // Q1's web-service call over the paper's 3000 sequences.
    const gqp::PhysOpDesc desc =
        in.FindOp(gqp::QueryKind::kQ1, gqp::PhysOpKind::kOperationCall);
    const std::vector<gqp::Tuple>& rows = in.sequences->rows();
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      gqp::ExecContext ctx;
      auto op = Open(desc, &ctx);
      Require(FeedBatches(op.get(), &ctx, 0, rows, -1) == rows.size(), "ws rows");
    });
    add("exec.probe_ws_ns_per_row", "ns", ms * 1e6 / static_cast<double>(rows.size()));
  }

  {  // Q2's partitioned hash join: build 3000 sequences, probe 4700 interactions.
    const gqp::PhysOpDesc desc =
        in.FindOp(gqp::QueryKind::kQ2, gqp::PhysOpKind::kHashJoin);
    const std::vector<gqp::Tuple>& build = in.sequences->rows();
    const std::vector<gqp::Tuple>& probe = in.interactions->rows();
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      gqp::ExecContext ctx;
      auto op = Open(desc, &ctx);
      FeedBatches(op.get(), &ctx, 0, build, static_cast<int>(desc.build_key));
      Require(FeedBatches(op.get(), &ctx, 1, probe,
                          static_cast<int>(desc.probe_key)) == probe.size(),
              "join rows");
    });
    add("exec.probe_join_ns_per_row", "ns",
        ms * 1e6 / static_cast<double>(build.size() + probe.size()));
  }

  {  // Recovery log of a Q2 exchange: log, acknowledge in checkpoint-sized
     // batches, then extract a quarter of the buckets for an R1 move.
    const std::vector<gqp::Tuple>& rows = in.interactions->rows();
    uint64_t ops = 0;
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      gqp::RecoveryLog log;
      std::vector<uint64_t> acks;
      for (size_t i = 0; i < rows.size(); ++i) {
        gqp::LogRecord record;
        record.seq = i + 1;
        record.bucket = static_cast<int>(i % kBuckets);
        record.consumer = static_cast<int>(i % 3);
        record.tuple = rows[i];
        log.Append(std::move(record));
        if (i % 2 == 0) acks.push_back(i + 1);
        if (acks.size() == 25) {
          log.AckBatch(acks);
          acks.clear();
        }
      }
      log.AckBatch(acks);
      const size_t extracted =
          log.Extract([](const gqp::LogRecord& r) { return r.bucket % 4 == 0; })
              .size();
      ops = rows.size() + rows.size() / 2 + extracted;
    });
    add("ft.probe_log_ns_per_op", "ns", ms * 1e6 / static_cast<double>(ops));
  }

  {  // The scan-aggregate template over the tenant storm's tiny table,
     // one operator per query as each storm query builds its own.
    const gqp::PhysOpDesc desc =
        in.FindOp(gqp::QueryKind::kScanAgg, gqp::PhysOpKind::kHashAggregate);
    const std::vector<gqp::Tuple>& rows = in.tiny_interactions->rows();
    constexpr int kQueries = 40;
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      for (int q = 0; q < kQueries; ++q) {
        gqp::ExecContext ctx;
        auto op = Open(desc, &ctx);
        FeedBatches(op.get(), &ctx, 0, rows, 0);
        Require(op->Finish(&ctx).ok() && !ctx.out.empty(), "aggregate groups");
      }
    });
    add("exec.probe_agg_ns_per_row", "ns",
        ms * 1e6 / static_cast<double>(kQueries * rows.size()));
  }

  const gqp::QueryKind kinds[] = {gqp::QueryKind::kQ1, gqp::QueryKind::kQ2,
                                  gqp::QueryKind::kScanAgg};
  {  // SQL front end: the three templates.
    constexpr int kRounds = 200;
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      for (int r = 0; r < kRounds; ++r) {
        for (const gqp::QueryKind kind : kinds) {
          Require(gqp::ParseSelect(gqp::QuerySql(kind)).ok(), "parse");
        }
      }
    });
    add("sql.probe_parse_us", "us", ms * 1e3 / (kRounds * 3));
  }

  {  // Compile to a placed plan: bind, optimize, schedule on 2 evaluators.
    constexpr int kRounds = 50;
    gqp::SchedulerOptions sched;
    sched.num_evaluators = 2;
    sched.coordinator = in.grid->coordinator_node()->id();
    const double ms = TimeNormalizedMs(ref_ms, [&] {
      for (int r = 0; r < kRounds; ++r) {
        for (const gqp::QueryKind kind : kinds) {
          auto logical = gqp::PlanSql(gqp::QuerySql(kind), *in.grid->catalog());
          Require(logical.ok(), "bind");
          auto physical =
              gqp::CreatePhysicalPlan(*logical, gqp::OptimizerOptions());
          Require(physical.ok(), "optimize");
          Require(gqp::SchedulePlan(*physical, *in.grid->registry(), sched).ok(),
                  "schedule");
        }
      }
    });
    add("plan.probe_compile_us", "us", ms * 1e3 / (kRounds * 3));
  }

  {  // MED: raw M1 events of six subplan instances through the bus.
    constexpr int kEvents = 20000;
    const double ms = TimeNormalizedMs(ref_ms, [] {
      gqp::Simulator sim;
      gqp::Network net(&sim, gqp::LinkParams());
      gqp::MessageBus bus(&net);
      gqp::MonitoringEventDetector med(&bus, 1, "med",
                                       gqp::MonitoringEventDetectorConfig());
      Require(med.Start().ok(), "MED start");
      const gqp::Address from{1, "probe"};
      for (int e = 0; e < kEvents; ++e) {
        const gqp::SubplanId id{1, 1, e % 6};
        const double cost = 1.0 + 0.3 * ((e * 7) % 11) / 10.0;
        Require(bus.Send(from, med.address(),
                         std::make_shared<gqp::M1Payload>(id, cost, 0.1, 1.0,
                                                          static_cast<uint64_t>(e)))
                    .ok(),
                "MED send");
        if (e % 100 == 99) Require(sim.Run().ok(), "MED run");
      }
      Require(med.stats().raw_m1 == static_cast<uint64_t>(kEvents), "MED events");
    });
    add("monitor.probe_med_ns_per_event", "ns", ms * 1e6 / kEvents);
  }

  {  // Reliable control plane: 2000 messages over a 3%-loss link.
    constexpr int kMessages = 2000;
    const double ms = TimeNormalizedMs(ref_ms, [] {
      gqp::Simulator sim;
      gqp::Network net(&sim, gqp::LinkParams());
      net.SeedLoss(7);
      net.SetDefaultLoss(0.03);
      gqp::MessageBus bus(&net);
      gqp::ReliableConfig config;
      config.enabled = true;
      bus.EnableReliableTransport(config);
      int delivered = 0;
      const gqp::Address from{1, "src"};
      const gqp::Address to{2, "sink"};
      Require(bus.RegisterEndpoint(from, [](const gqp::Message&) {}).ok(), "src");
      Require(bus.RegisterEndpoint(to, [&delivered](const gqp::Message&) {
                   ++delivered;
                 }).ok(),
              "sink");
      const auto payload = std::make_shared<ProbePayload>();
      for (int m = 0; m < kMessages; ++m) {
        Require(bus.Send(from, to, payload).ok(), "reliable send");
        if (m % 50 == 49) Require(sim.Run().ok(), "reliable run");
      }
      Require(sim.Run().ok() && delivered == kMessages, "reliable delivery");
    });
    add("rpc.probe_reliable_us_per_msg", "us", ms * 1e3 / kMessages);
  }
  return out;
}

}  // namespace perfbench
