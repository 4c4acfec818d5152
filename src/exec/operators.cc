#include "exec/operators.h"

#include <algorithm>

#include "common/interner.h"
#include "common/logging.h"
#include "common/strings.h"

namespace gqp {

Status PhysicalOperator::Open(ExecContext*) { return Status::OK(); }

Status PhysicalOperator::Finish(ExecContext*) { return Status::OK(); }

void PhysicalOperator::PurgeBuckets(const std::vector<int>&) {}

// ---- Filter ------------------------------------------------------------

FilterOperator::FilterOperator(const PhysOpDesc& desc)
    : predicate_(desc.predicate),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status FilterOperator::ProcessBatch(int, TupleBatch* in, TupleBatch* out,
                                    ExecContext* ctx) {
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  for (size_t i = 0; i < n; ++i) {
    GQP_ASSIGN_OR_RETURN(Value v,
                         predicate_->Eval(in->tuple(i), ctx->functions));
    if (ValueIsTrue(v)) out->Append(in->TakeTuple(i), -1, in->origin(i));
  }
  return Status::OK();
}

// ---- Project -----------------------------------------------------------

ProjectOperator::ProjectOperator(const PhysOpDesc& desc)
    : exprs_(desc.exprs),
      out_schema_(desc.out_schema),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status ProjectOperator::ProcessBatch(int, TupleBatch* in, TupleBatch* out,
                                     ExecContext* ctx) {
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  std::vector<Value> values;
  for (size_t i = 0; i < n; ++i) {
    values.clear();
    values.reserve(exprs_.size());
    for (const ExprPtr& e : exprs_) {
      GQP_ASSIGN_OR_RETURN(Value v, e->Eval(in->tuple(i), ctx->functions));
      values.push_back(std::move(v));
    }
    out->Append(Tuple(out_schema_, std::move(values)), -1, in->origin(i));
  }
  return Status::OK();
}

// ---- OperationCall -----------------------------------------------------

OperationCallOperator::OperationCallOperator(const PhysOpDesc& desc)
    : ws_name_(desc.ws_name),
      arg_col_(desc.arg_col),
      out_schema_(desc.out_schema),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status OperationCallOperator::ProcessBatch(int, TupleBatch* in,
                                           TupleBatch* out,
                                           ExecContext* ctx) {
  const size_t n = in->size();
  if (n == 0) return Status::OK();
  ctx->ChargeN(tag_, cost_ms_, n);
  // One registry lookup for the whole batch (the std::function copy is
  // the expensive part).
  GQP_ASSIGN_OR_RETURN(FunctionRegistry::Fn fn,
                       ctx->functions->Find(ws_name_));
  std::vector<Value> args(1);
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = in->tuple(i);
    if (arg_col_ >= tuple.size()) {
      return Status::OutOfRange(StrCat("operation call argument column ",
                                       arg_col_, " out of range"));
    }
    args[0] = tuple.at(arg_col_);
    GQP_ASSIGN_OR_RETURN(Value result, fn(args));
    std::vector<Value> values(tuple.data(), tuple.data() + tuple.size());
    values.push_back(std::move(result));
    out->Append(Tuple(out_schema_, std::move(values)), -1, in->origin(i));
  }
  return Status::OK();
}

// ---- HashJoin ----------------------------------------------------------

HashJoinOperator::HashJoinOperator(const PhysOpDesc& desc)
    : build_key_(desc.build_key),
      probe_key_(desc.probe_key),
      out_schema_(desc.out_schema),
      probe_cost_ms_(desc.base_cost_ms),
      build_cost_ms_(desc.build_cost_ms),
      tag_(InternString(desc.cost_tag)),
      bucket_reserve_hint_(
          desc.estimated_build_rows /
              static_cast<size_t>(std::max(desc.build_partitions, 1)) +
          1) {}

FlatJoinTable& HashJoinOperator::TableForBucket(int bucket) {
  if (static_cast<size_t>(bucket) >= state_.size()) {
    state_.resize(static_cast<size_t>(bucket) + 1);
  }
  FlatJoinTable& table = state_[static_cast<size_t>(bucket)];
  if (table.empty()) table.Reserve(bucket_reserve_hint_);
  return table;
}

Status HashJoinOperator::ProcessBatch(int port, TupleBatch* in,
                                      TupleBatch* out, ExecContext* ctx) {
  const size_t n = in->size();
  if (port == 0) {
    ctx->ChargeN(tag_, build_cost_ms_, n);
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = in->tuple(i);
      if (build_key_ >= tuple.size()) {
        return Status::OutOfRange("build key column out of range");
      }
      const int bucket = in->bucket(i) < 0 ? 0 : in->bucket(i);
      if (TableForBucket(bucket).Insert(tuple.at(build_key_).JoinHash(),
                                        tuple)) {
        ++duplicate_build_inserts_;
        GQP_LOG_WARN << "hash join: duplicate build insert, key="
                     << tuple.at(build_key_).ToString()
                     << " bucket=" << bucket;
      }
      if (in->origin(i) < ctx->row_retained.size()) {
        ctx->row_retained[in->origin(i)] = 1;
      }
    }
    return Status::OK();
  }
  if (port == 1) {
    ctx->ChargeN(tag_, probe_cost_ms_, n);
    for (size_t i = 0; i < n; ++i) {
      const Tuple& tuple = in->tuple(i);
      if (probe_key_ >= tuple.size()) {
        return Status::OutOfRange("probe key column out of range");
      }
      const size_t bucket =
          static_cast<size_t>(in->bucket(i) < 0 ? 0 : in->bucket(i));
      if (bucket >= state_.size()) continue;
      const Value& key = tuple.at(probe_key_);
      const uint32_t origin = in->origin(i);
      state_[bucket].ForEachMatch(key.JoinHash(), [&](const Tuple& build) {
        // Hash collision: the stored key is the build tuple's key column.
        if (build.at(build_key_) != key) return;
        out->Append(Tuple::Concat(out_schema_, build, tuple), -1, origin);
      });
    }
    return Status::OK();
  }
  return Status::InvalidArgument(
      StrCat("hash join has no input port ", port));
}

void HashJoinOperator::PurgeBuckets(const std::vector<int>& buckets) {
  for (const int b : buckets) {
    const size_t idx = static_cast<size_t>(b < 0 ? 0 : b);
    if (idx < state_.size()) state_[idx].Clear();
  }
}

size_t HashJoinOperator::StateSize() const {
  size_t count = 0;
  for (const FlatJoinTable& table : state_) count += table.size();
  return count;
}

size_t HashJoinOperator::StateSizeForBucket(int bucket) const {
  const size_t idx = static_cast<size_t>(bucket < 0 ? 0 : bucket);
  return idx < state_.size() ? state_[idx].size() : 0;
}

// ---- HashAggregate -------------------------------------------------------

namespace {

/// Unambiguous group-key encoding: type tag + length-prefixed rendering.
std::string EncodeGroupKey(const std::vector<Value>& values) {
  std::string key;
  for (const Value& v : values) {
    const std::string s = v.ToString();
    key.push_back(static_cast<char>('0' + static_cast<int>(v.type())));
    key += std::to_string(s.size());
    key.push_back(':');
    key += s;
  }
  return key;
}

}  // namespace

HashAggregateOperator::HashAggregateOperator(const PhysOpDesc& desc)
    : group_exprs_(desc.group_exprs),
      aggs_(desc.aggs),
      out_schema_(desc.out_schema),
      cost_ms_(desc.base_cost_ms),
      tag_(InternString(desc.cost_tag)) {}

Status HashAggregateOperator::Accumulate(GroupState* group,
                                         const Tuple& tuple,
                                         ExecContext* ctx) {
  for (size_t i = 0; i < aggs_.size(); ++i) {
    const AggSpec& spec = aggs_[i];
    Accumulator& acc = group->accums[i];
    Value v;
    if (spec.arg != nullptr) {
      GQP_ASSIGN_OR_RETURN(v, spec.arg->Eval(tuple, ctx->functions));
      // SQL semantics: aggregates ignore nulls.
      if (v.is_null()) continue;
    }
    switch (spec.kind) {
      case AggKind::kCount:
        ++acc.count;
        break;
      case AggKind::kSum:
      case AggKind::kAvg:
        ++acc.count;
        acc.sum += v.ToNumeric();
        break;
      case AggKind::kMin:
        if (!acc.has_value || v < acc.min) acc.min = v;
        acc.has_value = true;
        break;
      case AggKind::kMax:
        if (!acc.has_value || acc.max < v) acc.max = v;
        acc.has_value = true;
        break;
    }
  }
  return Status::OK();
}

Status HashAggregateOperator::ProcessBatch(int port, TupleBatch* in,
                                           TupleBatch* out,
                                           ExecContext* ctx) {
  (void)out;  // an aggregate absorbs its batch; output comes from Finish
  if (port != 0) {
    return Status::InvalidArgument("hash aggregate has a single input port");
  }
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  std::vector<Value> group_values;
  for (size_t i = 0; i < n; ++i) {
    const Tuple& tuple = in->tuple(i);
    const int bucket = in->bucket(i) < 0 ? 0 : in->bucket(i);
    group_values.clear();
    group_values.reserve(group_exprs_.size());
    for (const ExprPtr& e : group_exprs_) {
      GQP_ASSIGN_OR_RETURN(Value v, e->Eval(tuple, ctx->functions));
      group_values.push_back(std::move(v));
    }
    const std::string key = EncodeGroupKey(group_values);
    auto [it, inserted] = state_[bucket].try_emplace(key);
    if (inserted) {
      it->second.group_values = std::move(group_values);
      it->second.accums.resize(aggs_.size());
    }
    GQP_RETURN_IF_ERROR(Accumulate(&it->second, tuple, ctx));
    if (in->origin(i) < ctx->row_retained.size()) {
      ctx->row_retained[in->origin(i)] = 1;
    }
  }
  return Status::OK();
}

Value HashAggregateOperator::Finalize(const AggSpec& spec,
                                      const Accumulator& acc) const {
  switch (spec.kind) {
    case AggKind::kCount:
      return Value(acc.count);
    case AggKind::kSum:
      if (acc.count == 0) return Value::Null();
      if (spec.result_type == DataType::kInt64) {
        return Value(static_cast<int64_t>(acc.sum));
      }
      return Value(acc.sum);
    case AggKind::kAvg:
      if (acc.count == 0) return Value::Null();
      return Value(acc.sum / static_cast<double>(acc.count));
    case AggKind::kMin:
      return acc.has_value ? acc.min : Value::Null();
    case AggKind::kMax:
      return acc.has_value ? acc.max : Value::Null();
  }
  return Value::Null();
}

Status HashAggregateOperator::Finish(ExecContext* ctx) {
  for (const auto& [bucket, groups] : state_) {
    for (const auto& [key, group] : groups) {
      ctx->Charge(tag_, cost_ms_);
      std::vector<Value> values = group.group_values;
      for (size_t i = 0; i < aggs_.size(); ++i) {
        values.push_back(Finalize(aggs_[i], group.accums[i]));
      }
      ctx->out.emplace_back(out_schema_, std::move(values));
    }
  }
  state_.clear();
  return Status::OK();
}

void HashAggregateOperator::PurgeBuckets(const std::vector<int>& buckets) {
  for (const int b : buckets) state_.erase(b < 0 ? 0 : b);
}

size_t HashAggregateOperator::GroupCount() const {
  size_t count = 0;
  for (const auto& [bucket, groups] : state_) count += groups.size();
  return count;
}

// ---- Collect -----------------------------------------------------------

CollectOperator::CollectOperator(const PhysOpDesc& desc)
    : cost_ms_(desc.base_cost_ms), tag_(InternString(desc.cost_tag)) {}

Status CollectOperator::ProcessBatch(int, TupleBatch* in, TupleBatch* out,
                                     ExecContext* ctx) {
  (void)out;  // collect is a sink
  const size_t n = in->size();
  ctx->ChargeN(tag_, cost_ms_, n);
  // No exact-fit reserve: at small batches it would reallocate the whole
  // result vector on every step (quadratic); push_back grows
  // geometrically.
  for (size_t i = 0; i < n; ++i) results_.push_back(in->TakeTuple(i));
  return Status::OK();
}

// ---- Factory -----------------------------------------------------------

Result<std::unique_ptr<PhysicalOperator>> MakeOperator(
    const PhysOpDesc& desc) {
  switch (desc.kind) {
    case PhysOpKind::kScan:
      return Status::InvalidArgument(
          "scans are driven by the fragment executor, not the chain");
    case PhysOpKind::kFilter:
      return std::unique_ptr<PhysicalOperator>(new FilterOperator(desc));
    case PhysOpKind::kProject:
      return std::unique_ptr<PhysicalOperator>(new ProjectOperator(desc));
    case PhysOpKind::kHashJoin:
      return std::unique_ptr<PhysicalOperator>(new HashJoinOperator(desc));
    case PhysOpKind::kOperationCall:
      return std::unique_ptr<PhysicalOperator>(
          new OperationCallOperator(desc));
    case PhysOpKind::kHashAggregate:
      return std::unique_ptr<PhysicalOperator>(
          new HashAggregateOperator(desc));
    case PhysOpKind::kCollect:
      return std::unique_ptr<PhysicalOperator>(new CollectOperator(desc));
  }
  return Status::Internal("unknown operator kind");
}

}  // namespace gqp
