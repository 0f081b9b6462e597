#include "stream/session.h"

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <utility>

#include "core/waste_mitigation.h"
#include "obs/metrics.h"
#include "obs/span_context.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "stream/wal.h"

namespace mlprov::stream {

using common::Status;
using sim::ProvenanceRecord;

namespace {

// The two record forms differ in three places, each an overload pair
// here: the node id a record claims, how its node enters the store, and
// the side tables (span stats, span context) a RecordRef does not carry.
// Everything else is one body, ProvenanceSession::IngestImpl.

/// The node id a context, execution or artifact record claims.
int64_t NodeId(const ProvenanceRecord& record) {
  switch (record.kind) {
    case ProvenanceRecord::Kind::kContext:
      return record.context.id;
    case ProvenanceRecord::Kind::kExecution:
      return record.execution.id;
    case ProvenanceRecord::Kind::kArtifact:
      return record.artifact.id;
    case ProvenanceRecord::Kind::kEvent:
      break;
  }
  return metadata::kInvalidId;
}

int64_t NodeId(const metadata::RecordRef& record) { return record.id; }

/// Puts the record's node into `store` and returns the id it assigned:
/// an owned record's node is copied, a view's is filled from its views.
int64_t PutNode(metadata::MetadataStore& store,
                const ProvenanceRecord& record) {
  switch (record.kind) {
    case ProvenanceRecord::Kind::kContext:
      return store.PutContext(record.context);
    case ProvenanceRecord::Kind::kExecution:
      return store.PutExecution(record.execution);
    case ProvenanceRecord::Kind::kArtifact:
      return store.PutArtifact(record.artifact);
    case ProvenanceRecord::Kind::kEvent:
      break;
  }
  return metadata::kInvalidId;
}

int64_t PutNode(metadata::MetadataStore& store,
                const metadata::RecordRef& record) {
  switch (record.kind) {
    case metadata::RecordRef::Kind::kContext:
      return store.PutContextBorrowed(record.context_name);
    case metadata::RecordRef::Kind::kExecution:
      return store.PutExecutionBorrowed(
          record.execution_type, record.start_time, record.end_time,
          record.succeeded, record.compute_cost, record.properties);
    case metadata::RecordRef::Kind::kArtifact:
      return store.PutArtifactBorrowed(record.artifact_type,
                                       record.create_time, record.properties);
    case metadata::RecordRef::Kind::kEvent:
      break;
  }
  return metadata::kInvalidId;
}

/// Side table: an artifact record's span stats (none in a view).
const dataspan::SpanStatsPtr& SpanStatsOf(const ProvenanceRecord& record) {
  return record.span_stats;
}

const dataspan::SpanStatsPtr& SpanStatsOf(const metadata::RecordRef&) {
  static const dataspan::SpanStatsPtr kNone;
  return kNone;
}

Status OutOfOrder(const char* node, int64_t claimed, int64_t expected) {
  return Status::InvalidArgument(std::string(node) + " id " +
                                 std::to_string(claimed) +
                                 " out of order (expected " +
                                 std::to_string(expected) + ")");
}

#ifndef MLPROV_OBS_NOOP
/// Side table: an execution record's causal span context (invalid in a
/// view).
obs::SpanContext SpanOf(const ProvenanceRecord& record) {
  return record.span;
}

obs::SpanContext SpanOf(const metadata::RecordRef&) { return {}; }

/// One-letter flight-recorder tag + (id, time) of a feed record.
struct RecordDigest {
  char kind = '?';
  int64_t id = 0;
  int64_t time = 0;
};

RecordDigest DigestOf(const ProvenanceRecord& record) {
  switch (record.kind) {
    case ProvenanceRecord::Kind::kContext:
      return {'C', record.context.id, 0};
    case ProvenanceRecord::Kind::kExecution:
      return {'E', record.execution.id, record.execution.end_time};
    case ProvenanceRecord::Kind::kArtifact:
      return {'A', record.artifact.id, record.artifact.create_time};
    case ProvenanceRecord::Kind::kEvent:
      return {'V', record.event.execution, record.event.time};
  }
  return {};
}

RecordDigest DigestOf(const metadata::RecordRef& record) {
  switch (record.kind) {
    case metadata::RecordRef::Kind::kContext:
      return {'C', record.id, 0};
    case metadata::RecordRef::Kind::kExecution:
      return {'E', record.id, record.end_time};
    case metadata::RecordRef::Kind::kArtifact:
      return {'A', record.id, record.create_time};
    case metadata::RecordRef::Kind::kEvent:
      return {'V', record.event.execution, record.event.time};
  }
  return {};
}
#endif  // MLPROV_OBS_NOOP

}  // namespace

ProvenanceSession::ProvenanceSession(const SessionOptions& options)
    : options_(options),
      flight_(options.name.empty() ? std::string("session") : options.name,
              obs::FlightRecorder::Options{options.flight_capacity}),
      index_(&store_),
      segmenter_(&store_, options.segmenter) {
  if (options_.scorer != nullptr) {
    featurizer_.emplace(&store_, &span_stats_,
                        options_.scorer->feature_options());
  }
}

Status ProvenanceSession::Ingest(const ProvenanceRecord& record) {
  return IngestSticky(record);
}

Status ProvenanceSession::Ingest(const metadata::RecordRef& record) {
  return IngestSticky(record);
}

template <typename Record>
Status ProvenanceSession::IngestSticky(const Record& record) {
  if (finished_) {
    return Status::FailedPrecondition(
        "ProvenanceSession: record ingested after Finish()");
  }
  if (!status_.ok()) return status_;  // poisoned: first violation is sticky
  Status status = IngestImpl(record);
  if (status.ok()) {
    arrivals_.push_back(walwire::FrameTag(record.kind));
  } else {
    status_ = status;
    RecordPoisoning(record);
  }
  // Any record can advance the watermark past a trainer's grace period;
  // settle the decisions of cells the segmenter just sealed.
  if (status.ok() && options_.scorer != nullptr) SettleSealed();
  return status;
}

template <typename Record>
void ProvenanceSession::RecordPoisoning(const Record& record) {
#ifndef MLPROV_OBS_NOOP
  const RecordDigest digest = DigestOf(record);
  obs::Json violating = obs::Json::Object();
  violating.Set("kind", std::string(1, digest.kind));
  violating.Set("id", digest.id);
  violating.Set("time", digest.time);
  violating.Set("record_index", static_cast<uint64_t>(counts_.records));
  flight_.NoteError(status_.message(), std::move(violating));
  MLPROV_COUNTER_INC("stream.poisoned_sessions");
  // Persist immediately (no-op without a --flight_recorder= directory):
  // a poisoned session's owner may never reach a clean shutdown path.
  (void)flight_.Dump();
#else
  (void)record;
#endif
}

template <typename Record>
Status ProvenanceSession::IngestImpl(const Record& record) {
  using Kind = typename Record::Kind;
  ++counts_.records;
  MLPROV_COUNTER_INC("stream.records");
  MLPROV_SAMPLER_OBSERVE(1);
#ifndef MLPROV_OBS_NOOP
  {
    const RecordDigest digest = DigestOf(record);
    flight_.NoteRecord(digest.kind, digest.id, digest.time);
  }
#endif
  // The index and the segmenter read each node from the store, whichever
  // form it arrived in.
  switch (record.kind) {
    case Kind::kContext: {
      const metadata::ContextId assigned = PutNode(store_, record);
      if (NodeId(record) != metadata::kInvalidId &&
          NodeId(record) != assigned) {
        return OutOfOrder("context", NodeId(record), assigned);
      }
      context_ = assigned;
      ++counts_.contexts;
      return Status::Ok();
    }
    case Kind::kExecution: {
      const metadata::ExecutionId expected =
          static_cast<metadata::ExecutionId>(store_.num_executions()) + 1;
      if (NodeId(record) != expected) {
        return OutOfOrder("execution", NodeId(record), expected);
      }
      PutNode(store_, record);
      if (context_ != metadata::kInvalidId) {
        MLPROV_RETURN_IF_ERROR(store_.AddToContext(context_, expected));
      }
      const metadata::Execution& execution = store_.executions().back();
      if (options_.enable_index) index_.OnExecution(execution);
      segmenter_.OnExecution(execution);
      ++counts_.executions;
#ifndef MLPROV_OBS_NOOP
      if (const obs::SpanContext span = SpanOf(record); span.valid()) {
        if (trace_id_ == 0) trace_id_ = span.trace_id;
        // Mark the causal flow at arrival: only trainer executions start
        // one (see EmitExecSpan in the simulator), and only succeeded
        // ones — failed attempts never get a flow start.
        if (options_.emit_flows &&
            execution.type == metadata::ExecutionType::kTrainer &&
            execution.succeeded) {
          obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
          if (recorder.enabled()) {
            recorder.RecordFlow('t', "arrival", "flow.causal",
                                obs::FlowBindId(span, obs::FlowKind::kCausal));
          }
        }
      }
#endif
      return Status::Ok();
    }
    case Kind::kArtifact: {
      const metadata::ArtifactId expected =
          static_cast<metadata::ArtifactId>(store_.num_artifacts()) + 1;
      if (NodeId(record) != expected) {
        return OutOfOrder("artifact", NodeId(record), expected);
      }
      PutNode(store_, record);
      if (context_ != metadata::kInvalidId) {
        MLPROV_RETURN_IF_ERROR(
            store_.AddArtifactToContext(context_, expected));
      }
      if (const dataspan::SpanStatsPtr& stats = SpanStatsOf(record);
          stats != nullptr) {
        span_stats_.emplace(expected, stats);
      }
      const metadata::Artifact& artifact = store_.artifacts().back();
      if (options_.enable_index) index_.OnArtifact(artifact);
      segmenter_.OnArtifact(artifact);
      ++counts_.artifacts;
      return Status::Ok();
    }
    case Kind::kEvent: {
      Status put = store_.PutEvent(record.event);
      if (!put.ok()) {
        return Status::InvalidArgument(
            "event before its endpoints (execution " +
            std::to_string(record.event.execution) + ", artifact " +
            std::to_string(record.event.artifact) + "): " + put.message());
      }
      if (options_.enable_index) index_.OnEvent(record.event);
      segmenter_.OnEvent(record.event);
      ++counts_.events;
      MLPROV_COUNTER_INC("stream.links");
      if (options_.scorer != nullptr) ScoreTriggers(record.event);
      return Status::Ok();
    }
  }
  return Status::Internal("unknown provenance record kind");
}

common::StatusOr<SessionResult> ProvenanceSession::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) {
    return Status::FailedPrecondition("ProvenanceSession: double Finish()");
  }
  finished_ = true;
  SessionResult result;
  result.graphlets = segmenter_.Finish();
  if (options_.scorer != nullptr) {
    // Finish() extracted every dirty cell, so the remaining unsettled
    // decisions (cells still inside the seal grace at end of feed) can
    // settle against up-to-date graphlets.
    EnsureCellScoring();
    SettleSealed();
    for (size_t cell = 0; cell < segmenter_.num_cells(); ++cell) {
      Settle(cell);
    }
    result.decisions = decisions_;
    result.waste = waste_;
  }
  return result;
}

void ProvenanceSession::EnsureCellScoring() {
  if (cell_scoring_.size() < segmenter_.num_cells()) {
    cell_scoring_.resize(segmenter_.num_cells());
    decisions_.resize(segmenter_.num_cells());
  }
}

void ProvenanceSession::ScoreTriggers(const metadata::Event& event) {
  EnsureCellScoring();
  if (event.kind == metadata::EventKind::kOutput) {
    // A trainer's first output: its inputs and every pre-trainer
    // operator already streamed by (events follow both endpoints).
    const size_t cell = segmenter_.CellOf(event.execution);
    if (cell != SIZE_MAX && !cell_scoring_[cell].early_scored) {
      EarlyScore(cell);
    }
    return;
  }
  // An input event consuming a trainer-produced artifact is the first
  // post-trainer descendant: the trainer's own shape is now complete.
  for (metadata::ExecutionId producer : store_.ProducersOf(event.artifact)) {
    if (producer == event.execution) continue;
    const size_t cell = segmenter_.CellOf(producer);
    if (cell == SIZE_MAX) continue;
    if (!cell_scoring_[cell].early_scored) EarlyScore(cell);
    if (!cell_scoring_[cell].trainer_scored) TrainerScore(cell);
  }
}

void ProvenanceSession::EarlyScore(size_t cell) {
  const core::Graphlet& g = segmenter_.ExtractNow(cell);
  CellScoring& scoring = cell_scoring_[cell];
  scoring.row = featurizer_->Row(g);
  // Commit to history immediately, in intervention order: the history
  // and baseline features a *later* graphlet reads from this one
  // (input spans, code version, trainer start) are already final here,
  // so the common sequential case matches the batch featurization
  // row for row.
  featurizer_->Advance(g);
  ScoreDecision& d = decisions_[cell];
  d.trainer = segmenter_.CellTrainer(cell);
  for (core::Variant variant :
       {core::Variant::kInput, core::Variant::kInputPre}) {
    const size_t v = static_cast<size_t>(variant);
    d.variant_scores[v] = options_.scorer->Score(variant, scoring.row);
    d.variant_scored[v] = true;
  }
  scoring.early_scored = true;
  AdoptPolicy(d);
}

void ProvenanceSession::TrainerScore(size_t cell) {
  const core::Graphlet& g = segmenter_.ExtractNow(cell);
  CellScoring& scoring = cell_scoring_[cell];
  // The trainer's shape is now complete; input/history features stay as
  // captured at the early intervention point.
  featurizer_->UpdateShapeColumns(g, &scoring.row);
  ScoreDecision& d = decisions_[cell];
  d.trainer = segmenter_.CellTrainer(cell);
  const size_t v = static_cast<size_t>(core::Variant::kInputPreTrainer);
  d.variant_scores[v] =
      options_.scorer->Score(core::Variant::kInputPreTrainer, scoring.row);
  d.variant_scored[v] = true;
  scoring.trainer_scored = true;
  AdoptPolicy(d);
}

void ProvenanceSession::AdoptPolicy(ScoreDecision& decision) {
  const core::Variant policy = options_.scorer->policy_variant();
  const size_t v = static_cast<size_t>(policy);
  decision.variant = policy;
  if (!decision.variant_scored[v]) return;
  decision.score = decision.variant_scores[v];
  decision.threshold = options_.scorer->Threshold(policy);
  decision.abort = decision.score < decision.threshold;
}

void ProvenanceSession::SettleSealed() {
  EnsureCellScoring();
  for (size_t cell : segmenter_.TakeSealed()) {
    Settle(cell);
  }
}

void ProvenanceSession::Settle(size_t cell) {
  CellScoring& scoring = cell_scoring_[cell];
  if (scoring.settled) return;
  // Seal-time and Finish-time extraction leave the cell clean, so the
  // cached graphlet is the final one.
  const core::Graphlet& g = segmenter_.CellGraphlet(cell);
  ScoreDecision& d = decisions_[cell];
  d.trainer = segmenter_.CellTrainer(cell);
  // Variants whose intervention point never streamed (failed trainers
  // produce no model, so neither trigger fires) are scored late, on the
  // final graphlet; variant_scored stays false to record the lateness.
  if (!scoring.early_scored) {
    scoring.row = featurizer_->Row(g);
    featurizer_->Advance(g);
  } else if (!scoring.trainer_scored) {
    featurizer_->UpdateShapeColumns(g, &scoring.row);
  }
  if (!scoring.early_scored || !scoring.trainer_scored) {
    for (size_t v = 0; v < kStreamingVariants.size(); ++v) {
      if (!d.variant_scored[v]) {
        d.variant_scores[v] =
            options_.scorer->Score(kStreamingVariants[v], scoring.row);
      }
    }
    const size_t policy =
        static_cast<size_t>(options_.scorer->policy_variant());
    if (!d.variant_scored[policy]) {
      d.variant = options_.scorer->policy_variant();
      d.score = d.variant_scores[policy];
      d.threshold = options_.scorer->Threshold(d.variant);
      d.abort = d.score < d.threshold;
    }
  }
#ifndef MLPROV_OBS_NOOP
  // Close the causal chain: graphlet seal ('t') then the settled
  // abort/continue decision ('f') against the flow the producing trainer
  // execution started. Failed trainers never started one, so they emit
  // nothing (matching EmitExecSpan on the simulator side).
  if (options_.emit_flows && trace_id_ != 0) {
    obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
    const auto trainer = store_.GetExecution(d.trainer);
    if (recorder.enabled() && trainer.ok() && trainer.value().succeeded) {
      const obs::SpanContext ctx{trace_id_,
                                 static_cast<uint64_t>(d.trainer), 0};
      const uint64_t bind_id =
          obs::FlowBindId(ctx, obs::FlowKind::kCausal);
      recorder.RecordFlow('t', "seal", "flow.causal", bind_id);
      recorder.RecordFlow('f', "decision", "flow.causal", bind_id);
    }
  }
#endif
  d.settled = true;
  d.pushed = g.pushed;
  const std::array<double, 4> costs = featurizer_->StageCosts(g);
  if (d.abort) {
    d.avoided_hours = std::max(
        0.0, costs[3] - costs[core::StageOf(d.variant)]);
    d.lost_push = d.pushed;
    ++waste_.aborts;
    waste_.avoided_hours += d.avoided_hours;
    MLPROV_COUNTER_INC("stream.aborts");
    if (d.lost_push) {
      ++waste_.lost_pushes;
      MLPROV_COUNTER_INC("stream.lost_pushes");
    }
  }
  ++waste_.decisions;
  MLPROV_COUNTER_INC("stream.decisions");
  MLPROV_GAUGE_ADD("waste.avoided_hours", d.avoided_hours);
#ifndef MLPROV_OBS_NOOP
  {
    // Per-graphlet (not per-record) cadence, so the Json cost is noise.
    obs::Json detail = obs::Json::Object();
    detail.Set("trainer", d.trainer);
    detail.Set("abort", d.abort);
    detail.Set("score", d.score);
    flight_.Note("decision", std::move(detail));
  }
#endif
  scoring.row.clear();
  scoring.row.shrink_to_fit();
  scoring.settled = true;
}

SessionStats ProvenanceSession::stats() const {
  SessionStats stats = counts_;
  stats.segmenter = segmenter_.stats();
  return stats;
}

obs::Json SessionHealth::ToJson() const {
  obs::Json j = obs::Json::Object();
  j.Set("name", name);
  j.Set("records", records);
  j.Set("watermark", static_cast<int64_t>(watermark));
  j.Set("seal_lag_hours", seal_lag_hours);
  j.Set("cells", cells);
  j.Set("sealed", sealed);
  j.Set("open_cells", open_cells);
  j.Set("reseals", reseals);
  j.Set("extractions", extractions);
  j.Set("decisions", decisions);
  j.Set("pending_decisions", pending_decisions);
  j.Set("poisoned", poisoned);
  j.Set("finished", finished);
  j.Set("recovered", recovered);
  return j;
}

SessionHealth ProvenanceSession::Health() const {
  SessionHealth h;
  h.name = options_.name;
  h.records = counts_.records;
  h.watermark = segmenter_.watermark();
  const metadata::Timestamp oldest = segmenter_.OldestUnsealedTrainerEnd();
  if (oldest != 0 && h.watermark > oldest) {
    h.seal_lag_hours = static_cast<double>(h.watermark - oldest) /
                       metadata::kSecondsPerHour;
  }
  const StreamingSegmenter::Stats& seg = segmenter_.stats();
  h.cells = seg.cells;
  h.sealed = seg.sealed;
  h.open_cells = segmenter_.NumOpenCells();
  h.reseals = seg.reseals;
  h.extractions = seg.extractions;
  h.decisions = waste_.decisions;
  h.pending_decisions =
      options_.scorer != nullptr && h.cells > h.decisions
          ? h.cells - h.decisions
          : 0;
  h.poisoned = !status_.ok();
  h.finished = finished_;
  h.recovered = recovered_;
  return h;
}

void ProvenanceSession::PublishHealth() {
  if (!obs::kMetricsEnabled) return;
  if (options_.name.empty()) return;
  static constexpr const char* kFields[] = {
      "records",     "watermark_hours", "seal_lag_hours",
      "cells",       "sealed",          "open_cells",
      "reseals",     "decisions",       "pending_decisions",
      "poisoned",    "recovered",
  };
  if (health_gauges_.empty()) {
    const std::string prefix = "session." + options_.name + ".";
    for (const char* field : kFields) {
      health_gauges_.push_back(
          obs::Registry::Global().GetGauge(prefix + field));
    }
  }
  const SessionHealth h = Health();
  const double values[] = {
      static_cast<double>(h.records),
      static_cast<double>(h.watermark) / metadata::kSecondsPerHour,
      h.seal_lag_hours,
      static_cast<double>(h.cells),
      static_cast<double>(h.sealed),
      static_cast<double>(h.open_cells),
      static_cast<double>(h.reseals),
      static_cast<double>(h.decisions),
      static_cast<double>(h.pending_decisions),
      h.poisoned ? 1.0 : 0.0,
      h.recovered ? 1.0 : 0.0,
  };
  for (size_t i = 0; i < health_gauges_.size(); ++i) {
    health_gauges_[i]->Set(values[i]);
  }
}

}  // namespace mlprov::stream
