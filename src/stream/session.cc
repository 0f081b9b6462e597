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

namespace mlprov::stream {

using common::Status;
using sim::ProvenanceRecord;

namespace {

/// Arrival-log tag of a record kind; both feed vocabularies name their
/// kinds alike.
template <typename Kind>
char ArrivalTag(Kind kind) {
  switch (kind) {
    case Kind::kContext:
      return 'C';
    case Kind::kExecution:
      return 'E';
    case Kind::kArtifact:
      return 'A';
    case Kind::kEvent:
      return 'V';
  }
  return '?';
}

#ifndef MLPROV_OBS_NOOP
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
  if (finished_) {
    return Status::FailedPrecondition(
        "ProvenanceSession: record ingested after Finish()");
  }
  if (!status_.ok()) return status_;  // poisoned: first violation is sticky
  Status status = IngestImpl(record);
  if (status.ok()) {
    arrivals_.push_back(ArrivalTag(record.kind));
  } else {
    status_ = status;
    RecordPoisoning(record);
  }
  // Any record can advance the watermark past a trainer's grace period;
  // settle the decisions of cells the segmenter just sealed.
  if (status.ok() && options_.scorer != nullptr) SettleSealed();
  return status;
}

void ProvenanceSession::RecordPoisoning(const ProvenanceRecord& record) {
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

Status ProvenanceSession::IngestImpl(const ProvenanceRecord& record) {
  ++counts_.records;
  MLPROV_COUNTER_INC("stream.records");
  MLPROV_SAMPLER_OBSERVE(1);
#ifndef MLPROV_OBS_NOOP
  {
    const RecordDigest digest = DigestOf(record);
    flight_.NoteRecord(digest.kind, digest.id, digest.time);
  }
#endif
  switch (record.kind) {
    case ProvenanceRecord::Kind::kContext: {
      metadata::ContextId assigned = store_.PutContext(record.context);
      if (record.context.id != metadata::kInvalidId &&
          record.context.id != assigned) {
        return Status::InvalidArgument(
            "context id " + std::to_string(record.context.id) +
            " out of order (expected " + std::to_string(assigned) + ")");
      }
      context_ = assigned;
      ++counts_.contexts;
      return Status::Ok();
    }
    case ProvenanceRecord::Kind::kExecution: {
      metadata::ExecutionId expected =
          static_cast<metadata::ExecutionId>(store_.num_executions()) + 1;
      if (record.execution.id != expected) {
        return Status::InvalidArgument(
            "execution id " + std::to_string(record.execution.id) +
            " out of order (expected " + std::to_string(expected) + ")");
      }
      store_.PutExecution(record.execution);
      if (context_ != metadata::kInvalidId) {
        MLPROV_RETURN_IF_ERROR(store_.AddToContext(context_, expected));
      }
      if (options_.enable_index) index_.OnExecution(record.execution);
      segmenter_.OnExecution(record.execution);
      ++counts_.executions;
#ifndef MLPROV_OBS_NOOP
      if (record.span.valid()) {
        if (trace_id_ == 0) trace_id_ = record.span.trace_id;
        // Mark the causal flow at arrival: only trainer executions start
        // one (see EmitExecSpan in the simulator), and only succeeded
        // ones — failed attempts never get a flow start.
        if (options_.emit_flows &&
            record.execution.type == metadata::ExecutionType::kTrainer &&
            record.execution.succeeded) {
          obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
          if (recorder.enabled()) {
            recorder.RecordFlow(
                't', "arrival", "flow.causal",
                obs::FlowBindId(record.span, obs::FlowKind::kCausal));
          }
        }
      }
#endif
      return Status::Ok();
    }
    case ProvenanceRecord::Kind::kArtifact: {
      metadata::ArtifactId expected =
          static_cast<metadata::ArtifactId>(store_.num_artifacts()) + 1;
      if (record.artifact.id != expected) {
        return Status::InvalidArgument(
            "artifact id " + std::to_string(record.artifact.id) +
            " out of order (expected " + std::to_string(expected) + ")");
      }
      store_.PutArtifact(record.artifact);
      if (context_ != metadata::kInvalidId) {
        MLPROV_RETURN_IF_ERROR(
            store_.AddArtifactToContext(context_, expected));
      }
      if (record.span_stats != nullptr) {
        span_stats_.emplace(expected, *record.span_stats);
      }
      if (options_.enable_index) index_.OnArtifact(record.artifact);
      segmenter_.OnArtifact(record.artifact);
      ++counts_.artifacts;
      return Status::Ok();
    }
    case ProvenanceRecord::Kind::kEvent: {
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

common::Status ProvenanceSession::Ingest(const metadata::RecordRef& record) {
  if (finished_) {
    return Status::FailedPrecondition(
        "ProvenanceSession: record ingested after Finish()");
  }
  if (!status_.ok()) return status_;  // poisoned: first violation is sticky
  Status status = IngestImpl(record);
  if (status.ok()) {
    arrivals_.push_back(ArrivalTag(record.kind));
  } else {
    status_ = status;
    RecordPoisoning(record);
  }
  if (status.ok() && options_.scorer != nullptr) SettleSealed();
  return status;
}

void ProvenanceSession::RecordPoisoning(const metadata::RecordRef& record) {
#ifndef MLPROV_OBS_NOOP
  const RecordDigest digest = DigestOf(record);
  obs::Json violating = obs::Json::Object();
  violating.Set("kind", std::string(1, digest.kind));
  violating.Set("id", digest.id);
  violating.Set("time", digest.time);
  violating.Set("record_index", static_cast<uint64_t>(counts_.records));
  flight_.NoteError(status_.message(), std::move(violating));
  MLPROV_COUNTER_INC("stream.poisoned_sessions");
  (void)flight_.Dump();
#else
  (void)record;
#endif
}

Status ProvenanceSession::IngestImpl(const metadata::RecordRef& record) {
  ++counts_.records;
  MLPROV_COUNTER_INC("stream.records");
  MLPROV_SAMPLER_OBSERVE(1);
#ifndef MLPROV_OBS_NOOP
  {
    const RecordDigest digest = DigestOf(record);
    flight_.NoteRecord(digest.kind, digest.id, digest.time);
  }
#endif
  switch (record.kind) {
    case metadata::RecordRef::Kind::kContext: {
      const metadata::ContextId assigned =
          store_.PutContextBorrowed(record.context_name);
      if (record.id != metadata::kInvalidId && record.id != assigned) {
        return Status::InvalidArgument(
            "context id " + std::to_string(record.id) +
            " out of order (expected " + std::to_string(assigned) + ")");
      }
      context_ = assigned;
      ++counts_.contexts;
      return Status::Ok();
    }
    case metadata::RecordRef::Kind::kExecution: {
      const metadata::ExecutionId expected =
          static_cast<metadata::ExecutionId>(store_.num_executions()) + 1;
      if (record.id != expected) {
        return Status::InvalidArgument(
            "execution id " + std::to_string(record.id) +
            " out of order (expected " + std::to_string(expected) + ")");
      }
      store_.PutExecutionBorrowed(record.execution_type, record.start_time,
                                  record.end_time, record.succeeded,
                                  record.compute_cost, record.properties);
      if (context_ != metadata::kInvalidId) {
        MLPROV_RETURN_IF_ERROR(store_.AddToContext(context_, expected));
      }
      if (options_.enable_index) {
        index_.OnExecution(store_.executions().back());
      }
      segmenter_.OnExecution(store_.executions().back());
      ++counts_.executions;
      return Status::Ok();
    }
    case metadata::RecordRef::Kind::kArtifact: {
      const metadata::ArtifactId expected =
          static_cast<metadata::ArtifactId>(store_.num_artifacts()) + 1;
      if (record.id != expected) {
        return Status::InvalidArgument(
            "artifact id " + std::to_string(record.id) +
            " out of order (expected " + std::to_string(expected) + ")");
      }
      store_.PutArtifactBorrowed(record.artifact_type, record.create_time,
                                 record.properties);
      if (context_ != metadata::kInvalidId) {
        MLPROV_RETURN_IF_ERROR(
            store_.AddArtifactToContext(context_, expected));
      }
      if (options_.enable_index) index_.OnArtifact(store_.artifacts().back());
      segmenter_.OnArtifact(store_.artifacts().back());
      ++counts_.artifacts;
      return Status::Ok();
    }
    case metadata::RecordRef::Kind::kEvent: {
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
  return Status::Internal("unknown record view kind");
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
