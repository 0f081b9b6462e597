#include "simulator/provenance_sink.h"

namespace mlprov::sim {

using metadata::ArtifactId;
using metadata::ExecutionId;

ProvenanceFeeder::Source ProvenanceFeeder::SourceOf(
    const PipelineTrace& trace) {
  // Causal span identity: the ids are derived (seed-salted pipeline trace
  // id, execution id), never allocated, so the feed is identical at any
  // thread count and matches the spans the simulator emitted.
  return {trace.store, &trace.span_stats,
          obs::DeriveTraceId(static_cast<uint64_t>(trace.config.pipeline_id),
                             trace.config.seed)};
}

void ProvenanceFeeder::EmitExecutionsUpTo(const Source& source,
                                          ExecutionId id) {
  const auto& executions = source.store.executions();
  while (next_execution_ <= id &&
         static_cast<size_t>(next_execution_) <= executions.size()) {
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kExecution;
    record.execution = executions[static_cast<size_t>(next_execution_) - 1];
    if (source.trace_id != 0) {
      record.span.trace_id = source.trace_id;
      record.span.span_id = static_cast<uint64_t>(next_execution_);
    }
    ++next_execution_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
}

void ProvenanceFeeder::EmitArtifactsUpTo(const Source& source,
                                         ArtifactId id) {
  const auto& artifacts = source.store.artifacts();
  while (next_artifact_ <= id &&
         static_cast<size_t>(next_artifact_) <= artifacts.size()) {
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kArtifact;
    record.artifact = artifacts[static_cast<size_t>(next_artifact_) - 1];
    if (source.span_stats != nullptr) {
      if (auto it = source.span_stats->find(next_artifact_);
          it != source.span_stats->end()) {
        record.span_stats = it->second;
      }
    }
    ++next_artifact_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
}

void ProvenanceFeeder::Emit(const Source& source, bool finish) {
  const auto& contexts = source.store.contexts();
  while (next_context_ < contexts.size()) {
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kContext;
    record.context = contexts[next_context_];
    // Context membership is accumulated by the consumer as nodes arrive;
    // the record only carries the context's identity.
    record.context.executions.clear();
    record.context.artifacts.clear();
    ++next_context_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
  const auto& events = source.store.events();
  while (next_event_ < events.size()) {
    const metadata::Event& event = events[next_event_];
    EmitExecutionsUpTo(source, event.execution);
    EmitArtifactsUpTo(source, event.artifact);
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kEvent;
    record.event = event;
    ++next_event_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
  if (!finish) return;
  EmitExecutionsUpTo(
      source, static_cast<ExecutionId>(source.store.num_executions()));
  EmitArtifactsUpTo(source,
                    static_cast<ArtifactId>(source.store.num_artifacts()));
}

void ProvenanceFeeder::Flush(const PipelineTrace& trace) {
  Emit(SourceOf(trace), /*finish=*/false);
}

void ProvenanceFeeder::Finish(const PipelineTrace& trace) {
  Emit(SourceOf(trace), /*finish=*/true);
}

void ProvenanceFeeder::Finish(const metadata::MetadataStore& store) {
  Emit(Source{store}, /*finish=*/true);
}

}  // namespace mlprov::sim
