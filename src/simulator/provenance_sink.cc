#include "simulator/provenance_sink.h"

namespace mlprov::sim {

using metadata::ArtifactId;
using metadata::ExecutionId;

void ProvenanceFeeder::EmitExecutionsUpTo(const PipelineTrace& trace,
                                          ExecutionId id) {
  const auto& executions = trace.store.executions();
  while (next_execution_ <= id &&
         static_cast<size_t>(next_execution_) <= executions.size()) {
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kExecution;
    record.execution = executions[static_cast<size_t>(next_execution_) - 1];
    // Causal span identity: the ids are derived (seed-salted pipeline
    // trace id, execution id), never allocated, so the feed is identical
    // at any thread count and matches the spans the simulator emitted.
    record.span.trace_id = obs::DeriveTraceId(
        static_cast<uint64_t>(trace.config.pipeline_id), trace.config.seed);
    record.span.span_id = static_cast<uint64_t>(next_execution_);
    ++next_execution_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
}

void ProvenanceFeeder::EmitArtifactsUpTo(const PipelineTrace& trace,
                                         ArtifactId id) {
  const auto& artifacts = trace.store.artifacts();
  while (next_artifact_ <= id &&
         static_cast<size_t>(next_artifact_) <= artifacts.size()) {
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kArtifact;
    record.artifact = artifacts[static_cast<size_t>(next_artifact_) - 1];
    if (auto it = trace.span_stats.find(next_artifact_);
        it != trace.span_stats.end()) {
      record.span_stats = it->second;
    }
    ++next_artifact_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
}

void ProvenanceFeeder::Flush(const PipelineTrace& trace) {
  const auto& contexts = trace.store.contexts();
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
  const auto& events = trace.store.events();
  while (next_event_ < events.size()) {
    const metadata::Event& event = events[next_event_];
    EmitExecutionsUpTo(trace, event.execution);
    EmitArtifactsUpTo(trace, event.artifact);
    ProvenanceRecord record;
    record.kind = ProvenanceRecord::Kind::kEvent;
    record.event = event;
    ++next_event_;
    ++records_emitted_;
    sink_->OnRecord(record);
  }
}

void ProvenanceFeeder::Finish(const PipelineTrace& trace) {
  Flush(trace);
  EmitExecutionsUpTo(
      trace, static_cast<ExecutionId>(trace.store.num_executions()));
  EmitArtifactsUpTo(trace,
                    static_cast<ArtifactId>(trace.store.num_artifacts()));
}

}  // namespace mlprov::sim
