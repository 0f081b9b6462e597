#ifndef MLPROV_SIMULATOR_PROVENANCE_SINK_H_
#define MLPROV_SIMULATOR_PROVENANCE_SINK_H_

/// The live provenance feed: the record vocabulary a simulator (or any
/// other MLMD producer) emits while a pipeline is running, and the
/// feeder that drains a PipelineTrace into a sink incrementally. This is
/// the boundary between "produce a trace" and "serve a trace" — the
/// streaming session API (src/stream) consumes exactly this feed.
///
/// Feed-order contract (what every sink may rely on, and what
/// ProvenanceFeeder guarantees):
///  - contexts arrive before any node,
///  - executions arrive in id order, artifacts arrive in id order (so a
///    replaying MetadataStore reassigns identical dense ids),
///  - events arrive in their original put order, and every event arrives
///    after both of its endpoints,
///  - each node record carries its final property values (the simulator
///    finishes all mutations within the trigger that created the node,
///    and the feeder flushes at trigger boundaries).

#include <cstddef>

#include "dataspan/span_stats.h"
#include "metadata/metadata_store.h"
#include "obs/span_context.h"
#include "simulator/corpus.h"

namespace mlprov::sim {

/// One element of the ordered provenance feed.
struct ProvenanceRecord {
  enum class Kind { kContext, kExecution, kArtifact, kEvent };
  Kind kind = Kind::kEvent;
  // Exactly one of the following is meaningful, selected by `kind`.
  metadata::Context context;
  metadata::Execution execution;
  metadata::Artifact artifact;
  metadata::Event event;
  /// Optional side-table payload for kArtifact records of Examples spans
  /// (the Section 2.2 per-span summary statistics). Shared and immutable:
  /// a sink may keep the pointer, and the stats outlive the producing
  /// trace for as long as any holder does.
  dataspan::SpanStatsPtr span_stats;
  /// Causal span identity for kExecution records: trace id = pipeline
  /// id + 1, span id = the execution's MLMD id. Invalid (all zero) for
  /// other kinds. Downstream stages (segmenter seal, scorer decision)
  /// emit flow events against these ids to stitch the cross-layer causal
  /// chain in trace exports.
  obs::SpanContext span;
};

/// Receives provenance records as a pipeline materializes them. Sinks are
/// called synchronously from the producing thread; a sink serving
/// multiple pipelines concurrently must synchronize internally (the
/// corpus wrappers instead run one session per pipeline).
class ProvenanceSink {
 public:
  virtual ~ProvenanceSink() = default;
  virtual void OnRecord(const ProvenanceRecord& record) = 0;
};

/// Incrementally drains a PipelineTrace into a sink in the feed order
/// described above. Flush() emits everything emittable so far: new
/// contexts, then each new event in put order preceded by any unemitted
/// nodes with ids up to the event's endpoints (emitting "up to" — not
/// just the endpoints — preserves the id-order contract for nodes that
/// are never referenced by events). Finish() flushes and then emits the
/// remaining trailing nodes. The same record sequence is produced whether
/// Flush runs once at the end or after every trigger — incremental
/// chunking never reorders the feed.
class ProvenanceFeeder {
 public:
  explicit ProvenanceFeeder(ProvenanceSink* sink) : sink_(sink) {}

  /// Emits all records that became emittable since the last call.
  void Flush(const PipelineTrace& trace);

  /// Flush plus the trailing nodes no event ever referenced.
  void Finish(const PipelineTrace& trace);

  size_t records_emitted() const { return records_emitted_; }

 private:
  void EmitExecutionsUpTo(const PipelineTrace& trace,
                          metadata::ExecutionId id);
  void EmitArtifactsUpTo(const PipelineTrace& trace,
                         metadata::ArtifactId id);

  ProvenanceSink* sink_;
  size_t next_context_ = 0;
  size_t next_event_ = 0;
  metadata::ExecutionId next_execution_ = 1;
  metadata::ArtifactId next_artifact_ = 1;
  size_t records_emitted_ = 0;
};

}  // namespace mlprov::sim

#endif  // MLPROV_SIMULATOR_PROVENANCE_SINK_H_
