#ifndef MLPROV_SIMULATOR_CORPUS_H_
#define MLPROV_SIMULATOR_CORPUS_H_

/// The simulated stand-in for the paper's study corpus (Section 2.2): a
/// vector of per-pipeline provenance traces plus their span-statistics
/// side tables. Invariants: every trace in a corpus is self-contained
/// (no cross-pipeline artifact or execution ids); traces are ordered by
/// pipeline_id, and a corpus generated with the same (CorpusConfig,
/// seed) is byte-identical regardless of thread count.

#include <vector>

#include "dataspan/span_stats.h"
#include "metadata/metadata_store.h"
#include "simulator/pipeline_config.h"

namespace mlprov::sim {

/// One pipeline's simulated provenance: its configuration, MLMD trace, and
/// the per-span summary statistics side table (keyed by the Examples
/// artifact id, mirroring Section 2.2's "additional metadata per data
/// span"). The table shares each span's immutable stats with the feed
/// records and the sessions that ingest them.
struct PipelineTrace {
  PipelineConfig config;
  metadata::MetadataStore store;
  dataspan::SpanStatsTable span_stats;

  PipelineTrace() = default;
  PipelineTrace(PipelineTrace&&) = default;
  PipelineTrace& operator=(PipelineTrace&&) = default;
  PipelineTrace(const PipelineTrace&) = delete;
  PipelineTrace& operator=(const PipelineTrace&) = delete;
};

/// The full simulated corpus: the stand-in for the paper's 3000-pipeline
/// production dataset.
struct Corpus {
  CorpusConfig config;
  std::vector<PipelineTrace> pipelines;

  size_t TotalExecutions() const;
  size_t TotalArtifacts() const;
  /// Total Trainer executions (the paper's "models trained" count).
  size_t TotalTrainerRuns() const;
};

}  // namespace mlprov::sim

#endif  // MLPROV_SIMULATOR_CORPUS_H_
