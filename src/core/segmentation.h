#ifndef MLPROV_CORE_SEGMENTATION_H_
#define MLPROV_CORE_SEGMENTATION_H_

/// Graphlet segmentation (Section 4.1 / Appendix A): the fast BFS
/// implementation plus its datalog reference cross-check. Invariants:
/// segmentation assigns every Trainer execution to exactly one graphlet,
/// SegmentTrace and SegmentTraceDatalog agree on every trace
/// (property-tested), and cache-hit executions (zero-cost re-runs
/// recorded by the simulator's memoization cache) segment exactly like
/// their uncached counterparts — trace structure is cache-invariant.

#include <vector>

#include "core/graphlet.h"
#include "metadata/metadata_store.h"

namespace mlprov::core {

/// Graphlet segmentation has no options: the Appendix A rules are fixed.
/// Descendant traversal stops at (and excludes) Transform and Trainer
/// executions (the `sc` predicate: "either Transform or Trainer"), and
/// ancestor traversal does not expand through other Trainers (Figure 8:
/// a warm-start edge is a cut; the upstream model artifact is included,
/// its producing trainer is not). The empty struct survives only as the
/// type of StreamingSegmenterOptions::segmentation and
/// ProvenanceIndexOptions::segmentation, which perfbench/ledger.cc reads.
struct SegmentationOptions {};

/// Reusable single-trainer graphlet extractor: the BFS kernel behind
/// SegmentTrace and the streaming segmenter's only extraction path,
/// which extracts one trainer's graphlet against a *growing* store.
/// Owns its scratch bitmaps and frontiers; the bitmaps grow lazily, so
/// the same extractor instance stays valid as the store gains nodes.
/// Extraction always reflects the store's current contents — calling
/// Extract twice for the same trainer after the store grew returns the
/// grown graphlet. One extraction costs O(members + their incident
/// edges + a sort of the member ids), independent of the store's size;
/// only growing the bitmaps is amortized.
class GraphletExtractor {
 public:
  /// Extracts the graphlet anchored at `trainer` (rules a/b/c of
  /// Appendix A) from the store's current contents.
  Graphlet Extract(const metadata::MetadataStore& store,
                   metadata::ExecutionId trainer);

 private:
  void EnsureScratch(const metadata::MetadataStore& store);
  bool AddExec(metadata::ExecutionId id, bool descendant);
  bool AddArtifact(metadata::ArtifactId id);

  // Scratch bitmaps indexed by node id; reset after every extraction via
  // the touched lists.
  std::vector<char> exec_in_;
  std::vector<char> artifact_in_;
  std::vector<char> exec_is_descendant_;
  std::vector<metadata::ExecutionId> touched_execs_;
  std::vector<metadata::ArtifactId> touched_artifacts_;
  std::vector<metadata::ExecutionId> exec_frontier_;
  std::vector<metadata::ArtifactId> artifact_frontier_;
};

/// Extracts all model graphlets of a trace, one per Trainer execution,
/// ordered chronologically by trainer end time (the paper's notion of
/// consecutive graphlets). Runs in time linear in the total size of the
/// extracted subgraphs.
std::vector<Graphlet> SegmentTrace(const metadata::MetadataStore& store);

/// Reference implementation of the Appendix A datalog queries on the
/// Datalog engine; returns the same graphlet node sets as SegmentTrace.
/// Exponentially slower on big traces — used for cross-checking only.
std::vector<Graphlet> SegmentTraceDatalog(
    const metadata::MetadataStore& store);

}  // namespace mlprov::core

#endif  // MLPROV_CORE_SEGMENTATION_H_
