#ifndef MLPROV_CORE_SEGMENTATION_H_
#define MLPROV_CORE_SEGMENTATION_H_

/// Graphlet segmentation (Section 4.1 / Appendix A): the fast BFS
/// implementation plus its datalog reference cross-check. Invariants:
/// segmentation assigns every Trainer execution to exactly one graphlet,
/// SegmentTrace and SegmentTraceDatalog agree on every trace
/// (property-tested), and cache-hit executions (zero-cost re-runs
/// recorded by the simulator's memoization cache) segment exactly like
/// their uncached counterparts — trace structure is cache-invariant.

#include <iterator>
#include <vector>

#include "core/graphlet.h"
#include "metadata/metadata_store.h"

namespace mlprov::core {

/// Options for graphlet segmentation (Section 4.1 / Appendix A).
struct SegmentationOptions {
  /// Descendant traversal stops at (and excludes) these execution types —
  /// the `sc` predicate of Appendix A: "either Transform or Trainer".
  /// Copied from a static array rather than an initializer list, whose
  /// temporary backing array GCC 12 at -O3 reports as maybe-uninitialized
  /// wherever several options structs are built in one function.
  static constexpr metadata::ExecutionType kDefaultDescendantStop[] = {
      metadata::ExecutionType::kTransform, metadata::ExecutionType::kTrainer};
  std::vector<metadata::ExecutionType> descendant_stop{
      std::begin(kDefaultDescendantStop), std::end(kDefaultDescendantStop)};
  /// Ancestor traversal does not expand through other Trainer executions:
  /// per Figure 8, a warm-start edge is a cut between graphlets (the
  /// upstream model artifact is included, its producing trainer is not).
  bool cut_ancestors_at_trainers = true;
};

/// Reusable single-trainer graphlet extractor: the BFS kernel behind
/// SegmentTrace and the streaming segmenter's only extraction path,
/// which re-extracts one trainer's graphlet against a *growing* store.
/// Owns its scratch bitmaps; they are grown lazily, so the same
/// extractor instance stays valid as the store gains nodes. Extraction
/// always reflects the store's current contents — calling Extract twice
/// for the same trainer after the store grew returns the grown graphlet.
class GraphletExtractor {
 public:
  explicit GraphletExtractor(const SegmentationOptions& options = {})
      : options_(options) {}

  /// Extracts the graphlet anchored at `trainer` (rules a/b/c of
  /// Appendix A) from the store's current contents.
  Graphlet Extract(const metadata::MetadataStore& store,
                   metadata::ExecutionId trainer);

 private:
  void EnsureScratch(const metadata::MetadataStore& store);
  bool AddExec(metadata::ExecutionId id, bool descendant);
  bool AddArtifact(metadata::ArtifactId id);

  SegmentationOptions options_;
  // Scratch bitmaps indexed by node id; reset after every extraction via
  // the touched lists, so Extract is O(graphlet size) amortized.
  std::vector<char> exec_in_;
  std::vector<char> artifact_in_;
  std::vector<char> exec_is_descendant_;
  std::vector<metadata::ExecutionId> touched_execs_;
  std::vector<metadata::ArtifactId> touched_artifacts_;
};

/// Extracts all model graphlets of a trace, one per Trainer execution,
/// ordered chronologically by trainer end time (the paper's notion of
/// consecutive graphlets). Runs in time linear in the total size of the
/// extracted subgraphs.
std::vector<Graphlet> SegmentTrace(const metadata::MetadataStore& store,
                                   const SegmentationOptions& options = {});

/// Reference implementation of the Appendix A datalog queries on the
/// Datalog engine; returns the same graphlet node sets as SegmentTrace.
/// Exponentially slower on big traces — used for cross-checking only.
std::vector<Graphlet> SegmentTraceDatalog(
    const metadata::MetadataStore& store,
    const SegmentationOptions& options = {});

}  // namespace mlprov::core

#endif  // MLPROV_CORE_SEGMENTATION_H_
