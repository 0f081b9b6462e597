#ifndef MLPROV_METADATA_TRACE_H_
#define MLPROV_METADATA_TRACE_H_

#include <functional>
#include <vector>

#include "metadata/metadata_store.h"
#include "metadata/types.h"

namespace mlprov::metadata {

/// Stop conditions for descendant traversals, shared between the batch
/// TraceView walks and the indexed core::TraceQuery surface so both
/// take the same options type. An execution is excluded (and not
/// expanded through) when its type is in `stop_types` or `stop` returns
/// true; the conditions are OR'd. Default: no stops.
struct TraverseOptions {
  std::vector<ExecutionType> stop_types;
  std::function<bool(const Execution&)> stop;

  bool Stops(const Execution& e) const {
    for (ExecutionType t : stop_types) {
      if (t == e.type) return true;
    }
    return stop && stop(e);
  }
};

/// Read-only graph view over a MetadataStore providing the trace-level
/// traversals the paper's analyses need: ancestor/descendant closures,
/// topological order, and connected components. The view does not own the
/// store; the store must outlive it.
class TraceView {
 public:
  explicit TraceView(const MetadataStore* store) : store_(store) {}

  const MetadataStore& store() const { return *store_; }

  /// Total node count (executions + artifacts), the paper's measure of
  /// trace size (up to 6953 nodes in their corpus).
  size_t NumNodes() const {
    return store_->num_artifacts() + store_->num_executions();
  }

  /// All ancestor executions of `exec` (reachable backwards through
  /// input-artifact → producer edges), excluding `exec` itself.
  std::vector<ExecutionId> AncestorExecutions(ExecutionId exec) const;

  /// All artifacts reachable backwards from `exec` (its inputs and the
  /// inputs/outputs of its ancestors).
  std::vector<ArtifactId> AncestorArtifacts(ExecutionId exec) const;

  /// Descendant executions of `exec`, following output-artifact → consumer
  /// edges. Traversal does not expand past executions the options stop at
  /// (those executions are themselves excluded). This directly implements
  /// the NOT sc(V) side-condition of the Appendix A datalog.
  std::vector<ExecutionId> DescendantExecutions(
      ExecutionId exec, const TraverseOptions& options = {}) const;

  /// Executions in topological (dependency) order, ties broken by the
  /// smallest id (which coincides with time for the DAG traces this
  /// library produces). Shorter than num_executions() iff the trace has
  /// a cycle: executions on or downstream of it are left out.
  /// O((V + E) log V).
  std::vector<ExecutionId> TopologicalOrder() const;

  /// Number of weakly connected components over all nodes.
  size_t NumConnectedComponents() const;

  /// Timestamp of the oldest and newest node in the trace; the difference
  /// is the paper's pipeline "lifespan". Returns {0, 0} for empty traces.
  std::pair<Timestamp, Timestamp> TimeExtent() const;

 private:
  const MetadataStore* store_;
};

}  // namespace mlprov::metadata

#endif  // MLPROV_METADATA_TRACE_H_
