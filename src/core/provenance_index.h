#ifndef MLPROV_CORE_PROVENANCE_INDEX_H_
#define MLPROV_CORE_PROVENANCE_INDEX_H_

/// Incremental provenance index + TraceQuery engine (ROADMAP item 2).
///
/// metadata::TraceView recomputes ancestor/descendant closures from
/// scratch on every call; at millions of executions that is the next
/// scaling wall. ProvenanceIndex maintains one reachability label per
/// execution *incrementally* as records arrive (the streaming session
/// feeds it one record at a time, in lockstep with its store), so
/// closure queries decode a bitset instead of walking the graph — no
/// full recompute on query.
///
/// Label: `anc`, the full ancestor closure — bit u set iff execution u
/// reaches this execution through output→input edges. Descendants are
/// the column scan "is e in anc[x]" over all rows.
///
/// Incremental-maintenance invariant: after every OnArtifact /
/// OnExecution / OnEvent callback (or CatchUp), the labels equal the
/// least fixpoint of
///     anc(v) = ⋃ over edges u→v of {u} ∪ anc(u)
/// over the execution-level edge set {u→v : some artifact is an output
/// of u and an input of v}, derived from events exactly as the store's
/// adjacency indexes them. New edges are applied with a worklist
/// propagation; in feed order (the newest node has no out-edges) the
/// worklist is empty and maintenance is one bitset union per edge. On a
/// corrupt cyclic store the fixpoint puts a node in its own label; the
/// decoders drop that bit, so every decode equals the TraceView BFS on
/// any store.
///
/// Memory cost per execution: one execution-bitset ≈ n/8 bytes for a
/// trace of n executions — ~1.25 KB per execution at n = 10 000.
/// Labels are per-trace and never shared, so under --shards=N each
/// shard owns exactly the indexes of the pipelines routed to it (no
/// cross-shard label traffic exists).
///
/// The store must outlive the index and may only grow (dense 1-based
/// ids, the feed-order contract). Mutating repairs (DropInvalidEvents,
/// ValidateAndRepair) invalidate an already-built index — run them
/// first, then CatchUp a fresh index.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/status.h"
#include "core/segmentation.h"
#include "metadata/metadata_store.h"
#include "metadata/trace.h"
#include "metadata/types.h"

namespace mlprov::core {

struct ProvenanceIndexOptions {
  /// Unread; kept because perfbench/ledger.cc constructs the index with it.
  SegmentationOptions segmentation;
};

/// Dense bitset over 1-based node ids, grown lazily. Word layout is
/// bit = id (bit 0 unused) so decode needs no offset arithmetic.
class IdBitset {
 public:
  /// Sets `bit`; returns true iff it was newly set.
  bool Set(size_t bit);
  bool Test(size_t bit) const;
  /// Unions `other` in; returns true iff any bit changed.
  bool UnionWith(const IdBitset& other);
  /// Calls `fn(bit)` for every set bit in ascending order.
  template <typename Fn>
  void ForEachSet(Fn&& fn) const {
    for (size_t i = 0; i < words_.size(); ++i) {
      uint64_t w = words_[i];
      while (w != 0) {
        fn(i * 64 + static_cast<size_t>(CountTrailingZeros(w)));
        w &= w - 1;
      }
    }
  }
  size_t capacity_bytes() const {
    return words_.capacity() * sizeof(uint64_t);
  }

 private:
  static int CountTrailingZeros(uint64_t w);
  std::vector<uint64_t> words_;
};

class ProvenanceIndex {
 public:
  explicit ProvenanceIndex(const metadata::MetadataStore* store,
                           const ProvenanceIndexOptions& options = {});

  /// Record callbacks, invoked *after* the corresponding store insert,
  /// in feed order (the same discipline as StreamingSegmenter's).
  void OnArtifact(const metadata::Artifact& artifact);
  void OnExecution(const metadata::Execution& execution);
  void OnEvent(const metadata::Event& event);

  /// Indexes everything the store holds that the index has not seen
  /// yet. Batch entry point (index a finished store in one call) and
  /// the recovery path (rebuild after RestoreState). Safe to repeat.
  void CatchUp();

  /// True when the index has processed every record the store holds.
  /// Label-decoding queries require this (TraceQuery enforces it).
  bool InSync() const;

  // ---- label-decode queries (ids are not range-checked here;
  //      TraceQuery wraps them in a StatusOr surface) ----

  /// Ancestor executions of `exec`, ascending — byte-identical to
  /// TraceView::AncestorExecutions.
  std::vector<metadata::ExecutionId> Ancestors(
      metadata::ExecutionId exec) const;
  /// Artifacts reachable backwards from `exec`, ascending —
  /// byte-identical to TraceView::AncestorArtifacts.
  std::vector<metadata::ArtifactId> AncestorArtifacts(
      metadata::ExecutionId exec) const;
  /// Descendant executions (no stop predicate), ascending — a column
  /// scan over the anc labels.
  std::vector<metadata::ExecutionId> Descendants(
      metadata::ExecutionId exec) const;
  /// True iff `ancestor` reaches `exec` (strict: false when equal).
  bool IsAncestor(metadata::ExecutionId ancestor,
                  metadata::ExecutionId exec) const;

  const metadata::MetadataStore& store() const { return *store_; }
  size_t num_indexed_executions() const { return anc_.size(); }
  /// Bytes held by the reachability labels (the index's memory cost).
  size_t label_bytes() const;

 private:
  /// Registers edge u→v (idempotent); if v's label changed, propagates
  /// the change along the out-edges with a worklist.
  void AddEdge(metadata::ExecutionId u, metadata::ExecutionId v);
  /// Unions u's contribution into v's label; true iff it changed.
  bool ApplyEdge(metadata::ExecutionId u, metadata::ExecutionId v);
  void PropagateFrom(metadata::ExecutionId v);

  const metadata::MetadataStore* store_;

  /// Labels, parallel to store executions (index = id - 1).
  std::vector<IdBitset> anc_;
  /// Deduplicated out-edges (u → consumers of u's outputs).
  std::vector<std::vector<metadata::ExecutionId>> out_;
  /// Worklist scratch for propagation (grown lazily, reset per run).
  std::vector<metadata::ExecutionId> worklist_;
  std::vector<char> in_worklist_;

  size_t indexed_artifacts_ = 0;
  size_t indexed_executions_ = 0;
  size_t indexed_events_ = 0;
};

/// Live graphlet-membership source for TraceQuery::GraphletsTouchingSpan.
/// Implemented by stream::StreamingSegmenter over its membership
/// indexes; memberships reflect each cell's last extraction.
class GraphletMembershipProvider {
 public:
  virtual ~GraphletMembershipProvider() = default;
  /// Trainer anchors of the graphlets whose membership contains
  /// `artifact`, ascending and deduplicated.
  virtual std::vector<metadata::ExecutionId> TrainersTouchingArtifact(
      metadata::ArtifactId artifact) const = 0;
};

/// Ancestor closure of one artifact: who made it, and everything that
/// fed into making it.
struct LineageResult {
  /// Executions that produced the artifact, in event order (usually 1).
  std::vector<metadata::ExecutionId> producers;
  /// Producers plus all their ancestor executions, ascending.
  std::vector<metadata::ExecutionId> executions;
  /// The artifact itself plus every artifact reachable backwards from
  /// its producers, ascending.
  std::vector<metadata::ArtifactId> artifacts;
};

struct TimeWindowOptions {
  /// Half-open window [from, to): executions whose [start_time,
  /// end_time] overlaps it are returned.
  metadata::Timestamp from = 0;
  metadata::Timestamp to = 0;
};

/// The unified query surface over a store + its ProvenanceIndex:
/// options-struct + StatusOr, shared between interactive consumers
/// (trace_explorer) and the analysis stack. Queries against out-of-range
/// ids return NotFound; label-decoding queries on an index that has not
/// caught up with its store return FailedPrecondition. The query object
/// borrows everything and is cheap to construct per use.
class TraceQuery {
 public:
  TraceQuery(const metadata::MetadataStore* store,
             const ProvenanceIndex* index,
             const GraphletMembershipProvider* graphlets = nullptr)
      : store_(store), index_(index), graphlets_(graphlets) {}

  /// Ancestor executions of `exec`, ascending (byte-identical to
  /// TraceView::AncestorExecutions).
  common::StatusOr<std::vector<metadata::ExecutionId>> AncestorsOf(
      metadata::ExecutionId exec) const;

  /// Ancestor artifacts of `exec`, ascending (byte-identical to
  /// TraceView::AncestorArtifacts).
  common::StatusOr<std::vector<metadata::ArtifactId>> AncestorArtifactsOf(
      metadata::ExecutionId exec) const;

  /// Descendant executions under `options` (byte-identical to
  /// TraceView::DescendantExecutions with the equivalent stop). Stop-free
  /// queries decode labels; any stop type or predicate runs the BFS
  /// against the store.
  common::StatusOr<std::vector<metadata::ExecutionId>> DescendantsOf(
      metadata::ExecutionId exec,
      const metadata::TraverseOptions& options = {}) const;

  /// Full backward closure of one artifact.
  common::StatusOr<LineageResult> LineageOf(
      metadata::ArtifactId artifact) const;

  /// Trainer anchors of the graphlets touching `span` (any member
  /// artifact qualifies). Requires a GraphletMembershipProvider — the
  /// streaming segmenter — else FailedPrecondition.
  common::StatusOr<std::vector<metadata::ExecutionId>> GraphletsTouchingSpan(
      metadata::ArtifactId span) const;

  /// Executions whose [start_time, end_time] overlaps [from, to),
  /// ascending. InvalidArgument when to < from.
  common::StatusOr<std::vector<metadata::ExecutionId>> TimeWindowSlice(
      const TimeWindowOptions& options) const;

 private:
  common::Status CheckExecution(metadata::ExecutionId exec) const;
  common::Status CheckArtifact(metadata::ArtifactId artifact) const;
  common::Status CheckInSync() const;

  const metadata::MetadataStore* store_;
  const ProvenanceIndex* index_;
  const GraphletMembershipProvider* graphlets_;
};

}  // namespace mlprov::core

#endif  // MLPROV_CORE_PROVENANCE_INDEX_H_
