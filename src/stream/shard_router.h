#ifndef MLPROV_STREAM_SHARD_ROUTER_H_
#define MLPROV_STREAM_SHARD_ROUTER_H_

/// Sharded multi-session provenance service: the scale-out layer over
/// ProvenanceSession. A router hashes each pipeline's id (FNV-1a —
/// stable across runs, processes, and shard-count changes modulo the
/// shard count itself) onto N shard workers and hands each pipeline to
/// its worker as one envelope (slot, id, and the borrowed trace or MLPB
/// blob) through a bounded SPSC queue. The worker walks that pipeline's
/// feed itself, straight into the pipeline's session, so N pipelines
/// ingest concurrently on one ThreadPool (common/parallel). A
/// deterministic merge layer reassembles the corpus-level segmentation,
/// ScoreDecisions, and waste accounting byte-identical to a
/// single-session replay of every pipeline — at any shard and thread
/// count. See DESIGN.md "Sharded provenance service" for the routing
/// invariant, the queue/backpressure semantics, and the
/// merge-determinism argument.
///
/// Sharding unit: the *pipeline*, never the record. The feed-order
/// contract (simulator/provenance_sink.h) defines a per-pipeline record
/// order, so one pipeline's feed must land on exactly one session;
/// hashing pipeline ids gives every pipeline one shard without any
/// coordination, and no record ever crosses a thread.
///
/// Backpressure counts pipelines: each shard queue holds at most
/// `queue_capacity` routed pipelines. kBlock (default) makes the router
/// wait for room — lossless and deterministic, with stall episodes
/// counted in "shard.backpressure_stalls". kShed drops a whole pipeline
/// whose shard queue is full, before any of its records is fed (a
/// half-fed session is not finishable), with exact accounting; shed
/// slots are excluded from the merge and the merged output is then a
/// documented subset, not a replica.

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/graphlet_analysis.h"
#include "simulator/corpus.h"
#include "stream/session.h"
#include "stream/wal.h"

namespace mlprov::stream {

/// FNV-1a over the little-endian bytes of the pipeline id. This is the
/// wire-stable routing hash: the same pipeline id maps to the same
/// value in every run and on every platform (goldens in
/// stream_shard_test.cc pin it).
constexpr uint64_t ShardHash(int64_t pipeline_id) {
  uint64_t hash = 14695981039346656037ull;  // FNV offset basis
  auto bits = static_cast<uint64_t>(pipeline_id);
  for (int i = 0; i < 8; ++i) {
    hash ^= (bits >> (8 * i)) & 0xffu;
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash;
}

/// The routing invariant: pipeline -> shard, total and deterministic.
constexpr size_t ShardOf(int64_t pipeline_id, size_t shards) {
  return shards <= 1 ? 0 : static_cast<size_t>(ShardHash(pipeline_id) %
                                               static_cast<uint64_t>(shards));
}

/// What the router does when a shard queue is full (--backpressure=).
enum class BackpressurePolicy : uint8_t {
  kBlock = 0,  // wait for space: lossless, deterministic
  kShed = 1,   // drop the whole pipeline before any record is fed
};

const char* ToString(BackpressurePolicy policy);
common::StatusOr<BackpressurePolicy> ParseBackpressurePolicy(
    std::string_view text);

struct ShardRouterOptions {
  /// Number of independent shard workers (sessions partitions). The
  /// service runs on a ThreadPool of shards + 1 threads (workers plus
  /// the router).
  size_t shards = 1;
  /// Per-shard SPSC queue capacity in pipelines (rounded up to a power
  /// of two): how many routed pipelines may wait for their shard's
  /// worker before the router blocks or sheds. An envelope is a few
  /// words, so the default never fills on a corpus of fewer pipelines.
  size_t queue_capacity = 1024;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Per-pipeline session template. `segmenter`/`scorer` apply to every
  /// session (the scorer is borrowed const state, shared across shards).
  /// `name` prefixes per-pipeline session names ("<name>.s<shard>.p<id>")
  /// and thus health-gauge families; empty (default) keeps sessions
  /// unnamed so a large corpus does not flood the registry.
  SessionOptions session;
  /// Non-empty makes every session durable (PR 8): pipeline `id` routed
  /// to shard `k` journals under "<wal_dir>/shard<k>/p<id>" — one WAL +
  /// checkpoint directory per session, so shards never contend on a log
  /// and a crashed shard recovers independently.
  std::string wal_dir;
  WalSyncPolicy wal_sync = WalSyncPolicy::kInterval;
  /// Checkpoint every N records per durable session (0 = WAL only).
  uint64_t checkpoint_interval = 0;
};

/// Per-pipeline outcome, in submission (corpus) order — the unit of the
/// deterministic merge.
struct ShardPipelineResult {
  size_t slot = 0;  // submission index (== corpus index for IngestCorpus)
  int64_t pipeline_id = 0;
  size_t shard = 0;
  SessionResult result;
  /// Mirrors core::SegmentCorpus: whole-trace quarantine or truncated
  /// graphlets dropped after segmentation.
  size_t quarantined_graphlets = 0;
  bool quarantined = false;
  /// kShed only: the pipeline was dropped whole on a full queue; `result`
  /// is empty, `records` is 0, and the slot is excluded from the merge.
  bool shed = false;
  /// Records the session applied (or, recovering a durable session,
  /// acknowledged) before its first failure: the whole feed of a healthy
  /// pipeline, 0 for a quarantined one.
  uint64_t records = 0;
  /// Not OK when the session poisoned, a durable open/finish failed, or
  /// a blob did not decode. A trace's slot then carries the SegmentTrace
  /// fallback, exactly like SegmentCorpus; a blob's slot is empty.
  common::Status status;
};

/// The merged, submission-ordered view of a sharded run. All merge
/// output is a pure fold over `pipelines` in slot order, so it is
/// byte-identical at any shard/thread count (see DESIGN.md).
struct ShardedResult {
  std::vector<ShardPipelineResult> pipelines;
  size_t shards = 0;
  /// Every record of every pipeline that was not shed, on both the trace
  /// and the binary path (what the feeds and cursors yielded, including
  /// quarantined and poisoned pipelines).
  uint64_t records = 0;
  /// Router stall episodes (kBlock) over the whole run.
  uint64_t backpressure_stalls = 0;
  /// kShed casualties: whole pipelines, and every record of their feeds,
  /// so records + shed_records is the corpus's feed size.
  uint64_t shed_records = 0;
  size_t shed_pipelines = 0;
  /// Highest queue depth, in pipelines, the router observed after a push.
  size_t queue_depth_peak = 0;

  /// Corpus-level segmentation, byte-identical to core::SegmentCorpus
  /// over the same corpus and options (shed slots stay empty).
  core::SegmentedCorpus ToSegmentedCorpus() const;
  /// All settled decisions, concatenated in slot order.
  std::vector<ScoreDecision> MergedDecisions() const;
  /// Waste accounting summed in slot order.
  WasteAccounting TotalWaste() const;
  /// First non-OK per-pipeline status in slot order (OK when none).
  common::Status FirstError() const;
};

/// The sharded service. One instance per ingest run:
///
///   ShardRouterOptions options;
///   options.shards = 4;
///   ShardedProvenanceService service(options);
///   auto result = service.IngestCorpus(corpus);
///
/// IngestCorpus routes every pipeline of the corpus through the shard
/// fleet and blocks until the merge is complete; the owning worker runs
/// a sim::ProvenanceFeeder over each trace into its session. IngestBinary
/// does the same for serialized MLPB pipelines: the owning worker walks a
/// BinaryStoreCursor over each blob, so the zero-copy ingest path shards
/// too (cursor views never cross threads — they borrow cursor-internal
/// scratch that the next record overwrites).
///
/// Reentrancy: when called from inside a ParallelFor body (the pool
/// would run the router and its consumers inline, deadlocking a bounded
/// queue), the service detects it (common::InParallelRegion) and runs
/// the identical per-pipeline schedule sequentially — same results, by
/// the merge-determinism property.
class ShardedProvenanceService {
 public:
  explicit ShardedProvenanceService(const ShardRouterOptions& options)
      : options_(options) {}

  /// Routes and ingests every pipeline trace; fails fast on invalid
  /// options (shards out of [1, 256], queue_capacity < 2). Per-pipeline
  /// failures do not abort the run — they are reported in the slots.
  common::StatusOr<ShardedResult> IngestCorpus(const sim::Corpus& corpus);

  /// A serialized pipeline for the sharded zero-copy path: the id must
  /// accompany the blob because routing happens before decoding.
  struct BinaryPipeline {
    int64_t pipeline_id = 0;
    std::string_view data;  // MLPB blob, borrowed for the call
  };

  /// Sharded zero-copy ingest, unscored. Two modes are rejected here
  /// (InvalidArgument): durable mode, because the WAL journals provenance
  /// records and the binary path deliberately never materializes owned
  /// records; and a scorer in the session options, because MLPB carries
  /// no span stats, so the input-data features would be computed over
  /// none and the decisions would silently differ from the live feed's
  /// (ROADMAP item 2 adds span stats to MLPB).
  common::StatusOr<ShardedResult> IngestBinary(
      const std::vector<BinaryPipeline>& pipelines);

  const ShardRouterOptions& options() const { return options_; }

 private:
  ShardRouterOptions options_;
};

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_SHARD_ROUTER_H_
