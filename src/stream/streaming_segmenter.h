#ifndef MLPROV_STREAM_STREAMING_SEGMENTER_H_
#define MLPROV_STREAM_STREAMING_SEGMENTER_H_

/// Incremental graphlet segmentation over a growing MetadataStore.
///
/// The batch segmenter (core::SegmentTrace) walks a finished trace; this
/// class maintains the same graphlets *while the trace is being built*,
/// one provenance record at a time, with amortized cost close to a
/// single batch pass. The key ideas:
///
///  - One "cell" per Trainer execution. A cell owns the trainer's
///    graphlet and is lazily (re-)extracted with core::GraphletExtractor
///    only when needed — never on every event.
///  - Lazy dirty marking. A clean (freshly extracted) cell keeps a
///    membership index over its nodes. Every event that can change a
///    graphlet is incident to a *current member* of that graphlet
///    (descendant growth crosses a member artifact; ancestors enter via
///    member artifacts; the rule-(b) analysis closure enters via member
///    Examples spans), so incident events just set a dirty bit. Dirty
///    cells are re-extracted at seal time against the full store, which
///    also repairs any chained growth the stale index missed.
///  - Watermark sealing. The watermark is the max timestamp observed in
///    the feed. A cell whose trainer ended more than `seal_grace_hours`
///    before the watermark is extracted and sealed; a late event that
///    touches a sealed cell's members reopens it (counted as a reseal).
///
/// Finish() extracts every remaining dirty cell and returns all
/// graphlets ordered by (trainer end time, trainer id) — byte-identical
/// to core::SegmentTrace on the same store, at any point in history
/// where both are evaluated.

#include <cstddef>
#include <cstdint>
#include <deque>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/status.h"
#include "core/graphlet.h"
#include "core/provenance_index.h"
#include "core/segmentation.h"
#include "metadata/metadata_store.h"

namespace mlprov::stream {

struct StreamingSegmenterOptions {
  core::SegmentationOptions segmentation;
  /// How far (in trace hours) the watermark must pass a trainer's end
  /// time before its graphlet is sealed. Larger values mean fewer
  /// reseals but later decisions; the default comfortably covers the
  /// simulator's post-trainer validation span.
  double seal_grace_hours = 48.0;
};

class StreamingSegmenter : public core::GraphletMembershipProvider {
 public:
  struct Stats {
    size_t cells = 0;
    size_t sealed = 0;
    /// Sealed cells reopened by a late incident event.
    size_t reseals = 0;
    /// Total GraphletExtractor::Extract calls (the real work; a perfect
    /// incremental run does cells + reseals of them).
    size_t extractions = 0;
    /// Events processed. Each costs O(incident cells) dirty-marking;
    /// extraction only ever happens at seal, Finish, or ExtractNow.
    size_t events = 0;
  };

  /// `store` is the growing replica the caller feeds records into; it
  /// must outlive the segmenter and must only grow (dense 1-based ids).
  StreamingSegmenter(const metadata::MetadataStore* store,
                     const StreamingSegmenterOptions& options = {});

  /// Record callbacks. The caller invokes each *after* inserting the
  /// corresponding record into the store, in feed order.
  void OnExecution(const metadata::Execution& execution);
  void OnArtifact(const metadata::Artifact& artifact);
  void OnEvent(const metadata::Event& event);

  /// No-op: extraction always runs the BFS. Kept for perfbench/ledger.cc.
  void AttachIndex(const core::ProvenanceIndex* /*index*/) {}

  /// GraphletMembershipProvider: trainer anchors of the cells whose
  /// last-extracted graphlet contains `artifact`, ascending and
  /// deduplicated. Exact for sealed history; an unsealed dirty cell
  /// reflects its last extraction (call Finish() first for an exact
  /// whole-trace answer).
  std::vector<metadata::ExecutionId> TrainersTouchingArtifact(
      metadata::ArtifactId artifact) const override;

  /// Cell indices sealed since the last call, in seal order. A resealed
  /// cell is reported again.
  std::vector<size_t> TakeSealed();

  /// Extracts every remaining dirty cell and returns all graphlets in
  /// (trainer end time, trainer id) order — byte-identical to
  /// core::SegmentTrace(store). The segmenter stays usable: further
  /// records keep dirtying cells and a later Finish reflects them.
  std::vector<core::Graphlet> Finish();

  size_t num_cells() const { return cells_.size(); }
  metadata::ExecutionId CellTrainer(size_t cell) const {
    return cells_[cell].trainer;
  }
  bool CellSealed(size_t cell) const { return cells_[cell].sealed; }
  /// The cell's graphlet as of its last extraction (empty-membered until
  /// the first extraction). ExtractNow for an up-to-date view.
  const core::Graphlet& CellGraphlet(size_t cell) const {
    return cells_[cell].graphlet;
  }
  /// Forces the cell's graphlet up to date against the current store and
  /// returns it. Used by the online scorer at intervention points; a
  /// forced extraction cleans the cell like a seal-time one does.
  const core::Graphlet& ExtractNow(size_t cell);
  /// Cell index anchored at `trainer`, or SIZE_MAX if unknown.
  size_t CellOf(metadata::ExecutionId trainer) const;

  const Stats& stats() const { return stats_; }
  metadata::Timestamp watermark() const { return watermark_; }

  /// Earliest trainer end time among unsealed cells, or 0 when every
  /// cell is sealed (or none exist). The distance from this to the
  /// watermark is the session's seal lag — the health signal for "how
  /// far behind the stream are decisions?". O(cells); health snapshots
  /// are not per-record.
  metadata::Timestamp OldestUnsealedTrainerEnd() const;

  /// Cells currently unsealed (a sealed-then-reopened cell counts once,
  /// unlike stats().sealed which counts seal *events*). O(cells).
  size_t NumOpenCells() const;

  /// Serializes cells, watermark, seal/dirty state, and stats into a
  /// checkpoint payload; RestoreState rebuilds an equivalent segmenter
  /// (membership indexes and seal queue are reconstructed from the
  /// cells) on a segmenter observing the already-restored store. Both
  /// are defined in checkpoint.cc, which owns the durability format.
  void EncodeState(std::string& out) const;
  common::Status RestoreState(std::string_view payload);

 private:
  struct Cell {
    metadata::ExecutionId trainer = metadata::kInvalidId;
    metadata::Timestamp trainer_end = 0;
    core::Graphlet graphlet;
    bool dirty = true;  // dirty from birth: never extracted yet
    bool sealed = false;
    bool extracted_once = false;
  };
  struct SealEntry {
    metadata::Timestamp trainer_end = 0;
    size_t cell = 0;
    bool operator>(const SealEntry& other) const {
      return trainer_end != other.trainer_end
                 ? trainer_end > other.trainer_end
                 : cell > other.cell;
    }
  };

  void MarkDirty(size_t cell);
  void MarkExecIncident(metadata::ExecutionId id);
  void MarkArtifactIncident(metadata::ArtifactId id);
  /// Re-extracts `cell` and indexes its newly gained members.
  void ExtractCell(size_t cell);
  void AdvanceWatermark(metadata::Timestamp t);
  void CheckSeals();

  const metadata::MetadataStore* store_;
  StreamingSegmenterOptions options_;
  metadata::Timestamp grace_seconds_ = 0;
  bool trainer_is_descendant_stop_ = true;
  core::GraphletExtractor extractor_;

  std::deque<Cell> cells_;
  /// Membership indexes: node id -> cells whose last-extracted graphlet
  /// contains the node. Graphlets only grow as the store grows, so
  /// entries never go stale — re-extraction appends the diff.
  std::vector<std::vector<uint32_t>> exec_cells_;
  std::vector<std::vector<uint32_t>> artifact_cells_;
  /// Unsealed cells ordered by trainer end (lazy deletion on reopen).
  std::priority_queue<SealEntry, std::vector<SealEntry>,
                      std::greater<SealEntry>>
      seal_queue_;
  std::unordered_map<metadata::ExecutionId, size_t> trainer_cell_;
  std::vector<size_t> newly_sealed_;
  metadata::Timestamp watermark_ = 0;
  Stats stats_;
};

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_STREAMING_SEGMENTER_H_
