#include "stream/streaming_segmenter.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace mlprov::stream {

using metadata::ArtifactId;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::Timestamp;

namespace {

/// Calls `fn` on each id of ascending `grown` that ascending `old` lacks,
/// in one merge over both lists.
template <typename Id, typename Fn>
void ForEachGained(const std::vector<Id>& old, const std::vector<Id>& grown,
                   Fn&& fn) {
  auto it = old.begin();
  for (Id id : grown) {
    while (it != old.end() && *it < id) ++it;
    if (it == old.end() || *it != id) fn(id);
  }
}

void IndexMember(std::vector<std::vector<uint32_t>>& cells_of, int64_t id,
                 size_t cell) {
  if (cells_of.size() <= static_cast<size_t>(id)) {
    cells_of.resize(static_cast<size_t>(id) + 1);
  }
  cells_of[static_cast<size_t>(id)].push_back(static_cast<uint32_t>(cell));
}

}  // namespace

StreamingSegmenter::StreamingSegmenter(
    const metadata::MetadataStore* store,
    const StreamingSegmenterOptions& options)
    : store_(store),
      grace_seconds_(static_cast<Timestamp>(
          std::llround(options.seal_grace_hours *
                       static_cast<double>(metadata::kSecondsPerHour)))) {}

void StreamingSegmenter::OnExecution(const metadata::Execution& execution) {
  if (execution.type == ExecutionType::kTrainer) {
    size_t index = cells_.size();
    Cell cell;
    cell.trainer = execution.id;
    cell.trainer_end = execution.end_time;
    cells_.push_back(std::move(cell));
    trainer_cell_[execution.id] = index;
    // Index the anchor immediately so events incident to the trainer
    // itself dirty the cell even before its first extraction refreshes
    // the membership index.
    IndexMember(exec_cells_, execution.id, index);
    dirtied_.push_back(static_cast<uint32_t>(index));
    seal_queue_.push(SealEntry{cell.trainer_end, index});
    ++stats_.cells;
  }
  AdvanceWatermark(execution.end_time);
}

void StreamingSegmenter::OnArtifact(const metadata::Artifact& artifact) {
  AdvanceWatermark(artifact.create_time);
}

void StreamingSegmenter::OnEvent(const metadata::Event& event) {
  MarkExecIncident(event.execution);
  // An input edge into a Trainer never changes *another* trainer's
  // graphlet (a Trainer is a descendant stop, ancestors traverse
  // producer edges only, and the rule-(b) closure chases analysis
  // executions only); skipping the artifact-side marking here keeps each
  // new trainer — which consumes the whole rolling window — from
  // dirtying every window-sharing cell. The consuming trainer's own cell
  // was already marked above.
  bool input_to_trainer =
      event.kind == metadata::EventKind::kInput &&
      event.execution >= 1 &&
      static_cast<size_t>(event.execution) <= store_->num_executions() &&
      store_->executions()[static_cast<size_t>(event.execution) - 1].type ==
          ExecutionType::kTrainer;
  if (!input_to_trainer) {
    MarkArtifactIncident(event.artifact);
  }
  ++stats_.events;
  AdvanceWatermark(event.time);
}

void StreamingSegmenter::MarkDirty(size_t cell_index) {
  Cell& cell = cells_[cell_index];
  if (cell.dirty) return;
  cell.dirty = true;
  dirtied_.push_back(static_cast<uint32_t>(cell_index));
  // A late event on a sealed graphlet: the cell stays sealed and is
  // re-extracted when next read.
  if (cell.sealed) {
    ++stats_.reseals;
    MLPROV_COUNTER_INC("stream.reseals");
  }
}

void StreamingSegmenter::MarkExecIncident(ExecutionId id) {
  if (id < 1 || static_cast<size_t>(id) >= exec_cells_.size()) return;
  for (uint32_t cell : exec_cells_[static_cast<size_t>(id)]) {
    MarkDirty(cell);
  }
}

void StreamingSegmenter::MarkArtifactIncident(ArtifactId id) {
  if (id < 1 || static_cast<size_t>(id) >= artifact_cells_.size()) return;
  for (uint32_t cell : artifact_cells_[static_cast<size_t>(id)]) {
    MarkDirty(cell);
  }
}

void StreamingSegmenter::ExtractCell(size_t cell_index) const {
  Cell& cell = cells_[cell_index];
  core::Graphlet grown = extractor_.Extract(*store_, cell.trainer);
  ++stats_.extractions;
  MLPROV_COUNTER_INC("stream.extractions");
  // Graphlets are monotone as the store grows, so indexing only the
  // gained members keeps the membership lists duplicate-free. The anchor
  // was indexed when its cell was born.
  ForEachGained(cell.graphlet.executions, grown.executions,
                [&](ExecutionId id) {
                  if (id != cell.trainer) {
                    IndexMember(exec_cells_, id, cell_index);
                  }
                });
  ForEachGained(cell.graphlet.artifacts, grown.artifacts, [&](ArtifactId id) {
    IndexMember(artifact_cells_, id, cell_index);
  });
  cell.graphlet = std::move(grown);
  cell.dirty = false;
}

void StreamingSegmenter::ExtractDirty() const {
  for (uint32_t cell : dirtied_) {
    if (cells_[cell].dirty) ExtractCell(cell);
  }
  dirtied_.clear();
}

const core::Graphlet& StreamingSegmenter::ExtractNow(size_t cell) {
  if (cells_[cell].dirty) ExtractCell(cell);
  return cells_[cell].graphlet;
}

size_t StreamingSegmenter::CellOf(ExecutionId trainer) const {
  auto it = trainer_cell_.find(trainer);
  return it == trainer_cell_.end() ? static_cast<size_t>(-1) : it->second;
}

void StreamingSegmenter::AdvanceWatermark(Timestamp t) {
  if (t > watermark_) {
    watermark_ = t;
    CheckSeals();
  }
}

void StreamingSegmenter::CheckSeals() {
  while (!seal_queue_.empty() &&
         seal_queue_.top().trainer_end + grace_seconds_ <= watermark_) {
    SealEntry entry = seal_queue_.top();
    seal_queue_.pop();
    Cell& cell = cells_[entry.cell];
    if (cell.dirty) ExtractCell(entry.cell);
    cell.sealed = true;
    ++stats_.sealed;
    MLPROV_COUNTER_INC("stream.sealed");
    newly_sealed_.push_back(entry.cell);
  }
}

Timestamp StreamingSegmenter::OldestUnsealedTrainerEnd() const {
  Timestamp oldest = 0;
  for (const Cell& cell : cells_) {
    if (cell.sealed) continue;
    if (oldest == 0 || cell.trainer_end < oldest) oldest = cell.trainer_end;
  }
  return oldest;
}

std::vector<size_t> StreamingSegmenter::TakeSealed() {
  std::vector<size_t> sealed;
  sealed.swap(newly_sealed_);
  return sealed;
}

std::vector<ExecutionId> StreamingSegmenter::TrainersTouchingArtifact(
    ArtifactId artifact) const {
  ExtractDirty();
  std::vector<ExecutionId> trainers;
  if (artifact >= 1 &&
      static_cast<size_t>(artifact) < artifact_cells_.size()) {
    for (uint32_t cell : artifact_cells_[static_cast<size_t>(artifact)]) {
      trainers.push_back(cells_[cell].trainer);
    }
  }
  std::sort(trainers.begin(), trainers.end());
  trainers.erase(std::unique(trainers.begin(), trainers.end()),
                 trainers.end());
  return trainers;
}

std::vector<core::Graphlet> StreamingSegmenter::Finish() {
  ExtractDirty();
  std::vector<core::Graphlet> graphlets;
  graphlets.reserve(cells_.size());
  for (const Cell& cell : cells_) graphlets.push_back(cell.graphlet);
  // Match core::SegmentTrace's chronological order exactly.
  std::sort(graphlets.begin(), graphlets.end(),
            [](const core::Graphlet& a, const core::Graphlet& b) {
              return a.trainer_end != b.trainer_end
                         ? a.trainer_end < b.trainer_end
                         : a.trainer < b.trainer;
            });
  return graphlets;
}

}  // namespace mlprov::stream
