#include "stream/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <utility>

#include "common/crc32c.h"
#include "metadata/binary_serialization.h"
#include "stream/streaming_segmenter.h"
#include "stream/wal.h"

/// This translation unit owns the durability wire format: the
/// checkpoint file container plus the EncodeState/RestoreState member
/// definitions of ProvenanceSession and StreamingSegmenter (member
/// functions may be defined in any TU — keeping them here concentrates
/// every byte-layout decision in one place).

namespace mlprov::stream {

namespace fs = std::filesystem;
using common::Status;
using common::StatusOr;
using metadata::binwire::AppendSvarint;
using metadata::binwire::AppendVarint;

namespace {

// --- shared sub-codecs (on top of the walwire primitives) ---

void AppendIdVector(std::string& out, const std::vector<int64_t>& ids) {
  AppendVarint(out, ids.size());
  for (int64_t id : ids) AppendSvarint(out, id);
}

bool ReadIdVector(walwire::Cursor& in, std::vector<int64_t>* ids) {
  uint64_t count = 0;
  if (!walwire::ReadVarint(in, &count)) return false;
  if (count > in.remaining()) return false;  // >= 1 byte per id
  ids->resize(static_cast<size_t>(count));
  for (int64_t& id : *ids) {
    if (!walwire::ReadSvarint(in, &id)) return false;
  }
  return true;
}

void AppendGraphlet(std::string& out, const core::Graphlet& g) {
  AppendSvarint(out, g.trainer);
  AppendIdVector(out, g.executions);
  AppendIdVector(out, g.artifacts);
  AppendIdVector(out, g.input_spans);
  AppendSvarint(out, g.model);
  out.push_back(static_cast<char>((g.pushed ? 1 : 0) |
                                  (g.trainer_succeeded ? 2 : 0) |
                                  (g.warm_start ? 4 : 0)));
  AppendSvarint(out, g.trainer_start);
  AppendSvarint(out, g.trainer_end);
  AppendSvarint(out, g.start_time);
  AppendSvarint(out, g.end_time);
  walwire::AppendDouble(out, g.pre_trainer_cost);
  walwire::AppendDouble(out, g.trainer_cost);
  walwire::AppendDouble(out, g.post_trainer_cost);
  AppendSvarint(out, g.code_version);
  out.push_back(static_cast<char>(g.model_type));
  AppendSvarint(out, g.architecture);
}

bool ReadGraphlet(walwire::Cursor& in, core::Graphlet* g) {
  uint8_t flags = 0, model_type = 0;
  int64_t architecture = 0;
  if (!walwire::ReadSvarint(in, &g->trainer) ||
      !ReadIdVector(in, &g->executions) ||
      !ReadIdVector(in, &g->artifacts) ||
      !ReadIdVector(in, &g->input_spans) ||
      !walwire::ReadSvarint(in, &g->model) ||
      !walwire::ReadByte(in, &flags) ||
      !walwire::ReadSvarint(in, &g->trainer_start) ||
      !walwire::ReadSvarint(in, &g->trainer_end) ||
      !walwire::ReadSvarint(in, &g->start_time) ||
      !walwire::ReadSvarint(in, &g->end_time) ||
      !walwire::ReadDouble(in, &g->pre_trainer_cost) ||
      !walwire::ReadDouble(in, &g->trainer_cost) ||
      !walwire::ReadDouble(in, &g->post_trainer_cost) ||
      !walwire::ReadSvarint(in, &g->code_version) ||
      !walwire::ReadByte(in, &model_type) ||
      !walwire::ReadSvarint(in, &architecture)) {
    return false;
  }
  if (flags > 7 || model_type >= metadata::kNumModelTypes) return false;
  g->pushed = (flags & 1) != 0;
  g->trainer_succeeded = (flags & 2) != 0;
  g->warm_start = (flags & 4) != 0;
  g->model_type = static_cast<metadata::ModelType>(model_type);
  g->architecture = static_cast<int>(architecture);
  return true;
}

void AppendRunningStats(std::string& out, const common::RunningStats& s) {
  AppendVarint(out, s.count());
  walwire::AppendDouble(out, s.mean());
  walwire::AppendDouble(out, s.m2());
  walwire::AppendDouble(out, s.min());
  walwire::AppendDouble(out, s.max());
}

bool ReadRunningStats(walwire::Cursor& in, common::RunningStats* s) {
  uint64_t count = 0;
  double mean = 0, m2 = 0, min = 0, max = 0;
  if (!walwire::ReadVarint(in, &count) || !walwire::ReadDouble(in, &mean) ||
      !walwire::ReadDouble(in, &m2) || !walwire::ReadDouble(in, &min) ||
      !walwire::ReadDouble(in, &max)) {
    return false;
  }
  *s = common::RunningStats::FromMoments(static_cast<size_t>(count), mean,
                                         m2, min, max);
  return true;
}

void AppendDecision(std::string& out, const ScoreDecision& d) {
  AppendSvarint(out, d.trainer);
  out.push_back(static_cast<char>(d.variant));
  walwire::AppendDouble(out, d.score);
  walwire::AppendDouble(out, d.threshold);
  for (double score : d.variant_scores) walwire::AppendDouble(out, score);
  out.push_back(static_cast<char>(
      (d.abort ? 1 : 0) | (d.settled ? 2 : 0) | (d.pushed ? 4 : 0) |
      (d.lost_push ? 8 : 0) | (d.variant_scored[0] ? 16 : 0) |
      (d.variant_scored[1] ? 32 : 0) | (d.variant_scored[2] ? 64 : 0)));
  walwire::AppendDouble(out, d.avoided_hours);
}

bool ReadDecision(walwire::Cursor& in, ScoreDecision* d) {
  uint8_t variant = 0, flags = 0;
  if (!walwire::ReadSvarint(in, &d->trainer) ||
      !walwire::ReadByte(in, &variant) ||
      !walwire::ReadDouble(in, &d->score) ||
      !walwire::ReadDouble(in, &d->threshold)) {
    return false;
  }
  for (double& score : d->variant_scores) {
    if (!walwire::ReadDouble(in, &score)) return false;
  }
  if (!walwire::ReadByte(in, &flags) ||
      !walwire::ReadDouble(in, &d->avoided_hours)) {
    return false;
  }
  if (variant > static_cast<uint8_t>(core::Variant::kAblationModelType)) {
    return false;
  }
  d->variant = static_cast<core::Variant>(variant);
  d->abort = (flags & 1) != 0;
  d->settled = (flags & 2) != 0;
  d->pushed = (flags & 4) != 0;
  d->lost_push = (flags & 8) != 0;
  d->variant_scored = {(flags & 16) != 0, (flags & 32) != 0,
                       (flags & 64) != 0};
  return true;
}

void AppendBlob(std::string& out, std::string_view blob) {
  AppendVarint(out, blob.size());
  out.append(blob);
}

bool ReadBlobView(walwire::Cursor& in, std::string_view* blob) {
  uint64_t length = 0;
  if (!walwire::ReadVarint(in, &length)) return false;
  if (length > in.remaining()) return false;
  *blob = std::string_view(reinterpret_cast<const char*>(in.p),
                           static_cast<size_t>(length));
  in.p += length;
  return true;
}

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("checkpoint payload: " + what);
}

}  // namespace

// --- StreamingSegmenter state ---

void StreamingSegmenter::EncodeState(std::string& out) const {
  AppendSvarint(out, watermark_);
  AppendVarint(out, stats_.cells);
  AppendVarint(out, stats_.sealed);
  AppendVarint(out, stats_.reseals);
  AppendVarint(out, stats_.extractions);
  AppendVarint(out, stats_.events);
  AppendVarint(out, newly_sealed_.size());
  for (size_t cell : newly_sealed_) AppendVarint(out, cell);
  AppendVarint(out, cells_.size());
  for (const Cell& cell : cells_) {
    AppendSvarint(out, cell.trainer);
    AppendSvarint(out, cell.trainer_end);
    out.push_back(static_cast<char>((cell.dirty ? 1 : 0) |
                                    (cell.sealed ? 2 : 0) |
                                    (cell.extracted_once ? 4 : 0)));
    AppendGraphlet(out, cell.graphlet);
  }
}

common::Status StreamingSegmenter::RestoreState(std::string_view payload) {
  walwire::Cursor in(payload);
  uint64_t count = 0;
  StreamingSegmenter restored(store_, options_);
  if (!walwire::ReadSvarint(in, &restored.watermark_)) {
    return Corrupt("segmenter watermark");
  }
  uint64_t cells = 0, sealed = 0, reseals = 0, extractions = 0, events = 0;
  if (!walwire::ReadVarint(in, &cells) ||
      !walwire::ReadVarint(in, &sealed) ||
      !walwire::ReadVarint(in, &reseals) ||
      !walwire::ReadVarint(in, &extractions) ||
      !walwire::ReadVarint(in, &events)) {
    return Corrupt("segmenter stats");
  }
  restored.stats_ = {static_cast<size_t>(cells),
                     static_cast<size_t>(sealed),
                     static_cast<size_t>(reseals),
                     static_cast<size_t>(extractions),
                     static_cast<size_t>(events)};
  if (!walwire::ReadVarint(in, &count) || count > in.remaining()) {
    return Corrupt("newly-sealed list");
  }
  restored.newly_sealed_.resize(static_cast<size_t>(count));
  for (size_t& cell : restored.newly_sealed_) {
    uint64_t value = 0;
    if (!walwire::ReadVarint(in, &value)) return Corrupt("newly-sealed");
    cell = static_cast<size_t>(value);
  }
  if (!walwire::ReadVarint(in, &count) || count > in.remaining()) {
    return Corrupt("cell count");
  }
  for (uint64_t i = 0; i < count; ++i) {
    Cell cell;
    uint8_t flags = 0;
    if (!walwire::ReadSvarint(in, &cell.trainer) ||
        !walwire::ReadSvarint(in, &cell.trainer_end) ||
        !walwire::ReadByte(in, &flags) || flags > 7 ||
        !ReadGraphlet(in, &cell.graphlet)) {
      return Corrupt("cell " + std::to_string(i));
    }
    cell.dirty = (flags & 1) != 0;
    cell.sealed = (flags & 2) != 0;
    cell.extracted_once = (flags & 4) != 0;
    restored.cells_.push_back(std::move(cell));
  }
  if (in.remaining() != 0) return Corrupt("trailing segmenter bytes");

  // Rebuild the derived structures from the cells. The membership
  // indexes reproduce exactly what incremental growth built: the trainer
  // is indexed from birth (OnExecution), and once a cell has been
  // extracted its graphlet members are indexed (ExtractCell's diff
  // indexing converges to exactly the graphlet's node set — list order
  // across cells does not matter, dirty-marking is idempotent).
  for (size_t i = 0; i < restored.cells_.size(); ++i) {
    const Cell& cell = restored.cells_[i];
    restored.trainer_cell_[cell.trainer] = i;
    auto index_exec = [&](metadata::ExecutionId id) {
      if (restored.exec_cells_.size() <= static_cast<size_t>(id)) {
        restored.exec_cells_.resize(static_cast<size_t>(id) + 1);
      }
      restored.exec_cells_[static_cast<size_t>(id)].push_back(
          static_cast<uint32_t>(i));
    };
    index_exec(cell.trainer);
    if (cell.extracted_once) {
      for (metadata::ExecutionId id : cell.graphlet.executions) {
        if (id != cell.trainer) index_exec(id);
      }
      for (metadata::ArtifactId id : cell.graphlet.artifacts) {
        if (restored.artifact_cells_.size() <= static_cast<size_t>(id)) {
          restored.artifact_cells_.resize(static_cast<size_t>(id) + 1);
        }
        restored.artifact_cells_[static_cast<size_t>(id)].push_back(
            static_cast<uint32_t>(i));
      }
    }
    // One live entry per unsealed cell. The original queue may also
    // carry stale entries from reopened cells; those are behaviorally
    // inert (popped and skipped), so dropping them preserves seal order
    // exactly — SealEntry's (trainer_end, cell) order is total.
    if (!cell.sealed) {
      restored.seal_queue_.push(SealEntry{cell.trainer_end, i});
    }
  }
  *this = std::move(restored);
  return Status::Ok();
}

// --- ProvenanceSession state ---

void ProvenanceSession::EncodeState(std::string& out) const {
  AppendBlob(out, metadata::SerializeStoreBinary(store_));
  // Span stats sorted by artifact id: deterministic bytes regardless of
  // hash-map iteration order.
  std::vector<metadata::ArtifactId> span_ids;
  span_ids.reserve(span_stats_.size());
  for (const auto& [id, stats] : span_stats_) span_ids.push_back(id);
  std::sort(span_ids.begin(), span_ids.end());
  AppendVarint(out, span_ids.size());
  for (metadata::ArtifactId id : span_ids) {
    AppendSvarint(out, id);
    walwire::AppendSpanStats(out, span_stats_.at(id));
  }
  AppendSvarint(out, context_);
  AppendVarint(out, trace_id_);
  AppendVarint(out, counts_.records);
  AppendVarint(out, counts_.contexts);
  AppendVarint(out, counts_.executions);
  AppendVarint(out, counts_.artifacts);
  AppendVarint(out, counts_.events);
  std::string segmenter;
  segmenter_.EncodeState(segmenter);
  AppendBlob(out, segmenter);
  out.push_back(options_.scorer != nullptr ? 1 : 0);
  if (options_.scorer == nullptr) return;

  const core::GraphletFeaturizer::SavedState featurizer =
      featurizer_->SaveState();
  AppendVarint(out, featurizer.history.size());
  for (const core::Graphlet& g : featurizer.history) AppendGraphlet(out, g);
  AppendRunningStats(out, featurizer.jaccard_baseline);
  AppendRunningStats(out, featurizer.dsim_baseline);
  AppendVarint(out, featurizer.rows);
  AppendVarint(out, cell_scoring_.size());
  for (const CellScoring& scoring : cell_scoring_) {
    out.push_back(static_cast<char>((scoring.early_scored ? 1 : 0) |
                                    (scoring.trainer_scored ? 2 : 0) |
                                    (scoring.settled ? 4 : 0)));
    AppendVarint(out, scoring.row.size());
    for (double value : scoring.row) walwire::AppendDouble(out, value);
  }
  AppendVarint(out, decisions_.size());
  for (const ScoreDecision& decision : decisions_) {
    AppendDecision(out, decision);
  }
  AppendVarint(out, waste_.decisions);
  AppendVarint(out, waste_.aborts);
  AppendVarint(out, waste_.lost_pushes);
  walwire::AppendDouble(out, waste_.avoided_hours);
}

common::Status ProvenanceSession::RestoreState(std::string_view payload) {
  if (finished_ || counts_.records != 0) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly constructed session");
  }
  walwire::Cursor in(payload);
  std::string_view store_blob;
  if (!ReadBlobView(in, &store_blob)) return Corrupt("store blob");
  StatusOr<metadata::MetadataStore> store =
      metadata::DeserializeStoreBinary(store_blob);
  if (!store.ok()) {
    return Corrupt("store: " + store.status().message());
  }
  // Assignment keeps the store object's address: the segmenter and
  // featurizer observe it by pointer and stay wired correctly.
  store_ = std::move(*store);
  uint64_t count = 0;
  if (!walwire::ReadVarint(in, &count) || count > in.remaining()) {
    return Corrupt("span-stats count");
  }
  span_stats_.clear();
  for (uint64_t i = 0; i < count; ++i) {
    int64_t id = 0;
    dataspan::SpanStats stats;
    if (!walwire::ReadSvarint(in, &id) ||
        !walwire::ReadSpanStats(in, &stats)) {
      return Corrupt("span stats");
    }
    span_stats_.emplace(id, std::move(stats));
  }
  uint64_t records = 0, contexts = 0, executions = 0, artifacts = 0,
           events = 0;
  if (!walwire::ReadSvarint(in, &context_) ||
      !walwire::ReadVarint(in, &trace_id_) ||
      !walwire::ReadVarint(in, &records) ||
      !walwire::ReadVarint(in, &contexts) ||
      !walwire::ReadVarint(in, &executions) ||
      !walwire::ReadVarint(in, &artifacts) ||
      !walwire::ReadVarint(in, &events)) {
    return Corrupt("session counters");
  }
  counts_.records = static_cast<size_t>(records);
  counts_.contexts = static_cast<size_t>(contexts);
  counts_.executions = static_cast<size_t>(executions);
  counts_.artifacts = static_cast<size_t>(artifacts);
  counts_.events = static_cast<size_t>(events);
  // The index is not persisted — its labels rebuild deterministically
  // from the restored store, so queries work as soon as Open returns.
  if (options_.enable_index) index_.CatchUp();
  std::string_view segmenter_blob;
  if (!ReadBlobView(in, &segmenter_blob)) return Corrupt("segmenter blob");
  MLPROV_RETURN_IF_ERROR(segmenter_.RestoreState(segmenter_blob));
  uint8_t has_scorer = 0;
  if (!walwire::ReadByte(in, &has_scorer) || has_scorer > 1) {
    return Corrupt("scorer flag");
  }
  if ((has_scorer != 0) != (options_.scorer != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint was written with a different scorer attachment; "
        "recovery must run with the same SessionOptions");
  }
  if (has_scorer != 0) {
    core::GraphletFeaturizer::SavedState featurizer;
    if (!walwire::ReadVarint(in, &count) || count > in.remaining()) {
      return Corrupt("featurizer history count");
    }
    for (uint64_t i = 0; i < count; ++i) {
      core::Graphlet g;
      if (!ReadGraphlet(in, &g)) return Corrupt("featurizer history");
      featurizer.history.push_back(std::move(g));
    }
    uint64_t rows = 0;
    if (!ReadRunningStats(in, &featurizer.jaccard_baseline) ||
        !ReadRunningStats(in, &featurizer.dsim_baseline) ||
        !walwire::ReadVarint(in, &rows)) {
      return Corrupt("featurizer baselines");
    }
    featurizer.rows = static_cast<size_t>(rows);
    featurizer_->RestoreState(std::move(featurizer));
    if (!walwire::ReadVarint(in, &count) || count > in.remaining()) {
      return Corrupt("cell-scoring count");
    }
    cell_scoring_.clear();
    cell_scoring_.resize(static_cast<size_t>(count));
    for (CellScoring& scoring : cell_scoring_) {
      uint8_t flags = 0;
      uint64_t row = 0;
      if (!walwire::ReadByte(in, &flags) || flags > 7 ||
          !walwire::ReadVarint(in, &row) || row > in.remaining() / 8) {
        return Corrupt("cell scoring");
      }
      scoring.early_scored = (flags & 1) != 0;
      scoring.trainer_scored = (flags & 2) != 0;
      scoring.settled = (flags & 4) != 0;
      scoring.row.resize(static_cast<size_t>(row));
      for (double& value : scoring.row) {
        if (!walwire::ReadDouble(in, &value)) return Corrupt("scoring row");
      }
    }
    if (!walwire::ReadVarint(in, &count) || count > in.remaining()) {
      return Corrupt("decision count");
    }
    decisions_.clear();
    decisions_.resize(static_cast<size_t>(count));
    for (ScoreDecision& decision : decisions_) {
      if (!ReadDecision(in, &decision)) return Corrupt("decision");
    }
    uint64_t decisions = 0, aborts = 0, lost = 0;
    if (!walwire::ReadVarint(in, &decisions) ||
        !walwire::ReadVarint(in, &aborts) ||
        !walwire::ReadVarint(in, &lost) ||
        !walwire::ReadDouble(in, &waste_.avoided_hours)) {
      return Corrupt("waste accounting");
    }
    waste_.decisions = static_cast<size_t>(decisions);
    waste_.aborts = static_cast<size_t>(aborts);
    waste_.lost_pushes = static_cast<size_t>(lost);
  }
  if (in.remaining() != 0) return Corrupt("trailing bytes");
  recovered_ = true;
  return Status::Ok();
}

// --- checkpoint files ---

namespace {

std::string CheckpointName(uint64_t records) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "ckpt_%020llu.ckpt",
                static_cast<unsigned long long>(records));
  return buf;
}

bool ParseCheckpointName(const std::string& name, uint64_t* records) {
  if (name.size() != 5 + 20 + 5) return false;
  if (name.compare(0, 5, "ckpt_") != 0) return false;
  if (name.compare(25, 5, ".ckpt") != 0) return false;
  uint64_t value = 0;
  for (size_t i = 5; i < 25; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *records = value;
  return true;
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

Status WriteFileDurably(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd < 0) return ErrnoStatus("open " + path);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      ::close(fd);
      return ErrnoStatus("write " + path);
    }
    off += static_cast<size_t>(n);
  }
  // fdatasync suffices: data plus file size reach disk, and the publish
  // rename below is made durable by the directory fsync.
  if (::fdatasync(fd) != 0) {
    ::close(fd);
    return ErrnoStatus("fdatasync " + path);
  }
  if (::close(fd) != 0) return ErrnoStatus("close " + path);
  return Status::Ok();
}

}  // namespace

Status WriteCheckpoint(const std::string& dir, uint64_t records,
                       const ProvenanceSession& session) {
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::Internal("cannot create checkpoint dir " + dir + ": " +
                            ec.message());
  }
  std::string file;
  file.append(kCheckpointMagic, 4);
  file.push_back(static_cast<char>(kCheckpointVersion));
  AppendVarint(file, records);
  session.EncodeState(file);
  const uint32_t crc = common::Crc32c(file);
  for (int i = 0; i < 4; ++i) {
    file.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
  const std::string final_path = dir + "/" + CheckpointName(records);
  const std::string tmp_path = final_path + ".tmp";
  MLPROV_RETURN_IF_ERROR(WriteFileDurably(tmp_path, file));
  fs::rename(tmp_path, final_path, ec);
  if (ec) {
    return Status::Internal("cannot publish checkpoint " + final_path +
                            ": " + ec.message());
  }
  // Make the rename itself durable (best effort — not all filesystems
  // support directory fsync).
  const int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return Status::Ok();
}

StatusOr<std::vector<CheckpointInfo>> ListCheckpoints(
    const std::string& dir) {
  std::vector<CheckpointInfo> checkpoints;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return checkpoints;
  for (const auto& it : fs::directory_iterator(dir, ec)) {
    uint64_t records = 0;
    if (ParseCheckpointName(it.path().filename().string(), &records)) {
      checkpoints.push_back(CheckpointInfo{records, it.path().string()});
    }
  }
  if (ec) {
    return Status::Internal("cannot list checkpoint dir " + dir + ": " +
                            ec.message());
  }
  std::sort(checkpoints.begin(), checkpoints.end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.records < b.records;
            });
  return checkpoints;
}

StatusOr<RecoveredCheckpoint> LoadNewestCheckpoint(const std::string& dir) {
  RecoveredCheckpoint out;
  StatusOr<std::vector<CheckpointInfo>> listed = ListCheckpoints(dir);
  MLPROV_RETURN_IF_ERROR(listed.status());
  for (auto it = listed->rbegin(); it != listed->rend(); ++it) {
    std::ifstream in(it->path, std::ios::binary);
    if (!in) {
      return Status::Internal("cannot open checkpoint " + it->path);
    }
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    if (in.bad()) {
      return Status::Internal("cannot read checkpoint " + it->path);
    }
    // header (magic + version) + varint records (>=1 byte) + CRC.
    const size_t kMinSize = 4 + 1 + 1 + 4;
    bool valid = bytes.size() >= kMinSize &&
                 std::memcmp(bytes.data(), kCheckpointMagic, 4) == 0 &&
                 static_cast<uint8_t>(bytes[4]) == kCheckpointVersion;
    uint64_t records = 0;
    walwire::Cursor cursor(
        std::string_view(bytes).substr(0, bytes.size() - 4));
    if (valid) {
      cursor.p += 5;
      valid = walwire::ReadVarint(cursor, &records) &&
              records == it->records;
    }
    if (valid) {
      uint32_t stored = 0;
      const auto* tail =
          reinterpret_cast<const uint8_t*>(bytes.data()) + bytes.size() - 4;
      for (int i = 0; i < 4; ++i) {
        stored |= static_cast<uint32_t>(tail[i]) << (8 * i);
      }
      valid = stored == common::Crc32c(bytes.data(), bytes.size() - 4);
    }
    if (!valid) {
      out.rejected.push_back(it->path);
      continue;
    }
    out.found = true;
    out.records = records;
    out.path = it->path;
    out.payload.assign(reinterpret_cast<const char*>(cursor.p),
                       cursor.remaining());
    return out;
  }
  return out;
}

StatusOr<uint64_t> PruneCheckpoints(const std::string& dir, size_t keep) {
  StatusOr<std::vector<CheckpointInfo>> listed = ListCheckpoints(dir);
  MLPROV_RETURN_IF_ERROR(listed.status());
  const std::vector<CheckpointInfo>& checkpoints = *listed;
  const size_t remove =
      checkpoints.size() > keep ? checkpoints.size() - keep : 0;
  for (size_t i = 0; i < remove; ++i) {
    std::error_code ec;
    fs::remove(checkpoints[i].path, ec);
    if (ec) {
      return Status::Internal("cannot prune checkpoint " +
                              checkpoints[i].path + ": " + ec.message());
    }
  }
  return remove < checkpoints.size() ? checkpoints[remove].records
                                     : uint64_t{0};
}

}  // namespace mlprov::stream
