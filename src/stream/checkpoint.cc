#include "stream/checkpoint.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <utility>

#include "common/crc32c.h"
#include "metadata/binary_serialization.h"
#include "stream/wal.h"

/// This translation unit owns the durability wire format: the
/// checkpoint file container plus ProvenanceSession's EncodeState /
/// RestoreState (member functions may be defined in any TU — keeping
/// them here concentrates every byte-layout decision in one place).

namespace mlprov::stream {

namespace fs = std::filesystem;
using common::Status;
using common::StatusOr;
using metadata::binwire::AppendString;
using metadata::binwire::AppendSvarint;
using metadata::binwire::AppendVarint;
using metadata::binwire::Reader;

namespace {

Status Corrupt(const std::string& what) {
  return Status::InvalidArgument("checkpoint payload: " + what);
}

}  // namespace

// --- ProvenanceSession state ---

void ProvenanceSession::EncodeState(std::string& out) const {
  AppendString(out, metadata::SerializeStoreBinary(store_));
  // Span stats sorted by artifact id: deterministic bytes regardless of
  // hash-map iteration order, and the order replay attaches them in.
  std::vector<metadata::ArtifactId> span_ids;
  span_ids.reserve(span_stats_.size());
  for (const auto& [id, stats] : span_stats_) span_ids.push_back(id);
  std::sort(span_ids.begin(), span_ids.end());
  AppendVarint(out, span_ids.size());
  for (metadata::ArtifactId id : span_ids) {
    AppendSvarint(out, id);
    walwire::AppendSpanStats(out, *span_stats_.at(id));
  }
  AppendString(out, arrivals_);
  AppendVarint(out, trace_id_);
  out.push_back(options_.scorer != nullptr ? 1 : 0);
}

common::Status ProvenanceSession::RestoreState(std::string_view payload) {
  if (finished_ || counts_.records != 0) {
    return Status::FailedPrecondition(
        "RestoreState requires a freshly constructed session");
  }
  Reader in(payload);
  std::string_view store_blob;
  if (!in.Column(&store_blob)) return Corrupt("store blob");
  StatusOr<metadata::MetadataStore> store =
      metadata::DeserializeStoreBinary(store_blob);
  if (!store.ok()) {
    return Corrupt("store: " + store.status().message());
  }
  uint64_t count = 0;
  if (!in.U64(&count) || count > in.remaining()) {
    return Corrupt("span-stats count");
  }
  // Each span's stats are decoded once, into the shared object the
  // replayed record hands the session.
  std::vector<std::pair<metadata::ArtifactId, dataspan::SpanStatsPtr>> spans;
  for (uint64_t i = 0; i < count; ++i) {
    metadata::ArtifactId id = 0;
    auto stats = std::make_shared<dataspan::SpanStats>();
    if (!in.S64(&id) || !walwire::ReadSpanStats(in, stats.get())) {
      return Corrupt("span stats");
    }
    spans.emplace_back(id, std::move(stats));
  }
  std::string_view arrivals;
  uint64_t trace_id = 0;
  uint8_t has_scorer = 0;
  if (!in.Column(&arrivals)) return Corrupt("arrival order");
  if (!in.U64(&trace_id)) return Corrupt("trace id");
  if (!in.Byte(&has_scorer) || has_scorer > 1) {
    return Corrupt("scorer flag");
  }
  if (in.remaining() != 0) return Corrupt("trailing bytes");
  if ((has_scorer != 0) != (options_.scorer != nullptr)) {
    return Status::FailedPrecondition(
        "checkpoint was written with a different scorer attachment; "
        "recovery must run with the same SessionOptions");
  }

  // Replay: the k-th record of a kind in arrival order is the store's
  // k-th node (or event) of that kind, since ids are dense and events
  // keep their put order. Nodes are moved out of the decoded store.
  // Span stats are sorted by id and artifacts replay in id order, so
  // one cursor attaches them.
  const auto tagged = [arrivals](char tag) {
    return static_cast<size_t>(
        std::count(arrivals.begin(), arrivals.end(), tag));
  };
  if (tagged('C') != store->num_contexts() ||
      tagged('E') != store->num_executions() ||
      tagged('A') != store->num_artifacts() ||
      tagged('V') != store->num_events() ||
      arrivals.size() != store->num_contexts() + store->num_executions() +
                             store->num_artifacts() + store->num_events()) {
    return Corrupt("arrival order does not match the store");
  }
  size_t contexts = 0, events = 0, span = 0;
  metadata::ExecutionId executions = 0;
  metadata::ArtifactId artifacts = 0;
  sim::ProvenanceRecord record;
  for (size_t i = 0; i < arrivals.size(); ++i) {
    record.span_stats = nullptr;
    switch (arrivals[i]) {
      case 'C':
        record.kind = sim::ProvenanceRecord::Kind::kContext;
        record.context.id = store->contexts()[contexts].id;
        record.context.name = store->contexts()[contexts++].name;
        break;
      case 'E':
        record.kind = sim::ProvenanceRecord::Kind::kExecution;
        record.execution = std::move(*store->MutableExecution(++executions));
        break;
      case 'A':
        record.kind = sim::ProvenanceRecord::Kind::kArtifact;
        record.artifact = std::move(*store->MutableArtifact(++artifacts));
        if (span < spans.size() && spans[span].first == artifacts) {
          record.span_stats = std::move(spans[span++].second);
        }
        break;
      case 'V':
        record.kind = sim::ProvenanceRecord::Kind::kEvent;
        record.event = store->events()[events++];
        break;
    }
    // Trace id 0 during replay: replayed records emit no causal flows.
    const Status ingested = Ingest(record);
    if (!ingested.ok()) {
      return Corrupt("replay of record " + std::to_string(i) + ": " +
                     ingested.message());
    }
  }
  if (span != spans.size()) return Corrupt("span stats of no artifact");
  trace_id_ = trace_id;
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

bool ParseCheckpointName(std::string_view name, uint64_t* records) {
  if (name.size() != 5 + 20 + 5) return false;
  if (name.substr(0, 5) != "ckpt_") return false;
  if (name.substr(25) != ".ckpt") return false;
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

/// Lists the checkpoint files of `dir`, oldest first, and, when
/// `leftovers` is set, the temp files of checkpoints a crash interrupted
/// between WriteCheckpoint's write and its rename. Missing dir = empty.
Status ScanCheckpointDir(const std::string& dir,
                         std::vector<CheckpointInfo>* checkpoints,
                         std::vector<std::string>* leftovers) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return Status::Ok();
  for (const auto& it : fs::directory_iterator(dir, ec)) {
    const std::string name = it.path().filename().string();
    uint64_t records = 0;
    if (ParseCheckpointName(name, &records)) {
      checkpoints->push_back(CheckpointInfo{records, it.path().string()});
    } else if (leftovers != nullptr && name.ends_with(".tmp") &&
               ParseCheckpointName(name.substr(0, name.size() - 4),
                                   &records)) {
      leftovers->push_back(it.path().string());
    }
  }
  if (ec) {
    return Status::Internal("cannot list checkpoint dir " + dir + ": " +
                            ec.message());
  }
  std::sort(checkpoints->begin(), checkpoints->end(),
            [](const CheckpointInfo& a, const CheckpointInfo& b) {
              return a.records < b.records;
            });
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
  MLPROV_RETURN_IF_ERROR(ScanCheckpointDir(dir, &checkpoints, nullptr));
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
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const std::string bytes = std::move(buffer).str();
    if (in.bad()) {
      return Status::Internal("cannot read checkpoint " + it->path);
    }
    // header (magic + version) + varint records (>=1 byte) + CRC.
    const size_t kMinSize = 4 + 1 + 1 + 4;
    bool valid = bytes.size() >= kMinSize &&
                 std::memcmp(bytes.data(), kCheckpointMagic, 4) == 0 &&
                 static_cast<uint8_t>(bytes[4]) == kCheckpointVersion;
    uint64_t records = 0;
    Reader cursor(std::string_view(bytes).substr(0, bytes.size() - 4));
    if (valid) {
      cursor.p += 5;
      valid = cursor.U64(&records) && records == it->records;
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
  std::vector<CheckpointInfo> checkpoints;
  // A directory has one writer, which prunes only after its own rename,
  // so every temp file found here is a crash's leftover.
  std::vector<std::string> doomed;
  MLPROV_RETURN_IF_ERROR(ScanCheckpointDir(dir, &checkpoints, &doomed));
  const size_t remove =
      checkpoints.size() > keep ? checkpoints.size() - keep : 0;
  for (size_t i = 0; i < remove; ++i) doomed.push_back(checkpoints[i].path);
  for (const std::string& path : doomed) {
    std::error_code ec;
    fs::remove(path, ec);
    if (ec) {
      return Status::Internal("cannot prune checkpoint " + path + ": " +
                              ec.message());
    }
  }
  return remove < checkpoints.size() ? checkpoints[remove].records
                                     : uint64_t{0};
}

}  // namespace mlprov::stream
