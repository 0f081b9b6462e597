#include "stream/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <memory>
#include <utility>

#include "common/crc32c.h"
#include "metadata/binary_serialization.h"
#include "metadata/types.h"

namespace mlprov::stream {

namespace fs = std::filesystem;
using common::Status;
using common::StatusOr;

const char* ToString(WalSyncPolicy policy) {
  switch (policy) {
    case WalSyncPolicy::kNone:
      return "none";
    case WalSyncPolicy::kInterval:
      return "interval";
    case WalSyncPolicy::kEvery:
      return "every";
  }
  return "?";
}

StatusOr<WalSyncPolicy> ParseWalSyncPolicy(std::string_view text) {
  if (text == "none") return WalSyncPolicy::kNone;
  if (text == "interval") return WalSyncPolicy::kInterval;
  if (text == "every") return WalSyncPolicy::kEvery;
  return Status::InvalidArgument("unknown WAL sync policy: '" +
                                 std::string(text) +
                                 "' (expected none|interval|every)");
}

namespace walwire {

bool ReadVarint(Cursor& in, uint64_t* value) {
  uint64_t result = 0;
  int shift = 0;
  const uint8_t* p = in.p;
  while (p < in.end && shift < 64) {
    const uint8_t byte = *p++;
    result |= static_cast<uint64_t>(byte & 0x7Fu) << shift;
    if ((byte & 0x80u) == 0) {
      // Reject non-canonical 10th bytes that would overflow 64 bits.
      if (shift == 63 && byte > 1) return false;
      in.p = p;
      *value = result;
      return true;
    }
    shift += 7;
  }
  return false;  // truncated or >10 bytes
}

bool ReadSvarint(Cursor& in, int64_t* value) {
  uint64_t raw = 0;
  if (!ReadVarint(in, &raw)) return false;
  *value = metadata::binwire::ZigZagDecode(raw);
  return true;
}

bool ReadDouble(Cursor& in, double* value) {
  if (in.remaining() < 8) return false;
  uint64_t bits = 0;
  for (int i = 0; i < 8; ++i) {
    bits |= static_cast<uint64_t>(in.p[i]) << (8 * i);
  }
  in.p += 8;
  std::memcpy(value, &bits, sizeof(*value));
  return true;
}

bool ReadByte(Cursor& in, uint8_t* value) {
  if (in.remaining() < 1) return false;
  *value = *in.p++;
  return true;
}

bool ReadString(Cursor& in, std::string* value) {
  uint64_t length = 0;
  if (!ReadVarint(in, &length)) return false;
  if (length > in.remaining()) return false;
  value->assign(reinterpret_cast<const char*>(in.p),
                static_cast<size_t>(length));
  in.p += length;
  return true;
}

void AppendDouble(std::string& out, double value) {
  uint64_t bits = 0;
  std::memcpy(&bits, &value, sizeof(value));
  // One append call, not eight push_backs: span-stats artifacts carry
  // hundreds of doubles, and this is the WAL hot path.
  char buf[8];
  for (int i = 0; i < 8; ++i) {
    buf[i] = static_cast<char>((bits >> (8 * i)) & 0xFFu);
  }
  out.append(buf, sizeof(buf));
}

void AppendString(std::string& out, std::string_view value) {
  metadata::binwire::AppendVarint(out, value.size());
  out.append(value.data(), value.size());
}

void AppendProperties(
    std::string& out,
    const std::map<std::string, metadata::PropertyValue>& properties) {
  metadata::binwire::AppendVarint(out, properties.size());
  for (const auto& [key, value] : properties) {
    AppendString(out, key);
    if (const auto* i = std::get_if<int64_t>(&value)) {
      out.push_back('i');
      metadata::binwire::AppendSvarint(out, *i);
    } else if (const auto* d = std::get_if<double>(&value)) {
      out.push_back('d');
      AppendDouble(out, *d);
    } else {
      out.push_back('s');
      AppendString(out, std::get<std::string>(value));
    }
  }
}

bool ReadProperties(
    Cursor& in, std::map<std::string, metadata::PropertyValue>* properties) {
  uint64_t count = 0;
  if (!ReadVarint(in, &count)) return false;
  if (count > in.remaining()) return false;  // >= 1 byte per property
  for (uint64_t i = 0; i < count; ++i) {
    std::string key;
    uint8_t tag = 0;
    if (!ReadString(in, &key) || !ReadByte(in, &tag)) return false;
    metadata::PropertyValue value;
    if (tag == 'i') {
      int64_t v = 0;
      if (!ReadSvarint(in, &v)) return false;
      value = v;
    } else if (tag == 'd') {
      double v = 0.0;
      if (!ReadDouble(in, &v)) return false;
      value = v;
    } else if (tag == 's') {
      std::string v;
      if (!ReadString(in, &v)) return false;
      value = std::move(v);
    } else {
      return false;
    }
    (*properties)[std::move(key)] = std::move(value);
  }
  return true;
}

void AppendSpanStats(std::string& out, const dataspan::SpanStats& stats) {
  metadata::binwire::AppendSvarint(out, stats.span_number);
  metadata::binwire::AppendVarint(out, stats.features.size());
  for (const dataspan::FeatureStats& f : stats.features) {
    AppendString(out, f.name);
    out.push_back(static_cast<char>(f.kind));
    // Doubles are stored little-endian; on a little-endian target both
    // arrays can be appended with two bulk copies instead of a call per
    // value (span-stats artifacts dominate WAL encode cost otherwise).
    if constexpr (std::endian::native == std::endian::little) {
      out.append(reinterpret_cast<const char*>(f.bins.data()),
                 f.bins.size() * sizeof(double));
      out.append(reinterpret_cast<const char*>(f.top_term_counts.data()),
                 f.top_term_counts.size() * sizeof(double));
    } else {
      for (double bin : f.bins) AppendDouble(out, bin);
      for (double count : f.top_term_counts) AppendDouble(out, count);
    }
    metadata::binwire::AppendSvarint(out, f.unique_terms);
    metadata::binwire::AppendSvarint(out, f.total_count);
  }
}

bool ReadSpanStats(Cursor& in, dataspan::SpanStats* stats) {
  uint64_t count = 0;
  if (!ReadSvarint(in, &stats->span_number)) return false;
  if (!ReadVarint(in, &count)) return false;
  // Each feature is >= 160 bytes of doubles; a cheap hostile-count bound.
  if (count > in.remaining() / 8) return false;
  stats->features.resize(static_cast<size_t>(count));
  for (dataspan::FeatureStats& f : stats->features) {
    uint8_t kind = 0;
    if (!ReadString(in, &f.name) || !ReadByte(in, &kind)) return false;
    if (kind > static_cast<uint8_t>(dataspan::FeatureKind::kCategorical)) {
      return false;
    }
    f.kind = static_cast<dataspan::FeatureKind>(kind);
    for (double& bin : f.bins) {
      if (!ReadDouble(in, &bin)) return false;
    }
    for (double& c : f.top_term_counts) {
      if (!ReadDouble(in, &c)) return false;
    }
    if (!ReadSvarint(in, &f.unique_terms)) return false;
    if (!ReadSvarint(in, &f.total_count)) return false;
  }
  return true;
}

namespace {

void EncodePayload(const sim::ProvenanceRecord& record, std::string& out) {
  using metadata::binwire::AppendSvarint;
  using metadata::binwire::AppendVarint;
  switch (record.kind) {
    case sim::ProvenanceRecord::Kind::kContext:
      AppendSvarint(out, record.context.id);
      AppendString(out, record.context.name);
      return;
    case sim::ProvenanceRecord::Kind::kExecution:
      AppendSvarint(out, record.execution.id);
      out.push_back(static_cast<char>(record.execution.type));
      AppendSvarint(out, record.execution.start_time);
      AppendSvarint(out, record.execution.end_time);
      out.push_back(record.execution.succeeded ? 1 : 0);
      AppendDouble(out, record.execution.compute_cost);
      AppendProperties(out, record.execution.properties);
      AppendVarint(out, record.span.trace_id);
      AppendVarint(out, record.span.span_id);
      return;
    case sim::ProvenanceRecord::Kind::kArtifact:
      AppendSvarint(out, record.artifact.id);
      out.push_back(static_cast<char>(record.artifact.type));
      AppendSvarint(out, record.artifact.create_time);
      AppendProperties(out, record.artifact.properties);
      if (record.span_stats != nullptr) {
        out.push_back(1);
        AppendSpanStats(out, *record.span_stats);
      } else {
        out.push_back(0);
      }
      return;
    case sim::ProvenanceRecord::Kind::kEvent:
      AppendSvarint(out, record.event.execution);
      AppendSvarint(out, record.event.artifact);
      out.push_back(record.event.kind == metadata::EventKind::kOutput ? 1
                                                                      : 0);
      AppendSvarint(out, record.event.time);
      return;
  }
}

char TagOf(sim::ProvenanceRecord::Kind kind) {
  switch (kind) {
    case sim::ProvenanceRecord::Kind::kContext:
      return 'C';
    case sim::ProvenanceRecord::Kind::kExecution:
      return 'E';
    case sim::ProvenanceRecord::Kind::kArtifact:
      return 'A';
    case sim::ProvenanceRecord::Kind::kEvent:
      return 'V';
  }
  return '?';
}

bool DecodePayload(char tag, Cursor payload, WalEntry* entry) {
  sim::ProvenanceRecord& record = entry->record;
  record = sim::ProvenanceRecord();
  switch (tag) {
    case 'C': {
      record.kind = sim::ProvenanceRecord::Kind::kContext;
      if (!ReadSvarint(payload, &record.context.id)) return false;
      if (!ReadString(payload, &record.context.name)) return false;
      break;
    }
    case 'E': {
      record.kind = sim::ProvenanceRecord::Kind::kExecution;
      metadata::Execution& e = record.execution;
      uint8_t type = 0, succeeded = 0;
      if (!ReadSvarint(payload, &e.id) || !ReadByte(payload, &type) ||
          !ReadSvarint(payload, &e.start_time) ||
          !ReadSvarint(payload, &e.end_time) ||
          !ReadByte(payload, &succeeded) ||
          !ReadDouble(payload, &e.compute_cost) ||
          !ReadProperties(payload, &e.properties)) {
        return false;
      }
      if (type >= metadata::kNumExecutionTypes || succeeded > 1) {
        return false;
      }
      e.type = static_cast<metadata::ExecutionType>(type);
      e.succeeded = succeeded != 0;
      if (!ReadVarint(payload, &record.span.trace_id)) return false;
      if (!ReadVarint(payload, &record.span.span_id)) return false;
      break;
    }
    case 'A': {
      record.kind = sim::ProvenanceRecord::Kind::kArtifact;
      metadata::Artifact& a = record.artifact;
      uint8_t type = 0, has_stats = 0;
      if (!ReadSvarint(payload, &a.id) || !ReadByte(payload, &type) ||
          !ReadSvarint(payload, &a.create_time) ||
          !ReadProperties(payload, &a.properties) ||
          !ReadByte(payload, &has_stats)) {
        return false;
      }
      if (type >= metadata::kNumArtifactTypes || has_stats > 1) {
        return false;
      }
      a.type = static_cast<metadata::ArtifactType>(type);
      if (has_stats != 0) {
        auto stats = std::make_shared<dataspan::SpanStats>();
        if (!ReadSpanStats(payload, stats.get())) return false;
        record.span_stats = std::move(stats);
      }
      break;
    }
    case 'V': {
      record.kind = sim::ProvenanceRecord::Kind::kEvent;
      metadata::Event& v = record.event;
      uint8_t kind = 0;
      if (!ReadSvarint(payload, &v.execution) ||
          !ReadSvarint(payload, &v.artifact) || !ReadByte(payload, &kind) ||
          !ReadSvarint(payload, &v.time)) {
        return false;
      }
      if (kind > 1) return false;
      v.kind = kind != 0 ? metadata::EventKind::kOutput
                         : metadata::EventKind::kInput;
      break;
    }
    default:
      return false;
  }
  // Strict payload framing: trailing garbage is a defect.
  return payload.remaining() == 0;
}

}  // namespace

void EncodeFrame(const sim::ProvenanceRecord& record, uint64_t seq,
                 std::string& out) {
  const size_t frame_start = out.size();
  out.push_back(TagOf(record.kind));
  metadata::binwire::AppendVarint(out, seq);
  // The payload is encoded straight into `out` — no per-frame temporary
  // buffer — behind a fixed-width length varint that is backpatched
  // once the payload size is known. Padding a varint with 0x80
  // continuation bytes (contributing zero bits) decodes identically to
  // the canonical form, so readers are unaffected. Four bytes cover
  // payloads under 2^28; a single provenance record cannot reach that.
  const size_t length_at = out.size();
  out.append(4, '\0');
  const size_t payload_start = out.size();
  EncodePayload(record, out);
  const uint64_t length = out.size() - payload_start;
  out[length_at + 0] = static_cast<char>(0x80u | (length & 0x7Fu));
  out[length_at + 1] =
      static_cast<char>(0x80u | ((length >> 7) & 0x7Fu));
  out[length_at + 2] =
      static_cast<char>(0x80u | ((length >> 14) & 0x7Fu));
  out[length_at + 3] = static_cast<char>((length >> 21) & 0x7Fu);
  const uint32_t crc = common::Crc32c(out.data() + frame_start,
                                      out.size() - frame_start);
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((crc >> (8 * i)) & 0xFFu));
  }
}

bool DecodeFrame(Cursor& in, WalEntry* entry) {
  Cursor probe = in;
  uint8_t tag = 0;
  uint64_t seq = 0, length = 0;
  if (!ReadByte(probe, &tag)) return false;
  if (tag != 'C' && tag != 'E' && tag != 'A' && tag != 'V') return false;
  if (!ReadVarint(probe, &seq) || !ReadVarint(probe, &length)) return false;
  if (length + 4 > probe.remaining()) return false;
  const uint8_t* payload_begin = probe.p;
  const uint8_t* crc_begin = payload_begin + length;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(crc_begin[i]) << (8 * i);
  }
  const uint32_t actual =
      common::Crc32c(in.p, static_cast<size_t>(crc_begin - in.p));
  if (stored != actual) return false;
  Cursor payload = probe;
  payload.end = crc_begin;
  if (!DecodePayload(static_cast<char>(tag), payload, entry)) return false;
  entry->seq = seq;
  in.p = crc_begin + 4;
  return true;
}

}  // namespace walwire

namespace {

std::string SegmentName(uint64_t start_seq) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "wal_%020llu.log",
                static_cast<unsigned long long>(start_seq));
  return buf;
}

/// wal_<20 digits>.log -> start seq; false for other file names.
bool ParseSegmentName(const std::string& name, uint64_t* start_seq) {
  if (name.size() != 4 + 20 + 4) return false;
  if (name.compare(0, 4, "wal_") != 0) return false;
  if (name.compare(24, 4, ".log") != 0) return false;
  uint64_t value = 0;
  for (size_t i = 4; i < 24; ++i) {
    const char c = name[i];
    if (c < '0' || c > '9') return false;
    value = value * 10 + static_cast<uint64_t>(c - '0');
  }
  *start_seq = value;
  return true;
}

struct SegmentFile {
  uint64_t start_seq = 0;
  fs::path path;
  bool operator<(const SegmentFile& other) const {
    return start_seq < other.start_seq;
  }
};

StatusOr<std::vector<SegmentFile>> ListSegments(const std::string& dir) {
  std::vector<SegmentFile> segments;
  std::error_code ec;
  if (!fs::exists(dir, ec)) return segments;
  for (const auto& it : fs::directory_iterator(dir, ec)) {
    uint64_t start = 0;
    if (ParseSegmentName(it.path().filename().string(), &start)) {
      segments.push_back(SegmentFile{start, it.path()});
    }
  }
  if (ec) {
    return Status::Internal("cannot list WAL dir " + dir + ": " +
                            ec.message());
  }
  std::sort(segments.begin(), segments.end());
  return segments;
}

StatusOr<std::string> ReadFileBytes(const fs::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    return Status::Internal("cannot open WAL segment " + path.string());
  }
  std::string bytes((std::istreambuf_iterator<char>(in)),
                    std::istreambuf_iterator<char>());
  if (in.bad()) {
    return Status::Internal("cannot read WAL segment " + path.string());
  }
  return bytes;
}

/// Parses the "MLPW" + version + varint start_seq header; returns false
/// on any mismatch.
bool ReadSegmentHeader(walwire::Cursor& in, uint64_t* start_seq) {
  if (in.remaining() < 5) return false;
  if (std::memcmp(in.p, kWalMagic, 4) != 0) return false;
  in.p += 4;
  uint8_t version = 0;
  if (!walwire::ReadByte(in, &version) || version != kWalVersion) {
    return false;
  }
  return walwire::ReadVarint(in, start_seq);
}

Status ErrnoStatus(const std::string& what) {
  return Status::Internal(what + ": " + std::strerror(errno));
}

}  // namespace

// --- WalWriter ---

StatusOr<WalWriter> WalWriter::Open(const WalOptions& options,
                                    uint64_t next_seq) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("WalOptions.dir is required");
  }
  std::error_code ec;
  fs::create_directories(options.dir, ec);
  if (ec) {
    return Status::Internal("cannot create WAL dir " + options.dir + ": " +
                            ec.message());
  }
  WalWriter writer;
  writer.options_ = options;
  writer.next_seq_ = next_seq;
  MLPROV_RETURN_IF_ERROR(writer.RollSegment());
  return writer;
}

WalWriter::WalWriter(WalWriter&& other) noexcept { *this = std::move(other); }

WalWriter& WalWriter::operator=(WalWriter&& other) noexcept {
  if (this == &other) return *this;
  if (fd_ >= 0) ::close(fd_);
  options_ = std::move(other.options_);
  fd_ = other.fd_;
  other.fd_ = -1;
  segment_path_ = std::move(other.segment_path_);
  next_seq_ = other.next_seq_;
  records_since_sync_ = other.records_since_sync_;
  file_size_ = other.file_size_;
  synced_size_ = other.synced_size_;
  buffer_ = std::move(other.buffer_);
  return *this;
}

WalWriter::~WalWriter() { (void)Close(); }

Status WalWriter::RollSegment() {
  if (fd_ >= 0) {
    MLPROV_RETURN_IF_ERROR(Sync());
    if (::close(fd_) != 0) return ErrnoStatus("close " + segment_path_);
    fd_ = -1;
  }
  segment_path_ = options_.dir + "/" + SegmentName(next_seq_);
  fd_ = ::open(segment_path_.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0644);
  if (fd_ < 0) return ErrnoStatus("open " + segment_path_);
  buffer_.clear();
  buffer_.append(kWalMagic, 4);
  buffer_.push_back(static_cast<char>(kWalVersion));
  metadata::binwire::AppendVarint(buffer_, next_seq_);
  file_size_ = 0;
  synced_size_ = 0;
  return Status::Ok();
}

Status WalWriter::FlushBuffer() {
  size_t off = 0;
  while (off < buffer_.size()) {
    const ssize_t n =
        ::write(fd_, buffer_.data() + off, buffer_.size() - off);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write " + segment_path_);
    }
    off += static_cast<size_t>(n);
  }
  file_size_ += buffer_.size();
  buffer_.clear();
  return Status::Ok();
}

Status WalWriter::Append(const sim::ProvenanceRecord& record) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("WalWriter is closed");
  }
  walwire::EncodeFrame(record, next_seq_, buffer_);
  ++next_seq_;
  ++records_since_sync_;
  const bool sync_now =
      options_.sync == WalSyncPolicy::kEvery ||
      (options_.sync == WalSyncPolicy::kInterval &&
       records_since_sync_ >= std::max<uint64_t>(
                                  1, options_.sync_interval_records));
  if (sync_now) {
    MLPROV_RETURN_IF_ERROR(Sync());
  } else if (buffer_.size() >= options_.flush_threshold_bytes) {
    MLPROV_RETURN_IF_ERROR(FlushBuffer());
  }
  if (file_size_ + buffer_.size() >= options_.segment_max_bytes) {
    MLPROV_RETURN_IF_ERROR(RollSegment());
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  if (fd_ < 0) {
    return Status::FailedPrecondition("WalWriter is closed");
  }
  MLPROV_RETURN_IF_ERROR(FlushBuffer());
  if (synced_size_ != file_size_) {
    // fdatasync, not fsync: POSIX guarantees it flushes the data plus
    // whatever metadata is needed to retrieve it (the size of an
    // append-only segment), and skips the inode-timestamp flush that
    // roughly doubles fsync latency on journaling filesystems.
    if (::fdatasync(fd_) != 0) {
      return ErrnoStatus("fdatasync " + segment_path_);
    }
    synced_size_ = file_size_;
  }
  records_since_sync_ = 0;
  return Status::Ok();
}

Status WalWriter::Close() {
  if (fd_ < 0) return Status::Ok();
  Status sync = Sync();
  if (::close(fd_) != 0 && sync.ok()) {
    sync = ErrnoStatus("close " + segment_path_);
  }
  fd_ = -1;
  return sync;
}

Status WalWriter::SimulateCrash(uint64_t keep_unsynced_bytes) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("WalWriter is closed");
  }
  // Everything appended after the last fsync — user-space buffer plus
  // flushed-but-unsynced file bytes — forms the at-risk tail; a crash
  // preserves some prefix of it. Materialize the whole tail, then cut.
  MLPROV_RETURN_IF_ERROR(FlushBuffer());
  const uint64_t unsynced = file_size_ - synced_size_;
  const uint64_t keep = std::min(keep_unsynced_bytes, unsynced);
  const auto surviving = static_cast<off_t>(synced_size_ + keep);
  if (::ftruncate(fd_, surviving) != 0) {
    return ErrnoStatus("ftruncate " + segment_path_);
  }
  ::close(fd_);
  fd_ = -1;
  return Status::Ok();
}

// --- ReadWal ---

StatusOr<WalRecovered> ReadWal(const std::string& dir,
                               const WalReadOptions& options) {
  WalRecovered out;
  std::vector<SegmentFile> segments;
  {
    StatusOr<std::vector<SegmentFile>> listed = ListSegments(dir);
    MLPROV_RETURN_IF_ERROR(listed.status());
    segments = std::move(*listed);
  }
  out.segments = segments.size();

  bool healthy = true;  // still extending the replayable prefix
  uint64_t expected_seq = 0;
  bool have_expected = false;
  /// Evidence of records beyond the replayable prefix: max(frame seq +
  /// 1, later segment header start). Exact quarantine accounting.
  uint64_t evidence_end = 0;
  /// Where the first defect sits (for torn-tail classification/repair).
  size_t defect_segment = SIZE_MAX;
  size_t defect_offset = 0;
  std::vector<fs::path> stranded_segments;

  for (size_t si = 0; si < segments.size(); ++si) {
    const SegmentFile& segment = segments[si];
    StatusOr<std::string> bytes_or = ReadFileBytes(segment.path);
    MLPROV_RETURN_IF_ERROR(bytes_or.status());
    const std::string& bytes = *bytes_or;
    walwire::Cursor cursor(bytes);
    uint64_t header_start = 0;
    const bool header_ok =
        ReadSegmentHeader(cursor, &header_start) &&
        header_start == segment.start_seq;

    if (!healthy) {
      // Already past the first defect: this whole segment is stranded.
      // Its header (and any CRC-valid frames) only sharpen the count of
      // journaled-but-lost records.
      if (header_ok) {
        evidence_end = std::max(evidence_end, header_start);
        WalEntry entry;
        while (cursor.remaining() > 0) {
          if (walwire::DecodeFrame(cursor, &entry)) {
            evidence_end = std::max(evidence_end, entry.seq + 1);
          } else {
            ++cursor.p;
          }
        }
      }
      out.quarantined_bytes += bytes.size();
      stranded_segments.push_back(segment.path);
      continue;
    }

    if (!header_ok ||
        (have_expected && segment.start_seq != expected_seq)) {
      // Unreadable header, or a hole between segments (a segment file
      // vanished): nothing after this point can replay.
      healthy = false;
      defect_segment = si;
      defect_offset = 0;
      if (header_ok) evidence_end = std::max(evidence_end, header_start);
      // Scan for CRC-valid frames to sharpen the accounting.
      WalEntry entry;
      while (cursor.remaining() > 0) {
        if (walwire::DecodeFrame(cursor, &entry)) {
          evidence_end = std::max(evidence_end, entry.seq + 1);
        } else {
          ++cursor.p;
        }
      }
      out.quarantined_bytes += bytes.size();
      stranded_segments.push_back(segment.path);
      continue;
    }

    if (!have_expected) {
      expected_seq = segment.start_seq;
      have_expected = true;
      out.first_seq = segment.start_seq;
    }

    WalEntry entry;
    while (cursor.remaining() > 0) {
      const size_t offset =
          bytes.size() - cursor.remaining();
      if (!walwire::DecodeFrame(cursor, &entry) ||
          entry.seq != expected_seq) {
        // First defect. Everything decoded so far stays replayable;
        // resync-scan the rest of this segment for evidence.
        healthy = false;
        defect_segment = si;
        defect_offset = offset;
        walwire::Cursor scan = cursor;
        ++scan.p;  // the defect byte itself can't start a frame we trust
        WalEntry later;
        while (scan.p < scan.end) {
          if (walwire::DecodeFrame(scan, &later)) {
            evidence_end = std::max(evidence_end, later.seq + 1);
          } else {
            ++scan.p;
          }
        }
        break;
      }
      ++expected_seq;
      if (entry.seq >= options.from_seq) {
        out.entries.push_back(std::move(entry));
        entry = WalEntry();
      }
    }
  }

  out.next_seq = have_expected ? expected_seq : 0;
  if (evidence_end > expected_seq) {
    out.quarantined_records = evidence_end - expected_seq;
  }
  if (defect_segment != SIZE_MAX) {
    const SegmentFile& segment = segments[defect_segment];
    std::error_code ec;
    const uint64_t size = fs::file_size(segment.path, ec);
    const uint64_t dropped = ec ? 0 : size - defect_offset;
    const bool is_tail =
        defect_segment + 1 == segments.size() && evidence_end <= expected_seq;
    if (is_tail) {
      out.torn_tail_bytes = dropped;
    } else if (defect_offset > 0) {
      // Mid-log corruption inside the defect segment (stranded later
      // segments were already counted whole).
      out.quarantined_bytes += dropped;
    }

    if (options.repair) {
      const fs::path qdir = fs::path(dir) / "quarantine";
      fs::create_directories(qdir, ec);
      if (dropped > 0 && defect_offset > 0) {
        // Preserve the removed bytes for forensics, then truncate the
        // segment at the defect so the repaired log is a clean prefix.
        StatusOr<std::string> bytes_or = ReadFileBytes(segment.path);
        if (bytes_or.ok() && defect_offset < bytes_or->size()) {
          const fs::path saved =
              qdir / (segment.path.filename().string() + "." +
                      std::to_string(defect_offset) + ".bad");
          std::ofstream save(saved, std::ios::binary | std::ios::trunc);
          save.write(bytes_or->data() + defect_offset,
                     static_cast<std::streamsize>(bytes_or->size() -
                                                  defect_offset));
          out.repairs.push_back("saved " + saved.filename().string());
        }
        fs::resize_file(segment.path, defect_offset, ec);
        if (!ec) {
          out.repairs.push_back(
              "truncated " + segment.path.filename().string() + " to " +
              std::to_string(defect_offset) + " bytes");
        }
      } else if (defect_offset == 0) {
        // Header-level damage: the whole file moves to quarantine (it is
        // also in stranded_segments, handled below).
        if (std::find(stranded_segments.begin(), stranded_segments.end(),
                      segment.path) == stranded_segments.end()) {
          stranded_segments.push_back(segment.path);
        }
      }
      for (const fs::path& stranded : stranded_segments) {
        const fs::path target = qdir / stranded.filename();
        fs::rename(stranded, target, ec);
        if (!ec) {
          out.repairs.push_back("quarantined " +
                                stranded.filename().string());
        }
      }
    }
  }
  return out;
}

StatusOr<size_t> PruneWalSegments(const std::string& dir,
                                  uint64_t upto_seq) {
  StatusOr<std::vector<SegmentFile>> listed = ListSegments(dir);
  MLPROV_RETURN_IF_ERROR(listed.status());
  const std::vector<SegmentFile>& segments = *listed;
  size_t removed = 0;
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    // Segment i covers seqs [start_i, start_{i+1}).
    if (segments[i + 1].start_seq <= upto_seq) {
      std::error_code ec;
      fs::remove(segments[i].path, ec);
      if (ec) {
        return Status::Internal("cannot prune WAL segment " +
                                segments[i].path.string() + ": " +
                                ec.message());
      }
      ++removed;
    }
  }
  return removed;
}

StatusOr<size_t> QuarantineWalDir(const std::string& dir) {
  std::error_code ec;
  if (!fs::exists(dir, ec)) return static_cast<size_t>(0);
  const fs::path qdir = fs::path(dir) / "quarantine";
  fs::create_directories(qdir, ec);
  if (ec) {
    return Status::Internal("cannot create quarantine dir: " + ec.message());
  }
  size_t moved = 0;
  for (const auto& it : fs::directory_iterator(dir, ec)) {
    if (!it.is_regular_file()) continue;
    const std::string name = it.path().filename().string();
    uint64_t start = 0;
    const bool is_wal = ParseSegmentName(name, &start);
    const bool is_ckpt =
        name.rfind("ckpt_", 0) == 0 || name.rfind("MANIFEST", 0) == 0;
    if (!is_wal && !is_ckpt) continue;
    fs::rename(it.path(), qdir / name, ec);
    if (ec) {
      return Status::Internal("cannot quarantine " + name + ": " +
                              ec.message());
    }
    ++moved;
  }
  return moved;
}

}  // namespace mlprov::stream
