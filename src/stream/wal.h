#ifndef MLPROV_STREAM_WAL_H_
#define MLPROV_STREAM_WAL_H_

/// Segment-based write-ahead log for the streaming provenance service:
/// every record a durable session ingests is journaled here *before* it
/// mutates session state, so a crashed session can be rebuilt
/// byte-identical by replaying the log tail over the newest checkpoint
/// (src/stream/checkpoint.h).
///
/// Wire layout. A WAL directory holds segment files named
/// `wal_<start_seq, 20-digit decimal>.log`, each laid out as
///
///   header  "MLPW" + version byte 0x01 + varint start_seq
///   frame*  tag (1 byte: 'C'ontext | 'E'xecution | 'A'rtifact |
///           e'V'ent) + varint seq + varint payload length + payload
///           + CRC-32C (4 bytes LE) over tag..payload
///
/// Frames are self-contained (absolute ids and timestamps, inline
/// strings, no interning or cross-frame deltas — unlike the MLPB store
/// format, a log must stay decodable from any checkpoint boundary), and
/// `seq` is the global record index of the feed, so a reader can skip
/// straight to a checkpoint position and verify replay continuity.
/// Artifact frames carry the record's span statistics when present:
/// they feed the similarity features, so decisions replayed from the
/// log stay bit-identical to the uninterrupted run.
///
/// Salvage contract (mirrors the MLPB lenient reader): recovery keeps
/// the longest intact frame prefix and never crashes on a damaged log.
/// A torn tail (partial frame at EOF — the normal shape after a crash
/// with unsynced buffers) is truncated with its byte count reported; a
/// mid-log CRC defect triggers a byte-by-byte resync scan so every
/// journaled-but-unreplayable record is accounted for exactly in
/// `quarantined_records` (replay cannot continue past a sequence gap —
/// the feed contract needs dense ids — so post-defect frames are
/// quarantined, not applied).

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "dataspan/span_stats.h"
#include "metadata/metadata_store.h"
#include "simulator/provenance_sink.h"

namespace mlprov::stream {

inline constexpr char kWalMagic[4] = {'M', 'L', 'P', 'W'};
inline constexpr uint8_t kWalVersion = 1;

/// When appended frames are fsync'ed (the --wal_sync= flag). Bytes not
/// yet synced are exactly what a crash may lose; recovery re-feeds them
/// from the record source, so the policy trades durability latency for
/// throughput without ever affecting the recovered end state.
enum class WalSyncPolicy : uint8_t {
  kNone = 0,      // sync only at rotation and clean close
  kInterval = 1,  // every sync_interval_records records
  kEvery = 2,     // after every append
};

const char* ToString(WalSyncPolicy policy);
common::StatusOr<WalSyncPolicy> ParseWalSyncPolicy(std::string_view text);

struct WalOptions {
  std::string dir;
  WalSyncPolicy sync = WalSyncPolicy::kInterval;
  /// Records between fsyncs under kInterval.
  uint64_t sync_interval_records = 1024;
  /// Rotate to a new segment once the current one exceeds this.
  uint64_t segment_max_bytes = 4ull << 20;
  /// User-space append buffer is flushed to the file at this size (and
  /// at every sync point).
  size_t flush_threshold_bytes = 64u << 10;
};

/// One decoded WAL frame: an owned provenance record plus its global
/// sequence number. An artifact frame's span stats are decoded once,
/// into a fresh shared object the record holds, so a session that
/// ingests the record keeps them after the entry is gone.
struct WalEntry {
  uint64_t seq = 0;
  sim::ProvenanceRecord record;

  const sim::ProvenanceRecord& View() const { return record; }
};

/// Appends frames to the active segment of a WAL directory. Single
/// writer per directory (one durable session owns its log); not
/// thread-safe.
class WalWriter {
 public:
  /// Creates `options.dir` if needed and opens a fresh segment starting
  /// at `next_seq` (0 for a new log; recovery passes the replayed
  /// count). Never appends into an existing segment file — a recovered
  /// log continues in a new segment, which keeps truncated-and-repaired
  /// tails immutable.
  static common::StatusOr<WalWriter> Open(const WalOptions& options,
                                          uint64_t next_seq = 0);

  WalWriter(WalWriter&& other) noexcept;
  WalWriter& operator=(WalWriter&& other) noexcept;
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;
  ~WalWriter();

  /// Journals one record (frame seq = next_seq(), then increments).
  /// Applies the sync policy and rotates segments as configured.
  common::Status Append(const sim::ProvenanceRecord& record);

  /// Flushes the user-space buffer and fsyncs the active segment.
  common::Status Sync();

  /// Sync + close. Further appends fail. Idempotent.
  common::Status Close();

  uint64_t next_seq() const { return next_seq_; }
  /// Bytes guaranteed on disk vs merely appended (diagnostics + tests).
  uint64_t synced_bytes() const { return synced_size_; }
  uint64_t appended_bytes() const {
    return file_size_ + buffer_.size();
  }

  /// Crash simulation for the recovery fuzzer: drops the user-space
  /// buffer and truncates the active segment to the last synced offset
  /// plus `keep_unsynced_bytes` of the unsynced tail — keeping a
  /// partial amount tears a frame mid-byte, exactly like a real crash
  /// racing the page cache. The writer is closed afterwards.
  common::Status SimulateCrash(uint64_t keep_unsynced_bytes = 0);

 private:
  WalWriter() = default;

  common::Status RollSegment();
  common::Status FlushBuffer();

  WalOptions options_;
  int fd_ = -1;
  std::string segment_path_;
  uint64_t next_seq_ = 0;
  uint64_t records_since_sync_ = 0;
  /// Bytes written to the fd / bytes fsync'ed, for the active segment.
  uint64_t file_size_ = 0;
  uint64_t synced_size_ = 0;
  std::string buffer_;
};

/// Everything recovery learned from reading a WAL directory.
struct WalRecovered {
  /// The contiguous replayable frames with seq >= the requested start,
  /// in sequence order.
  std::vector<WalEntry> entries;
  /// Sequence of the first frame present in the log (regardless of the
  /// requested start), or UINT64_MAX when the log holds no frames.
  uint64_t first_seq = UINT64_MAX;
  /// One past the last replayable frame.
  uint64_t next_seq = 0;
  /// Journaled records that can never be replayed: frames lost to a
  /// mid-log defect plus the readable frames stranded behind the
  /// sequence gap. Exact — the resync scan recovers later frames'
  /// sequence numbers, so the count is (max seq seen + 1) - next_seq.
  uint64_t quarantined_records = 0;
  /// Bytes dropped mid-log (corrupt region + stranded frames).
  uint64_t quarantined_bytes = 0;
  /// Partial-frame bytes truncated at the tail (record count unknown —
  /// the bytes never formed a whole frame).
  uint64_t torn_tail_bytes = 0;
  size_t segments = 0;
  /// Repair actions taken (segment truncations, quarantined files).
  std::vector<std::string> repairs;
};

struct WalReadOptions {
  /// Drop decoded entries with seq below this (frames are still
  /// CRC-verified — continuity checking needs them).
  uint64_t from_seq = 0;
  /// Truncate damaged segments at the first defect, preserve the
  /// removed bytes as `<dir>/quarantine/<segment>.<offset>.bad`, and
  /// move wholly-stranded later segments into `<dir>/quarantine/`.
  /// When false the scan is read-only (accounting still exact).
  bool repair = false;
};

/// Reads (and optionally repairs) every segment of a WAL directory. A
/// missing or empty directory recovers zero entries — that is a fresh
/// log, not an error. Never fails on damaged frame bytes; only I/O
/// errors (unreadable files) surface as a non-OK status.
common::StatusOr<WalRecovered> ReadWal(const std::string& dir,
                                       const WalReadOptions& options = {});

/// Deletes segments every frame of which has seq < `upto_seq` (their
/// records are covered by a checkpoint). The active (last) segment is
/// never deleted. Returns the number of segments removed.
common::StatusOr<size_t> PruneWalSegments(const std::string& dir,
                                          uint64_t upto_seq);

/// Moves every WAL segment and checkpoint file of `dir` into
/// `<dir>/quarantine/` — the supervisor's last resort when recovery
/// keeps failing. Returns the number of files moved.
common::StatusOr<size_t> QuarantineWalDir(const std::string& dir);

/// Low-level frame codec, exposed for the checkpoint encoder (which
/// shares the primitive vocabulary) and for tests that craft hostile
/// frames byte by byte.
namespace walwire {

/// Bounded little-endian decode cursor. All Read* helpers return false
/// (without advancing past `end`) on truncation or malformed input.
struct Cursor {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;

  explicit Cursor(std::string_view data)
      : p(reinterpret_cast<const uint8_t*>(data.data())),
        end(reinterpret_cast<const uint8_t*>(data.data()) + data.size()) {}
  size_t remaining() const { return static_cast<size_t>(end - p); }
};

bool ReadVarint(Cursor& in, uint64_t* value);
bool ReadSvarint(Cursor& in, int64_t* value);
bool ReadDouble(Cursor& in, double* value);
bool ReadByte(Cursor& in, uint8_t* value);
bool ReadString(Cursor& in, std::string* value);

void AppendDouble(std::string& out, double value);
void AppendString(std::string& out, std::string_view value);
void AppendProperties(
    std::string& out,
    const std::map<std::string, metadata::PropertyValue>& properties);
bool ReadProperties(
    Cursor& in, std::map<std::string, metadata::PropertyValue>* properties);
void AppendSpanStats(std::string& out, const dataspan::SpanStats& stats);
bool ReadSpanStats(Cursor& in, dataspan::SpanStats* stats);

/// Appends one complete frame (tag + seq + length + payload + CRC).
void EncodeFrame(const sim::ProvenanceRecord& record, uint64_t seq,
                 std::string& out);

/// Decodes the frame at the cursor. Returns false without consuming
/// input if the bytes do not form a complete, CRC-valid, well-formed
/// frame (torn tail and corruption look the same here — the caller's
/// resync scan distinguishes them).
bool DecodeFrame(Cursor& in, WalEntry* entry);

}  // namespace walwire

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_WAL_H_
