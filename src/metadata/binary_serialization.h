#ifndef MLPROV_METADATA_BINARY_SERIALIZATION_H_
#define MLPROV_METADATA_BINARY_SERIALIZATION_H_

/// Compact binary columnar trace format ("MLPB v1") and the zero-copy
/// cursor over it. The format is a lossless sibling of the text format
/// in metadata/serialization.h: text -> binary -> text is byte-identical
/// for any store either can represent (ids implicit in insertion order,
/// doubles preserved bit-for-bit, properties in key order).
///
/// Wire layout (all multi-byte integers are LEB128 varints; "svarint" is
/// a zigzag-encoded signed varint; doubles are 8 raw little-endian bytes
/// of the IEEE bit pattern):
///
///   magic   "MLPB" + version byte 0x01
///   section*  tag (1 byte) + varint payload length + payload
///
/// Sections appear exactly once each, in this order (strict readers
/// require it; the lenient reader salvages what it can in any order):
///
///   'S' intern table    varint count, then count x (varint len + bytes).
///                       Holds every distinct property key, string
///                       property value, and context name, indexed by
///                       first use during serialization.
///   'A' artifacts       varint count, then columns: types (1 byte per
///                       row), create_times (svarint delta vs previous
///                       row).
///   'E' executions      varint count; columns: types, start_times
///                       (svarint delta), durations (svarint end-start),
///                       succeeded bitmap, compute_costs (8-byte
///                       doubles).
///   'V' events          varint count; columns: execution ids (svarint
///                       delta), artifact ids (svarint delta), kind
///                       bitmap (1 = output), times (svarint delta).
///   'p' artifact props  varint count; one row column: varint owner-id
///                       delta (non-negative; rows sorted by id then
///                       key), varint key intern index, value tag byte
///                       'i'/'d'/'s' + payload (svarint / double /
///                       varint intern index).
///   'q' execution props same, keyed by execution id.
///   'C' contexts        varint count; one row column: varint name
///                       intern index, varint n_execs + svarint delta
///                       ids, varint n_artifacts + svarint delta ids.
///
/// Every column is itself framed as varint byte-length + bytes, so a
/// reader can locate column boundaries in O(1) and the lenient reader
/// can skip a damaged section wholesale using the section length.

#include <bit>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "metadata/metadata_store.h"
#include "metadata/serialization.h"
#include "metadata/types.h"

namespace mlprov::metadata {

/// Format discriminator byte string: the first 4 bytes of every binary
/// store file; followed by a 1-byte format version (currently 1).
inline constexpr char kBinaryStoreMagic[4] = {'M', 'L', 'P', 'B'};
inline constexpr uint8_t kBinaryStoreVersion = 1;

/// True iff `data` starts with the binary magic (the text format starts
/// with "MLPROVSTORE", so the two are never ambiguous).
bool IsBinaryStore(std::string_view data);

/// Serializes the store to the MLPB v1 format described above.
std::string SerializeStoreBinary(const MetadataStore& store);

/// Strict parse of a binary store. Fails with InvalidArgument on any
/// defect (bad magic/version, out-of-order or truncated sections, varint
/// overflow, out-of-range enum bytes or intern indices, dangling event
/// endpoints); never throws or invokes UB, no matter how corrupt the
/// input.
common::StatusOr<MetadataStore> DeserializeStoreBinary(
    std::string_view data);

/// Best-effort parse of a possibly-corrupt binary store, mirroring
/// DeserializeStoreLenient: damaged sections and rows are skipped
/// (malformed_lines counts one per salvage skip), out-of-vocabulary
/// enum bytes become kCustom (invalid_enums), events with unknown
/// endpoints are recorded via PutEventUnchecked (dangling_events), and
/// property rows for unknown nodes are dropped (orphan_properties).
/// Only an unrecognizable magic/version is a hard error.
common::StatusOr<MetadataStore> DeserializeStoreBinaryLenient(
    std::string_view data, LenientStats* stats = nullptr);

/// Streaming variants used by SaveStore/LoadStore: sections are written
/// (and read back) one at a time through a reusable buffer, so peak
/// memory is the store plus the largest single section — never the whole
/// serialized corpus. LoadStoreBinary is strict and expects the stream
/// to be positioned at the magic bytes; seekable streams bound hostile
/// section lengths against the file size up front, non-seekable ones
/// (pipes) fall back to chunked reads with the same truncation checks.
common::Status SaveStoreBinary(const MetadataStore& store,
                               std::ostream& out);
common::StatusOr<MetadataStore> LoadStoreBinary(std::istream& in);

/// The wire vocabulary MLPB shares with the WAL and checkpoint formats
/// (src/stream/wal.h, src/stream/checkpoint.h), exposed so tests (the
/// corruption fuzzers) can craft hostile payloads byte by byte.
namespace binwire {

void AppendVarint(std::string& out, uint64_t value);
void AppendSvarint(std::string& out, int64_t value);
/// 8 raw little-endian bytes of the IEEE bit pattern.
void AppendDouble(std::string& out, double value);
/// Varint byte length + bytes: a framed column or a string.
void AppendString(std::string& out, std::string_view value);

inline uint64_t ZigZagEncode(int64_t value) {
  return (static_cast<uint64_t>(value) << 1) ^
         static_cast<uint64_t>(value >> 63);
}

inline int64_t ZigZagDecode(uint64_t value) {
  return static_cast<int64_t>((value >> 1) ^ (~(value & 1) + 1));
}

/// Bounds-checked little-endian reader over a byte range. Every read
/// reports failure instead of walking past `end`, and varints reject
/// encodings wider than 64 bits — the two properties the corruption
/// fuzzers lean on.
struct Reader {
  const uint8_t* p = nullptr;
  const uint8_t* end = nullptr;

  Reader() = default;
  explicit Reader(std::string_view data)
      : p(reinterpret_cast<const uint8_t*>(data.data())),
        end(p + data.size()) {}

  size_t remaining() const { return static_cast<size_t>(end - p); }
  bool empty() const { return p >= end; }

  bool Byte(uint8_t* out) {
    if (p >= end) return false;
    *out = *p++;
    return true;
  }

  /// LEB128, at most 10 bytes. Continuation bytes that add zero bits
  /// are accepted (the WAL pads its length varints with 0x80). Does not
  /// advance on failure.
  bool U64(uint64_t* out) {
    uint64_t value = 0;
    const uint8_t* q = p;
    for (int shift = 0; shift < 64; shift += 7) {
      if (q >= end) return false;
      const uint8_t b = *q++;
      // The 10th byte may only carry the 64th bit; anything else is an
      // overflowing (or non-canonical oversized) varint.
      if (shift == 63 && (b & ~uint8_t{1}) != 0) return false;
      value |= static_cast<uint64_t>(b & 0x7F) << shift;
      if ((b & 0x80) == 0) {
        p = q;
        *out = value;
        return true;
      }
    }
    return false;
  }

  bool S64(int64_t* out) {
    uint64_t raw = 0;
    if (!U64(&raw)) return false;
    *out = ZigZagDecode(raw);
    return true;
  }

  bool View(size_t n, std::string_view* out) {
    if (remaining() < n) return false;
    *out = std::string_view(reinterpret_cast<const char*>(p), n);
    p += n;
    return true;
  }

  bool Double(double* out) {
    if (remaining() < 8) return false;
    uint64_t bits = 0;
    for (int i = 0; i < 8; ++i) {
      bits |= static_cast<uint64_t>(p[i]) << (8 * i);
    }
    p += 8;
    *out = std::bit_cast<double>(bits);
    return true;
  }

  /// Reads what AppendString wrote: varint byte length + that many bytes.
  bool Column(std::string_view* out) {
    uint64_t len = 0;
    if (!U64(&len) || len > remaining()) return false;
    return View(static_cast<size_t>(len), out);
  }
};

}  // namespace binwire

/// One element of the zero-copy record feed decoded by
/// BinaryStoreCursor: a flattened, borrowed view of a provenance record.
/// All string_views (context name, property keys/values) point into the
/// corpus buffer the cursor was opened over; `properties` points into
/// cursor-owned scratch that is overwritten by the next Next() call.
struct RecordRef {
  enum class Kind { kContext, kExecution, kArtifact, kEvent };
  Kind kind = Kind::kEvent;
  /// Node id for kContext/kExecution/kArtifact (dense, 1-based, in feed
  /// order — a replaying MetadataStore reassigns identical ids).
  int64_t id = 0;
  // kContext payload.
  std::string_view context_name;
  // kArtifact payload.
  ArtifactType artifact_type = ArtifactType::kCustom;
  Timestamp create_time = 0;
  // kExecution payload.
  ExecutionType execution_type = ExecutionType::kCustom;
  Timestamp start_time = 0;
  Timestamp end_time = 0;
  bool succeeded = true;
  double compute_cost = 0.0;
  // kEvent payload.
  Event event;
  // Node properties (kArtifact/kExecution), sorted by key.
  std::span<const PropertyRef> properties;
};

/// Zero-copy iteration over a binary corpus buffer in provenance feed
/// order (the contract in simulator/provenance_sink.h): contexts first,
/// then executions/artifacts in id order interleaved so that every event
/// follows both of its endpoints, events in put order, trailing nodes
/// last. Nothing is materialized: nodes stream straight out of the
/// buffer as RecordRef views, so `data` must outlive the cursor.
///
/// The cursor is strict: the first defect latches into status() and
/// Next() returns false from then on.
class BinaryStoreCursor {
 public:
  /// Validates the header, section framing, and column shapes, and
  /// decodes the intern table and context names (views into `data`).
  static common::StatusOr<BinaryStoreCursor> Open(std::string_view data);

  /// Advances to the next record. Returns false at end of feed or on
  /// corruption (check status()). The returned views are valid until the
  /// next call.
  bool Next(RecordRef* record);

  const common::Status& status() const { return status_; }

  // Totals declared by the section headers (available right after Open).
  size_t num_contexts() const { return n_contexts_; }
  size_t num_executions() const { return n_executions_; }
  size_t num_artifacts() const { return n_artifacts_; }
  size_t num_events() const { return n_events_; }
  size_t num_records() const {
    return n_contexts_ + n_executions_ + n_artifacts_ + n_events_;
  }

 private:
  BinaryStoreCursor() = default;

  /// Decoded-ahead property row (ids are needed before emission to know
  /// which node the row belongs to).
  struct PendingProp {
    bool valid = false;
    int64_t id = 0;
    PropertyRef ref;
  };

  bool Fail(const std::string& what);  // latches status_, returns false
  bool EmitContext(RecordRef* record);
  bool EmitExecution(RecordRef* record);
  bool EmitArtifact(RecordRef* record);
  bool EmitEvent(RecordRef* record);
  bool DecodeEventAhead();  // fills pending_event_
  bool DecodePropAhead(binwire::Reader& rows, PendingProp& pending);
  /// Collects pending + following property rows for node `id` into
  /// scratch_props_.
  bool GatherProps(binwire::Reader& rows, PendingProp& pending,
                   int64_t id);

  common::Status status_;
  std::vector<std::string_view> interns_;
  std::vector<std::string_view> context_names_;

  size_t n_contexts_ = 0, n_executions_ = 0, n_artifacts_ = 0,
         n_events_ = 0;
  size_t n_aprops_ = 0, n_eprops_ = 0;

  // Column cursors (views into the corpus buffer).
  binwire::Reader a_types_, a_times_;
  binwire::Reader e_types_, e_starts_, e_durs_, e_costs_;
  const uint8_t* e_succ_ = nullptr;  // bitmap, random access by row
  binwire::Reader v_execs_, v_arts_, v_times_;
  const uint8_t* v_kinds_ = nullptr;
  binwire::Reader aprop_rows_, eprop_rows_;

  // Feed state: next ids to emit and running delta accumulators.
  size_t next_context_ = 0;
  int64_t next_execution_ = 1, next_artifact_ = 1;
  size_t next_event_ = 0;
  int64_t a_prev_time_ = 0;
  int64_t e_prev_start_ = 0;
  size_t e_row_ = 0, a_row_ = 0;
  int64_t v_prev_exec_ = 0, v_prev_art_ = 0, v_prev_time_ = 0;
  bool has_pending_event_ = false;
  Event pending_event_;
  PendingProp pending_aprop_, pending_eprop_;
  size_t aprops_seen_ = 0, eprops_seen_ = 0;
  std::vector<PropertyRef> scratch_props_;
};


}  // namespace mlprov::metadata

#endif  // MLPROV_METADATA_BINARY_SERIALIZATION_H_
