#ifndef MLPROV_STREAM_CHECKPOINT_H_
#define MLPROV_STREAM_CHECKPOINT_H_

/// Periodic checkpoints of a durable ProvenanceSession. A checkpoint
/// holds the session's feed, not what the session derived from it: the
/// replicated store (as an MLPB v1 blob), span statistics, the order the
/// records arrived in, the latched trace id and the scorer flag.
/// Recovery is replay: RestoreState feeds the newest valid checkpoint's
/// records back through Ingest in arrival order, then the WAL tail is
/// replayed from `records` onward. The restored session is
/// byte-identical to the uninterrupted one (sealed graphlets,
/// ScoreDecisions, health metrics), which the recovery fuzzer asserts at
/// hundreds of crash offsets. A restore costs about what replaying the
/// same prefix from the WAL costs: checkpoints let the WAL be pruned.
///
/// File format, one checkpoint per file `ckpt_<records, 20-digit>.ckpt`:
///
///   "MLPC" + version byte 0x02 + varint records + payload
///   + CRC-32C (4 bytes LE) over all preceding bytes
///
/// A version-1 file (a snapshot of derived state) fails the header check.
/// Files are written to a temp name and atomically renamed, so a crash
/// mid-write never damages an existing checkpoint. Loading walks
/// checkpoints newest-first and falls back to the next-older file on any
/// CRC or decode defect — which is why the WAL is only pruned up to the
/// *oldest kept* checkpoint, never the newest (a fallback must still
/// find its replay tail).

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream/session.h"

namespace mlprov::stream {

inline constexpr char kCheckpointMagic[4] = {'M', 'L', 'P', 'C'};
inline constexpr uint8_t kCheckpointVersion = 2;

/// One checkpoint file, identified by how many feed records its state
/// covers (= the WAL sequence replay resumes from).
struct CheckpointInfo {
  uint64_t records = 0;
  std::string path;
};

/// Snapshots `session` (which has ingested `records` records) into
/// `<dir>/ckpt_<records>.ckpt` via temp-file + atomic rename + fsync.
common::Status WriteCheckpoint(const std::string& dir, uint64_t records,
                               const ProvenanceSession& session);

/// Checkpoint files of `dir`, oldest first. Missing dir = empty list.
common::StatusOr<std::vector<CheckpointInfo>> ListCheckpoints(
    const std::string& dir);

struct RecoveredCheckpoint {
  /// False when the directory holds no usable checkpoint (fresh start).
  bool found = false;
  uint64_t records = 0;
  /// Path of the loaded file, so a caller whose *decode* fails (CRC was
  /// fine but the payload doesn't restore) can remove it and retry.
  std::string path;
  /// The EncodeState payload to hand to ProvenanceSession::RestoreState.
  std::string payload;
  /// Checkpoint files rejected on the way (CRC mismatch, bad header),
  /// newest first — each one fell back to the next-older file.
  std::vector<std::string> rejected;
};

/// Loads the newest checkpoint whose CRC and header verify, falling
/// back through older files on damage. Only I/O errors are non-OK;
/// damaged checkpoint *content* is reported via `rejected`.
common::StatusOr<RecoveredCheckpoint> LoadNewestCheckpoint(
    const std::string& dir);

/// Deletes all but the newest `keep` checkpoints, and the temp files of
/// checkpoints a crash left unrenamed. Returns the `records`
/// value of the oldest checkpoint kept (0 when none remain) — the safe
/// upper bound for PruneWalSegments, so a fallback load always finds
/// its WAL tail.
common::StatusOr<uint64_t> PruneCheckpoints(const std::string& dir,
                                            size_t keep);

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_CHECKPOINT_H_
