#ifndef MLPROV_STREAM_SUPERVISOR_H_
#define MLPROV_STREAM_SUPERVISOR_H_

/// Crash-consistent ingestion: the durable session (WAL + checkpoints
/// around a ProvenanceSession) and the supervisor that keeps one alive
/// across crashes and poisonings.
///
/// DurableSession::Open *is* recovery: it restores the newest valid
/// checkpoint (falling back through damaged ones), replays the WAL tail
/// from the checkpoint's record count, and resumes journaling in a new
/// segment. An uninterrupted run and a crash-recovered run end in
/// byte-identical analysis state (sealed graphlets, ScoreDecisions,
/// session-local health) — the recovery fuzzer asserts this at hundreds
/// of deterministic crash offsets.
///
/// SessionSupervisor::Run drives a DurableSession over a re-positionable
/// RecordSource, restarting with deterministic exponential backoff
/// (Rng::Derive jitter — byte-identical at any thread count, see
/// DESIGN.md "Durability & recovery") after an injected crash
/// ("session.crash" failpoint) or a feed-contract poisoning. Records a
/// crash lost (journaled but unsynced, or never journaled) are re-fed
/// from the source, so the sync policy never changes the end state.
/// After `max_restarts` failed recoveries the WAL directory is
/// quarantined with full accounting and the run is abandoned.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/failpoints.h"
#include "common/status.h"
#include "simulator/corpus.h"
#include "simulator/provenance_sink.h"
#include "stream/session.h"
#include "stream/wal.h"

namespace mlprov::stream {

/// A re-positionable provenance feed: the supervisor restarts ingestion
/// from an arbitrary record index after recovery. Index `i` must return
/// the same record every time (deterministic replay is the recovery
/// contract).
class RecordSource {
 public:
  virtual ~RecordSource() = default;
  virtual uint64_t size() const = 0;
  /// Borrowed view of record `index`, or nullptr past the end. Valid
  /// until the next Get call.
  virtual const sim::ProvenanceRecord* Get(uint64_t index) = 0;
};

/// Owns a trace's full record sequence (records, span stats, span
/// contexts deep-copied out of a ProvenanceFeeder pass) for repeatable
/// random access.
class TraceRecordSource : public RecordSource {
 public:
  explicit TraceRecordSource(const sim::PipelineTrace& trace);

  uint64_t size() const override { return entries_.size(); }
  const sim::ProvenanceRecord* Get(uint64_t index) override;

 private:
  std::vector<WalEntry> entries_;  // owned records + span-stats copies
};

struct DurableOptions {
  /// WAL directory + sync policy; `wal.dir` doubles as the checkpoint
  /// directory. Required.
  WalOptions wal;
  /// Checkpoint every N ingested records (0 = WAL only, replay from the
  /// beginning on recovery).
  uint64_t checkpoint_interval = 0;
  /// Checkpoints retained after each new one; the WAL is pruned only up
  /// to the *oldest kept* checkpoint so fallback loads stay replayable.
  size_t checkpoints_to_keep = 2;
  SessionOptions session;
};

/// What DurableSession::Open learned while recovering.
struct RecoveryInfo {
  /// Any prior durable state was found (checkpoint or WAL frames).
  bool recovered = false;
  /// A checkpoint was loaded; replay started at `checkpoint_records`.
  bool used_checkpoint = false;
  uint64_t checkpoint_records = 0;
  uint64_t replayed_records = 0;
  /// Exact count of journaled records lost to mid-log WAL damage (see
  /// WalRecovered); re-fed from the RecordSource when one is driving.
  uint64_t quarantined_records = 0;
  uint64_t quarantined_bytes = 0;
  uint64_t torn_tail_bytes = 0;
  std::vector<std::string> wal_repairs;
  std::vector<std::string> rejected_checkpoints;
};

/// A ProvenanceSession made crash-consistent: every Ingest journals to
/// the WAL before mutating session state, and a checkpoint of the feed
/// every `checkpoint_interval` records lets the WAL be pruned. Move-only.
class DurableSession {
 public:
  /// Opens (and recovers, when prior state exists) a durable session.
  /// Fails on unreadable state, a WAL replay hole (pruning bug), or a
  /// poisoned WAL (a journaled record that violates the feed contract —
  /// replay re-poisons deterministically; the supervisor quarantines
  /// after bounded retries).
  static common::StatusOr<DurableSession> Open(
      const DurableOptions& options);

  /// WAL-append, then session-ingest, then maybe checkpoint + prune.
  common::Status Ingest(const sim::ProvenanceRecord& record);

  /// Finishes the session and closes the WAL cleanly.
  common::StatusOr<SessionResult> Finish();

  /// Forces a checkpoint of the current state (fsyncs the WAL first so
  /// an older-checkpoint fallback never finds its tail missing).
  common::Status Checkpoint();

  ProvenanceSession& session() { return *session_; }
  const ProvenanceSession& session() const { return *session_; }
  const RecoveryInfo& recovery() const { return recovery_; }
  /// Records durably applied: the index the next Ingest journals at.
  uint64_t records() const { return records_; }
  /// WAL bytes a crash right now would lose.
  uint64_t unsynced_wal_bytes() const {
    return wal_->appended_bytes() - wal_->synced_bytes();
  }

  /// Tears the WAL exactly like a crash (see WalWriter::SimulateCrash)
  /// and drops the in-memory session. The object is dead afterwards;
  /// re-Open to recover.
  common::Status SimulateCrash(uint64_t keep_unsynced_bytes = 0);

 private:
  DurableSession() = default;

  DurableOptions options_;
  std::unique_ptr<ProvenanceSession> session_;  // stable address: the
  // segmenter/featurizer observe the session's store by pointer, so the
  // session itself must never move.
  std::optional<WalWriter> wal_;
  uint64_t records_ = 0;
  RecoveryInfo recovery_;
};

struct SupervisorOptions {
  DurableOptions durable;
  /// Restart budget: Run() gives up (and quarantines the WAL dir) after
  /// the initial attempt plus this many restarts.
  int max_restarts = 5;
  double backoff_initial_seconds = 0.05;
  double backoff_multiplier = 2.0;
  /// Deterministic jitter width: each delay is scaled by a factor in
  /// [1 - j/2, 1 + j/2) drawn from Rng::Derive(seed, "supervisor.backoff",
  /// attempt) — reproducible, and desynchronized across supervisors with
  /// different seeds (no retry storms).
  double backoff_jitter = 0.5;
  /// Keys backoff jitter, crash-tail selection, and the fault injector.
  uint64_t seed = 0;
  /// Armed failpoints; "session.crash" fires an injected crash between
  /// records (mode/probability/max_fires per the FaultPlan grammar).
  /// Borrowed; may be null.
  const common::FaultPlan* faults = nullptr;
  /// Where crash post-mortems (flight-recorder rings) are persisted.
  /// Empty = "<wal.dir>/postmortem".
  std::string postmortem_dir;
  /// Called with each backoff delay in seconds. Defaults to not
  /// sleeping (simulated time; tests assert the schedule instead).
  std::function<void(double)> sleep_fn;
};

struct SupervisorReport {
  /// OK iff the feed completed and Finish() succeeded.
  common::Status status;
  bool completed = false;
  int attempts = 0;  // session opens, including the first
  int crashes = 0;   // injected "session.crash" fires
  int poisonings = 0;
  /// Sum over attempts of records replayed from checkpoint+WAL.
  uint64_t replayed_records = 0;
  /// From the last recovery (exact; see WalRecovered).
  uint64_t quarantined_records = 0;
  /// The WAL dir was quarantined after exhausting max_restarts.
  bool wal_quarantined = false;
  size_t quarantined_files = 0;
  double backoff_seconds = 0.0;
  std::vector<double> backoff_schedule;
  /// Engaged iff completed.
  std::optional<SessionResult> result;
};

class SessionSupervisor {
 public:
  explicit SessionSupervisor(const SupervisorOptions& options)
      : options_(options) {}

  /// Drives the whole source through a durable session, recovering and
  /// restarting on crash/poisoning as documented above.
  SupervisorReport Run(RecordSource& source);

  /// The jittered exponential delay before restart #`restart` (0-based).
  /// Deterministic in (options.seed, restart).
  double BackoffSeconds(int restart) const;

 private:
  void Postmortem(DurableSession& session, const std::string& why) const;

  SupervisorOptions options_;
};

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_SUPERVISOR_H_
