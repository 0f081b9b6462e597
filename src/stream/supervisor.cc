#include "stream/supervisor.h"

#include <cmath>
#include <filesystem>
#include <utility>

#include "common/rng.h"
#include "obs/metrics.h"
#include "stream/checkpoint.h"

namespace mlprov::stream {

namespace fs = std::filesystem;
using common::Status;
using common::StatusOr;

// --- TraceRecordSource ---

namespace {

/// Sink that keeps a copy of every feed record for repeatable random
/// access. The records share their span stats with the trace, so the
/// source holds the stats alive after the trace is gone.
class CollectingSink : public sim::ProvenanceSink {
 public:
  explicit CollectingSink(std::vector<sim::ProvenanceRecord>* out)
      : out_(out) {}

  void OnRecord(const sim::ProvenanceRecord& record) override {
    out_->push_back(record);
  }

 private:
  std::vector<sim::ProvenanceRecord>* out_;
};

}  // namespace

TraceRecordSource::TraceRecordSource(const sim::PipelineTrace& trace) {
  CollectingSink sink(&records_);
  sim::ProvenanceFeeder feeder(&sink);
  feeder.Finish(trace);
}

const sim::ProvenanceRecord* TraceRecordSource::Get(uint64_t index) {
  if (index >= records_.size()) return nullptr;
  return &records_[static_cast<size_t>(index)];
}

// --- DurableSession ---

StatusOr<DurableSession> DurableSession::Open(const DurableOptions& options) {
  if (options.wal.dir.empty()) {
    return Status::InvalidArgument("DurableOptions.wal.dir is required");
  }
  DurableSession ds;
  ds.options_ = options;
  ds.session_ = std::make_unique<ProvenanceSession>(options.session);

  // Newest valid checkpoint; a file that passes CRC but fails decode
  // (e.g. written by a mismatched build) is removed and the next-older
  // one tried — RestoreState partially mutates on failure, so the
  // session is rebuilt fresh each round.
  std::vector<std::string> decode_rejected;
  for (;;) {
    StatusOr<RecoveredCheckpoint> ckpt =
        LoadNewestCheckpoint(options.wal.dir);
    MLPROV_RETURN_IF_ERROR(ckpt.status());
    ds.recovery_.rejected_checkpoints = ckpt->rejected;
    if (!ckpt->found) break;
    Status restored = ds.session_->RestoreState(ckpt->payload);
    if (restored.ok()) {
      ds.recovery_.used_checkpoint = true;
      ds.recovery_.checkpoint_records = ckpt->records;
      break;
    }
    decode_rejected.push_back(ckpt->path + " (" + restored.message() + ")");
    std::error_code ec;
    fs::remove(ckpt->path, ec);
    if (ec) {
      return Status::Internal("cannot drop undecodable checkpoint " +
                              ckpt->path + ": " + ec.message());
    }
    ds.session_ = std::make_unique<ProvenanceSession>(options.session);
  }
  ds.recovery_.rejected_checkpoints.insert(
      ds.recovery_.rejected_checkpoints.end(), decode_rejected.begin(),
      decode_rejected.end());

  WalReadOptions read;
  read.from_seq = ds.recovery_.checkpoint_records;
  read.repair = true;
  StatusOr<WalRecovered> wal = ReadWal(options.wal.dir, read);
  MLPROV_RETURN_IF_ERROR(wal.status());
  ds.recovery_.quarantined_records = wal->quarantined_records;
  ds.recovery_.quarantined_bytes = wal->quarantined_bytes;
  ds.recovery_.torn_tail_bytes = wal->torn_tail_bytes;
  ds.recovery_.wal_repairs = wal->repairs;
  ds.recovery_.recovered = ds.recovery_.used_checkpoint ||
                           wal->segments > 0 || !wal->entries.empty();

  if (!wal->entries.empty() &&
      wal->entries.front().seq != ds.recovery_.checkpoint_records) {
    return Status::Internal(
        "WAL replay hole: checkpoint covers " +
        std::to_string(ds.recovery_.checkpoint_records) +
        " records but the replayable tail starts at seq " +
        std::to_string(wal->entries.front().seq));
  }
  for (const WalEntry& entry : wal->entries) {
    Status ingested = ds.session_->Ingest(entry.View());
    if (!ingested.ok()) {
      return Status(ingested.code(),
                    "WAL replay (seq " + std::to_string(entry.seq) +
                        "): " + ingested.message());
    }
  }
  ds.recovery_.replayed_records = wal->entries.size();
  ds.records_ = ds.recovery_.checkpoint_records + wal->entries.size();

  StatusOr<WalWriter> writer = WalWriter::Open(options.wal, ds.records_);
  MLPROV_RETURN_IF_ERROR(writer.status());
  ds.wal_.emplace(std::move(*writer));

  if (ds.recovery_.recovered) {
    ds.session_->MarkRecovered();
    MLPROV_COUNTER_INC("recovery.recoveries");
    MLPROV_COUNTER_ADD("recovery.replayed_records",
                       ds.recovery_.replayed_records);
    MLPROV_COUNTER_ADD("recovery.quarantined_records",
                       ds.recovery_.quarantined_records);
    MLPROV_COUNTER_ADD("recovery.quarantined_bytes",
                       ds.recovery_.quarantined_bytes);
    MLPROV_COUNTER_ADD("recovery.torn_tail_bytes",
                       ds.recovery_.torn_tail_bytes);
  }
  return ds;
}

Status DurableSession::Ingest(const sim::ProvenanceRecord& record) {
  MLPROV_RETURN_IF_ERROR(wal_->Append(record));
  MLPROV_RETURN_IF_ERROR(session_->Ingest(record));
  ++records_;
  if (options_.checkpoint_interval > 0 &&
      records_ % options_.checkpoint_interval == 0) {
    MLPROV_RETURN_IF_ERROR(Checkpoint());
  }
  return Status::Ok();
}

Status DurableSession::Checkpoint() {
  // Durable order: WAL first. A fallback to an older checkpoint replays
  // WAL from that checkpoint's position; syncing before publishing the
  // new checkpoint guarantees that tail is on disk.
  MLPROV_RETURN_IF_ERROR(wal_->Sync());
  MLPROV_RETURN_IF_ERROR(
      WriteCheckpoint(options_.wal.dir, records_, *session_));
  MLPROV_COUNTER_INC("recovery.checkpoints");
  StatusOr<uint64_t> oldest_kept = PruneCheckpoints(
      options_.wal.dir, std::max<size_t>(1, options_.checkpoints_to_keep));
  MLPROV_RETURN_IF_ERROR(oldest_kept.status());
  if (*oldest_kept > 0) {
    StatusOr<size_t> pruned =
        PruneWalSegments(options_.wal.dir, *oldest_kept);
    MLPROV_RETURN_IF_ERROR(pruned.status());
  }
  return Status::Ok();
}

StatusOr<SessionResult> DurableSession::Finish() {
  StatusOr<SessionResult> result = session_->Finish();
  Status closed = wal_->Close();
  if (result.ok() && !closed.ok()) return closed;
  return result;
}

Status DurableSession::SimulateCrash(uint64_t keep_unsynced_bytes) {
  Status torn = wal_->SimulateCrash(keep_unsynced_bytes);
  session_.reset();
  return torn;
}

// --- SessionSupervisor ---

double SessionSupervisor::BackoffSeconds(int restart) const {
  const double base =
      options_.backoff_initial_seconds *
      std::pow(options_.backoff_multiplier, static_cast<double>(restart));
  return base * common::BackoffJitterFactor(
                    options_.seed,
                    common::FailpointNameHash("supervisor.backoff"),
                    static_cast<uint64_t>(restart),
                    options_.backoff_jitter);
}

void SessionSupervisor::Postmortem(DurableSession& session,
                                   const std::string& why) const {
  const std::string dir = options_.postmortem_dir.empty()
                              ? options_.durable.wal.dir + "/postmortem"
                              : options_.postmortem_dir;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) return;  // post-mortems are best effort
  obs::Json detail = obs::Json::Object();
  detail.Set("records", session.records());
  detail.Set("why", why);
  session.session().flight_recorder().Note("supervisor", std::move(detail));
  (void)session.session().flight_recorder().Dump(dir);
}

SupervisorReport SessionSupervisor::Run(RecordSource& source) {
  SupervisorReport report;
  common::FaultInjector injector(options_.faults, options_.seed);
  const common::FailpointSpec* crash_spec =
      options_.faults != nullptr ? options_.faults->Find("session.crash")
                                 : nullptr;
  // One injector across every attempt: a transient plan with max_fires
  // caps the *total* crash count, so bounded plans always complete.
  const int max_attempts = std::max(0, options_.max_restarts) + 1;
  uint64_t crash_tails = 0;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (attempt > 0) {
      const double delay = BackoffSeconds(attempt - 1);
      report.backoff_schedule.push_back(delay);
      report.backoff_seconds += delay;
      MLPROV_COUNTER_INC("recovery.restarts");
      if (options_.sleep_fn) options_.sleep_fn(delay);
    }
    ++report.attempts;
    StatusOr<DurableSession> opened = DurableSession::Open(options_.durable);
    if (!opened.ok()) {
      report.status = opened.status();
      MLPROV_COUNTER_INC("recovery.failed_opens");
      continue;
    }
    DurableSession session = std::move(*opened);
    report.replayed_records += session.recovery().replayed_records;
    report.quarantined_records = session.recovery().quarantined_records;

    bool died = false;
    const sim::ProvenanceRecord* record = nullptr;
    while ((record = source.Get(session.records())) != nullptr) {
      if (MLPROV_FAILPOINT(injector, crash_spec)) {
        ++report.crashes;
        MLPROV_COUNTER_INC("recovery.crashes");
        report.status =
            Status::Internal("session crashed (injected at record " +
                             std::to_string(session.records()) + ")");
        Postmortem(session, "crash");
        // Tear a deterministic amount of the unsynced tail — possibly
        // mid-frame, exactly like a crash racing the page cache.
        const uint64_t unsynced = session.unsynced_wal_bytes();
        const uint64_t keep =
            unsynced == 0
                ? 0
                : common::Rng::Derive(
                      options_.seed,
                      common::FailpointNameHash("supervisor.crash_tail"),
                      crash_tails)
                      .NextUint64(unsynced + 1);
        ++crash_tails;
        (void)session.SimulateCrash(keep);
        died = true;
        break;
      }
      Status ingested = session.Ingest(*record);
      if (!ingested.ok()) {
        ++report.poisonings;
        MLPROV_COUNTER_INC("recovery.poisonings");
        report.status = ingested;
        Postmortem(session, "poisoned");
        died = true;
        break;
      }
    }
    if (died) continue;

    StatusOr<SessionResult> result = session.Finish();
    if (!result.ok()) {
      report.status = result.status();
      Postmortem(session, "finish_failed");
      continue;
    }
    report.result.emplace(std::move(*result));
    report.completed = true;
    report.status = Status::Ok();
    return report;
  }

  // Restart budget exhausted: quarantine the durable state so the next
  // operator action starts clean, keeping the evidence.
  StatusOr<size_t> moved = QuarantineWalDir(options_.durable.wal.dir);
  report.wal_quarantined = true;
  if (moved.ok()) report.quarantined_files = *moved;
  MLPROV_COUNTER_INC("recovery.quarantined_dirs");
  if (report.status.ok()) {
    report.status =
        Status::Internal("supervisor exhausted its restart budget");
  }
  return report;
}

}  // namespace mlprov::stream
