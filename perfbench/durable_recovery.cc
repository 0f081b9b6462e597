// durable_recovery: the shallow feeds, scorer off, through DurableSession
// with WAL sync=interval every 256 records and a checkpoint every 384 —
// a checkpoint interval larger than the sync interval, so a crash leaves
// a synced WAL tail past the newest checkpoint and recovery really
// replays it (a 1000-record session crashing at record 750 reloads the
// checkpoint at 384, replays 256 WAL records and re-feeds 110). Every
// session crashes once (SimulateCrash) three quarters into its feed; then
// the fleet restarts: Open, re-feed what the crash lost, finish. WAL
// appends, checkpoint writes and recovery do most of the work here and
// nowhere else.

#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/segmentation.h"
#ifdef PERFBENCH_TRACED
#include "ledger.h"
#include "stream/checkpoint.h"
#endif
#include "stream/fingerprint.h"
#include "stream/session.h"
#include "stream/supervisor.h"

namespace perfbench {

namespace sim = mlprov::sim;
namespace core = mlprov::core;
namespace stream = mlprov::stream;
using mlprov::common::Status;

namespace {

constexpr size_t kCheckpointsToKeep = 2;  // DurableOptions' default

struct Inputs {
  sim::Corpus corpus;
  std::vector<Feed> feeds;
  /// Per feed: the record index at which the session crashes.
  std::vector<uint64_t> crash_at;
  /// WAL sync and checkpoint intervals: 256 and 384 records for the
  /// 1000-record sessions, scaled down with the self-test's short ones.
  uint64_t sync_interval = 0;
  uint64_t checkpoint_interval = 0;
  uint64_t records = 0;
  double setup_s = 0.0;
  double generate_s = 0.0;
};

std::unique_ptr<Inputs> Setup(const Options& options) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Inputs>();
  in->corpus = ShallowCorpus(options, options.seed, kShallowSessions,
                             &in->generate_s);
  in->sync_interval = options.tiny ? 38 : 256;
  in->checkpoint_interval = options.tiny ? 57 : 384;
  in->feeds = CollectFeeds(in->corpus);
  for (const Feed& feed : in->feeds) {
    in->crash_at.push_back(feed.records.size() * 3 / 4);
    in->records += feed.records.size();
  }
  in->setup_s = SecondsSince(t0);
  return in;
}

/// Each pass journals into a fresh directory and removes it afterwards,
/// so a run's disk use stays at one pass's WAL and checkpoints.
std::string PassDir(const Options& options, size_t pass) {
  return options.work_dir + "/durable/pass" + std::to_string(pass);
}

std::string SessionDir(const std::string& pass_dir, size_t i) {
  return pass_dir + "/p" + std::to_string(i);
}

stream::DurableOptions DurableOptionsFor(const Inputs& in,
                                         const std::string& dir) {
  stream::DurableOptions durable;
  durable.wal.dir = dir;
  durable.wal.sync = stream::WalSyncPolicy::kInterval;
  durable.wal.sync_interval_records = in.sync_interval;
  durable.checkpoint_interval = in.checkpoint_interval;
  durable.checkpoints_to_keep = kCheckpointsToKeep;
  return durable;
}

/// Deterministic per-pass tallies (identical on every pass and between
/// the traced and untraced runs).
struct Tally {
  std::vector<uint64_t> graphlets;  // per feed
  uint64_t replayed = 0;
  uint64_t refed = 0;
  uint64_t journaled = 0;  // records journaled before the crashes
  uint64_t checkpoints = 0;
  uint64_t wal_bytes = 0;  // WAL segment bytes left on disk at finish
  bool operator==(const Tally& o) const {
    return graphlets == o.graphlets && replayed == o.replayed &&
           refed == o.refed && journaled == o.journaled &&
           checkpoints == o.checkpoints && wal_bytes == o.wal_bytes;
  }
};

uint64_t CheckpointsCrossed(const Inputs& in, uint64_t from, uint64_t to) {
  return to / in.checkpoint_interval - from / in.checkpoint_interval;
}

uint64_t WalBytesOnDisk(const std::string& dir) {
  uint64_t bytes = 0;
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("wal_", 0) == 0) bytes += entry.file_size(ec);
  }
  return bytes;
}

/// One untraced pass through DurableSession alone.
void UntracedPass(const std::string& pass_dir, const Inputs& in,
                  BestOf& ingest_best, BestOf& recovery_best, Tally& tally,
                  Result& result) {
  const size_t n = in.feeds.size();
  tally = Tally{};
  tally.graphlets.assign(n, 0);
  std::vector<double> ingest_ns(n, 0.0);
  std::vector<char> alive(n, 0);
  // Phase 1: every session ingests up to its crash point, then crashes.
  for (size_t i = 0; i < n; ++i) {
    const std::vector<sim::ProvenanceRecord>& records = in.feeds[i].records;
    const uint64_t t0 = NowNs();
    auto opened = stream::DurableSession::Open(DurableOptionsFor(in, SessionDir(pass_dir, i)));
    bool ok = opened.ok();
    for (uint64_t k = 0; ok && k < in.crash_at[i]; ++k) {
      ok = opened->Ingest(records[k]).ok();
    }
    ingest_ns[i] = static_cast<double>(NowNs() - t0);
    if (!ok || !opened->SimulateCrash().ok()) {
      result.Outcome(i, false);
      result.Mismatch("durable_recovery: pipeline " +
                      std::to_string(in.feeds[i].pipeline_id) +
                      " failed before its crash");
      continue;
    }
    alive[i] = 1;
    tally.journaled += in.crash_at[i];
    tally.checkpoints += CheckpointsCrossed(in, 0, in.crash_at[i]);
  }
  // Phase 2: the fleet restarts.
  std::vector<stream::DurableSession> fleet;
  fleet.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    const std::vector<sim::ProvenanceRecord>& records = in.feeds[i].records;
    const uint64_t r0 = NowNs();
    auto reopened =
        stream::DurableSession::Open(DurableOptionsFor(in, SessionDir(pass_dir, i)));
    if (!reopened.ok()) {
      result.Outcome(i, false);
      result.Mismatch("durable_recovery: Open failed for pipeline " +
                      std::to_string(in.feeds[i].pipeline_id) + ": " +
                      reopened.status().ToString());
      continue;
    }
    const uint64_t resume = reopened->records();
    bool ok = true;
    for (uint64_t k = resume; ok && k < in.crash_at[i]; ++k) {
      ok = reopened->Ingest(records[k]).ok();
    }
    const uint64_t r1 = NowNs();
    for (uint64_t k = in.crash_at[i]; ok && k < records.size(); ++k) {
      ok = reopened->Ingest(records[k]).ok();
    }
    auto finished = ok ? reopened->Finish()
                       : mlprov::common::StatusOr<stream::SessionResult>(
                             Status::Internal("ingest failed"));
    const uint64_t t1 = NowNs();
    result.Outcome(i, finished.ok());
    if (!finished.ok()) {
      result.Mismatch("durable_recovery: pipeline " +
                      std::to_string(in.feeds[i].pipeline_id) +
                      " failed after recovery: " +
                      finished.status().ToString());
      continue;
    }
    recovery_best.Observe(i, static_cast<double>(r1 - r0));
    ingest_best.Observe(i, ingest_ns[i] + static_cast<double>(t1 - r1));
    tally.graphlets[i] = stream::FingerprintGraphlets(finished->graphlets);
    tally.replayed += reopened->recovery().replayed_records;
    tally.refed += in.crash_at[i] - resume;
    tally.checkpoints += CheckpointsCrossed(in, resume, records.size());
    tally.wal_bytes += WalBytesOnDisk(SessionDir(pass_dir, i));
    fleet.push_back(std::move(*reopened));
  }
  fleet.clear();
  RemoveTree(pass_dir);
}

void CheckAndCount(const Inputs& in, const std::vector<Tally>& passes,
                   Result& result) {
  for (size_t p = 1; p < passes.size(); ++p) {
    if (!(passes[p] == passes[0])) {
      result.Mismatch("durable_recovery: pass " + std::to_string(p) +
                      " differs from pass 0");
    }
  }
  uint64_t fold = kFoldSeed;
  for (size_t i = 0; i < in.feeds.size(); ++i) {
    const uint64_t batch = stream::FingerprintGraphlets(
        core::SegmentTrace(in.feeds[i].trace->store));
    if (passes[0].graphlets[i] != batch) {
      result.Mismatch("durable_recovery: pipeline " +
                      std::to_string(in.feeds[i].pipeline_id) +
                      " recovered graphlets differ from batch SegmentTrace");
    }
    fold = Fold(fold, passes[0].graphlets[i]);
  }
  result.Count("pipelines", in.feeds.size());
  result.Count("records", in.records);
  result.Count("wal_bytes_on_disk", passes[0].wal_bytes);
  result.Count("journaled_before_crash", passes[0].journaled);
  result.Count("checkpoints_written", passes[0].checkpoints);
  result.Count("replayed_records", passes[0].replayed);
  result.Count("refed_records", passes[0].refed);
  result.Fingerprint("graphlets", fold);
}

#ifdef PERFBENCH_TRACED
/// The same durable life cycle composed from WalWriter, ProvenanceSession
/// and the checkpoint functions, each call timed into the ledger.
class TracedDurable {
 public:
  TracedDurable(const Inputs& in, Ledger* ledger, const std::string& dir,
                int64_t pipeline, uint64_t* checkpoint_bytes)
      : in_(in),
        ledger_(ledger),
        dir_(dir),
        pipeline_(pipeline),
        checkpoint_bytes_(checkpoint_bytes) {
    wal_options_.dir = dir;
    // Syncs are issued here, every sync_interval records, so they can
    // be timed apart from appends; the bytes and sync points match
    // WalSyncPolicy::kInterval exactly.
    wal_options_.sync = stream::WalSyncPolicy::kNone;
  }

  Status Start() {
    session_ = std::make_unique<stream::ProvenanceSession>();
    auto wal = stream::WalWriter::Open(wal_options_, 0);
    if (!wal.ok()) return wal.status();
    wal_.emplace(std::move(*wal));
    return Status::Ok();
  }

  Status Ingest(const sim::ProvenanceRecord& record) {
    {
      LayerTimer t(ledger_, Layer::kWalAppend, pipeline_);
      MLPROV_RETURN_IF_ERROR(wal_->Append(record));
    }
    if (++since_sync_ >= in_.sync_interval) MLPROV_RETURN_IF_ERROR(Sync());
    {
      LayerTimer t(ledger_, Layer::kSession, pipeline_);
      MLPROV_RETURN_IF_ERROR(session_->Ingest(record));
    }
    if (++records_ % in_.checkpoint_interval == 0) {
      MLPROV_RETURN_IF_ERROR(Sync());
      LayerTimer t(ledger_, Layer::kCheckpoint, pipeline_);
      const int32_t span = ledger_->Open("checkpoint", pipeline_, NowNs());
      MLPROV_RETURN_IF_ERROR(
          stream::WriteCheckpoint(dir_, records_, *session_));
      std::error_code ec;
      char name[64];
      std::snprintf(name, sizeof(name), "/ckpt_%020llu.ckpt",
                    static_cast<unsigned long long>(records_));
      *checkpoint_bytes_ += std::filesystem::file_size(dir_ + name, ec);
      auto oldest = stream::PruneCheckpoints(dir_, kCheckpointsToKeep);
      MLPROV_RETURN_IF_ERROR(oldest.status());
      if (*oldest > 0) {
        MLPROV_RETURN_IF_ERROR(
            stream::PruneWalSegments(dir_, *oldest).status());
      }
      ledger_->Close(span, NowNs());
    }
    return Status::Ok();
  }

  Status Crash() {
    session_.reset();
    return wal_->SimulateCrash();
  }

  /// DurableSession::Open's recovery, step by step. Sets `replayed`.
  Status Recover(uint64_t* replayed) {
    const int32_t span = ledger_->Open("recovery", pipeline_, NowNs());
    session_ = std::make_unique<stream::ProvenanceSession>();
    uint64_t from = 0;
    {
      LayerTimer t(ledger_, Layer::kCkptLoad, pipeline_);
      auto ckpt = stream::LoadNewestCheckpoint(dir_);
      if (!ckpt.ok()) return ckpt.status();
      if (ckpt->found) {
        MLPROV_RETURN_IF_ERROR(session_->RestoreState(ckpt->payload));
        from = ckpt->records;
      }
    }
    {
      LayerTimer t(ledger_, Layer::kWalReplay, pipeline_);
      stream::WalReadOptions read;
      read.from_seq = from;
      read.repair = true;
      auto wal = stream::ReadWal(dir_, read);
      if (!wal.ok()) return wal.status();
      if (!wal->entries.empty() && wal->entries.front().seq != from) {
        return Status::Internal("WAL replay hole");
      }
      for (stream::WalEntry& entry : wal->entries) {
        MLPROV_RETURN_IF_ERROR(session_->Ingest(entry.View()));
      }
      *replayed = wal->entries.size();
      records_ = from + wal->entries.size();
      auto writer = stream::WalWriter::Open(wal_options_, records_);
      if (!writer.ok()) return writer.status();
      wal_.emplace(std::move(*writer));
      since_sync_ = 0;
    }
    ledger_->Close(span, NowNs());
    return Status::Ok();
  }

  mlprov::common::StatusOr<stream::SessionResult> Finish() {
    LayerTimer t(ledger_, Layer::kSession, pipeline_);
    auto result = session_->Finish();
    const Status closed = wal_->Close();
    if (result.ok() && !closed.ok()) return closed;
    return result;
  }

  uint64_t records() const { return records_; }

 private:
  Status Sync() {
    LayerTimer t(ledger_, Layer::kWalSync, pipeline_);
    since_sync_ = 0;
    return wal_->Sync();
  }

  const Inputs& in_;
  Ledger* ledger_;
  std::string dir_;
  int64_t pipeline_;
  uint64_t* checkpoint_bytes_;
  stream::WalOptions wal_options_;
  std::unique_ptr<stream::ProvenanceSession> session_;
  std::optional<stream::WalWriter> wal_;
  uint64_t records_ = 0;
  uint64_t since_sync_ = 0;
};

int RunTraced(const Options& options, const Inputs& in, Result& result) {
  Ledger ledger;
  const size_t n = in.feeds.size();
  BestOf untraced_ingest(n), untraced_recovery(n);
  BestOf traced_total(n), decomposed_best(n);
  std::vector<Tally> untraced;
  Tally traced_tally;
  uint64_t checkpoint_bytes = 0;
  size_t traced_passes = 0;
  double composed_ns = 0.0;
  std::vector<uint64_t> decomposed_graphlets(n, 0);
  Ledger session_ledger;  // the plain session, decomposed into its layers
  const auto start = Clock::now();
  while (traced_passes == 0 || SecondsSince(start) < options.seconds) {
    Tally tally;
    UntracedPass(PassDir(options, 2 * traced_passes), in, untraced_ingest,
                 untraced_recovery, tally, result);
    untraced.push_back(std::move(tally));

    const std::string pass_dir = PassDir(options, 2 * traced_passes + 1);
    traced_tally = Tally{};
    traced_tally.graphlets.assign(n, 0);
    std::vector<std::unique_ptr<TracedDurable>> fleet(n);
    std::vector<double> ns(n, 0.0);
    for (size_t i = 0; i < n; ++i) {
      const int64_t pid = in.feeds[i].pipeline_id;
      fleet[i] = std::make_unique<TracedDurable>(
          in, &ledger, SessionDir(pass_dir, i), pid, &checkpoint_bytes);
      const uint64_t t0 = NowNs();
      Status s = fleet[i]->Start();
      for (uint64_t k = 0; s.ok() && k < in.crash_at[i]; ++k) {
        s = fleet[i]->Ingest(in.feeds[i].records[k]);
      }
      ns[i] = static_cast<double>(NowNs() - t0);
      if (!s.ok() || !fleet[i]->Crash().ok()) {
        result.Mismatch("durable_recovery traced: pre-crash failure");
        fleet[i].reset();
        continue;
      }
      traced_tally.journaled += in.crash_at[i];
      traced_tally.checkpoints += CheckpointsCrossed(in, 0, in.crash_at[i]);
    }
    for (size_t i = 0; i < n; ++i) {
      if (fleet[i] == nullptr) continue;
      const uint64_t t0 = NowNs();
      uint64_t replayed = 0;
      Status s = fleet[i]->Recover(&replayed);
      const uint64_t resume = fleet[i]->records();
      for (uint64_t k = resume; s.ok() && k < in.feeds[i].records.size();
           ++k) {
        s = fleet[i]->Ingest(in.feeds[i].records[k]);
      }
      auto finished = s.ok() ? fleet[i]->Finish()
                             : mlprov::common::StatusOr<stream::SessionResult>(s);
      ns[i] += static_cast<double>(NowNs() - t0);
      if (!finished.ok()) {
        result.Mismatch("durable_recovery traced: post-crash failure: " +
                        finished.status().ToString());
        continue;
      }
      traced_total.Observe(i, ns[i]);
      composed_ns += ns[i];
      traced_tally.graphlets[i] =
          stream::FingerprintGraphlets(finished->graphlets);
      traced_tally.replayed += replayed;
      traced_tally.refed += in.crash_at[i] - resume;
      traced_tally.checkpoints +=
          CheckpointsCrossed(in, resume, in.feeds[i].records.size());
      traced_tally.wal_bytes += WalBytesOnDisk(SessionDir(pass_dir, i));
    }
    fleet.clear();
    RemoveTree(pass_dir);

    // The plain session's own layers on the same feeds.
    for (size_t i = 0; i < n; ++i) {
      TracedSession session(stream::SessionOptions{}, &session_ledger,
                            in.feeds[i].pipeline_id);
      const uint64_t t0 = NowNs();
      bool ok = true;
      for (const sim::ProvenanceRecord& r : in.feeds[i].records) {
        if (!(ok = session.Ingest(r).ok())) break;
      }
      auto finished = session.Finish();
      decomposed_best.Observe(i, static_cast<double>(NowNs() - t0));
      if (ok && finished.ok()) {
        decomposed_graphlets[i] =
            stream::FingerprintGraphlets(finished->graphlets);
      }
    }
    ++traced_passes;
  }
  RemoveTree(options.work_dir + "/durable");
  CheckAndCount(in, untraced, result);
  uint64_t wal_bytes = 0;  // frames of every feed record, as journaled
  std::string frame;
  for (const Feed& feed : in.feeds) {
    for (size_t k = 0; k < feed.records.size(); ++k) {
      frame.clear();
      stream::walwire::EncodeFrame(feed.records[k], k, frame);
      wal_bytes += frame.size();
    }
  }
  if (!(traced_tally == untraced[0])) {
    result.Mismatch("durable_recovery: traced run differs from untraced");
  }
  if (decomposed_graphlets != untraced[0].graphlets) {
    result.Mismatch("durable_recovery: decomposed session differs");
  }

  const double passes = static_cast<double>(traced_passes);
  const double appended =
      static_cast<double>(ledger.calls(Layer::kWalAppend));
  const double records_per_pass = static_cast<double>(in.records) * passes;
  const auto per_call_ms = [&](Layer layer) {
    return ledger.calls(layer) > 0
               ? ledger.NetNs(layer) / 1e6 /
                     static_cast<double>(ledger.calls(layer))
               : 0.0;
  };
  result.Metric("simulator.generate_s", in.generate_s, "s");
  result.Metric("metadata.store.ns_per_record",
                session_ledger.NetNs(Layer::kStore) / records_per_pass, "ns");
  result.Metric("core.index.ns_per_record",
                session_ledger.NetNs(Layer::kIndex) / records_per_pass, "ns");
  result.Metric("stream.segmenter.ns_per_record",
                session_ledger.NetNs(Layer::kSegmenter) / records_per_pass,
                "ns");
  result.Metric("stream.wal.ns_per_record",
                appended > 0.0 ? ledger.NetNs(Layer::kWalAppend) / appended
                               : 0.0,
                "ns");
  result.Metric("stream.wal.bytes_per_record",
                static_cast<double>(wal_bytes) / static_cast<double>(in.records),
                "bytes");
  result.Metric("stream.wal.sync_ms", per_call_ms(Layer::kWalSync), "ms");
  result.Metric("stream.wal.syncs",
                static_cast<double>(ledger.calls(Layer::kWalSync)) / passes,
                "count");
  result.Metric("stream.checkpoint.ms_per_write",
                per_call_ms(Layer::kCheckpoint), "ms");
  result.Metric("stream.checkpoint.mb_written",
                static_cast<double>(checkpoint_bytes) / passes / 1048576.0,
                "MB");
  result.Metric("stream.recovery.checkpoint_load_ms",
                per_call_ms(Layer::kCkptLoad), "ms");
  result.Metric("stream.recovery.wal_replay_ms",
                per_call_ms(Layer::kWalReplay), "ms");
  result.Metric("stream.recovery.replayed_records",
                static_cast<double>(traced_tally.replayed), "count");
  result.Metric("stream.recovery.refed_share",
                traced_tally.journaled > 0
                    ? static_cast<double>(traced_tally.refed) /
                          static_cast<double>(traced_tally.journaled)
                    : 0.0,
                "share");
  const double attributed =
      ledger.NetNs(Layer::kWalAppend) + ledger.NetNs(Layer::kWalSync) +
      ledger.NetNs(Layer::kSession) + ledger.NetNs(Layer::kCheckpoint) +
      ledger.NetNs(Layer::kCkptLoad) + ledger.NetNs(Layer::kWalReplay);
  result.Metric("trace.unattributed_share",
                composed_ns > 0.0
                    ? std::max(0.0, composed_ns - attributed) / composed_ns
                    : 0.0,
                "share");
  const double untraced_sum = untraced_ingest.Sum() + untraced_recovery.Sum();
  result.Metric("trace.overhead_share",
                untraced_sum > 0.0 ? traced_total.Sum() / untraced_sum - 1.0
                                   : 0.0,
                "share");
  result.Note("untraced.records_per_s",
              static_cast<double>(in.records) / (untraced_ingest.Sum() / 1e9));
  result.Note("untraced.recovery_s", untraced_recovery.Sum() / 1e9);
  WriteLedger(ledger, options, result);
  return 0;
}

#endif  // PERFBENCH_TRACED
}  // namespace

int RunDurableRecovery(const Options& options, Result& result) {
  std::unique_ptr<Inputs> in;
  std::vector<double> setups;
  for (int round = 0; round < (options.trace ? 1 : 3); ++round) {
    in.reset();
    in = Setup(options);
    setups.push_back(in->setup_s);
  }
#ifdef PERFBENCH_TRACED
  if (options.trace) return RunTraced(options, *in, result);
#endif

  const size_t n = in->feeds.size();
  BestOf ingest_best(n), recovery_best(n);
  std::vector<Tally> passes;
  const double baseline_mb = ResetPeakRss();
  const auto start = Clock::now();
  while (passes.size() < 2 || SecondsSince(start) < options.seconds) {
    Tally tally;
    UntracedPass(PassDir(options, passes.size()), *in, ingest_best,
                 recovery_best, tally, result);
    passes.push_back(std::move(tally));
  }
  const double peak_mb = PeakRssMb() - baseline_mb;
  RemoveTree(options.work_dir + "/durable");
  CheckAndCount(*in, passes, result);
  result.Count("passes", passes.size());

  result.Metric("setup_s", Median(setups), "s");
  result.Metric("records_per_s",
                static_cast<double>(in->records) / (ingest_best.Sum() / 1e9),
                "records/s");
  result.Metric("peak_rss_mb", peak_mb, "MB");
  result.Metric("recovery_s", recovery_best.Sum() / 1e9, "s");
  const std::vector<double> recoveries = recovery_best.Values();
  result.Percentile("recovery_ms_p50", recoveries, 0.50, 1e-6, "ms");
  result.Percentile("recovery_ms_p90", recoveries, 0.90, 1e-6, "ms");
  return 0;
}

}  // namespace perfbench
