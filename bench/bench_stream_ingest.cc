// Streaming provenance ingestion benchmark: event throughput and
// per-event latency of the ProvenanceSession, the speedup of incremental
// segmentation over the naive recompute-per-trainer strawman, and a full
// online-scoring replay with waste accounting. The batch/streaming
// byte-identity contract is asserted on every pipeline (a perf number
// for a wrong answer is worthless).
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <string>
#include <vector>

#include "bench/report_common.h"
#include "core/features.h"
#include "core/segmentation.h"
#include "core/waste_mitigation.h"
#include "metadata/binary_serialization.h"
#include "metadata/serialization.h"
#include "simulator/provenance_sink.h"
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/replay.h"
#include "stream/session.h"
#include "stream/shard_router.h"
#include "stream/supervisor.h"

namespace mlprov {
namespace {

/// Sink that buffers the feed so ingestion can be timed per record
/// without the feeder's trace walk inside the measured section. Span
/// stats are borrowed from the trace, which outlives the benchmark loop.
struct RecordingSink : public sim::ProvenanceSink {
  std::vector<sim::ProvenanceRecord> records;
  void OnRecord(const sim::ProvenanceRecord& record) override {
    records.push_back(record);
  }
};

/// Order-sensitive fold of the per-pipeline graphlet fingerprints — the
/// corpus-level identity the sharded merge must reproduce bit for bit.
uint64_t FingerprintSegmented(const core::SegmentedCorpus& segmented) {
  uint64_t hash = 14695981039346656037ull;
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    hash ^= stream::FingerprintGraphlets(sp.graphlets);
    hash *= 1099511628211ull;
    hash ^= static_cast<uint64_t>(sp.quarantined_graphlets);
    hash *= 1099511628211ull;
  }
  return hash;
}

common::StatusOr<core::Variant> ParsePolicy(const std::string& name) {
  if (name == "input") return core::Variant::kInput;
  if (name == "input_pre") return core::Variant::kInputPre;
  if (name == "input_pre_trainer") return core::Variant::kInputPreTrainer;
  return common::Status::InvalidArgument(
      "--stream_policy must be input | input_pre | input_pre_trainer, "
      "got \"" +
      name + "\"");
}

int Run(int argc, char** argv) {
  bench::ReportContext ctx(argc, argv, "Streaming provenance ingestion",
                           /*default_pipelines=*/120);
  const auto policy = ParsePolicy(ctx.options.stream_policy);
  if (!policy.ok()) {
    std::fprintf(stderr, "error: %s\n", policy.status().ToString().c_str());
    return 2;
  }

  // ---- Phase 1: ingest throughput, per-event latency, identity. ----
  using Clock = std::chrono::steady_clock;
  std::vector<double> latencies_us;
  size_t total_records = 0;
  double ingest_seconds = 0.0;
  double finish_seconds = 0.0;
  bool identical = true;
  for (const sim::PipelineTrace& trace : ctx.corpus.pipelines) {
    RecordingSink feed;
    sim::ProvenanceFeeder feeder(&feed);
    feeder.Finish(trace);

    stream::SessionOptions options;
    options.segmenter.seal_grace_hours =
        ctx.options.stream_seal_grace_hours;
    stream::ProvenanceSession session(options);
    for (const sim::ProvenanceRecord& record : feed.records) {
      const auto t0 = Clock::now();
      const common::Status status = session.Ingest(record);
      const auto t1 = Clock::now();
      if (!status.ok()) {
        std::fprintf(stderr, "error: ingest: %s\n",
                     status.ToString().c_str());
        return 1;
      }
      latencies_us.push_back(
          std::chrono::duration<double, std::micro>(t1 - t0).count());
    }
    total_records += feed.records.size();
    ingest_seconds +=
        std::accumulate(latencies_us.end() -
                            static_cast<ptrdiff_t>(feed.records.size()),
                        latencies_us.end(), 0.0) /
        1e6;

    const auto f0 = Clock::now();
    auto result = session.Finish();
    finish_seconds +=
        std::chrono::duration<double>(Clock::now() - f0).count();
    if (!result.ok()) {
      std::fprintf(stderr, "error: finish: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    identical = identical &&
                stream::FingerprintGraphlets(result->graphlets) ==
                    stream::FingerprintGraphlets(
                        core::SegmentTrace(trace.store));
  }
  const double stream_seconds = ingest_seconds + finish_seconds;
  const double events_per_sec =
      stream_seconds > 0.0 ? total_records / stream_seconds : 0.0;
  using common::Quantile;
  std::printf("ingest: %zu records in %.3fs (%.0f records/s)\n",
              total_records, stream_seconds, events_per_sec);
  std::printf(
      "per-record latency: p50 %.2fus  p90 %.2fus  p99 %.2fus  "
      "max %.2fus\n",
      Quantile(latencies_us, 0.5), Quantile(latencies_us, 0.9),
      Quantile(latencies_us, 0.99), Quantile(latencies_us, 1.0));
  std::printf("streaming == batch segmentation: %s\n\n",
              identical ? "IDENTICAL" : "MISMATCH — BUG");
  ctx.report.Set("stream.records", static_cast<int64_t>(total_records));
  ctx.report.Set("stream.seconds", stream_seconds);
  ctx.report.Set("stream.events_per_sec", events_per_sec);
  ctx.report.Set("stream.latency_us.p50", Quantile(latencies_us, 0.5));
  ctx.report.Set("stream.latency_us.p90", Quantile(latencies_us, 0.9));
  ctx.report.Set("stream.latency_us.p99", Quantile(latencies_us, 0.99));
  ctx.report.Set("stream.latency_us.max", Quantile(latencies_us, 1.0));
  ctx.report.Set("stream.identical", identical);

  // ---- Phase 2: incremental vs naive recompute-per-trainer. ----
  // The naive baseline rebuilds the graphlet set from scratch (batch
  // SegmentTrace over the replica store) every time a trainer appears in
  // the feed — what a dashboard polling the store would do. Quadratic in
  // trainers, hence the pipeline cap.
  const size_t naive_pipelines = std::min<size_t>(
      static_cast<size_t>(std::max(1, ctx.options.stream_naive_pipelines)),
      ctx.corpus.pipelines.size());
  double naive_seconds = 0.0;
  double incremental_seconds = 0.0;
  for (size_t p = 0; p < naive_pipelines; ++p) {
    const sim::PipelineTrace& trace = ctx.corpus.pipelines[p];
    RecordingSink feed;
    sim::ProvenanceFeeder feeder(&feed);
    feeder.Finish(trace);

    {
      const auto t0 = Clock::now();
      stream::SessionOptions options;
      options.segmenter.seal_grace_hours =
          ctx.options.stream_seal_grace_hours;
      stream::ProvenanceSession session(options);
      for (const sim::ProvenanceRecord& record : feed.records) {
        (void)session.Ingest(record);
      }
      auto result = session.Finish();
      incremental_seconds +=
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (!result.ok()) {
        std::fprintf(stderr, "error: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
    }
    {
      const auto t0 = Clock::now();
      metadata::MetadataStore replica;
      std::vector<core::Graphlet> last;
      for (const sim::ProvenanceRecord& record : feed.records) {
        switch (record.kind) {
          case sim::ProvenanceRecord::Kind::kContext:
            replica.PutContext(record.context);
            break;
          case sim::ProvenanceRecord::Kind::kExecution:
            replica.PutExecution(record.execution);
            if (record.execution.type ==
                metadata::ExecutionType::kTrainer) {
              last = core::SegmentTrace(replica);
            }
            break;
          case sim::ProvenanceRecord::Kind::kArtifact:
            replica.PutArtifact(record.artifact);
            break;
          case sim::ProvenanceRecord::Kind::kEvent:
            (void)replica.PutEvent(record.event);
            break;
        }
      }
      last = core::SegmentTrace(replica);
      naive_seconds +=
          std::chrono::duration<double>(Clock::now() - t0).count();
    }
  }
  const double speedup =
      incremental_seconds > 0.0 ? naive_seconds / incremental_seconds : 0.0;
  std::printf(
      "incremental vs naive (first %zu pipelines): %.3fs vs %.3fs "
      "-> %.1fx speedup (acceptance: >= 10x)\n\n",
      naive_pipelines, incremental_seconds, naive_seconds, speedup);
  ctx.report.Set("stream.naive_pipelines",
                 static_cast<int64_t>(naive_pipelines));
  ctx.report.Set("stream.naive_seconds", naive_seconds);
  ctx.report.Set("stream.incremental_seconds", incremental_seconds);
  ctx.report.Set("stream.speedup_vs_naive", speedup);

  // ---- Phase 3: online scoring replay with waste accounting. ----
  const core::SegmentedCorpus segmented = core::SegmentCorpus(ctx.corpus);
  auto dataset = core::BuildWasteDataset(ctx.corpus, segmented);
  if (!dataset.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  stream::OnlineScorerOptions scorer_options;
  scorer_options.mitigation.forest.num_trees = ctx.options.trees;
  scorer_options.policy_variant = *policy;
  auto scorer = stream::OnlineScorer::Train(*dataset, scorer_options);
  if (!scorer.ok()) {
    std::fprintf(stderr, "error: %s\n",
                 scorer.status().ToString().c_str());
    return 1;
  }
  stream::WasteAccounting waste;
  double scoring_seconds = 0.0;
  // Aggregated session-health snapshot for the report's "health" object.
  uint64_t health_records = 0, health_cells = 0, health_sealed = 0;
  uint64_t health_open = 0, health_reseals = 0, health_decisions = 0;
  uint64_t health_pending = 0, health_poisoned = 0;
  double max_seal_lag_hours = 0.0;
  for (const sim::PipelineTrace& trace : ctx.corpus.pipelines) {
    stream::SessionOptions options;
    options.segmenter.seal_grace_hours =
        ctx.options.stream_seal_grace_hours;
    options.scorer = &*scorer;
    // One scoring session per trace: safe to close the causal flows the
    // simulator's trainer spans opened (phases 1 and 2 replayed the same
    // traces without flows, so each flow finishes exactly once).
    options.emit_flows = true;
    char session_name[32];
    std::snprintf(session_name, sizeof(session_name), "p%lld",
                  static_cast<long long>(trace.config.pipeline_id));
    options.name = session_name;
    stream::ProvenanceSession session(options);
    const auto t0 = Clock::now();
    const common::Status replayed = stream::ReplayTrace(trace, session);
    auto result = session.Finish();
    scoring_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!replayed.ok() || !result.ok()) {
      std::fprintf(stderr, "error: scoring replay failed\n");
      return 1;
    }
    session.PublishHealth();
    const stream::SessionHealth health = session.Health();
    health_records += health.records;
    health_cells += health.cells;
    health_sealed += health.sealed;
    health_open += health.open_cells;
    health_reseals += health.reseals;
    health_decisions += health.decisions;
    health_pending += health.pending_decisions;
    health_poisoned += health.poisoned ? 1 : 0;
    max_seal_lag_hours = std::max(max_seal_lag_hours, health.seal_lag_hours);
    waste.decisions += result->waste.decisions;
    waste.aborts += result->waste.aborts;
    waste.lost_pushes += result->waste.lost_pushes;
    waste.avoided_hours += result->waste.avoided_hours;
  }
  {
    obs::Json health = obs::Json::Object();
    health.Set("sessions",
               static_cast<uint64_t>(ctx.corpus.pipelines.size()));
    health.Set("records", health_records);
    health.Set("cells", health_cells);
    health.Set("sealed", health_sealed);
    health.Set("open_cells", health_open);
    health.Set("reseals", health_reseals);
    health.Set("decisions", health_decisions);
    health.Set("pending_decisions", health_pending);
    health.Set("poisoned", health_poisoned);
    health.Set("max_seal_lag_hours", max_seal_lag_hours);
    ctx.report.SetHealth(std::move(health));
  }
  std::printf(
      "online scoring (policy %s, grace %.0fh): %zu decisions, "
      "%zu aborts, %.0f machine-hours avoided, %zu lost pushes "
      "(%.3fs replay)\n",
      core::ToString(*policy), ctx.options.stream_seal_grace_hours,
      waste.decisions, waste.aborts, waste.avoided_hours,
      waste.lost_pushes, scoring_seconds);
  ctx.report.Set("scoring.policy", core::ToString(*policy));
  ctx.report.Set("scoring.seal_grace_hours",
                 ctx.options.stream_seal_grace_hours);
  ctx.report.Set("scoring.decisions",
                 static_cast<int64_t>(waste.decisions));
  ctx.report.Set("scoring.aborts", static_cast<int64_t>(waste.aborts));
  ctx.report.Set("scoring.lost_pushes",
                 static_cast<int64_t>(waste.lost_pushes));
  ctx.report.Set("scoring.avoided_hours", waste.avoided_hours);
  ctx.report.Set("scoring.seconds", scoring_seconds);

  // ---- Phase 4: serialized-corpus ingest, text vs binary zero-copy. ----
  // A session fed from a serialized corpus: the text path materializes a
  // MetadataStore (parse + copy every string) and replays it; the binary
  // path walks the MLPB columns with BinaryStoreCursor and hands
  // zero-copy RecordRef views straight to Ingest. Both must produce
  // byte-identical replicas and fingerprints — asserted below, along with
  // the lossless text -> binary -> text round trip.
  std::vector<std::string> texts, binaries;
  texts.reserve(ctx.corpus.pipelines.size());
  binaries.reserve(ctx.corpus.pipelines.size());
  size_t text_bytes = 0, binary_bytes = 0;
  bool round_trip_identical = true;
  for (const sim::PipelineTrace& trace : ctx.corpus.pipelines) {
    texts.push_back(metadata::SerializeStore(trace.store));
    binaries.push_back(metadata::SerializeStoreBinary(trace.store));
    text_bytes += texts.back().size();
    binary_bytes += binaries.back().size();
    auto decoded = metadata::DeserializeStoreBinary(binaries.back());
    round_trip_identical =
        round_trip_identical && decoded.ok() &&
        metadata::SerializeStore(*decoded) == texts.back();
  }

  // Decode stage: serialized bytes -> record stream. This is the work
  // the binary format removes; the text side must build the whole store
  // before a single record can be replayed.
  size_t serialized_records = 0;
  double text_decode_seconds = 0.0;
  for (const std::string& text : texts) {
    const auto t0 = Clock::now();
    auto store = metadata::DeserializeStore(text);
    text_decode_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!store.ok()) {
      std::fprintf(stderr, "error: text decode: %s\n",
                   store.status().ToString().c_str());
      return 1;
    }
  }
  double binary_decode_seconds = 0.0;
  for (const std::string& binary : binaries) {
    const auto t0 = Clock::now();
    auto cursor = metadata::BinaryStoreCursor::Open(binary);
    size_t n = 0;
    metadata::RecordRef record;
    while (cursor.ok() && cursor->Next(&record)) ++n;
    binary_decode_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!cursor.ok() || !cursor->status().ok()) {
      std::fprintf(stderr, "error: binary decode failed\n");
      return 1;
    }
    serialized_records += n;
  }

  // End-to-end stage: serialized bytes -> finished analysis.
  bool formats_identical = true;
  double text_e2e_seconds = 0.0, binary_e2e_seconds = 0.0;
  std::vector<uint64_t> text_prints(texts.size());
  for (size_t i = 0; i < texts.size(); ++i) {
    const auto t0 = Clock::now();
    auto store = metadata::DeserializeStore(texts[i]);
    stream::ProvenanceSession session;
    if (!store.ok() || !stream::ReplayStore(*store, session).ok()) {
      std::fprintf(stderr, "error: text replay failed\n");
      return 1;
    }
    auto result = session.Finish();
    text_e2e_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!result.ok()) return 1;
    text_prints[i] = stream::FingerprintGraphlets(result->graphlets);
  }
  for (size_t i = 0; i < binaries.size(); ++i) {
    const auto t0 = Clock::now();
    auto cursor = metadata::BinaryStoreCursor::Open(binaries[i]);
    stream::ProvenanceSession session;
    metadata::RecordRef record;
    bool ok = cursor.ok();
    while (ok && cursor->Next(&record)) {
      ok = session.Ingest(record).ok();
    }
    auto result = session.Finish();
    binary_e2e_seconds +=
        std::chrono::duration<double>(Clock::now() - t0).count();
    if (!ok || !cursor->status().ok() || !result.ok()) {
      std::fprintf(stderr, "error: binary replay failed\n");
      return 1;
    }
    formats_identical =
        formats_identical &&
        stream::FingerprintGraphlets(result->graphlets) == text_prints[i];
  }

  const double decode_ratio = binary_decode_seconds > 0.0
                                  ? text_decode_seconds / binary_decode_seconds
                                  : 0.0;
  const double e2e_ratio =
      binary_e2e_seconds > 0.0 ? text_e2e_seconds / binary_e2e_seconds : 0.0;
  const double size_ratio =
      binary_bytes > 0 ? static_cast<double>(text_bytes) / binary_bytes : 0.0;
  std::printf(
      "serialized ingest (%zu records): decode %.3fs text vs %.3fs binary "
      "-> %.1fx record throughput (acceptance: >= 10x)\n",
      serialized_records, text_decode_seconds, binary_decode_seconds,
      decode_ratio);
  std::printf(
      "end-to-end (decode + session + finish): %.3fs text vs %.3fs binary "
      "-> %.1fx\n",
      text_e2e_seconds, binary_e2e_seconds, e2e_ratio);
  std::printf("corpus size: %.1f MB text vs %.1f MB binary (%.1fx)\n",
              text_bytes / 1e6, binary_bytes / 1e6, size_ratio);
  std::printf("text -> binary -> text round trip: %s\n",
              round_trip_identical ? "IDENTICAL" : "MISMATCH — BUG");
  std::printf("analyses across formats: %s\n\n",
              formats_identical ? "IDENTICAL" : "MISMATCH — BUG");
  ctx.report.Set("serialized.records",
                 static_cast<int64_t>(serialized_records));
  ctx.report.Set("serialized.text_decode_seconds", text_decode_seconds);
  ctx.report.Set("serialized.binary_decode_seconds", binary_decode_seconds);
  ctx.report.Set("serialized.binary_records_per_sec",
                 binary_decode_seconds > 0.0
                     ? serialized_records / binary_decode_seconds
                     : 0.0);
  ctx.report.Set("serialized.throughput_ratio", decode_ratio);
  ctx.report.Set("serialized.text_e2e_seconds", text_e2e_seconds);
  ctx.report.Set("serialized.binary_e2e_seconds", binary_e2e_seconds);
  ctx.report.Set("serialized.e2e_ratio", e2e_ratio);
  ctx.report.Set("serialized.text_bytes", static_cast<int64_t>(text_bytes));
  ctx.report.Set("serialized.binary_bytes",
                 static_cast<int64_t>(binary_bytes));
  ctx.report.Set("serialized.size_ratio", size_ratio);
  ctx.report.Set("serialized.round_trip_identical", round_trip_identical);
  ctx.report.Set("serialized.formats_identical", formats_identical);

  // ---- Phase 5: durable ingest (WAL + checkpoints), opt-in. ----
  // With --wal_dir every pipeline journals into <dir>/p<id>/ before
  // mutating session state. A --crash_after_records=N run SIGKILLs
  // itself mid-ingest; re-running the same command line without the
  // crash flag recovers from the surviving WALs/checkpoints, resumes,
  // and must land on the exact batch fingerprints (the CI smoke).
  bool durable_identical = true;
  if (!ctx.options.wal_dir.empty()) {
    const auto sync = stream::ParseWalSyncPolicy(ctx.options.wal_sync);
    if (!sync.ok()) {
      std::fprintf(stderr, "error: --wal_sync: %s\n",
                   sync.status().ToString().c_str());
      return 2;
    }
    int64_t crash_budget = ctx.options.crash_after_records;
    size_t durable_records = 0;
    double durable_seconds = 0.0;
    uint64_t replayed = 0, recovered_sessions = 0, checkpoint_records = 0;
    for (const sim::PipelineTrace& trace : ctx.corpus.pipelines) {
      RecordingSink feed;
      sim::ProvenanceFeeder feeder(&feed);
      feeder.Finish(trace);

      stream::DurableOptions durable;
      durable.wal.dir =
          ctx.options.wal_dir + "/p" +
          std::to_string(trace.config.pipeline_id);
      durable.wal.sync = *sync;
      durable.checkpoint_interval = static_cast<uint64_t>(
          std::max<int64_t>(0, ctx.options.checkpoint_interval));
      durable.session.segmenter.seal_grace_hours =
          ctx.options.stream_seal_grace_hours;
      auto opened = stream::DurableSession::Open(durable);
      if (!opened.ok()) {
        std::fprintf(stderr, "error: durable open: %s\n",
                     opened.status().ToString().c_str());
        return 1;
      }
      replayed += opened->recovery().replayed_records;
      recovered_sessions += opened->recovery().recovered ? 1 : 0;
      checkpoint_records += opened->recovery().checkpoint_records;
      const auto t0 = Clock::now();
      for (uint64_t i = opened->records(); i < feed.records.size(); ++i) {
        if (crash_budget > 0 && --crash_budget == 0) {
          // Die the hard way — no atexit, no flush, WAL tail possibly
          // torn. Exactly the failure recovery must absorb.
          ::kill(::getpid(), SIGKILL);
        }
        const common::Status status = opened->Ingest(feed.records[i]);
        if (!status.ok()) {
          std::fprintf(stderr, "error: durable ingest: %s\n",
                       status.ToString().c_str());
          return 1;
        }
      }
      auto result = opened->Finish();
      durable_seconds +=
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (!result.ok()) {
        std::fprintf(stderr, "error: durable finish: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      durable_records += feed.records.size();
      durable_identical = durable_identical &&
                          stream::FingerprintGraphlets(result->graphlets) ==
                              stream::FingerprintGraphlets(
                                  core::SegmentTrace(trace.store));
    }
    const double durable_rate = durable_seconds > 0.0
                                    ? durable_records / durable_seconds
                                    : 0.0;
    std::printf(
        "durable ingest (sync %s, checkpoint every %lld): %zu records "
        "in %.3fs (%.0f records/s, %.2fx of plain)\n",
        stream::ToString(*sync),
        static_cast<long long>(ctx.options.checkpoint_interval),
        durable_records, durable_seconds, durable_rate,
        events_per_sec > 0.0 ? durable_rate / events_per_sec : 0.0);
    std::printf(
        "recovery: %llu sessions recovered, %llu records restored from "
        "checkpoints, %llu WAL records replayed\n",
        static_cast<unsigned long long>(recovered_sessions),
        static_cast<unsigned long long>(checkpoint_records),
        static_cast<unsigned long long>(replayed));
    std::printf("durable == batch segmentation: %s\n\n",
                durable_identical ? "IDENTICAL" : "MISMATCH — BUG");
    ctx.report.Set("durable.sync", stream::ToString(*sync));
    ctx.report.Set("durable.checkpoint_interval",
                   ctx.options.checkpoint_interval);
    ctx.report.Set("durable.records",
                   static_cast<int64_t>(durable_records));
    ctx.report.Set("durable.seconds", durable_seconds);
    ctx.report.Set("durable.events_per_sec", durable_rate);
    ctx.report.Set("durable.vs_plain_ratio",
                   events_per_sec > 0.0 ? durable_rate / events_per_sec
                                        : 0.0);
    ctx.report.Set("durable.identical", durable_identical);
    ctx.report.Set("recovery.recovered_sessions",
                   static_cast<int64_t>(recovered_sessions));
    ctx.report.Set("recovery.replayed_records",
                   static_cast<int64_t>(replayed));
    ctx.report.Set("recovery.checkpoint_records",
                   static_cast<int64_t>(checkpoint_records));
  }
  // ---- Phase 6: sharded multi-session service, opt-in (--shards=N). ----
  // Sweeps shard counts (powers of two up to N, plus N) through
  // ShardedProvenanceService and reports aggregate ingest throughput and
  // the speedup over the 1-shard run. Every sweep point must merge to
  // the exact batch segmentation — the identity bit below is part of the
  // exit code, like every other identity in this binary. The binary
  // sweep reuses the phase-4 MLPB blobs so the zero-copy path shards too.
  bool sharded_identical = true;
  if (ctx.options.shards > 0) {
    const auto backpressure =
        stream::ParseBackpressurePolicy(ctx.options.backpressure);
    if (!backpressure.ok()) {
      std::fprintf(stderr, "error: --backpressure: %s\n",
                   backpressure.status().ToString().c_str());
      return 2;
    }
    const size_t max_shards = static_cast<size_t>(ctx.options.shards);
    std::vector<size_t> sweep;
    for (size_t s = 1; s < max_shards; s <<= 1) sweep.push_back(s);
    sweep.push_back(max_shards);

    const uint64_t batch_print = FingerprintSegmented(segmented);
    // Identity under kShed is per *surviving* slot (the merge is a
    // documented subset once pipelines are shed); under kBlock nothing
    // sheds and this is exactly full-corpus fingerprint identity.
    const auto identical_to_batch = [&](const stream::ShardedResult& r) {
      for (const stream::ShardPipelineResult& p : r.pipelines) {
        if (p.shed) continue;
        const core::SegmentedPipeline& ref = segmented.pipelines[p.slot];
        if (stream::FingerprintGraphlets(p.result.graphlets) !=
                stream::FingerprintGraphlets(ref.graphlets) ||
            p.quarantined_graphlets != ref.quarantined_graphlets) {
          return false;
        }
      }
      return r.shed_pipelines > 0 ||
             FingerprintSegmented(r.ToSegmentedCorpus()) == batch_print;
    };
    double one_shard_rate = 0.0, top_rate = 0.0;
    uint64_t top_stalls = 0;
    size_t top_queue_peak = 0;
    std::printf("sharded ingest (backpressure %s, queue %lld):\n",
                stream::ToString(*backpressure),
                static_cast<long long>(ctx.options.shard_queue_capacity));
    for (const size_t shards : sweep) {
      stream::ShardRouterOptions shard_options;
      shard_options.shards = shards;
      shard_options.queue_capacity = static_cast<size_t>(
          std::max<int64_t>(2, ctx.options.shard_queue_capacity));
      shard_options.backpressure = *backpressure;
      shard_options.session.segmenter.seal_grace_hours =
          ctx.options.stream_seal_grace_hours;
      stream::ShardedProvenanceService service(shard_options);
      const auto t0 = Clock::now();
      auto result = service.IngestCorpus(ctx.corpus);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (!result.ok()) {
        std::fprintf(stderr, "error: sharded ingest: %s\n",
                     result.status().ToString().c_str());
        return 1;
      }
      const common::Status first_error = result->FirstError();
      if (!first_error.ok()) {
        std::fprintf(stderr, "error: sharded slot: %s\n",
                     first_error.ToString().c_str());
        return 1;
      }
      const bool merged_identical = identical_to_batch(*result);
      sharded_identical = sharded_identical && merged_identical;
      const double rate =
          seconds > 0.0 ? static_cast<double>(result->records) / seconds
                        : 0.0;
      if (shards == 1) one_shard_rate = rate;
      if (shards == max_shards) {
        top_rate = rate;
        top_stalls = result->backpressure_stalls;
        top_queue_peak = result->queue_depth_peak;
      }
      std::printf(
          "  %3zu shard(s): %llu records in %.3fs (%.0f records/s, "
          "%.2fx of 1 shard, %llu stalls, %zu shed, queue peak %zu) %s\n",
          shards, static_cast<unsigned long long>(result->records), seconds,
          rate, one_shard_rate > 0.0 ? rate / one_shard_rate : 0.0,
          static_cast<unsigned long long>(result->backpressure_stalls),
          result->shed_pipelines, result->queue_depth_peak,
          merged_identical ? "IDENTICAL" : "MISMATCH — BUG");
      char key[64];
      std::snprintf(key, sizeof(key), "sharded.sweep.%zu.records_per_sec",
                    shards);
      ctx.report.Set(key, rate);
    }
    const double shard_speedup =
        one_shard_rate > 0.0 ? top_rate / one_shard_rate : 0.0;
    std::printf("sharded == batch segmentation: %s\n",
                sharded_identical ? "IDENTICAL" : "MISMATCH — BUG");
    std::printf("sharded speedup at %zu shards: %.2fx\n", max_shards,
                shard_speedup);
    ctx.report.Set("sharded.shards", static_cast<int64_t>(max_shards));
    ctx.report.Set("sharded.queue_capacity",
                   ctx.options.shard_queue_capacity);
    ctx.report.Set("sharded.backpressure",
                   stream::ToString(*backpressure));
    ctx.report.Set("sharded.records_per_sec", top_rate);
    ctx.report.Set("sharded.one_shard_records_per_sec", one_shard_rate);
    ctx.report.Set("sharded.speedup", shard_speedup);
    ctx.report.Set("sharded.identical", sharded_identical);
    ctx.report.Set("sharded.backpressure_stalls",
                   static_cast<int64_t>(top_stalls));
    ctx.report.Set("sharded.queue_depth_peak",
                   static_cast<int64_t>(top_queue_peak));

    // Sharded zero-copy: route the phase-4 blobs whole, decode inside
    // the owning shard.
    {
      std::vector<stream::ShardedProvenanceService::BinaryPipeline> blobs;
      blobs.reserve(binaries.size());
      for (size_t i = 0; i < binaries.size(); ++i) {
        blobs.push_back({ctx.corpus.pipelines[i].config.pipeline_id,
                         binaries[i]});
      }
      stream::ShardRouterOptions shard_options;
      shard_options.shards = max_shards;
      shard_options.queue_capacity = static_cast<size_t>(
          std::max<int64_t>(2, ctx.options.shard_queue_capacity));
      shard_options.backpressure = *backpressure;
      shard_options.session.segmenter.seal_grace_hours =
          ctx.options.stream_seal_grace_hours;
      stream::ShardedProvenanceService service(shard_options);
      const auto t0 = Clock::now();
      auto result = service.IngestBinary(blobs);
      const double seconds =
          std::chrono::duration<double>(Clock::now() - t0).count();
      if (!result.ok() || !result->FirstError().ok()) {
        std::fprintf(stderr, "error: sharded binary ingest failed\n");
        return 1;
      }
      // Blobs shed like traces: a full queue drops the whole blob.
      const bool binary_identical = identical_to_batch(*result);
      sharded_identical = sharded_identical && binary_identical;
      const double rate =
          seconds > 0.0 ? static_cast<double>(result->records) / seconds
                        : 0.0;
      std::printf(
          "sharded binary ingest (%zu shards): %llu records in %.3fs "
          "(%.0f records/s, %zu shed) %s\n\n",
          max_shards, static_cast<unsigned long long>(result->records),
          seconds, rate, result->shed_pipelines,
          binary_identical ? "IDENTICAL" : "MISMATCH — BUG");
      ctx.report.Set("sharded.binary_records_per_sec", rate);
      ctx.report.Set("sharded.binary_identical", binary_identical);
    }
  }
  return identical && round_trip_identical && formats_identical &&
                 durable_identical && sharded_identical
             ? 0
             : 1;
}

}  // namespace
}  // namespace mlprov

int main(int argc, char** argv) { return mlprov::Run(argc, argv); }
