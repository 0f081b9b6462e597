#include "stream/shard_router.h"

#include <algorithm>
#include <chrono>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "common/parallel.h"
#include "core/segmentation.h"
#include "metadata/binary_serialization.h"
#include "metadata/trace_validator.h"
#include "obs/metrics.h"
#include "stream/supervisor.h"

namespace mlprov::stream {

namespace {

/// Hard cap on --shards: far above any useful fan-out on one host
/// (each shard is a pool thread) while catching typo'd flag values.
constexpr size_t kMaxShards = 256;

/// One element of a shard queue: a whole pipeline, the unit of routing.
/// The trace or blob stays borrowed from the caller, which outlives the
/// run, so an envelope is a handle of a few words and no record crosses
/// a thread. Exactly one of trace/binary is set.
struct Envelope {
  uint32_t slot = 0;
  int64_t pipeline_id = 0;
  const sim::PipelineTrace* trace = nullptr;
  const ShardedProvenanceService::BinaryPipeline* binary = nullptr;
};

/// Every record of a pipeline's feed: ProvenanceFeeder::Finish emits
/// each context, node and event of a trace exactly once, and an MLPB
/// header declares the same totals (a blob that does not open has none).
uint64_t FeedRecords(const Envelope& env) {
  if (env.trace != nullptr) {
    const metadata::MetadataStore& store = env.trace->store;
    return store.num_contexts() + store.num_executions() +
           store.num_artifacts() + store.num_events();
  }
  const auto cursor = metadata::BinaryStoreCursor::Open(env.binary->data);
  return cursor.ok() ? cursor->num_records() : 0;
}

/// Spin -> yield -> sleep wait ladder shared by the blocked router and
/// the idle workers. The sleep tier matters on machines with fewer
/// cores than shards: a pure spin would starve the thread that could
/// make progress.
class Backoff {
 public:
  void Pause() {
    ++spins_;
    if (spins_ < 64) return;
    if (spins_ < 512) {
      std::this_thread::yield();
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  void Reset() { spins_ = 0; }

 private:
  unsigned spins_ = 0;
};

/// Router-side tallies, flushed into the registry after every routed
/// pipeline ("shard.*" instruments).
struct RouterStats {
  uint64_t stalls = 0;
  uint64_t shed_records = 0;
  size_t shed_pipelines = 0;
  size_t queue_peak = 0;
};

SessionOptions MakeSessionOptions(const ShardRouterOptions& options,
                                  size_t shard, int64_t pipeline_id) {
  SessionOptions session = options.session;
  if (!session.name.empty()) {
    session.name += ".s" + std::to_string(shard) + ".p" +
                    std::to_string(pipeline_id);
  }
  return session;
}

/// One pipeline's plain or durable session, alive for one
/// ShardWorker::Ingest call. It is the feed's sink, so the feeder calls
/// it on the owning worker's thread and a record's borrowed span stats
/// stay valid for the whole Ingest call. The first failure is sticky:
/// the rest of the feed is ignored and Finish returns it.
class PipelineSession : public sim::ProvenanceSink {
 public:
  PipelineSession(const ShardRouterOptions& options, size_t shard,
                  int64_t pipeline_id) {
    const SessionOptions session =
        MakeSessionOptions(options, shard, pipeline_id);
    if (options.wal_dir.empty()) {
      session_ = std::make_unique<ProvenanceSession>(session);
      return;
    }
    DurableOptions durable;
    durable.wal.dir = options.wal_dir + "/shard" + std::to_string(shard) +
                      "/p" + std::to_string(pipeline_id);
    durable.wal.sync = options.wal_sync;
    durable.checkpoint_interval = options.checkpoint_interval;
    durable.session = session;
    auto opened = DurableSession::Open(durable);
    if (!opened.ok()) {
      status_ = opened.status();
      return;
    }
    durable_.emplace(std::move(*opened));
    skip_ = durable_->records();
  }

  /// The trace path. A recovered durable session already applied the
  /// first `skip_` records from its WAL and checkpoint, so they are
  /// acknowledged without re-ingest (the supervisor's re-feed contract).
  void OnRecord(const sim::ProvenanceRecord& record) override {
    if (!status_.ok()) return;
    if (skip_ > 0) {
      --skip_;
      ++ingested_;
      return;
    }
    Apply(durable_.has_value() ? durable_->Ingest(record)
                               : session_->Ingest(record));
  }

  /// The binary path, never durable (IngestBinary rejects a wal_dir).
  void OnRecord(const metadata::RecordRef& record) {
    if (status_.ok()) Apply(session_->Ingest(record));
  }

  const common::Status& status() const { return status_; }
  /// Records applied or acknowledged before the first failure.
  uint64_t ingested() const { return ingested_; }

  common::StatusOr<SessionResult> Finish() {
    if (!status_.ok()) return status_;
    return durable_.has_value() ? durable_->Finish() : session_->Finish();
  }

 private:
  void Apply(common::Status status) {
    if (status.ok()) {
      ++ingested_;
    } else {
      status_ = std::move(status);
    }
  }

  /// unique_ptr: the segmenter/featurizer observe the session's store by
  /// pointer, so the session must never move.
  std::unique_ptr<ProvenanceSession> session_;
  std::optional<DurableSession> durable_;
  uint64_t skip_ = 0;
  uint64_t ingested_ = 0;
  common::Status status_;
};

/// The per-shard consumer: ingests each pipeline routed to its shard and
/// settles its result slot. Ingest() is the single ingestion path of the
/// concurrent drain and the sequential schedule alike, so the two
/// schedules cannot diverge behaviorally.
class ShardWorker {
 public:
  ShardWorker(const ShardRouterOptions& options, size_t shard,
              std::vector<ShardPipelineResult>* slots)
      : options_(options), shard_(shard), slots_(slots) {}

  /// Validates, opens, feeds, finishes and settles one pipeline's slot.
  void Ingest(const Envelope& env) {
    ShardPipelineResult& out = (*slots_)[env.slot];
    out.slot = env.slot;
    out.pipeline_id = env.pipeline_id;
    out.shard = shard_;
    const uint64_t before = records_;
    if (env.trace != nullptr) {
      records_ += FeedRecords(env);
      IngestTrace(*env.trace, out);
    } else {
      IngestBinary(*env.binary, out);
    }
    MLPROV_COUNTER_ADD("shard.records", records_ - before);
  }

  /// Concurrent-mode loop: pop until the queue is both closed and
  /// drained. Close() happens-after every push (release/acquire), so
  /// observing closed() means no more items can appear after a final
  /// drain pass.
  void Drain(common::SpscQueue<Envelope>& queue) {
    Envelope env;
    Backoff backoff;
    for (;;) {
      if (queue.TryPop(env)) {
        backoff.Reset();
        Ingest(env);
        continue;
      }
      if (queue.closed()) {
        while (queue.TryPop(env)) Ingest(env);
        return;
      }
      backoff.Pause();
    }
  }

  /// Every record the feeds of this worker's pipelines yielded.
  uint64_t records() const { return records_; }

 private:
  void IngestTrace(const sim::PipelineTrace& trace,
                   ShardPipelineResult& out) {
    // Mirror core::SegmentCorpus exactly: validate first, quarantine
    // wholesale when the trace cannot be trusted, drop truncated
    // graphlets after Finish.
    const metadata::ValidationReport report = validator_.Validate(trace.store);
    if (report.NeedsQuarantine()) {
      out.quarantined = true;
      out.quarantined_graphlets =
          core::QuarantineTrace(trace.store, report, out.slot);
      return;
    }
    PipelineSession session(options_, shard_, out.pipeline_id);
    if (session.status().ok()) {
      sim::ProvenanceFeeder feeder(&session);
      feeder.Finish(trace);
    }
    Settle(session, out);
    if (!out.status.ok()) {
      // SegmentCorpus's fallback: a validated trace that still violates
      // the feed contract segments through the direct batch path
      // (byte-identical by the session identity guarantee).
      out.result = SessionResult{};
      out.result.graphlets = core::SegmentTrace(trace.store);
    }
    if (report.truncated_graphlets > 0) {
      out.quarantined_graphlets =
          core::DropTruncatedGraphlets(trace.store, out.result.graphlets);
    }
  }

  void IngestBinary(const ShardedProvenanceService::BinaryPipeline& pipeline,
                    ShardPipelineResult& out) {
    // The whole blob was routed here so the zero-copy cursor walk stays
    // on one thread: RecordRef views borrow cursor-internal scratch that
    // the next record overwrites.
    auto cursor = metadata::BinaryStoreCursor::Open(pipeline.data);
    if (!cursor.ok()) {
      out.status = cursor.status();
      return;
    }
    PipelineSession session(options_, shard_, out.pipeline_id);
    // Walked to the end even after the session fails, so `records_`
    // counts the whole blob, as the trace path counts the whole feed.
    metadata::RecordRef record;
    while (cursor->Next(&record)) {
      ++records_;
      session.OnRecord(record);
    }
    if (session.status().ok() && !cursor->status().ok()) {
      out.records = session.ingested();
      out.status = cursor->status();
      return;
    }
    Settle(session, out);
  }

  static void Settle(PipelineSession& session, ShardPipelineResult& out) {
    out.records = session.ingested();
    auto finished = session.Finish();
    if (finished.ok()) {
      out.result = std::move(*finished);
    } else {
      out.status = finished.status();
    }
  }

  const ShardRouterOptions& options_;
  const size_t shard_;
  std::vector<ShardPipelineResult>* slots_;
  const metadata::TraceValidator validator_;
  uint64_t records_ = 0;
};

/// Registry flush: cheap enough to run after every routed pipeline so
/// `obs_top` sees the run move, not just its final totals.
void FlushStats(const RouterStats& stats, RouterStats& flushed) {
  MLPROV_COUNTER_ADD("shard.backpressure_stalls",
                     stats.stalls - flushed.stalls);
  MLPROV_COUNTER_ADD("shard.shed_records",
                     stats.shed_records - flushed.shed_records);
  MLPROV_GAUGE_SET("shard.queue_depth",
                   static_cast<double>(stats.queue_peak));
  flushed = stats;
}

common::Status ValidateOptions(const ShardRouterOptions& options) {
  if (options.shards < 1 || options.shards > kMaxShards) {
    return common::Status::InvalidArgument(
        "shards must be in [1, " + std::to_string(kMaxShards) + "], got " +
        std::to_string(options.shards));
  }
  if (options.queue_capacity < 2) {
    return common::Status::InvalidArgument(
        "queue_capacity must be at least 2, got " +
        std::to_string(options.queue_capacity));
  }
  return common::Status::Ok();
}

/// Hands the envelopes, in submission order, to their shards' workers:
/// through the bounded queues on the concurrent schedule, or by direct
/// call on the sequential one. Both end in ShardWorker::Ingest.
class Router {
 public:
  Router(const ShardRouterOptions& options,
         std::vector<ShardPipelineResult>* slots)
      : options_(options), slots_(slots), worker_errors_(options.shards) {
    workers_.reserve(options.shards);
    for (size_t shard = 0; shard < options.shards; ++shard) {
      workers_.emplace_back(options, shard, slots);
    }
  }

  /// Concurrent schedule: a dedicated pool of shards + 1 threads — one
  /// router index plus one drain index per shard, grain 1, so the
  /// pigeonhole guarantees every index its own thread and the bounded
  /// queues cannot deadlock (the router is index 0, claimed by the
  /// first fetch_add, so it always runs).
  void RunConcurrent(const std::vector<Envelope>& items,
                     RouterStats& stats) {
    std::vector<std::unique_ptr<common::SpscQueue<Envelope>>> queues;
    queues.reserve(options_.shards);
    for (size_t shard = 0; shard < options_.shards; ++shard) {
      queues.push_back(std::make_unique<common::SpscQueue<Envelope>>(
          options_.queue_capacity));
    }
    std::exception_ptr router_error;
    common::ThreadPool pool(static_cast<int>(options_.shards) + 1);
    pool.ParallelFor(
        options_.shards + 1,
        [&](size_t index) {
          if (index == 0) {
            // Close every queue no matter how the router exits:
            // workers must always observe end-of-stream.
            try {
              RouteAll(items, queues, stats);
            } catch (...) {
              router_error = std::current_exception();
            }
            for (auto& queue : queues) queue->Close();
            return;
          }
          // Workers never throw out of the pool body: an unclaimed
          // index would then never drain its queue and the blocked
          // router could deadlock. Latch and keep draining instead.
          common::SpscQueue<Envelope>& queue = *queues[index - 1];
          try {
            workers_[index - 1].Drain(queue);
          } catch (...) {
            worker_errors_[index - 1] = std::current_exception();
            Envelope env;
            Backoff backoff;
            for (;;) {
              if (queue.TryPop(env)) continue;
              if (queue.closed()) break;
              backoff.Pause();
            }
          }
        },
        /*grain=*/1);
    if (router_error) std::rethrow_exception(router_error);
    for (std::exception_ptr& error : worker_errors_) {
      if (error) std::rethrow_exception(error);
    }
  }

  /// Sequential schedule (used when already inside a ParallelFor body,
  /// where pool loops run inline and a bounded queue would deadlock):
  /// the same envelopes, ingested synchronously by the same workers.
  /// Identical results by the merge-determinism property; never stalls
  /// or sheds.
  void RunSequential(const std::vector<Envelope>& items,
                     RouterStats& stats) {
    for (const Envelope& env : items) {
      workers_[ShardOf(env.pipeline_id, options_.shards)].Ingest(env);
      FlushStats(stats, flushed_);
    }
  }

  /// Every record the feeds of the pipelines that were not shed yielded.
  uint64_t records() const {
    uint64_t total = 0;
    for (const ShardWorker& worker : workers_) total += worker.records();
    return total;
  }

 private:
  void RouteAll(
      const std::vector<Envelope>& items,
      std::vector<std::unique_ptr<common::SpscQueue<Envelope>>>& queues,
      RouterStats& stats) {
    for (const Envelope& item : items) {
      const size_t shard = ShardOf(item.pipeline_id, options_.shards);
      common::SpscQueue<Envelope>& queue = *queues[shard];
      Envelope env = item;
      if (!queue.TryPush(env)) {
        if (options_.backpressure == BackpressurePolicy::kShed) {
          Shed(env, shard, stats);
          FlushStats(stats, flushed_);
          continue;
        }
        ++stats.stalls;  // one episode, however long the wait
        Backoff backoff;
        while (!queue.TryPush(env)) backoff.Pause();
      }
      stats.queue_peak = std::max(stats.queue_peak, queue.size());
      FlushStats(stats, flushed_);
    }
  }

  /// kShed: the pipeline is dropped whole, before any of its records is
  /// fed, so no session is ever half fed. The router settles the slot
  /// itself; it is excluded from the merge.
  void Shed(const Envelope& env, size_t shard, RouterStats& stats) {
    ShardPipelineResult& out = (*slots_)[env.slot];
    out.slot = env.slot;
    out.pipeline_id = env.pipeline_id;
    out.shard = shard;
    out.shed = true;
    stats.shed_records += FeedRecords(env);
    ++stats.shed_pipelines;
  }

  const ShardRouterOptions& options_;
  std::vector<ShardPipelineResult>* slots_;
  std::vector<ShardWorker> workers_;
  std::vector<std::exception_ptr> worker_errors_;
  RouterStats flushed_;
};

common::StatusOr<ShardedResult> Run(const ShardRouterOptions& options,
                                    const std::vector<Envelope>& items) {
  const common::Status valid = ValidateOptions(options);
  if (!valid.ok()) return valid;
  ShardedResult result;
  result.shards = options.shards;
  result.pipelines.resize(items.size());
  RouterStats stats;
  Router router(options, &result.pipelines);
  // One shard (or a reentrant call) needs no concurrency: the
  // sequential schedule produces identical results without queue
  // overhead.
  if (options.shards == 1 || common::InParallelRegion()) {
    router.RunSequential(items, stats);
  } else {
    router.RunConcurrent(items, stats);
  }
  result.records = router.records();
  result.backpressure_stalls = stats.stalls;
  result.shed_records = stats.shed_records;
  result.shed_pipelines = stats.shed_pipelines;
  result.queue_depth_peak = stats.queue_peak;
  MLPROV_COUNTER_ADD("shard.pipelines", items.size());
  // Parity with core::SegmentCorpus: the quarantine tally lands on the
  // same counter, sequentially after the join so it is exact.
  size_t quarantined = 0;
  for (const ShardPipelineResult& p : result.pipelines) {
    quarantined += p.quarantined_graphlets;
  }
  if (quarantined > 0) MLPROV_COUNTER_ADD("trace.quarantined", quarantined);
  return result;
}

}  // namespace

const char* ToString(BackpressurePolicy policy) {
  switch (policy) {
    case BackpressurePolicy::kBlock:
      return "block";
    case BackpressurePolicy::kShed:
      return "shed";
  }
  return "unknown";
}

common::StatusOr<BackpressurePolicy> ParseBackpressurePolicy(
    std::string_view text) {
  if (text == "block") return BackpressurePolicy::kBlock;
  if (text == "shed") return BackpressurePolicy::kShed;
  return common::Status::InvalidArgument(
      "unknown backpressure policy \"" + std::string(text) +
      "\"; expected block|shed");
}

core::SegmentedCorpus ShardedResult::ToSegmentedCorpus() const {
  core::SegmentedCorpus segmented;
  segmented.pipelines.resize(pipelines.size());
  for (size_t i = 0; i < pipelines.size(); ++i) {
    core::SegmentedPipeline& sp = segmented.pipelines[i];
    sp.pipeline_index = pipelines[i].slot;
    sp.graphlets = pipelines[i].result.graphlets;
    sp.quarantined_graphlets = pipelines[i].quarantined_graphlets;
  }
  return segmented;
}

std::vector<ScoreDecision> ShardedResult::MergedDecisions() const {
  std::vector<ScoreDecision> decisions;
  for (const ShardPipelineResult& p : pipelines) {
    decisions.insert(decisions.end(), p.result.decisions.begin(),
                     p.result.decisions.end());
  }
  return decisions;
}

WasteAccounting ShardedResult::TotalWaste() const {
  WasteAccounting total;
  for (const ShardPipelineResult& p : pipelines) {
    total.decisions += p.result.waste.decisions;
    total.aborts += p.result.waste.aborts;
    total.lost_pushes += p.result.waste.lost_pushes;
    total.avoided_hours += p.result.waste.avoided_hours;
  }
  return total;
}

common::Status ShardedResult::FirstError() const {
  for (const ShardPipelineResult& p : pipelines) {
    if (!p.status.ok()) return p.status;
  }
  return common::Status::Ok();
}

common::StatusOr<ShardedResult> ShardedProvenanceService::IngestCorpus(
    const sim::Corpus& corpus) {
  std::vector<Envelope> items(corpus.pipelines.size());
  for (size_t slot = 0; slot < items.size(); ++slot) {
    items[slot].slot = static_cast<uint32_t>(slot);
    items[slot].pipeline_id = corpus.pipelines[slot].config.pipeline_id;
    items[slot].trace = &corpus.pipelines[slot];
  }
  return Run(options_, items);
}

common::StatusOr<ShardedResult> ShardedProvenanceService::IngestBinary(
    const std::vector<BinaryPipeline>& pipelines) {
  if (!options_.wal_dir.empty()) {
    return common::Status::InvalidArgument(
        "durable mode (wal_dir) is not supported for binary ingest: the "
        "WAL journals provenance records, and the binary path never "
        "materializes owned records");
  }
  std::vector<Envelope> items(pipelines.size());
  for (size_t slot = 0; slot < items.size(); ++slot) {
    items[slot].slot = static_cast<uint32_t>(slot);
    items[slot].pipeline_id = pipelines[slot].pipeline_id;
    items[slot].binary = &pipelines[slot];
  }
  return Run(options_, items);
}

}  // namespace mlprov::stream
