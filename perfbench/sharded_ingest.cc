// sharded_ingest: the default feeds, scorer off, through
// ShardedProvenanceService::IngestCorpus with 2 shards (the router plus
// two workers: three threads, leaving one core of a four-core host to
// everything else) and block backpressure. The only workload that uses
// the shard router or more than one core.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "common.h"
#include "core/graphlet_analysis.h"
#ifdef PERFBENCH_TRACED
#include "ledger.h"
#endif
#include "stream/fingerprint.h"
#include "stream/session.h"
#include "stream/shard_router.h"

namespace perfbench {

namespace sim = mlprov::sim;
namespace core = mlprov::core;
namespace stream = mlprov::stream;

namespace {

/// With three shards the four threads fill a four-core host, whose other
/// load then sets the pace: records_per_s spread 0.11 over five seeds,
/// against 0.07 with two shards.
constexpr size_t kShards = 2;

struct Inputs {
  sim::Corpus corpus;
  uint64_t records = 0;
  double setup_s = 0.0;
  double generate_s = 0.0;
};

std::unique_ptr<Inputs> Setup(const Options& options) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Inputs>();
  in->corpus = ShallowCorpus(options, options.seed, kShallowSessions,
                             &in->generate_s);
  in->setup_s = SecondsSince(t0);
  return in;
}

stream::ShardRouterOptions RouterOptions(size_t shards) {
  stream::ShardRouterOptions options;
  options.shards = shards;
  options.queue_capacity = 1024;
  options.backpressure = stream::BackpressurePolicy::kBlock;
  return options;
}

uint64_t FingerprintSegmented(const core::SegmentedCorpus& segmented) {
  uint64_t fold = kFoldSeed;
  for (const core::SegmentedPipeline& sp : segmented.pipelines) {
    fold = Fold(fold, stream::FingerprintGraphlets(sp.graphlets));
    fold = Fold(fold, sp.quarantined_graphlets);
  }
  return fold;
}

struct PassOutput {
  uint64_t merged = 0;
  uint64_t stalls = 0;
  size_t queue_peak = 0;
};

/// One pass: the whole corpus in one IngestCorpus call through a fresh
/// service, the timing unit (its fastest pass counts).
void ShardedPass(Inputs& in, size_t shards, BestOf& call_best,
                 PassOutput& out, Result& result) {
  stream::ShardedProvenanceService service(RouterOptions(shards));
  const uint64_t t0 = NowNs();
  auto sharded = service.IngestCorpus(in.corpus);
  const uint64_t t1 = NowNs();
  if (!sharded.ok()) {
    for (size_t j = 0; j < in.corpus.pipelines.size(); ++j) {
      result.Outcome(j, false);
    }
    result.Mismatch("sharded_ingest: " + sharded.status().ToString());
    return;
  }
  for (const stream::ShardPipelineResult& p : sharded->pipelines) {
    result.Outcome(p.slot, !p.shed && p.status.ok());
  }
  call_best.Observe(0, static_cast<double>(t1 - t0));
  in.records = sharded->records;
  out.merged = FingerprintSegmented(sharded->ToSegmentedCorpus());
  out.stalls = sharded->backpressure_stalls;
  out.queue_peak = sharded->queue_depth_peak;
}

void CheckMerge(const Inputs& in, const std::vector<PassOutput>& passes,
                Result& result) {
  for (size_t p = 1; p < passes.size(); ++p) {
    if (passes[p].merged != passes[0].merged) {
      result.Mismatch("sharded_ingest: pass " + std::to_string(p) +
                      " merge differs from pass 0");
    }
  }
  const uint64_t batch = FingerprintSegmented(core::SegmentCorpus(in.corpus));
  if (passes[0].merged != batch) {
    result.Mismatch("sharded_ingest: merge differs from batch SegmentCorpus");
  }
  result.Count("pipelines", in.corpus.pipelines.size());
  result.Count("records", in.records);
  result.Fingerprint("merged", passes[0].merged);
}

#ifdef PERFBENCH_TRACED
/// Discards the feed: what is left is the router's serial walk.
struct NullSink : public sim::ProvenanceSink {
  void OnRecord(const sim::ProvenanceRecord&) override {}
};

int RunTraced(const Options& options, Inputs& in, Result& result) {
  Ledger ledger;
  const std::vector<Feed> feeds = CollectFeeds(in.corpus);
  const size_t n = feeds.size();
  BestOf sharded(1), one(1);
  BestOf walk(n), session_best(n), traced_best(n);
  std::vector<PassOutput> passes;
  std::vector<uint64_t> decomposed(n, 0), sessions(n, 0);
  std::vector<uint64_t> stalls;
  size_t queue_peak = 0, traced_passes = 0;
  uint64_t extractions = 0, cells = 0;
  double session_seconds = 0.0;
  size_t session_passes = 0;
  const auto start = Clock::now();
  while (traced_passes == 0 || SecondsSince(start) < options.seconds) {
    PassOutput out;
    ShardedPass(in, kShards, sharded, out, result);
    stalls.push_back(out.stalls);
    queue_peak = std::max(queue_peak, out.queue_peak);
    passes.push_back(std::move(out));
    PassOutput single;
    ShardedPass(in, 1, one, single, result);
    if (single.merged != passes[0].merged) {
      result.Mismatch("sharded_ingest: 1-shard merge differs from " +
                      std::to_string(kShards) + "-shard");
    }
    extractions = cells = 0;
    for (size_t i = 0; i < n; ++i) {
      NullSink sink;
      const uint64_t w0 = NowNs();
      sim::ProvenanceFeeder feeder(&sink);
      feeder.Finish(*feeds[i].trace);
      walk.Observe(i, static_cast<double>(NowNs() - w0));

      stream::ProvenanceSession session;
      const uint64_t s0 = NowNs();
      for (const sim::ProvenanceRecord& r : feeds[i].records) {
        (void)session.Ingest(r);
      }
      auto plain = session.Finish();
      const uint64_t s1 = NowNs();
      session_best.Observe(i, static_cast<double>(s1 - s0));
      session_seconds += static_cast<double>(s1 - s0) / 1e9;
      if (plain.ok()) sessions[i] = stream::FingerprintGraphlets(plain->graphlets);

      TracedSession traced(stream::SessionOptions{}, &ledger,
                           feeds[i].pipeline_id);
      const int32_t root = ledger.Open("pipeline", feeds[i].pipeline_id, NowNs());
      const uint64_t t0 = NowNs();
      for (const sim::ProvenanceRecord& r : feeds[i].records) {
        (void)traced.Ingest(r);
      }
      auto finished = traced.Finish();
      const uint64_t t1 = NowNs();
      ledger.Close(root, t1);
      traced_best.Observe(i, static_cast<double>(t1 - t0));
      if (finished.ok()) {
        decomposed[i] = stream::FingerprintGraphlets(finished->graphlets);
      }
      extractions += traced.segmenter().stats().extractions;
      cells += traced.segmenter().stats().cells;
    }
    ++session_passes;
    ++traced_passes;
  }
  uint64_t records = 0;
  for (const Feed& f : feeds) records += f.records.size();
  CheckMerge(in, passes, result);
  if (decomposed != sessions) {
    result.Mismatch("sharded_ingest: decomposed sessions differ");
  }
  std::vector<double> busy(kShards, 0.0);
  const std::vector<double> per_pipeline = session_best.Values();
  for (size_t i = 0; i < n && i < per_pipeline.size(); ++i) {
    busy[stream::ShardOf(feeds[i].pipeline_id, kShards)] +=
        per_pipeline[i];
  }
  const double busy_mean =
      std::accumulate(busy.begin(), busy.end(), 0.0) / kShards;
  const double per_record =
      1.0 / (static_cast<double>(records) * static_cast<double>(traced_passes));
  const double layers = ledger.NetNs(Layer::kStore) +
                        ledger.NetNs(Layer::kIndex) +
                        ledger.NetNs(Layer::kSegmenter);
  const double session_ns_per_record =
      session_seconds * 1e9 /
      (static_cast<double>(records) * static_cast<double>(session_passes));
  std::sort(stalls.begin(), stalls.end());

  result.Metric("simulator.generate_s", in.generate_s, "s");
  result.Metric("metadata.store.ns_per_record",
                ledger.NetNs(Layer::kStore) * per_record, "ns");
  result.Metric("core.index.ns_per_record",
                ledger.NetNs(Layer::kIndex) * per_record, "ns");
  result.Metric("stream.segmenter.ns_per_record",
                ledger.NetNs(Layer::kSegmenter) * per_record, "ns");
  result.Metric("stream.segmenter.extractions_per_graphlet",
                cells > 0 ? static_cast<double>(extractions) /
                                static_cast<double>(cells)
                          : 0.0,
                "ratio");
  result.Metric("stream.session.glue_ns_per_record",
                std::max(0.0, session_ns_per_record - layers * per_record),
                "ns");
  result.Metric("stream.shard_router.feed_ns_per_record",
                walk.Sum() / static_cast<double>(records), "ns");
  result.Metric("stream.shard_router.stalls",
                static_cast<double>(stalls[stalls.size() / 2]), "count");
  result.Metric("stream.shard_router.queue_depth_peak",
                static_cast<double>(queue_peak), "count");
  result.Metric("stream.shard_router.busy_skew",
                busy_mean > 0.0
                    ? *std::max_element(busy.begin(), busy.end()) / busy_mean
                    : 0.0,
                "ratio");
  result.Metric("stream.shard_router.speedup_vs_1_shard",
                sharded.Sum() > 0.0 ? one.Sum() / sharded.Sum() : 0.0,
                "ratio");
  const double session_total = ledger.NetNs(Layer::kSession);
  result.Metric("trace.unattributed_share",
                session_total > 0.0
                    ? std::max(0.0, session_total - layers) / session_total
                    : 0.0,
                "share");
  result.Metric("trace.overhead_share",
                session_best.Sum() > 0.0
                    ? traced_best.Sum() / session_best.Sum() - 1.0
                    : 0.0,
                "share");
  result.Note("untraced.records_per_s",
              static_cast<double>(records) / (sharded.Sum() / 1e9));
  result.Note("one_shard.records_per_s",
              static_cast<double>(records) / (one.Sum() / 1e9));
  WriteLedger(ledger, options, result);
  return 0;
}

#endif  // PERFBENCH_TRACED
}  // namespace

int RunShardedIngest(const Options& options, Result& result) {
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

  BestOf call_best(1);
  std::vector<PassOutput> passes;
  const double baseline_mb = ResetPeakRss();
  const auto start = Clock::now();
  while (passes.size() < 2 || SecondsSince(start) < options.seconds) {
    PassOutput out;
    ShardedPass(*in, kShards, call_best, out, result);
    passes.push_back(std::move(out));
  }
  const double peak_mb = PeakRssMb() - baseline_mb;
  CheckMerge(*in, passes, result);
  result.Count("passes", passes.size());
  result.Note("stalls.first_pass", static_cast<double>(passes[0].stalls));

  result.Metric("setup_s", Median(setups), "s");
  result.Metric("records_per_s",
                static_cast<double>(in->records) / (call_best.Sum() / 1e9),
                "records/s");
  result.Metric("peak_rss_mb", peak_mb, "MB");
  return 0;
}

}  // namespace perfbench
