// lineage_queries: deep traces from the tail of the lifespan and cadence
// distributions (long-lived, frequently retrained pipelines), serialized
// to MLPB and ingested through BinaryStoreCursor into indexed sessions
// that stay in memory, scorer off. A fixed analyst query mix runs
// interleaved with ingest: LineageOf on model artifacts, DescendantsOf on
// ExampleGen executions (the impact of a data span), and
// GraphletsTouchingSpan / TimeWindowSlice / AncestorsOf. Index label
// writes and reads on deep traces, and the zero-copy decode, do the work.

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "core/provenance_index.h"
#include "core/segmentation.h"
#ifdef PERFBENCH_TRACED
#include "ledger.h"
#endif
#include "metadata/binary_serialization.h"
#include "metadata/trace.h"
#include "stream/fingerprint.h"
#include "stream/session.h"

namespace perfbench {

namespace sim = mlprov::sim;
namespace core = mlprov::core;
namespace stream = mlprov::stream;
namespace metadata = mlprov::metadata;

namespace {

constexpr int kQueryPoints = 12;  // query batches per pipeline feed
constexpr size_t kPerClass = 8;  // queries per class per batch
constexpr int kWindows = 8;       // one-day windows per batch

enum QueryClass { kLineage, kImpact, kSpan, kWindow, kAncestors, kClasses };

/// The analyst queries asked after `records` records of one feed.
struct QueryBatch {
  size_t records = 0;
  std::vector<metadata::ArtifactId> models;       // LineageOf
  std::vector<metadata::ExecutionId> examplegens;  // DescendantsOf
  std::vector<metadata::ArtifactId> spans;        // GraphletsTouchingSpan
  std::vector<core::TimeWindowOptions> windows;   // TimeWindowSlice
  std::vector<metadata::ExecutionId> trainers;    // AncestorsOf
};

struct DeepPipeline {
  int64_t pipeline_id = 0;
  metadata::MetadataStore store;  // the feed prefix, materialized
  std::string blob;               // ...and serialized to MLPB
  std::vector<QueryBatch> batches;
  size_t queries = 0;
};

struct Inputs {
  std::vector<DeepPipeline> pipelines;
  uint64_t records = 0;
  size_t lineage_units = 0, impact_units = 0, batch_units = 0;
  size_t queries = 0;
  double setup_s = 0.0;
  double generate_s = 0.0;
};

/// Executions per session. Fixing executions (the index's dimension)
/// rather than records keeps label bytes and scan costs from swinging
/// with each pipeline's events-per-execution.
size_t SessionExecutions(const Options& options) {
  return options.tiny ? 150 : 4000;
}

/// Records of `feed` before its (executions+1)-th execution record.
size_t PrefixLength(const Feed& feed, size_t executions) {
  size_t seen = 0;
  for (size_t i = 0; i < feed.records.size(); ++i) {
    if (feed.records[i].kind == sim::ProvenanceRecord::Kind::kExecution &&
        ++seen > executions) {
      return i;
    }
  }
  return feed.records.size();
}

sim::CorpusConfig DeepConfig(const Options& options, uint64_t seed,
                             int pipelines) {
  sim::CorpusConfig config;
  config.seed = seed;
  config.num_pipelines = pipelines;
  config.lifespan_mu = 6.0;  // ~400 days: nearly all outlive the horizon
  config.rate_mu = 5.0;      // ~150 retrains a day
  config.max_graphlets_per_pipeline = options.tiny ? 60 : 900;
  config.warm_start_prob = 0.0;
  return config;
}

template <typename T>
std::vector<T> MostRecent(const std::vector<T>& ids, T limit, size_t count) {
  auto end = std::upper_bound(ids.begin(), ids.end(), limit);
  const size_t n = static_cast<size_t>(end - ids.begin());
  return std::vector<T>(ids.begin() + static_cast<long>(n - std::min(n, count)),
                        end);
}

template <typename T>
std::vector<T> Spread(const std::vector<T>& ids, T limit, size_t count) {
  auto end = std::upper_bound(ids.begin(), ids.end(), limit);
  const size_t n = static_cast<size_t>(end - ids.begin());
  std::vector<T> out;
  for (size_t i = 0; i < std::min(n, count); ++i) {
    out.push_back(ids[i * n / std::min(n, count)]);
  }
  return out;
}

/// Materializes the first `length` feed records (the replica a session
/// would hold) and plans the query batches against its prefixes.
DeepPipeline Prepare(const Feed& feed, size_t length) {
  DeepPipeline p;
  p.pipeline_id = feed.pipeline_id;
  stream::ProvenanceSession replica(ReplicaOptions());
  const metadata::MetadataStore& store = replica.store();
  std::vector<metadata::ArtifactId> models, spans;
  std::vector<metadata::ExecutionId> examplegens, trainers;
  std::vector<size_t> points;
  for (int k = 1; k <= kQueryPoints; ++k) points.push_back(length * k / kQueryPoints);
  size_t next_point = 0;
  metadata::Timestamp latest = 0;
  for (size_t i = 0; i < length; ++i) {
    const sim::ProvenanceRecord& r = feed.records[i];
    (void)replica.Ingest(r);
    if (r.kind == sim::ProvenanceRecord::Kind::kExecution) {
      if (r.execution.type == metadata::ExecutionType::kExampleGen) {
        examplegens.push_back(r.execution.id);
      } else if (r.execution.type == metadata::ExecutionType::kTrainer) {
        trainers.push_back(r.execution.id);
      }
      latest = std::max(latest, r.execution.end_time);
    } else if (r.kind == sim::ProvenanceRecord::Kind::kArtifact) {
      if (r.artifact.type == metadata::ArtifactType::kModel) {
        models.push_back(r.artifact.id);
      } else if (r.artifact.type == metadata::ArtifactType::kExamples) {
        spans.push_back(r.artifact.id);
      }
    }
    if (next_point < points.size() && i + 1 == points[next_point]) {
      QueryBatch b;
      b.records = i + 1;
      const auto execs = static_cast<metadata::ExecutionId>(store.num_executions());
      const auto arts = static_cast<metadata::ArtifactId>(store.num_artifacts());
      b.models = MostRecent(models, arts, kPerClass);
      b.examplegens = Spread(examplegens, execs, kPerClass);
      b.spans = MostRecent(spans, arts, kPerClass);
      b.trainers = MostRecent(trainers, execs, kPerClass);
      for (int w = 0; w < kWindows; ++w) {
        const metadata::Timestamp to = latest - w * metadata::kSecondsPerDay;
        b.windows.push_back({to - metadata::kSecondsPerDay, to});
      }
      p.queries += b.models.size() + b.examplegens.size() + b.spans.size() +
                   b.windows.size() + b.trainers.size();
      p.batches.push_back(std::move(b));
      ++next_point;
    }
  }
  p.store = ReplicaStore(replica, p.pipeline_id);
  p.blob = metadata::SerializeStoreBinary(p.store);
  return p;
}

std::unique_ptr<Inputs> Setup(const Options& options) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Inputs>();
  const size_t executions = SessionExecutions(options);
  // Cold-starting pipelines only: a warm-starting pipeline chains every
  // model to all earlier ones, so one such pipeline's whole-history
  // lineages alone would set the p99 and swing it with the seed. The
  // first feeds that reach the fixed execution count come first, then the
  // longest: equal session sizes keep the quadratic label cost steady.
  const auto g0 = Clock::now();
  const size_t take = options.tiny ? 3 : 12;
  const sim::Corpus pool = sim::GenerateCorpus(DeepConfig(
      options, DeriveSeed(options.seed, 11), static_cast<int>(take) + 3));
  in->generate_s += SecondsSince(g0);
  const std::vector<Feed> feeds = CollectFeeds(pool);
  std::vector<size_t> order(feeds.size());
  std::vector<size_t> execs(feeds.size());
  for (size_t i = 0; i < feeds.size(); ++i) {
    order[i] = i;
    execs[i] = std::min(executions, feeds[i].trace->store.num_executions());
  }
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return execs[a] > execs[b]; });
  for (size_t k = 0; k < take && k < order.size(); ++k) {
    const Feed& feed = feeds[order[k]];
    in->pipelines.push_back(Prepare(feed, PrefixLength(feed, executions)));
  }
  for (const DeepPipeline& p : in->pipelines) {
    in->records += p.batches.back().records;
    for (const QueryBatch& b : p.batches) {
      in->lineage_units += b.models.size();
      in->impact_units += b.examplegens.size();
      in->batch_units += 3;
    }
    in->queries += p.queries;
  }
  in->setup_s = SecondsSince(t0);
  return in;
}

uint64_t Hash(uint64_t acc, const std::vector<int64_t>& ids) {
  acc = Fold(acc, ids.size());
  for (int64_t id : ids) acc = Fold(acc, static_cast<uint64_t>(id));
  return acc;
}

/// Unit indices of one pass's timed queries.
struct Cursor {
  size_t lineage = 0, impact = 0, batch = 0;
  /// Operation unit of the next query (after the pipelines' units).
  size_t query = 0;
};

/// Query timing sinks: per-query best-of for the two slow classes,
/// per-batch best-of for the three cheap ones.
struct QueryTimes {
  BestOf lineage, impact, batches;
  std::array<double, kClasses> class_ns{};
  std::array<uint64_t, kClasses> class_queries{};
};

/// Runs one batch against a live session's query surface; every query
/// is an operation and a non-OK status a failed one.
void RunBatch(const core::TraceQuery& query, const QueryBatch& b,
              Cursor& cursor, QueryTimes& times, uint64_t& answers,
              Result& result) {
  const auto check = [&](auto&& status_or) {
    result.Outcome(cursor.query++, status_or.ok());
    return status_or.ok();
  };
  for (metadata::ArtifactId a : b.models) {
    const uint64_t t0 = NowNs();
    auto r = query.LineageOf(a);
    times.lineage.Observe(cursor.lineage++, static_cast<double>(NowNs() - t0));
    if (check(r)) {
      answers = Hash(Hash(Hash(answers, r->producers), r->executions),
                     r->artifacts);
    }
  }
  for (metadata::ExecutionId e : b.examplegens) {
    const uint64_t t0 = NowNs();
    auto r = query.DescendantsOf(e);
    times.impact.Observe(cursor.impact++, static_cast<double>(NowNs() - t0));
    if (check(r)) answers = Hash(answers, *r);
  }
  uint64_t t0 = NowNs();
  for (metadata::ArtifactId a : b.spans) {
    auto r = query.GraphletsTouchingSpan(a);
    if (check(r)) answers = Hash(answers, *r);
  }
  uint64_t t1 = NowNs();
  times.batches.Observe(cursor.batch++, static_cast<double>(t1 - t0));
  times.class_ns[kSpan] += static_cast<double>(t1 - t0);
  times.class_queries[kSpan] += b.spans.size();
  t0 = NowNs();
  for (const core::TimeWindowOptions& w : b.windows) {
    auto r = query.TimeWindowSlice(w);
    if (check(r)) answers = Hash(answers, *r);
  }
  t1 = NowNs();
  times.batches.Observe(cursor.batch++, static_cast<double>(t1 - t0));
  times.class_ns[kWindow] += static_cast<double>(t1 - t0);
  times.class_queries[kWindow] += b.windows.size();
  t0 = NowNs();
  for (metadata::ExecutionId e : b.trainers) {
    auto r = query.AncestorsOf(e);
    if (check(r)) answers = Hash(answers, *r);
  }
  t1 = NowNs();
  times.batches.Observe(cursor.batch++, static_cast<double>(t1 - t0));
  times.class_ns[kAncestors] += static_cast<double>(t1 - t0);
  times.class_queries[kAncestors] += b.trainers.size();
}

struct PassOutput {
  uint64_t answers = kFoldSeed;
  std::vector<uint64_t> graphlets;
};

/// Feeds one pipeline's blob into `session` (either a ProvenanceSession
/// or a TracedSession), running each query batch through `batch` when its
/// prefix is in. Returns the time spent in Next/Ingest/Finish.
template <typename Session, typename NextFn, typename BatchFn>
double FeedPipeline(const DeepPipeline& p, Session& session, NextFn&& next,
                    metadata::BinaryStoreCursor& cursor, BatchFn&& batch,
                    PassOutput& out, bool* ok) {
  metadata::RecordRef record;
  size_t ingested = 0;
  double ingest_ns = 0.0;
  uint64_t t0 = NowNs();
  for (const QueryBatch& b : p.batches) {
    bool last = &b == &p.batches.back();
    while (ingested < b.records && next(cursor, &record)) {
      if (!session.Ingest(record).ok()) {
        *ok = false;
        return ingest_ns;
      }
      ++ingested;
    }
    if (last) {
      auto finished = session.Finish();
      if (!finished.ok()) {
        *ok = false;
        return ingest_ns;
      }
      out.graphlets.push_back(stream::FingerprintGraphlets(finished->graphlets));
    }
    ingest_ns += static_cast<double>(NowNs() - t0);
    batch(session.Query(), b);
    t0 = NowNs();
  }
  *ok = ingested == p.batches.back().records && cursor.status().ok();
  return ingest_ns;
}

bool NextRecord(metadata::BinaryStoreCursor& cursor, metadata::RecordRef* r) {
  return cursor.Next(r);
}

void UntracedPass(const Inputs& in, BestOf& ingest_best, QueryTimes& times,
                  PassOutput& out, Result& result) {
  std::vector<std::unique_ptr<stream::ProvenanceSession>> sessions;
  Cursor units;
  units.query = in.pipelines.size();
  for (size_t i = 0; i < in.pipelines.size(); ++i) {
    const DeepPipeline& p = in.pipelines[i];
    auto cursor = metadata::BinaryStoreCursor::Open(p.blob);
    auto session = std::make_unique<stream::ProvenanceSession>();
    bool ok = cursor.ok();
    double ns = 0.0;
    if (ok) {
      const auto batch = [&](const core::TraceQuery& q, const QueryBatch& b) {
        RunBatch(q, b, units, times, out.answers, result);
      };
      ns = FeedPipeline(p, *session, NextRecord, *cursor, batch, out, &ok);
    }
    result.Outcome(i, ok);
    if (!ok) {
      result.Mismatch("lineage_queries: pipeline " +
                      std::to_string(p.pipeline_id) + " failed");
      continue;
    }
    ingest_best.Observe(i, ns);
    sessions.push_back(std::move(session));
  }
}

std::vector<int64_t> Sorted(std::vector<int64_t> v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// Outside the timed passes: replica bytes, graphlets and a fixed sample
/// of query answers against metadata::TraceView recomputes.
void CheckAnswers(const Inputs& in, const std::vector<PassOutput>& passes,
                  Result& result) {
  for (size_t p = 1; p < passes.size(); ++p) {
    if (passes[p].answers != passes[0].answers ||
        passes[p].graphlets != passes[0].graphlets) {
      result.Mismatch("lineage_queries: pass " + std::to_string(p) +
                      " answers differ from pass 0");
    }
  }
  uint64_t checked = 0;
  for (size_t i = 0; i < in.pipelines.size(); ++i) {
    const DeepPipeline& p = in.pipelines[i];
    auto cursor = metadata::BinaryStoreCursor::Open(p.blob);
    stream::ProvenanceSession session;
    metadata::RecordRef record;
    size_t ingested = 0;
    for (size_t k = 0; k < p.batches.size(); ++k) {
      const QueryBatch& b = p.batches[k];
      while (cursor.ok() && ingested < b.records && cursor->Next(&record)) {
        (void)session.Ingest(record);
        ++ingested;
      }
      if (k != 2 && k + 1 != p.batches.size()) continue;  // the sample
      const metadata::TraceView view(&session.store());
      const core::TraceQuery query = session.Query();
      for (metadata::ArtifactId a : b.models) {
        auto got = query.LineageOf(a);
        std::vector<int64_t> execs, arts = {a};
        const auto& producers = session.store().ProducersOf(a);
        for (metadata::ExecutionId e : producers) {
          execs.push_back(e);
          for (auto x : view.AncestorExecutions(e)) execs.push_back(x);
          for (auto x : view.AncestorArtifacts(e)) arts.push_back(x);
        }
        ++checked;
        if (!got.ok() || got->producers != producers ||
            got->executions != Sorted(execs) ||
            got->artifacts != Sorted(arts)) {
          result.Mismatch("lineage_queries: LineageOf(" + std::to_string(a) +
                          ") differs from TraceView");
        }
      }
      for (metadata::ExecutionId e : b.examplegens) {
        auto got = query.DescendantsOf(e);
        ++checked;
        if (!got.ok() || *got != view.DescendantExecutions(e)) {
          result.Mismatch("lineage_queries: DescendantsOf(" +
                          std::to_string(e) + ") differs from TraceView");
        }
      }
      for (metadata::ExecutionId e : b.trainers) {
        auto got = query.AncestorsOf(e);
        ++checked;
        if (!got.ok() || *got != view.AncestorExecutions(e)) {
          result.Mismatch("lineage_queries: AncestorsOf(" +
                          std::to_string(e) + ") differs from TraceView");
        }
      }
      for (const core::TimeWindowOptions& w : b.windows) {
        auto got = query.TimeWindowSlice(w);
        std::vector<int64_t> want;
        for (const metadata::Execution& e : session.store().executions()) {
          if (e.start_time < w.to && e.end_time >= w.from) want.push_back(e.id);
        }
        ++checked;
        if (!got.ok() || *got != want) {
          result.Mismatch("lineage_queries: TimeWindowSlice differs");
        }
      }
    }
    auto finished = session.Finish();
    const std::vector<core::Graphlet> batch = core::SegmentTrace(p.store);
    if (!finished.ok() || stream::FingerprintGraphlets(batch) !=
                              stream::FingerprintGraphlets(finished->graphlets)) {
      result.Mismatch("lineage_queries: pipeline " +
                      std::to_string(p.pipeline_id) +
                      " graphlets differ from batch SegmentTrace");
    }
    if (metadata::SerializeStoreBinary(session.store()) != p.blob) {
      result.Mismatch("lineage_queries: replica of pipeline " +
                      std::to_string(p.pipeline_id) + " differs from its MLPB");
    }
    // GraphletsTouchingSpan after Finish: every cell is freshly extracted.
    const core::TraceQuery query = session.Query();
    for (metadata::ArtifactId span : p.batches.back().spans) {
      std::vector<int64_t> want;
      for (const core::Graphlet& g : batch) {
        if (std::binary_search(g.artifacts.begin(), g.artifacts.end(), span)) {
          want.push_back(g.trainer);
        }
      }
      auto got = query.GraphletsTouchingSpan(span);
      ++checked;
      if (!got.ok() || *got != Sorted(want)) {
        result.Mismatch("lineage_queries: GraphletsTouchingSpan differs");
      }
    }
  }
  result.Count("answers_checked", checked);
  uint64_t graphlets = kFoldSeed;
  for (uint64_t g : passes[0].graphlets) graphlets = Fold(graphlets, g);
  result.Count("pipelines", in.pipelines.size());
  result.Count("records", in.records);
  result.Count("queries", in.queries);
  result.Fingerprint("answers", passes[0].answers);
  result.Fingerprint("graphlets", graphlets);
}

#ifdef PERFBENCH_TRACED
int RunTraced(const Options& options, const Inputs& in, Result& result) {
  Ledger ledger;
  const size_t n = in.pipelines.size();
  BestOf untraced_best(n), traced_best(n);
  std::vector<PassOutput> untraced;
  PassOutput traced;
  QueryTimes untraced_times, traced_times;
  for (QueryTimes* t : {&untraced_times, &traced_times}) {
    t->lineage.Resize(in.lineage_units);
    t->impact.Resize(in.impact_units);
    t->batches.Resize(in.batch_units);
  }
  size_t traced_passes = 0;
  uint64_t label_bytes = 0;  // summed over traced passes
  const auto start = Clock::now();
  while (traced_passes == 0 || SecondsSince(start) < options.seconds) {
    PassOutput out;
    UntracedPass(in, untraced_best, untraced_times, out, result);
    untraced.push_back(std::move(out));

    traced = PassOutput{};
    std::vector<std::unique_ptr<TracedSession>> sessions;
    Cursor units;
    units.query = n;
    for (size_t i = 0; i < n; ++i) {
      const DeepPipeline& p = in.pipelines[i];
      auto cursor = metadata::BinaryStoreCursor::Open(p.blob);
      auto session = std::make_unique<TracedSession>(stream::SessionOptions{},
                                                     &ledger, p.pipeline_id);
      const int32_t root = ledger.Open("pipeline", p.pipeline_id, NowNs());
      const auto timed_next = [&](metadata::BinaryStoreCursor& c,
                                  metadata::RecordRef* r) {
        LayerTimer t(&ledger, Layer::kDecode, p.pipeline_id);
        return c.Next(r);
      };
      bool ok = cursor.ok();
      double ns = 0.0;
      if (ok) {
        const auto batch = [&](const core::TraceQuery& q,
                               const QueryBatch& b) {
          const uint64_t q0 = NowNs();
          const int32_t span = ledger.Open("core.query", p.pipeline_id, q0);
          RunBatch(q, b, units, traced_times, traced.answers, result);
          const uint64_t q1 = NowNs();
          ledger.Close(span, q1);
          ledger.Add(Layer::kQuery, q1 - q0);
        };
        ns = FeedPipeline(p, *session, timed_next, *cursor, batch, traced,
                          &ok);
      }
      ledger.Close(root, NowNs());
      if (!ok) {
        result.Mismatch("lineage_queries traced: pipeline failed");
        continue;
      }
      traced_best.Observe(i, ns);
      label_bytes += session->index().label_bytes();
      sessions.push_back(std::move(session));
    }
    ++traced_passes;
  }
  CheckAnswers(in, untraced, result);
  result.Count("label_bytes", label_bytes / traced_passes);
  if (traced.answers != untraced[0].answers ||
      traced.graphlets != untraced[0].graphlets) {
    result.Mismatch("lineage_queries: traced answers differ from untraced");
  }
  const double records =
      static_cast<double>(in.records) * static_cast<double>(traced_passes);
  const double layers = ledger.NetNs(Layer::kStore) +
                        ledger.NetNs(Layer::kIndex) +
                        ledger.NetNs(Layer::kSegmenter);
  const auto per_query_us = [&](QueryClass c) {
    return traced_times.class_queries[c] > 0
               ? traced_times.class_ns[c] / 1e3 /
                     static_cast<double>(traced_times.class_queries[c])
               : 0.0;
  };
  result.Metric("simulator.generate_s", in.generate_s, "s");
  result.Metric("metadata.decode.ns_per_record",
                ledger.NetNs(Layer::kDecode) / records, "ns");
  result.Metric("metadata.store.ns_per_record",
                ledger.NetNs(Layer::kStore) / records, "ns");
  result.Metric("core.index.ns_per_record",
                ledger.NetNs(Layer::kIndex) / records, "ns");
  result.Metric("core.index.label_mb",
                static_cast<double>(label_bytes) / static_cast<double>(traced_passes) /
                    1048576.0,
                "MB");
  result.Metric("stream.segmenter.ns_per_record",
                ledger.NetNs(Layer::kSegmenter) / records, "ns");
  result.Metric("core.query.span_us", per_query_us(kSpan), "us");
  result.Metric("core.query.window_us", per_query_us(kWindow), "us");
  result.Metric("core.query.ancestors_us", per_query_us(kAncestors), "us");
  const double session_ns = ledger.NetNs(Layer::kSession);
  result.Metric("trace.unattributed_share",
                session_ns > 0.0
                    ? std::max(0.0, session_ns - layers) / session_ns
                    : 0.0,
                "share");
  result.Metric("trace.overhead_share",
                untraced_best.Sum() > 0.0
                    ? traced_best.Sum() / untraced_best.Sum() - 1.0
                    : 0.0,
                "share");
  WriteLedger(ledger, options, result);
  return 0;
}

#endif  // PERFBENCH_TRACED
}  // namespace

int RunLineageQueries(const Options& options, Result& result) {
  std::unique_ptr<Inputs> in;
  std::vector<double> setups;
  for (int round = 0; round < (options.trace ? 1 : 3); ++round) {
    in.reset();
    in = Setup(options);
    setups.push_back(in->setup_s);
  }
  if (in->pipelines.empty()) {
    std::fprintf(stderr, "error: lineage_queries: no deep pipelines\n");
    return 1;
  }
#ifdef PERFBENCH_TRACED
  if (options.trace) return RunTraced(options, *in, result);
#endif

  BestOf ingest_best(in->pipelines.size());
  QueryTimes times;
  times.lineage.Resize(in->lineage_units);
  times.impact.Resize(in->impact_units);
  times.batches.Resize(in->batch_units);
  std::vector<PassOutput> passes;
  const double baseline_mb = ResetPeakRss();
  const auto start = Clock::now();
  while (passes.size() < 2 || SecondsSince(start) < options.seconds) {
    PassOutput out;
    UntracedPass(*in, ingest_best, times, out, result);
    passes.push_back(std::move(out));
  }
  const double peak_mb = PeakRssMb() - baseline_mb;
  CheckAnswers(*in, passes, result);
  result.Count("passes", passes.size());

  result.Metric("setup_s", Median(setups), "s");
  result.Metric("records_per_s",
                static_cast<double>(in->records) / (ingest_best.Sum() / 1e9),
                "records/s");
  result.Metric("peak_rss_mb", peak_mb, "MB");
  const double query_ns =
      times.lineage.Sum() + times.impact.Sum() + times.batches.Sum();
  result.Metric("queries_per_s",
                static_cast<double>(in->queries) / (query_ns / 1e9),
                "queries/s");
  const std::vector<double> lineage = times.lineage.Values();
  const std::vector<double> impact = times.impact.Values();
  result.Percentile("lineage_latency_us_p50", lineage, 0.50, 1e-3, "us");
  result.Percentile("lineage_latency_us_p99", lineage, 0.99, 1e-3, "us");
  result.Percentile("impact_latency_us_p50", impact, 0.50, 1e-3, "us");
  result.Percentile("impact_latency_us_p99", impact, 0.99, 1e-3, "us");
  return 0;
}

}  // namespace perfbench
