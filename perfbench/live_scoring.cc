// live_scoring: the §5 online path. The default-calibrated feeds, as the
// records (with span statistics) a live ProvenanceSink sees, are replayed
// into one indexed ProvenanceSession per pipeline with an OnlineScorer
// (policy RF:Input) trained during set-up on a separate warm-up corpus.
// Extraction at intervention points, featurization and forest scoring do
// most of the work here; decode, the WAL and the router do none.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common.h"
#include "core/features.h"
#include "core/graphlet_analysis.h"
#include "core/segmentation.h"
#ifdef PERFBENCH_TRACED
#include "ledger.h"
#endif
#include "stream/fingerprint.h"
#include "stream/online_scorer.h"
#include "stream/session.h"

namespace perfbench {

namespace sim = mlprov::sim;
namespace core = mlprov::core;
namespace stream = mlprov::stream;
namespace metadata = mlprov::metadata;

namespace {

/// Twice the other shallow workloads' sessions: the decision-latency
/// tail is set by the few pipelines with the costliest graphlets, so more
/// pipelines keep it from swinging with the seed's sample.
constexpr size_t kSessions = 2 * kShallowSessions;

struct Inputs {
  sim::Corpus corpus;  // the feeds borrow traces and span stats from it
  std::vector<Feed> feeds;
  /// Per feed, ascending record indices of each graphlet's policy
  /// decision point: the trainer's first output event.
  std::vector<std::vector<uint32_t>> decision_points;
  /// Per feed, 1 when the program crashed on its scored session in the
  /// set-up probe (ProbeCrashes). Such pipelines are not fed.
  std::vector<char> crashes;
  /// First decision unit of each feed (units of fed feeds only).
  std::vector<size_t> decision_offset;
  size_t decision_units = 0;
  uint64_t fed_records = 0;
  std::optional<stream::OnlineScorer> scorer;
  double setup_s = 0.0;
  double generate_s = 0.0;
  double train_s = 0.0;
};

std::unique_ptr<Inputs> Setup(const Options& options, std::string* error) {
  const auto t0 = Clock::now();
  auto in = std::make_unique<Inputs>();

  sim::CorpusConfig warm_config =
      ShallowCorpusConfig(options, DeriveSeed(options.seed, 1));
  warm_config.num_pipelines = options.tiny ? 6 : 40;
  const auto g0 = Clock::now();
  const sim::Corpus warm = sim::GenerateCorpus(warm_config);
  in->generate_s += SecondsSince(g0);

  const auto c0 = Clock::now();
  const core::SegmentedCorpus segmented = core::SegmentCorpus(warm);
  auto dataset = core::BuildWasteDataset(warm, segmented);
  if (!dataset.ok()) {
    *error = "warm-up dataset: " + dataset.status().ToString();
    return nullptr;
  }
  stream::OnlineScorerOptions scorer_options;
  scorer_options.policy_variant = core::Variant::kInput;
  auto scorer = stream::OnlineScorer::Train(*dataset, scorer_options);
  if (!scorer.ok()) {
    *error = "scorer training: " + scorer.status().ToString();
    return nullptr;
  }
  in->scorer.emplace(std::move(*scorer));
  in->train_s = SecondsSince(c0);

  in->corpus = ShallowCorpus(options, options.seed, kSessions, &in->generate_s);
  in->feeds = CollectFeeds(in->corpus);

  for (const Feed& feed : in->feeds) {
    std::vector<char> is_trainer(feed.records.size() + 1, 0);
    std::vector<char> seen;
    std::vector<uint32_t> points;
    for (size_t k = 0; k < feed.records.size(); ++k) {
      const sim::ProvenanceRecord& r = feed.records[k];
      if (r.kind == sim::ProvenanceRecord::Kind::kExecution) {
        const auto id = static_cast<size_t>(r.execution.id);
        if (seen.size() <= id) seen.resize(id + 1, 0);
        if (is_trainer.size() <= id) is_trainer.resize(id + 1, 0);
        is_trainer[id] =
            r.execution.type == metadata::ExecutionType::kTrainer ? 1 : 0;
      } else if (r.kind == sim::ProvenanceRecord::Kind::kEvent &&
                 r.event.kind == metadata::EventKind::kOutput) {
        const auto id = static_cast<size_t>(r.event.execution);
        if (id < is_trainer.size() && is_trainer[id] && !seen[id]) {
          seen[id] = 1;
          points.push_back(static_cast<uint32_t>(k));
        }
      }
    }
    in->decision_points.push_back(std::move(points));
  }
  in->setup_s = SecondsSince(t0);
  return in;
}

stream::SessionOptions SessionOptionsFor(const Inputs& in) {
  stream::SessionOptions session;
  session.scorer = &*in.scorer;
  return session;
}

/// Finds the pipelines whose scored session crashes the program, by
/// running it: each feed goes once through a ProvenanceSession with the
/// scorer in a forked child, which reports each pipeline before feeding
/// it. A child killed by a signal marks the pipeline it was feeding, and
/// a fresh child resumes after it. Then lays out the decision units of
/// the pipelines that are fed. Untimed; returns false when a child cannot
/// be started or ends in any other abnormal way.
bool ProbeCrashes(Inputs& in, std::string* error) {
  const stream::SessionOptions session_options = SessionOptionsFor(in);
  in.crashes.assign(in.feeds.size(), 0);
  size_t next = 0;
  while (next < in.feeds.size()) {
    int fds[2];
    if (pipe(fds) != 0) {
      *error = "pipe failed";
      return false;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid < 0) {
      close(fds[0]);
      close(fds[1]);
      *error = "fork failed";
      return false;
    }
    if (pid == 0) {
      close(fds[0]);
      const rlimit no_core{0, 0};
      setrlimit(RLIMIT_CORE, &no_core);
      for (size_t i = next; i < in.feeds.size(); ++i) {
        const auto index = static_cast<uint32_t>(i);
        if (write(fds[1], &index, sizeof(index)) != sizeof(index)) _exit(3);
        stream::ProvenanceSession session(session_options);
        for (const sim::ProvenanceRecord& record : in.feeds[i].records) {
          if (!session.Ingest(record).ok()) break;
        }
        (void)session.Finish();
      }
      _exit(0);
    }
    close(fds[1]);
    size_t last = SIZE_MAX;
    uint32_t index = 0;
    for (;;) {
      const ssize_t n = read(fds[0], &index, sizeof(index));
      if (n == sizeof(index)) {
        last = index;
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else {
        break;
      }
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0) {
      if (errno != EINTR) {
        *error = "waitpid failed";
        return false;
      }
    }
    if (WIFEXITED(status) && WEXITSTATUS(status) == 0) break;
    if (!WIFSIGNALED(status) || last == SIZE_MAX || last < next) {
      *error = "probe child ended with status " + std::to_string(status);
      return false;
    }
    in.crashes[last] = 1;
    next = last + 1;
  }
  for (size_t i = 0; i < in.feeds.size(); ++i) {
    in.decision_offset.push_back(in.decision_units);
    if (in.crashes[i]) continue;
    in.decision_units += in.decision_points[i].size();
    in.fed_records += in.feeds[i].records.size();
  }
  return true;
}

/// What one pass produced, for the cross-pass and reference checks.
struct PassOutput {
  std::vector<uint64_t> graphlets;  // per feed (0 when not fed)
  std::vector<uint64_t> decisions;
  uint64_t extractions = 0;
  uint64_t cells = 0;
  uint64_t settled = 0;
  uint64_t aborts = 0;
  double seconds = 0.0;
};

/// One untraced pass through the top-level entry point: every fed
/// pipeline's feed into its own ProvenanceSession, kept alive (a live
/// fleet) until the pass ends.
void UntracedPass(const Inputs& in, BestOf& pipeline_best,
                  BestOf& decision_best, PassOutput& out, Result& result) {
  const stream::SessionOptions session_options = SessionOptionsFor(in);
  std::vector<std::unique_ptr<stream::ProvenanceSession>> fleet;
  fleet.reserve(in.feeds.size());
  out.graphlets.assign(in.feeds.size(), 0);
  out.decisions.assign(in.feeds.size(), 0);
  for (size_t i = 0; i < in.feeds.size(); ++i) {
    if (in.crashes[i]) {
      result.Outcome(i, false);
      continue;
    }
    const std::vector<sim::ProvenanceRecord>& records = in.feeds[i].records;
    const std::vector<uint32_t>& points = in.decision_points[i];
    auto session = std::make_unique<stream::ProvenanceSession>(session_options);
    size_t next = 0;
    bool ok = true;
    const uint64_t t0 = NowNs();
    for (size_t k = 0; k < records.size() && ok; ++k) {
      if (next < points.size() && points[next] == k) {
        const uint64_t a = NowNs();
        ok = session->Ingest(records[k]).ok();
        decision_best.Observe(in.decision_offset[i] + next,
                              static_cast<double>(NowNs() - a));
        ++next;
      } else {
        ok = session->Ingest(records[k]).ok();
      }
    }
    auto finished = session->Finish();
    const uint64_t t1 = NowNs();
    result.Outcome(i, ok && finished.ok());
    if (!ok || !finished.ok()) {
      result.Mismatch("live_scoring: pipeline " +
                      std::to_string(in.feeds[i].pipeline_id) +
                      " failed: " + session->status().ToString());
      continue;
    }
    pipeline_best.Observe(i, static_cast<double>(t1 - t0));
    out.seconds += static_cast<double>(t1 - t0) / 1e9;
    out.graphlets[i] = stream::FingerprintGraphlets(finished->graphlets);
    out.decisions[i] = stream::FingerprintDecisions(finished->decisions);
    const stream::SessionStats stats = session->stats();
    out.extractions += stats.segmenter.extractions;
    out.cells += stats.segmenter.cells;
    out.settled += finished->waste.decisions;
    out.aborts += finished->waste.aborts;
    fleet.push_back(std::move(session));
  }
}

/// Cross-pass and reference checks: identical fingerprints on every pass,
/// and streamed graphlets equal to batch core::SegmentTrace.
void CheckOutputs(const Inputs& in, const std::vector<PassOutput>& passes,
                  Result& result) {
  for (size_t p = 1; p < passes.size(); ++p) {
    if (passes[p].graphlets != passes[0].graphlets ||
        passes[p].decisions != passes[0].decisions) {
      result.Mismatch("live_scoring: pass " + std::to_string(p) +
                      " fingerprints differ from pass 0");
    }
  }
  for (size_t i = 0; i < in.feeds.size(); ++i) {
    if (in.crashes[i]) continue;
    const uint64_t batch = stream::FingerprintGraphlets(
        core::SegmentTrace(in.feeds[i].trace->store));
    if (passes[0].graphlets[i] != batch) {
      result.Mismatch("live_scoring: pipeline " +
                      std::to_string(in.feeds[i].pipeline_id) +
                      " graphlets differ from batch SegmentTrace");
    }
  }
}

void ReportCounts(const Inputs& in, const PassOutput& out, Result& result) {
  uint64_t graphlets = kFoldSeed, decisions = kFoldSeed;
  size_t skipped = 0;
  for (size_t i = 0; i < in.feeds.size(); ++i) {
    graphlets = Fold(graphlets, out.graphlets[i]);
    decisions = Fold(decisions, out.decisions[i]);
    skipped += in.crashes[i] ? 1 : 0;
  }
  result.Count("pipelines", in.feeds.size());
  result.Count("pipelines_skipped_scorer_crash", skipped);
  result.Count("records", in.fed_records);
  result.Count("decision_points", in.decision_units);
  result.Count("extractions", out.extractions);
  result.Count("graphlets", out.cells);
  result.Count("decisions", out.settled);
  result.Count("aborts", out.aborts);
  result.Fingerprint("graphlets", graphlets);
  result.Fingerprint("decisions", decisions);
}

#ifdef PERFBENCH_TRACED
int RunTraced(const Options& options, const Inputs& in, Result& result) {
  Ledger ledger;
  const stream::SessionOptions session_options = SessionOptionsFor(in);
  BestOf untraced_best(in.feeds.size()), traced_best(in.feeds.size());
  BestOf decision_best(in.decision_units);
  std::vector<PassOutput> untraced_passes;
  double untraced_seconds = 0.0, traced_seconds = 0.0;
  size_t traced_passes = 0;
  uint64_t traced_extractions = 0, traced_cells = 0, traced_settled = 0;
  std::vector<uint64_t> traced_graphlets(in.feeds.size(), 0);
  std::vector<uint64_t> traced_decisions(in.feeds.size(), 0);
  const auto start = Clock::now();
  while (traced_passes == 0 || SecondsSince(start) < options.seconds) {
    PassOutput out;
    UntracedPass(in, untraced_best, decision_best, out, result);
    untraced_seconds += out.seconds;
    untraced_passes.push_back(std::move(out));

    traced_extractions = traced_cells = traced_settled = 0;
    for (size_t i = 0; i < in.feeds.size(); ++i) {
      if (in.crashes[i]) continue;
      TracedSession session(session_options, &ledger, in.feeds[i].pipeline_id);
      const int32_t root =
          ledger.Open("pipeline", in.feeds[i].pipeline_id, NowNs());
      bool ok = true;
      const uint64_t t0 = NowNs();
      for (const sim::ProvenanceRecord& record : in.feeds[i].records) {
        if (!(ok = session.Ingest(record).ok())) break;
      }
      auto finished = session.Finish();
      const uint64_t t1 = NowNs();
      ledger.Close(root, t1);
      if (!ok || !finished.ok()) {
        result.Mismatch("live_scoring traced: pipeline " +
                        std::to_string(in.feeds[i].pipeline_id) + " failed");
        continue;
      }
      traced_best.Observe(i, static_cast<double>(t1 - t0));
      traced_seconds += static_cast<double>(t1 - t0) / 1e9;
      traced_graphlets[i] = stream::FingerprintGraphlets(finished->graphlets);
      traced_decisions[i] = stream::FingerprintDecisions(finished->decisions);
      traced_extractions += session.segmenter().stats().extractions;
      traced_cells += session.segmenter().stats().cells;
      traced_settled += finished->waste.decisions;
    }
    ++traced_passes;
  }
  CheckOutputs(in, untraced_passes, result);
  if (traced_graphlets != untraced_passes[0].graphlets ||
      traced_decisions != untraced_passes[0].decisions) {
    result.Mismatch("live_scoring: traced fingerprints differ from untraced");
  }
  ReportCounts(in, untraced_passes[0], result);

  const double records =
      static_cast<double>(in.fed_records) * static_cast<double>(traced_passes);
  const double per_record = records > 0.0 ? 1.0 / records : 0.0;
  const double passes = static_cast<double>(traced_passes);
  const double layers_ns =
      ledger.NetNs(Layer::kStore) + ledger.NetNs(Layer::kIndex) +
      ledger.NetNs(Layer::kSegmenter) + ledger.NetNs(Layer::kExtractNow) +
      ledger.NetNs(Layer::kFeatures) + ledger.NetNs(Layer::kForest);
  const double untraced_ns_per_record =
      untraced_seconds * 1e9 /
      (static_cast<double>(in.fed_records) * untraced_passes.size());
  const double settled = static_cast<double>(traced_settled);

  result.Metric("simulator.generate_s", in.generate_s, "s");
  result.Metric("core.train_s", in.train_s, "s");
  result.Metric("metadata.store.ns_per_record",
                ledger.NetNs(Layer::kStore) * per_record, "ns");
  result.Metric("core.index.ns_per_record",
                ledger.NetNs(Layer::kIndex) * per_record, "ns");
  result.Metric("stream.segmenter.ns_per_record",
                ledger.NetNs(Layer::kSegmenter) * per_record, "ns");
  result.Metric("stream.segmenter.extractions_per_graphlet",
                traced_cells > 0 ? static_cast<double>(traced_extractions) /
                                       static_cast<double>(traced_cells)
                                 : 0.0,
                "ratio");
  result.Metric("stream.segmenter.extract_now_us",
                ledger.calls(Layer::kExtractNow) > 0
                    ? ledger.NetNs(Layer::kExtractNow) / 1e3 /
                          static_cast<double>(ledger.calls(Layer::kExtractNow))
                    : 0.0,
                "us");
  result.Metric("core.features.us_per_decision",
                settled > 0.0 ? ledger.NetNs(Layer::kFeatures) / 1e3 /
                                    (settled * passes)
                              : 0.0,
                "us");
  result.Metric("ml.forest.us_per_score",
                ledger.calls(Layer::kForest) > 0
                    ? ledger.NetNs(Layer::kForest) / 1e3 /
                          static_cast<double>(ledger.calls(Layer::kForest))
                    : 0.0,
                "us");
  result.Metric("ml.forest.scores",
                static_cast<double>(ledger.calls(Layer::kForest)) / passes,
                "count");
  result.Metric("stream.session.glue_ns_per_record",
                std::max(0.0, untraced_ns_per_record - layers_ns * per_record),
                "ns");
  const double session_ns = ledger.NetNs(Layer::kSession);
  result.Metric("trace.unattributed_share",
                session_ns > 0.0 ? std::max(0.0, session_ns - layers_ns) /
                                       session_ns
                                 : 0.0,
                "share");
  result.Metric("trace.overhead_share",
                untraced_best.Sum() > 0.0
                    ? traced_best.Sum() / untraced_best.Sum() - 1.0
                    : 0.0,
                "share");
  result.Note("traced.records_per_s",
              traced_best.Sum() > 0.0
                  ? static_cast<double>(in.fed_records) /
                        (traced_best.Sum() / 1e9)
                  : 0.0);
  result.Note("untraced.records_per_s",
              untraced_best.Sum() > 0.0
                  ? static_cast<double>(in.fed_records) /
                        (untraced_best.Sum() / 1e9)
                  : 0.0);
  WriteLedger(ledger, options, result);
  return 0;
}

#endif  // PERFBENCH_TRACED
}  // namespace

int RunLiveScoring(const Options& options, Result& result) {
  std::string error;
  std::unique_ptr<Inputs> in;
  std::vector<double> setups;
  for (int round = 0; round < (options.trace ? 1 : 3); ++round) {
    in.reset();
    in = Setup(options, &error);
    if (in == nullptr) {
      std::fprintf(stderr, "error: live_scoring set-up: %s\n", error.c_str());
      return 1;
    }
    setups.push_back(in->setup_s);
  }
  result.Note("setup_s.rounds", static_cast<double>(setups.size()));
  if (!ProbeCrashes(*in, &error)) {
    std::fprintf(stderr, "error: live_scoring crash probe: %s\n",
                 error.c_str());
    return 1;
  }
#ifdef PERFBENCH_TRACED
  if (options.trace) return RunTraced(options, *in, result);
#endif

  BestOf pipeline_best(in->feeds.size());
  BestOf decision_best(in->decision_units);
  std::vector<PassOutput> passes;
  const double baseline_mb = ResetPeakRss();
  const auto start = Clock::now();
  while (passes.size() < 2 || SecondsSince(start) < options.seconds) {
    PassOutput out;
    UntracedPass(*in, pipeline_best, decision_best, out, result);
    passes.push_back(std::move(out));
  }
  const double peak_mb = PeakRssMb() - baseline_mb;
  CheckOutputs(*in, passes, result);
  ReportCounts(*in, passes[0], result);
  result.Count("passes", passes.size());

  result.Metric("setup_s", Median(setups), "s");
  result.Metric("records_per_s",
                static_cast<double>(in->fed_records) /
                    (pipeline_best.Sum() / 1e9),
                "records/s");
  result.Metric("peak_rss_mb", peak_mb, "MB");
  const std::vector<double> decisions = decision_best.Values();
  result.Percentile("decision_latency_us_p50", decisions, 0.50, 1e-3, "us");
  result.Percentile("decision_latency_us_p99", decisions, 0.99, 1e-3, "us");
  return 0;
}

}  // namespace perfbench
