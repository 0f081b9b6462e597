#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

// Shared plumbing of the repository benchmark: options, the result
// record (contract line + detailed report), best-of-passes timing,
// percentiles with their sample counts, resident-memory probes, and the
// feed/corpus helpers every workload builds its inputs with.

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "simulator/corpus.h"
#include "simulator/corpus_generator.h"
#include "simulator/provenance_sink.h"
#include "stream/session.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          Clock::now().time_since_epoch())
          .count());
}

inline double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test scale: a few pipelines, so every workload finishes in a
  /// second or two. Never used for reported figures.
  bool tiny = false;
  /// Scratch directory inside the checkout (WAL segments, checkpoints,
  /// span dumps). Created and removed by the run.
  std::string work_dir;
  std::string commit = "unknown";
};

/// Everything one run reports. The last stdout line is the contract
/// object (correct / attempted / failed / metrics); the line before it
/// is the detailed report: host and build, deterministic counts,
/// fingerprints, and each percentile with its sample count.
class Result {
 public:
  void Metric(const std::string& name, double value, const std::string& unit);
  void Count(const std::string& name, uint64_t value);
  void Fingerprint(const std::string& name, uint64_t value);
  void Note(const std::string& name, const std::string& value);
  void Note(const std::string& name, double value);
  /// A wrong output: the run stays correct=false whatever else happens.
  void Mismatch(const std::string& what);

  /// Emits `name` = the q-quantile of `samples` (times `scale`) unless
  /// fewer than ten samples lie beyond it, in which case the percentile
  /// is refused and only the refusal is reported.
  bool Percentile(const std::string& name, const std::vector<double>& samples,
                  double q, double scale, const std::string& unit);

  /// Records an operation's outcome. An operation is one unit of work
  /// (a pipeline's feed, a session's crash and recovery, a query), named
  /// by its index among the run's units. Timed passes repeat every unit;
  /// it counts once, as failed if it failed on any pass, so attempted and
  /// failed depend on the inputs alone, not on how many passes fit in
  /// --seconds.
  void Outcome(size_t unit, bool ok);
  uint64_t attempted() const;
  uint64_t failed() const;

  bool correct() const { return mismatches_.empty(); }
  std::string ReportJson(const Options& options) const;
  std::string ContractJson() const;

 private:
  struct MetricValue {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<MetricValue> metrics_;
  std::vector<std::pair<std::string, uint64_t>> counts_;
  std::vector<std::pair<std::string, uint64_t>> fingerprints_;
  std::vector<std::pair<std::string, std::string>> notes_;
  std::vector<std::string> mismatches_;
  std::vector<char> outcomes_;  // per unit: 0 not run, 1 ok, 2 failed
};

/// Best-of-passes timing. Every unit of work (a pipeline's feed, one
/// decision, one query, one session's recovery) runs once per pass over
/// the same inputs; its figure is its fastest pass. Other tenants of the
/// host only ever add time, so the fastest pass is the repeatable one.
class BestOf {
 public:
  explicit BestOf(size_t units = 0)
      : best_(units, std::numeric_limits<double>::infinity()) {}
  void Resize(size_t units) {
    best_.resize(units, std::numeric_limits<double>::infinity());
  }
  void Observe(size_t unit, double value) {
    if (value < best_[unit]) best_[unit] = value;
  }
  /// Sum over units that were observed at least once.
  double Sum() const;
  /// Observed units' best values.
  std::vector<double> Values() const;

 private:
  std::vector<double> best_;
};

/// Median of a small sample (the repeated set-up times).
double Median(std::vector<double> values);

/// Frees retained heap pages, then resets the kernel's resident
/// high-water mark so the timed phase's peak excludes set-up garbage.
/// Returns the resident size (MB) at the reset — the baseline.
double ResetPeakRss();
/// Highest resident size (MB) since the last reset.
double PeakRssMb();

/// One pipeline's live feed: the records a ProvenanceSink attached to the
/// producing simulator sees (span statistics borrowed from the trace).
struct Feed {
  int64_t pipeline_id = 0;
  const mlprov::sim::PipelineTrace* trace = nullptr;
  std::vector<mlprov::sim::ProvenanceRecord> records;
};

std::vector<Feed> CollectFeeds(const mlprov::sim::Corpus& corpus);

/// The default-calibrated population the shallow workloads sample from
/// (see README.md for the sizing).
mlprov::sim::CorpusConfig ShallowCorpusConfig(const Options& options,
                                              uint64_t seed);

/// Sessions of the shallow workloads without a scorer (durable_recovery,
/// sharded_ingest).
inline constexpr size_t kShallowSessions = 128;

/// The shallow workloads' input (live_scoring, durable_recovery and
/// sharded_ingest share it): `sessions` fixed-length feed prefixes of
/// calibrated pipelines, each a self-contained trace (store plus span
/// statistics). Adds the generator's time to `generate_s`.
mlprov::sim::Corpus ShallowCorpus(const Options& options, uint64_t seed,
                                  size_t sessions, double* generate_s);

/// Options of a session that only replicates a feed (no scorer, no
/// index), for building inputs.
mlprov::stream::SessionOptions ReplicaOptions();

/// An owned copy of a session's replicated store (through MLPB). Exits
/// the benchmark when the session rejected its feed or the copy fails:
/// inputs are built from the program's own output.
mlprov::metadata::MetadataStore ReplicaStore(
    const mlprov::stream::ProvenanceSession& session, int64_t pipeline_id);

/// Order-sensitive fold of 64-bit fingerprints.
uint64_t Fold(uint64_t acc, uint64_t value);
inline constexpr uint64_t kFoldSeed = 1469598103934665603ull;

/// Seed for an auxiliary input (e.g. the scorer's warm-up corpus) that
/// must differ from, but be determined by, the run's --seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t salt);

/// Removes `dir` recursively (missing is fine).
void RemoveTree(const std::string& dir);

/// Workload entry points (one translation unit each).
int RunLiveScoring(const Options& options, Result& result);
int RunDurableRecovery(const Options& options, Result& result);
int RunLineageQueries(const Options& options, Result& result);
int RunShardedIngest(const Options& options, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_
