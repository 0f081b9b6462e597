#include "common.h"

#include <malloc.h>
#include <sys/utsname.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <thread>

#include "common/rng.h"
#include "common/stats.h"
#include "metadata/binary_serialization.h"
#include "stream/session.h"

namespace perfbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as the same double: every digit the
/// measurement has, none it does not.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string ProcField(const char* path, const char* key) {
  std::ifstream in(path);
  std::string line;
  const size_t n = std::char_traits<char>::length(key);
  while (std::getline(in, line)) {
    if (line.compare(0, n, key) == 0) {
      const size_t colon = line.find(':');
      if (colon == std::string::npos) continue;
      size_t start = line.find_first_not_of(" \t", colon + 1);
      return start == std::string::npos ? "" : line.substr(start);
    }
  }
  return "";
}

double StatusKb(const char* key) {
  const std::string v = ProcField("/proc/self/status", key);
  return v.empty() ? 0.0 : std::strtod(v.c_str(), nullptr);
}

}  // namespace

void Result::Metric(const std::string& name, double value,
                    const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Result::Count(const std::string& name, uint64_t value) {
  counts_.emplace_back(name, value);
}

void Result::Fingerprint(const std::string& name, uint64_t value) {
  fingerprints_.emplace_back(name, value);
}

void Result::Note(const std::string& name, const std::string& value) {
  notes_.emplace_back(name, Quote(value));
}

void Result::Note(const std::string& name, double value) {
  notes_.emplace_back(name, Number(value));
}

void Result::Mismatch(const std::string& what) {
  std::fprintf(stderr, "MISMATCH: %s\n", what.c_str());
  mismatches_.push_back(what);
}

void Result::Outcome(size_t unit, bool ok) {
  if (outcomes_.size() <= unit) outcomes_.resize(unit + 1, 0);
  outcomes_[unit] = std::max<char>(outcomes_[unit], ok ? 1 : 2);
}

uint64_t Result::attempted() const {
  return static_cast<uint64_t>(outcomes_.size()) -
         static_cast<uint64_t>(
             std::count(outcomes_.begin(), outcomes_.end(), 0));
}

uint64_t Result::failed() const {
  return static_cast<uint64_t>(
      std::count(outcomes_.begin(), outcomes_.end(), 2));
}

bool Result::Percentile(const std::string& name,
                        const std::vector<double>& samples, double q,
                        double scale, const std::string& unit) {
  const double beyond = static_cast<double>(samples.size()) * (1.0 - q);
  Note(name + ".samples", static_cast<double>(samples.size()));
  if (samples.empty() || beyond < 10.0) {
    Note(name, "refused: fewer than ten samples beyond the percentile");
    return false;
  }
  Metric(name, mlprov::common::Quantile(samples, q) * scale, unit);
  return true;
}

std::string Result::ContractJson() const {
  std::string out = "{\"correct\": ";
  out += correct() ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted());
  out += ", \"failed\": " + std::to_string(failed());
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(metrics_[i].name) + ": {\"value\": " +
           Number(metrics_[i].value) + ", \"unit\": " +
           Quote(metrics_[i].unit) + "}";
  }
  return out + "}}";
}

std::string Result::ReportJson(const Options& options) const {
  utsname uts{};
  uname(&uts);
  std::string out = "{\"host\": {";
  out += "\"nproc\": " + std::to_string(std::thread::hardware_concurrency());
  out += ", \"cpu\": " + Quote(ProcField("/proc/cpuinfo", "model name"));
  out += ", \"kernel\": " + Quote(uts.release);
  out += "}, \"build\": {\"type\": " + Quote(PERFBENCH_BUILD_TYPE);
#ifdef MLPROV_OBS_NOOP
  out += ", \"MLPROV_OBS_NOOP\": true";
#else
  out += ", \"MLPROV_OBS_NOOP\": false";
#endif
  out += ", \"commit\": " + Quote(options.commit) + "}";
  out += ", \"workload\": " + Quote(options.workload);
  out += ", \"seed\": " + std::to_string(options.seed);
  out += ", \"seconds\": " + Number(options.seconds);
  out += ", \"trace\": " + std::string(options.trace ? "1" : "0");
  out += ", \"scale\": " + Quote(options.tiny ? "tiny" : "full");
  out += ", \"counts\": {";
  for (size_t i = 0; i < counts_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(counts_[i].first) + ": " + std::to_string(counts_[i].second);
  }
  out += "}, \"fingerprints\": {";
  for (size_t i = 0; i < fingerprints_.size(); ++i) {
    if (i > 0) out += ", ";
    char hex[24];
    std::snprintf(hex, sizeof(hex), "%016llx",
                  static_cast<unsigned long long>(fingerprints_[i].second));
    out += Quote(fingerprints_[i].first) + ": " + Quote(hex);
  }
  out += "}, \"notes\": {";
  for (size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(notes_[i].first) + ": " + notes_[i].second;
  }
  out += "}, \"mismatches\": [";
  for (size_t i = 0; i < mismatches_.size(); ++i) {
    if (i > 0) out += ", ";
    out += Quote(mismatches_[i]);
  }
  return out + "]}";
}

double BestOf::Sum() const {
  double sum = 0.0;
  for (double v : best_) {
    if (std::isfinite(v)) sum += v;
  }
  return sum;
}

std::vector<double> BestOf::Values() const {
  std::vector<double> out;
  out.reserve(best_.size());
  for (double v : best_) {
    if (std::isfinite(v)) out.push_back(v);
  }
  return out;
}

double Median(std::vector<double> values) {
  return mlprov::common::Quantile(std::move(values), 0.5);
}

double ResetPeakRss() {
  malloc_trim(0);
  std::ofstream clear("/proc/self/clear_refs");
  clear << "5";
  clear.close();
  return StatusKb("VmRSS") / 1024.0;
}

double PeakRssMb() { return StatusKb("VmHWM") / 1024.0; }

namespace {

struct CountingSink : public mlprov::sim::ProvenanceSink {
  size_t records = 0;
  void OnRecord(const mlprov::sim::ProvenanceRecord&) override { ++records; }
};

struct RecordingSink : public mlprov::sim::ProvenanceSink {
  std::vector<mlprov::sim::ProvenanceRecord>* out = nullptr;
  void OnRecord(const mlprov::sim::ProvenanceRecord& record) override {
    out->push_back(record);
  }
};

}  // namespace

std::vector<Feed> CollectFeeds(const mlprov::sim::Corpus& corpus) {
  std::vector<Feed> feeds(corpus.pipelines.size());
  for (size_t i = 0; i < feeds.size(); ++i) {
    const mlprov::sim::PipelineTrace& trace = corpus.pipelines[i];
    feeds[i].pipeline_id = trace.config.pipeline_id;
    feeds[i].trace = &trace;
    RecordingSink sink;
    sink.out = &feeds[i].records;
    mlprov::sim::ProvenanceFeeder feeder(&sink);
    feeder.Finish(trace);
  }
  return feeds;
}

mlprov::sim::CorpusConfig ShallowCorpusConfig(const Options& options,
                                              uint64_t seed) {
  mlprov::sim::CorpusConfig config;  // the calibrated population
  config.seed = seed;
  // The per-pipeline graphlet cap is the generator's memory bound, not a
  // calibration target; sessions use only a feed prefix anyway.
  config.max_graphlets_per_pipeline = options.tiny ? 12 : 100;
  return config;
}

mlprov::stream::SessionOptions ReplicaOptions() {
  mlprov::stream::SessionOptions options;
  options.enable_index = false;
  return options;
}

mlprov::metadata::MetadataStore ReplicaStore(
    const mlprov::stream::ProvenanceSession& session, int64_t pipeline_id) {
  auto store = mlprov::metadata::DeserializeStoreBinary(
      mlprov::metadata::SerializeStoreBinary(session.store()));
  const mlprov::common::Status& status =
      session.status().ok() ? store.status() : session.status();
  if (!status.ok()) {
    std::fprintf(stderr, "error: set-up of pipeline %lld: %s\n",
                 static_cast<long long>(pipeline_id),
                 status.ToString().c_str());
    std::exit(1);
  }
  return std::move(*store);
}

namespace {

/// Feeds the first `length` records of a feed into a session without
/// scorer or index: only its replicated store is wanted.
class PrefixSink : public mlprov::sim::ProvenanceSink {
 public:
  explicit PrefixSink(size_t length)
      : session(ReplicaOptions()), length_(length) {}
  void OnRecord(const mlprov::sim::ProvenanceRecord& r) override {
    if (fed_ == length_) return;
    ++fed_;
    (void)session.Ingest(r);
  }
  mlprov::stream::ProvenanceSession session;

 private:
  size_t length_;
  size_t fed_ = 0;
};

/// The trace a session holds after the first `length` records of
/// `trace`'s feed: its replicated store and the span statistics it
/// received.
mlprov::sim::PipelineTrace PrefixTrace(const mlprov::sim::PipelineTrace& trace,
                                       size_t length) {
  PrefixSink sink(length);
  mlprov::sim::ProvenanceFeeder feeder(&sink);
  feeder.Finish(trace);
  mlprov::sim::PipelineTrace prefix;
  prefix.config = trace.config;
  prefix.store = ReplicaStore(sink.session, trace.config.pipeline_id);
  prefix.span_stats = sink.session.span_stats();
  return prefix;
}

}  // namespace

mlprov::sim::Corpus ShallowCorpus(const Options& options, uint64_t seed,
                                  size_t sessions, double* generate_s) {
  // Every session holds the same number of records: with whole feeds a
  // sample's cost, memory and per-session percentiles follow its few
  // longest pipelines (index labels grow quadratically), and swing with
  // the seed far beyond any useful bound.
  if (options.tiny) sessions = 4;
  const size_t length = options.tiny ? 150 : 1000;
  mlprov::sim::CorpusConfig config = ShallowCorpusConfig(options, seed);
  // About five in eight calibrated pipelines reach the full length.
  config.num_pipelines =
      options.tiny ? 8 : static_cast<int>(sessions * 25 / 16);
  const auto g0 = Clock::now();
  const mlprov::sim::Corpus pool = mlprov::sim::GenerateCorpus(config);
  *generate_s += SecondsSince(g0);
  std::vector<size_t> sizes(pool.pipelines.size());
  std::vector<size_t> order(pool.pipelines.size());
  for (size_t i = 0; i < pool.pipelines.size(); ++i) {
    CountingSink count;
    mlprov::sim::ProvenanceFeeder feeder(&count);
    feeder.Finish(pool.pipelines[i]);
    sizes[i] = std::min(length, count.records);
    order[i] = i;
  }
  // Pool order, pipelines that reach the full length first.
  std::stable_sort(order.begin(), order.end(),
                   [&](size_t a, size_t b) { return sizes[a] > sizes[b]; });
  mlprov::sim::Corpus corpus;
  corpus.config = pool.config;
  for (size_t k = 0; k < sessions && k < order.size(); ++k) {
    corpus.pipelines.push_back(PrefixTrace(pool.pipelines[order[k]], length));
  }
  return corpus;
}

uint64_t Fold(uint64_t acc, uint64_t value) {
  for (int i = 0; i < 8; ++i) {
    acc ^= (value >> (8 * i)) & 0xffu;
    acc *= 1099511628211ull;
  }
  return acc;
}

uint64_t DeriveSeed(uint64_t seed, uint64_t salt) {
  return mlprov::common::Rng::Derive(seed, salt, 0).NextUint64();
}

void RemoveTree(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
