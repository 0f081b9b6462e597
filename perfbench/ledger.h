#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

// The traced run's per-layer ledger. The benchmark drives each layer's
// public functions itself, composed the way the program composes them
// (TracedSession mirrors stream::ProvenanceSession: a MetadataStore, a
// ProvenanceIndex, a StreamingSegmenter and, when scoring, a
// GraphletFeaturizer plus the OnlineScorer), and times every call:
//
//  - per-record calls are aggregated into per-layer totals, never one
//    span each;
//  - every Kth record, and every heavy per-pipeline call (checkpoint,
//    recovery, query batch), also gets a span: name, start, end, parent,
//    pipeline id. Spans stay in memory and are written out at the end.
//
// A layer's self time is its total minus the time of the calls nested
// in it; the session's own glue is what is left of TracedSession::Ingest
// once every layer call is subtracted.

#include <array>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <unordered_map>
#include <vector>

#include "common.h"
#include "common/status.h"
#include "core/features.h"
#include "core/provenance_index.h"
#include "metadata/binary_serialization.h"
#include "metadata/metadata_store.h"
#include "simulator/provenance_sink.h"
#include "stream/online_scorer.h"
#include "stream/session.h"
#include "stream/streaming_segmenter.h"

namespace perfbench {

enum class Layer : int {
  kSession = 0,  // TracedSession::Ingest / Finish as a whole (the parent)
  kStore,        // metadata: MetadataStore::Put*, PutEvent, AddToContext
  kDecode,       // metadata: BinaryStoreCursor::Next
  kIndex,        // core: ProvenanceIndex::On*
  kSegmenter,    // stream: StreamingSegmenter::On*, TakeSealed, Finish
  kExtractNow,   // stream: StreamingSegmenter::ExtractNow at decisions
  kFeatures,     // core: GraphletFeaturizer Row/Advance/Update/StageCosts
  kForest,       // ml: OnlineScorer::Score
  kWalAppend,    // stream: WalWriter::Append
  kWalSync,      // stream: WalWriter::Sync
  kCheckpoint,   // stream: WriteCheckpoint + PruneCheckpoints + PruneWal
  kCkptLoad,     // stream: LoadNewestCheckpoint + RestoreState
  kWalReplay,    // stream: ReadWal + replaying the tail through Ingest
  kQuery,        // core: TraceQuery batches (lineage_queries)
  kCount
};

const char* LayerName(Layer layer);

class Ledger {
 public:
  /// Every kSampleEvery-th record gets spans.
  static constexpr uint64_t kSampleEvery = 256;

  struct Span {
    const char* name;
    int64_t pipeline;
    uint64_t start_ns;
    uint64_t end_ns;
    int32_t parent;
  };

  Ledger();

  void Add(Layer layer, uint64_t ns) {
    ns_[static_cast<size_t>(layer)] += ns;
    ++calls_[static_cast<size_t>(layer)];
  }
  uint64_t ns(Layer layer) const { return ns_[static_cast<size_t>(layer)]; }
  uint64_t calls(Layer layer) const {
    return calls_[static_cast<size_t>(layer)];
  }
  /// Layer total minus the clock cost its timers added inside their own
  /// intervals (calls x an empty interval).
  double NetNs(Layer layer) const;

  /// Spans.
  int32_t Open(const char* name, int64_t pipeline, uint64_t start_ns);
  void Close(int32_t span, uint64_t end_ns);
  bool sampling() const { return sampling_; }
  /// Marks the start of one record: sampled records get spans.
  void BeginRecord() { sampling_ = (records_++ % kSampleEvery) == 0; }
  void EndRecord() { sampling_ = false; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Self time per span name: duration minus what child spans cover.
  std::vector<std::pair<std::string, double>> SelfSeconds() const;
  /// Writes the spans as Chrome trace-event JSON.
  bool WriteSpans(const std::string& path) const;

 private:
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> ns_{};
  std::array<uint64_t, static_cast<size_t>(Layer::kCount)> calls_{};
  std::vector<Span> spans_;
  std::vector<int32_t> stack_;
  uint64_t records_ = 0;
  bool sampling_ = false;
  double empty_interval_ns_ = 0.0;
};

/// Times one layer call: adds its duration to the layer total and, on a
/// sampled record, records it as a span under the innermost open span.
class LayerTimer {
 public:
  LayerTimer(Ledger* ledger, Layer layer, int64_t pipeline)
      : ledger_(ledger), layer_(layer), start_(NowNs()) {
    if (ledger_->sampling()) {
      span_ = ledger_->Open(LayerName(layer), pipeline, start_);
    }
  }
  ~LayerTimer() {
    const uint64_t end = NowNs();
    ledger_->Add(layer_, end - start_);
    if (span_ >= 0) ledger_->Close(span_, end);
  }
  LayerTimer(const LayerTimer&) = delete;
  LayerTimer& operator=(const LayerTimer&) = delete;

 private:
  Ledger* ledger_;
  Layer layer_;
  uint64_t start_;
  int32_t span_ = -1;
};

/// stream::ProvenanceSession rebuilt from its layers' public calls, each
/// timed into the ledger. Results (graphlets, decisions, waste) are
/// byte-identical to the session's; the benchmark checks it by
/// fingerprint on every traced run.
class TracedSession {
 public:
  TracedSession(const mlprov::stream::SessionOptions& options, Ledger* ledger,
                int64_t pipeline);
  TracedSession(const TracedSession&) = delete;
  TracedSession& operator=(const TracedSession&) = delete;

  mlprov::common::Status Ingest(const mlprov::sim::ProvenanceRecord& record);
  mlprov::common::Status Ingest(const mlprov::metadata::RecordRef& record);
  mlprov::common::StatusOr<mlprov::stream::SessionResult> Finish();

  const mlprov::core::ProvenanceIndex& index() const { return index_; }
  const mlprov::stream::StreamingSegmenter& segmenter() const {
    return segmenter_;
  }
  mlprov::core::TraceQuery Query() const {
    return mlprov::core::TraceQuery(&store_, &index_, &segmenter_);
  }

 private:
  mlprov::common::Status IngestImpl(const mlprov::sim::ProvenanceRecord& r);
  mlprov::common::Status IngestImpl(const mlprov::metadata::RecordRef& r);
  void AfterRecord(const mlprov::common::Status& status);
  void EnsureCellScoring();
  void ScoreTriggers(const mlprov::metadata::Event& event);
  void EarlyScore(size_t cell);
  void TrainerScore(size_t cell);
  void AdoptPolicy(mlprov::stream::ScoreDecision& decision);
  void SettleSealed();
  void Settle(size_t cell);
  double Score(mlprov::core::Variant variant, const std::vector<double>& row);

  mlprov::stream::SessionOptions options_;
  Ledger* ledger_;
  int64_t pipeline_;
  mlprov::metadata::MetadataStore store_;
  std::unordered_map<mlprov::metadata::ArtifactId,
                     mlprov::dataspan::SpanStats>
      span_stats_;
  mlprov::core::ProvenanceIndex index_;
  mlprov::stream::StreamingSegmenter segmenter_;
  mlprov::metadata::ContextId context_ = mlprov::metadata::kInvalidId;
  mlprov::common::Status status_;
  bool finished_ = false;

  std::optional<mlprov::core::GraphletFeaturizer> featurizer_;
  struct CellScoring {
    bool early_scored = false;
    bool trainer_scored = false;
    bool settled = false;
    std::vector<double> row;
  };
  std::vector<CellScoring> cell_scoring_;
  std::vector<mlprov::stream::ScoreDecision> decisions_;
  mlprov::stream::WasteAccounting waste_;
};

/// Writes the spans (Chrome trace-event JSON) beside the run's work
/// directory and notes each span name's self time in the report.
void WriteLedger(const Ledger& ledger, const Options& options, Result& result);

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
