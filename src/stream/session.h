#ifndef MLPROV_STREAM_SESSION_H_
#define MLPROV_STREAM_SESSION_H_

/// The streaming analysis surface: a ProvenanceSession consumes an
/// ordered MLMD event feed — one record at a time, live from a running
/// simulator (sim::ProvenanceSink) or replayed from a finished trace
/// (ReplayTrace) — and maintains the incremental segmenter plus the
/// optional online waste scorer over the growing trace. Batch analysis
/// is a thin wrapper over this: core::SegmentCorpus replays each
/// pipeline through a session, and Finish() is guaranteed byte-identical
/// to core::SegmentTrace on the same feed.
///
/// Error model: Ingest validates the feed-order contract documented in
/// simulator/provenance_sink.h (dense ids in order, events after their
/// endpoints, nothing after Finish). The first violation poisons the
/// session — the error is sticky, later Ingest calls return it
/// unchanged, and Finish surfaces it instead of results.
///
/// Online scoring: when SessionOptions carries a trained OnlineScorer,
/// the session featurizes each graphlet at its intervention points
/// (see online_scorer.h) and settles one abort/continue ScoreDecision
/// per graphlet when its cell seals, with avoided-hours accounting.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "core/features.h"
#include "core/graphlet.h"
#include "core/provenance_index.h"
#include "dataspan/span_stats.h"
#include "metadata/binary_serialization.h"
#include "metadata/metadata_store.h"
#include "obs/flight_recorder.h"
#include "obs/json.h"
#include "obs/metrics.h"
#include "simulator/provenance_sink.h"
#include "stream/online_scorer.h"
#include "stream/streaming_segmenter.h"

namespace mlprov::stream {

struct SessionOptions {
  StreamingSegmenterOptions segmenter;
  /// Optional trained scorer (borrowed; must outlive the session; may be
  /// shared across sessions — scoring is const). When null, the session
  /// only segments.
  const OnlineScorer* scorer = nullptr;
  /// Session name: the flight-recorder dump stem (flight_<name>.json)
  /// and the "session.<name>.*" health-gauge prefix. Empty keeps the
  /// flight recorder under a generic stem and skips gauge publication.
  std::string name;
  /// Flight-recorder ring sizes: last `flight_capacity` ingested records
  /// plus the same number of span/error entries.
  size_t flight_capacity = 64;
  /// Emit causal flow events (arrival/seal/decision) binding this
  /// session's work to the producing simulator spans. Off by default:
  /// a trace replayed through *two* sessions would finish the same flow
  /// twice, so exactly one session per trace should opt in (the bench
  /// scoring phase, the causality tests).
  bool emit_flows = false;
  /// Maintain an incremental core::ProvenanceIndex over the replicated
  /// store (fed record by record, in lockstep with the segmenter), so
  /// Query() serves interactive closure queries without recomputation.
  /// Segmentation does not read it. Disable to trade query capability
  /// for the labels' memory (~n/8 bytes per execution).
  bool enable_index = true;
};

/// Point-in-time health snapshot of one session — the "is this stream
/// keeping up?" surface published into the metric registry and rendered
/// by the obs_top example.
struct SessionHealth {
  std::string name;
  uint64_t records = 0;
  /// Max feed timestamp observed (simulated seconds).
  metadata::Timestamp watermark = 0;
  /// Hours between the watermark and the oldest unsealed trainer's end:
  /// how far behind the stream the slowest pending decision is. 0 when
  /// every cell is sealed.
  double seal_lag_hours = 0.0;
  uint64_t cells = 0;
  uint64_t sealed = 0;
  uint64_t open_cells = 0;
  uint64_t reseals = 0;
  uint64_t extractions = 0;
  /// Decisions settled / still pending (both 0 without a scorer).
  uint64_t decisions = 0;
  uint64_t pending_decisions = 0;
  /// Sticky feed-contract violation latched (see ProvenanceSession).
  bool poisoned = false;
  bool finished = false;
  /// Session state was rebuilt from a checkpoint + WAL replay rather
  /// than ingested in one uninterrupted run (see stream/checkpoint.h).
  bool recovered = false;

  obs::Json ToJson() const;
};

struct SessionStats {
  size_t records = 0;
  size_t contexts = 0;
  size_t executions = 0;
  size_t artifacts = 0;
  size_t events = 0;
  StreamingSegmenter::Stats segmenter;
};

/// Everything a finished session knows about its pipeline.
struct SessionResult {
  /// All graphlets in segmentation order — byte-identical to
  /// core::SegmentTrace over the replicated store.
  std::vector<core::Graphlet> graphlets;
  /// One settled decision per graphlet, in cell (trainer-arrival) order.
  /// Empty unless an OnlineScorer was attached.
  std::vector<ScoreDecision> decisions;
  WasteAccounting waste;
};

class ProvenanceSession : public sim::ProvenanceSink {
 public:
  explicit ProvenanceSession(const SessionOptions& options = {});

  /// Consumes the next record of the feed. Returns the first violation
  /// of the feed contract (sticky); OK records update the replicated
  /// store and the incremental segmenter.
  common::Status Ingest(const sim::ProvenanceRecord& record);

  /// Zero-copy variant for the binary ingest path: consumes a borrowed
  /// record view (see BinaryStoreCursor). Both overloads run one ingest
  /// body, so the feed-order contract, the sticky error model, the
  /// counters and the flight recorder are the same; the forms differ
  /// only in the node id the record claims, in how the node enters the
  /// store (views fill it through Put*Borrowed, copying each string
  /// once, so views only need to live for the duration of the call),
  /// and in the side tables: RecordRef carries no span context or span
  /// stats, matching any serialized feed (the text format does not
  /// persist them either). Graphlets stay byte-identical across formats,
  /// and so do unscored analyses; a scored session fed RecordRefs
  /// featurizes without span stats, so its decisions differ from a live
  /// feed's (ROADMAP item 2).
  common::Status Ingest(const metadata::RecordRef& record);

  /// ProvenanceSink adapter for live feeds: Ingest with the error
  /// latched into status() (a sink callback cannot fail upstream).
  void OnRecord(const sim::ProvenanceRecord& record) override {
    (void)Ingest(record);
  }

  /// Ends the feed and returns the final analysis. Further Ingest calls
  /// fail with FailedPrecondition. Surfaces the sticky error, if any.
  common::StatusOr<SessionResult> Finish();

  /// The replicated trace. Ids, adjacency, and properties match the
  /// producing store exactly (the feed-order contract makes dense id
  /// reassignment reproduce them).
  const metadata::MetadataStore& store() const { return store_; }
  /// The span stats the feed delivered, shared with the producer (the
  /// same objects the records carried, not copies).
  const dataspan::SpanStatsTable& span_stats() const { return span_stats_; }

  const common::Status& status() const { return status_; }
  bool finished() const { return finished_; }
  SessionStats stats() const;

  /// Point-in-time health snapshot (cheap: counters plus one O(cells)
  /// scan for the seal lag).
  SessionHealth Health() const;

  /// Publishes Health() into the global registry as "session.<name>.*"
  /// gauges. No-op when the session is unnamed or metrics are compiled
  /// out. Gauge pointers are resolved once and cached.
  void PublishHealth();

  /// The session's flight recorder (last K records + span/error events;
  /// dumped on poisoning, and by FlightRecorder::DumpAll on crashes).
  const obs::FlightRecorder& flight_recorder() const { return flight_; }
  obs::FlightRecorder& flight_recorder() { return flight_; }

  StreamingSegmenter& segmenter() { return segmenter_; }
  const StreamingSegmenter& segmenter() const { return segmenter_; }

  /// The incremental provenance index over the replicated store. Behind
  /// the store (InSync() false) when enable_index is off — CatchUp()
  /// brings it current on demand.
  const core::ProvenanceIndex& index() const { return index_; }
  core::ProvenanceIndex& index() { return index_; }

  /// The unified query surface over this session's trace: closure /
  /// lineage / graphlet / time-window queries decoded from the index,
  /// with the segmenter as the graphlet-membership source. Cheap to
  /// construct per use; valid while the session lives.
  core::TraceQuery Query() const {
    return core::TraceQuery(&store_, &index_, &segmenter_);
  }

  /// Live view of the scorer's settled accounting (final totals are in
  /// the SessionResult).
  const WasteAccounting& waste() const { return waste_; }

  /// Serializes the feed this session ingested — replicated store, span
  /// stats, arrival order, trace id, scorer flag — into a checkpoint
  /// payload; all other state is derived and rebuilt by replay. Defined
  /// in checkpoint.cc, which owns the durability wire format.
  void EncodeState(std::string& out) const;

  /// Rebuilds this (freshly constructed, same-options) session by
  /// replaying an EncodeState payload through Ingest in arrival order,
  /// and marks it recovered. Replayed records emit no causal flows but,
  /// like a WAL-tail replay, bump the per-record metrics and the flight
  /// recorder. The scorer itself is not persisted: recovery must attach
  /// the same trained scorer the original run used (it is const shared
  /// state, like the binary). On failure, discard the session.
  common::Status RestoreState(std::string_view payload);

  /// True when this session's state came from RestoreState.
  bool recovered() const { return recovered_; }

  /// Marks the session crash-recovered on the health surface. Set
  /// implicitly by RestoreState; DurableSession also sets it when state
  /// was rebuilt by WAL replay alone (no checkpoint existed yet).
  void MarkRecovered() { recovered_ = true; }

 private:
  // One ingest path serves both Ingest overloads: member templates over
  // the record type (sim::ProvenanceRecord or metadata::RecordRef),
  // defined and instantiated only in session.cc.
  /// Refuses records after Finish or a violation, runs IngestImpl, then
  /// logs the arrival or latches the violation, and settles sealed cells.
  template <typename Record>
  common::Status IngestSticky(const Record& record);
  template <typename Record>
  common::Status IngestImpl(const Record& record);
  /// Latches the violation into the flight recorder (with the violating
  /// record as context) and dumps it if a dump directory is configured.
  template <typename Record>
  void RecordPoisoning(const Record& record);

  // --- online scoring (no-ops when options_.scorer is null) ---
  /// Grows the per-cell scoring state to the segmenter's cell count.
  void EnsureCellScoring();
  /// Fires intervention-point scoring triggered by `event`.
  void ScoreTriggers(const metadata::Event& event);
  /// Scores the Input and Input+Pre variants (trainer inputs and
  /// pre-trainer shape are observable).
  void EarlyScore(size_t cell);
  /// Scores Input+Pre+Trainer (trainer shape complete).
  void TrainerScore(size_t cell);
  /// Copies the policy variant's score into the decision once available.
  void AdoptPolicy(ScoreDecision& decision);
  /// Drains newly sealed cells and settles their decisions.
  void SettleSealed();
  void Settle(size_t cell);

  SessionOptions options_;
  obs::FlightRecorder flight_;
  /// Causal trace id of the feed (pipeline id + 1), latched from the
  /// first execution record carrying a valid span context; 0 until then.
  uint64_t trace_id_ = 0;
  /// Cached "session.<name>.*" gauges, resolved on first PublishHealth.
  std::vector<obs::Gauge*> health_gauges_;
  metadata::MetadataStore store_;
  dataspan::SpanStatsTable span_stats_;
  core::ProvenanceIndex index_;   // observes store_; declared after it
  StreamingSegmenter segmenter_;  // observes store_
  metadata::ContextId context_ = metadata::kInvalidId;
  /// Kind of every successfully ingested record, in arrival order, as
  /// the WAL's frame tags ('C', 'E', 'A', 'V'). Checkpoints persist it
  /// so replay reproduces seal and reseal timing exactly.
  std::string arrivals_;
  bool finished_ = false;
  bool recovered_ = false;
  common::Status status_;
  SessionStats counts_;

  /// Featurizes over store_/span_stats_; engaged iff a scorer is set.
  std::optional<core::GraphletFeaturizer> featurizer_;
  struct CellScoring {
    bool early_scored = false;
    bool trainer_scored = false;
    bool settled = false;
    /// Full-schema row captured at the first intervention point; later
    /// probes refresh only its shape columns (history and input features
    /// stay as observed — that is the point of online scoring).
    std::vector<double> row;
  };
  std::vector<CellScoring> cell_scoring_;  // parallel to segmenter cells
  std::vector<ScoreDecision> decisions_;   // parallel to segmenter cells
  WasteAccounting waste_;
};

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_SESSION_H_
