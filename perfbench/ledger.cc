#include "ledger.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <utility>

#include "core/waste_mitigation.h"

namespace perfbench {

using mlprov::common::Status;
using mlprov::common::StatusOr;
namespace metadata = mlprov::metadata;
namespace stream = mlprov::stream;
namespace core = mlprov::core;
namespace sim = mlprov::sim;

const char* LayerName(Layer layer) {
  static constexpr std::array<const char*,
                              static_cast<size_t>(Layer::kCount)>
      kNames = {"session",   "metadata.store", "metadata.decode",
                "core.index", "stream.segmenter", "stream.extract_now",
                "core.features", "ml.forest", "stream.wal.append",
                "stream.wal.sync", "stream.checkpoint",
                "stream.recovery.checkpoint_load",
                "stream.recovery.wal_replay", "core.query"};
  return kNames[static_cast<size_t>(layer)];
}

Ledger::Ledger() {
  std::vector<double> deltas(4001);
  for (double& d : deltas) {
    const uint64_t a = NowNs();
    const uint64_t b = NowNs();
    d = static_cast<double>(b - a);
  }
  std::nth_element(deltas.begin(), deltas.begin() + deltas.size() / 2,
                   deltas.end());
  empty_interval_ns_ = deltas[deltas.size() / 2];
}

double Ledger::NetNs(Layer layer) const {
  const double net = static_cast<double>(ns(layer)) -
                     static_cast<double>(calls(layer)) * empty_interval_ns_;
  return std::max(0.0, net);
}

int32_t Ledger::Open(const char* name, int64_t pipeline, uint64_t start_ns) {
  const int32_t parent = stack_.empty() ? -1 : stack_.back();
  spans_.push_back({name, pipeline, start_ns, start_ns, parent});
  const auto index = static_cast<int32_t>(spans_.size() - 1);
  stack_.push_back(index);
  return index;
}

void Ledger::Close(int32_t span, uint64_t end_ns) {
  spans_[static_cast<size_t>(span)].end_ns = end_ns;
  if (!stack_.empty() && stack_.back() == span) stack_.pop_back();
}

std::vector<std::pair<std::string, double>> Ledger::SelfSeconds() const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      child_ns[static_cast<size_t>(s.parent)] +=
          static_cast<double>(s.end_ns - s.start_ns);
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const double own =
        static_cast<double>(spans_[i].end_ns - spans_[i].start_ns) -
        child_ns[i];
    self[spans_[i].name] += std::max(0.0, own) / 1e9;
  }
  return {self.begin(), self.end()};
}

bool Ledger::WriteSpans(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\": [";
  const uint64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    char line[256];
    std::snprintf(line, sizeof(line),
                  "%s\n{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %lld, \"ts\": %.3f, \"dur\": %.3f, "
                  "\"args\": {\"id\": %zu, \"parent\": %d}}",
                  i == 0 ? "" : ",", s.name, static_cast<long long>(s.pipeline),
                  static_cast<double>(s.start_ns - origin) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3, i,
                  s.parent);
    out << line;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

void WriteLedger(const Ledger& ledger, const Options& options,
                 Result& result) {
  const std::filesystem::path dir =
      std::filesystem::path(options.work_dir).parent_path() / "spans";
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const std::string path = (dir / (options.workload + "-seed" +
                                   std::to_string(options.seed) + ".json"))
                               .string();
  if (!ec && ledger.WriteSpans(path)) result.Note("spans.file", path);
  result.Note("spans.count", static_cast<double>(ledger.spans().size()));
  for (const auto& [name, seconds] : ledger.SelfSeconds()) {
    result.Note("spans.self_s." + name, seconds);
  }
}

// ---- TracedSession: ProvenanceSession, layer by layer ----

TracedSession::TracedSession(const stream::SessionOptions& options,
                             Ledger* ledger, int64_t pipeline)
    : options_(options),
      ledger_(ledger),
      pipeline_(pipeline),
      index_(&store_,
             core::ProvenanceIndexOptions{options.segmenter.segmentation}),
      segmenter_(&store_, options.segmenter) {
  if (options_.enable_index) segmenter_.AttachIndex(&index_);
  if (options_.scorer != nullptr) {
    featurizer_.emplace(&store_, &span_stats_,
                        options_.scorer->feature_options());
  }
}

Status TracedSession::Ingest(const sim::ProvenanceRecord& record) {
  if (finished_) {
    return Status::FailedPrecondition("record ingested after Finish()");
  }
  if (!status_.ok()) return status_;
  ledger_->BeginRecord();
  Status status;
  {
    LayerTimer timer(ledger_, Layer::kSession, pipeline_);
    status = IngestImpl(record);
    AfterRecord(status);
  }
  ledger_->EndRecord();
  return status;
}

Status TracedSession::Ingest(const metadata::RecordRef& record) {
  if (finished_) {
    return Status::FailedPrecondition("record ingested after Finish()");
  }
  if (!status_.ok()) return status_;
  ledger_->BeginRecord();
  Status status;
  {
    LayerTimer timer(ledger_, Layer::kSession, pipeline_);
    status = IngestImpl(record);
    AfterRecord(status);
  }
  ledger_->EndRecord();
  return status;
}

void TracedSession::AfterRecord(const Status& status) {
  if (!status.ok()) {
    status_ = status;
    return;
  }
  if (options_.scorer != nullptr) SettleSealed();
}

Status TracedSession::IngestImpl(const sim::ProvenanceRecord& record) {
  using Kind = sim::ProvenanceRecord::Kind;
  switch (record.kind) {
    case Kind::kContext: {
      metadata::ContextId assigned;
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        assigned = store_.PutContext(record.context);
      }
      if (record.context.id != metadata::kInvalidId &&
          record.context.id != assigned) {
        return Status::InvalidArgument("context id out of order");
      }
      context_ = assigned;
      return Status::Ok();
    }
    case Kind::kExecution: {
      const auto expected =
          static_cast<metadata::ExecutionId>(store_.num_executions()) + 1;
      if (record.execution.id != expected) {
        return Status::InvalidArgument("execution id out of order");
      }
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        store_.PutExecution(record.execution);
        if (context_ != metadata::kInvalidId) {
          MLPROV_RETURN_IF_ERROR(store_.AddToContext(context_, expected));
        }
      }
      if (options_.enable_index) {
        LayerTimer t(ledger_, Layer::kIndex, pipeline_);
        index_.OnExecution(record.execution);
      }
      {
        LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
        segmenter_.OnExecution(record.execution);
      }
      return Status::Ok();
    }
    case Kind::kArtifact: {
      const auto expected =
          static_cast<metadata::ArtifactId>(store_.num_artifacts()) + 1;
      if (record.artifact.id != expected) {
        return Status::InvalidArgument("artifact id out of order");
      }
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        store_.PutArtifact(record.artifact);
        if (context_ != metadata::kInvalidId) {
          MLPROV_RETURN_IF_ERROR(
              store_.AddArtifactToContext(context_, expected));
        }
      }
      if (record.span_stats != nullptr) {
        span_stats_.emplace(expected, *record.span_stats);
      }
      if (options_.enable_index) {
        LayerTimer t(ledger_, Layer::kIndex, pipeline_);
        index_.OnArtifact(record.artifact);
      }
      {
        LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
        segmenter_.OnArtifact(record.artifact);
      }
      return Status::Ok();
    }
    case Kind::kEvent: {
      Status put;
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        put = store_.PutEvent(record.event);
      }
      if (!put.ok()) return Status::InvalidArgument(put.message());
      if (options_.enable_index) {
        LayerTimer t(ledger_, Layer::kIndex, pipeline_);
        index_.OnEvent(record.event);
      }
      {
        LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
        segmenter_.OnEvent(record.event);
      }
      if (options_.scorer != nullptr) ScoreTriggers(record.event);
      return Status::Ok();
    }
  }
  return Status::Internal("unknown provenance record kind");
}

Status TracedSession::IngestImpl(const metadata::RecordRef& record) {
  using Kind = metadata::RecordRef::Kind;
  switch (record.kind) {
    case Kind::kContext: {
      metadata::ContextId assigned;
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        assigned = store_.PutContextBorrowed(record.context_name);
      }
      if (record.id != metadata::kInvalidId && record.id != assigned) {
        return Status::InvalidArgument("context id out of order");
      }
      context_ = assigned;
      return Status::Ok();
    }
    case Kind::kExecution: {
      const auto expected =
          static_cast<metadata::ExecutionId>(store_.num_executions()) + 1;
      if (record.id != expected) {
        return Status::InvalidArgument("execution id out of order");
      }
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        store_.PutExecutionBorrowed(record.execution_type, record.start_time,
                                    record.end_time, record.succeeded,
                                    record.compute_cost, record.properties);
        if (context_ != metadata::kInvalidId) {
          MLPROV_RETURN_IF_ERROR(store_.AddToContext(context_, expected));
        }
      }
      if (options_.enable_index) {
        LayerTimer t(ledger_, Layer::kIndex, pipeline_);
        index_.OnExecution(store_.executions().back());
      }
      {
        LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
        segmenter_.OnExecution(store_.executions().back());
      }
      return Status::Ok();
    }
    case Kind::kArtifact: {
      const auto expected =
          static_cast<metadata::ArtifactId>(store_.num_artifacts()) + 1;
      if (record.id != expected) {
        return Status::InvalidArgument("artifact id out of order");
      }
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        store_.PutArtifactBorrowed(record.artifact_type, record.create_time,
                                   record.properties);
        if (context_ != metadata::kInvalidId) {
          MLPROV_RETURN_IF_ERROR(
              store_.AddArtifactToContext(context_, expected));
        }
      }
      if (options_.enable_index) {
        LayerTimer t(ledger_, Layer::kIndex, pipeline_);
        index_.OnArtifact(store_.artifacts().back());
      }
      {
        LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
        segmenter_.OnArtifact(store_.artifacts().back());
      }
      return Status::Ok();
    }
    case Kind::kEvent: {
      Status put;
      {
        LayerTimer t(ledger_, Layer::kStore, pipeline_);
        put = store_.PutEvent(record.event);
      }
      if (!put.ok()) return Status::InvalidArgument(put.message());
      if (options_.enable_index) {
        LayerTimer t(ledger_, Layer::kIndex, pipeline_);
        index_.OnEvent(record.event);
      }
      {
        LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
        segmenter_.OnEvent(record.event);
      }
      if (options_.scorer != nullptr) ScoreTriggers(record.event);
      return Status::Ok();
    }
  }
  return Status::Internal("unknown record view kind");
}

StatusOr<stream::SessionResult> TracedSession::Finish() {
  if (!status_.ok()) return status_;
  if (finished_) return Status::FailedPrecondition("double Finish()");
  finished_ = true;
  LayerTimer timer(ledger_, Layer::kSession, pipeline_);
  stream::SessionResult result;
  {
    LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
    result.graphlets = segmenter_.Finish();
  }
  if (options_.scorer != nullptr) {
    EnsureCellScoring();
    SettleSealed();
    for (size_t cell = 0; cell < segmenter_.num_cells(); ++cell) {
      Settle(cell);
    }
    result.decisions = decisions_;
    result.waste = waste_;
  }
  return result;
}

void TracedSession::EnsureCellScoring() {
  if (cell_scoring_.size() < segmenter_.num_cells()) {
    cell_scoring_.resize(segmenter_.num_cells());
    decisions_.resize(segmenter_.num_cells());
  }
}

double TracedSession::Score(core::Variant variant,
                            const std::vector<double>& row) {
  LayerTimer t(ledger_, Layer::kForest, pipeline_);
  return options_.scorer->Score(variant, row);
}

void TracedSession::ScoreTriggers(const metadata::Event& event) {
  EnsureCellScoring();
  if (event.kind == metadata::EventKind::kOutput) {
    const size_t cell = segmenter_.CellOf(event.execution);
    if (cell != SIZE_MAX && !cell_scoring_[cell].early_scored) {
      EarlyScore(cell);
    }
    return;
  }
  for (metadata::ExecutionId producer : store_.ProducersOf(event.artifact)) {
    if (producer == event.execution) continue;
    const size_t cell = segmenter_.CellOf(producer);
    if (cell == SIZE_MAX) continue;
    if (!cell_scoring_[cell].early_scored) EarlyScore(cell);
    if (!cell_scoring_[cell].trainer_scored) TrainerScore(cell);
  }
}

void TracedSession::EarlyScore(size_t cell) {
  const core::Graphlet* g;
  {
    LayerTimer t(ledger_, Layer::kExtractNow, pipeline_);
    g = &segmenter_.ExtractNow(cell);
  }
  CellScoring& scoring = cell_scoring_[cell];
  {
    LayerTimer t(ledger_, Layer::kFeatures, pipeline_);
    scoring.row = featurizer_->Row(*g);
    featurizer_->Advance(*g);
  }
  stream::ScoreDecision& d = decisions_[cell];
  d.trainer = segmenter_.CellTrainer(cell);
  for (core::Variant variant :
       {core::Variant::kInput, core::Variant::kInputPre}) {
    const size_t v = static_cast<size_t>(variant);
    d.variant_scores[v] = Score(variant, scoring.row);
    d.variant_scored[v] = true;
  }
  scoring.early_scored = true;
  AdoptPolicy(d);
}

void TracedSession::TrainerScore(size_t cell) {
  const core::Graphlet* g;
  {
    LayerTimer t(ledger_, Layer::kExtractNow, pipeline_);
    g = &segmenter_.ExtractNow(cell);
  }
  CellScoring& scoring = cell_scoring_[cell];
  {
    LayerTimer t(ledger_, Layer::kFeatures, pipeline_);
    featurizer_->UpdateShapeColumns(*g, &scoring.row);
  }
  stream::ScoreDecision& d = decisions_[cell];
  d.trainer = segmenter_.CellTrainer(cell);
  const size_t v = static_cast<size_t>(core::Variant::kInputPreTrainer);
  d.variant_scores[v] = Score(core::Variant::kInputPreTrainer, scoring.row);
  d.variant_scored[v] = true;
  scoring.trainer_scored = true;
  AdoptPolicy(d);
}

void TracedSession::AdoptPolicy(stream::ScoreDecision& decision) {
  const core::Variant policy = options_.scorer->policy_variant();
  const size_t v = static_cast<size_t>(policy);
  decision.variant = policy;
  if (!decision.variant_scored[v]) return;
  decision.score = decision.variant_scores[v];
  decision.threshold = options_.scorer->Threshold(policy);
  decision.abort = decision.score < decision.threshold;
}

void TracedSession::SettleSealed() {
  EnsureCellScoring();
  std::vector<size_t> sealed;
  {
    LayerTimer t(ledger_, Layer::kSegmenter, pipeline_);
    sealed = segmenter_.TakeSealed();
  }
  for (size_t cell : sealed) Settle(cell);
}

void TracedSession::Settle(size_t cell) {
  CellScoring& scoring = cell_scoring_[cell];
  if (scoring.settled) return;
  const core::Graphlet& g = segmenter_.CellGraphlet(cell);
  stream::ScoreDecision& d = decisions_[cell];
  d.trainer = segmenter_.CellTrainer(cell);
  if (!scoring.early_scored) {
    LayerTimer t(ledger_, Layer::kFeatures, pipeline_);
    scoring.row = featurizer_->Row(g);
    featurizer_->Advance(g);
  } else if (!scoring.trainer_scored) {
    LayerTimer t(ledger_, Layer::kFeatures, pipeline_);
    featurizer_->UpdateShapeColumns(g, &scoring.row);
  }
  if (!scoring.early_scored || !scoring.trainer_scored) {
    for (size_t v = 0; v < stream::kStreamingVariants.size(); ++v) {
      if (!d.variant_scored[v]) {
        d.variant_scores[v] = Score(stream::kStreamingVariants[v], scoring.row);
      }
    }
    const size_t policy =
        static_cast<size_t>(options_.scorer->policy_variant());
    if (!d.variant_scored[policy]) {
      d.variant = options_.scorer->policy_variant();
      d.score = d.variant_scores[policy];
      d.threshold = options_.scorer->Threshold(d.variant);
      d.abort = d.score < d.threshold;
    }
  }
  d.settled = true;
  d.pushed = g.pushed;
  std::array<double, 4> costs;
  {
    LayerTimer t(ledger_, Layer::kFeatures, pipeline_);
    costs = featurizer_->StageCosts(g);
  }
  if (d.abort) {
    d.avoided_hours =
        std::max(0.0, costs[3] - costs[core::StageOf(d.variant)]);
    d.lost_push = d.pushed;
    ++waste_.aborts;
    waste_.avoided_hours += d.avoided_hours;
    if (d.lost_push) ++waste_.lost_pushes;
  }
  ++waste_.decisions;
  scoring.row.clear();
  scoring.row.shrink_to_fit();
  scoring.settled = true;
}

}  // namespace perfbench
