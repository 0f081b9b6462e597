#include "core/provenance_index.h"

#include <algorithm>
#include <bit>

namespace mlprov::core {

using metadata::ArtifactId;
using metadata::ExecutionId;
using metadata::MetadataStore;

int IdBitset::CountTrailingZeros(uint64_t w) { return std::countr_zero(w); }

bool IdBitset::Set(size_t bit) {
  const size_t word = bit >> 6;
  if (word >= words_.size()) words_.resize(word + 1, 0);
  const uint64_t mask = uint64_t{1} << (bit & 63);
  if ((words_[word] & mask) != 0) return false;
  words_[word] |= mask;
  return true;
}

bool IdBitset::Test(size_t bit) const {
  const size_t word = bit >> 6;
  return word < words_.size() && ((words_[word] >> (bit & 63)) & 1) != 0;
}

bool IdBitset::UnionWith(const IdBitset& other) {
  if (other.words_.size() > words_.size()) {
    words_.resize(other.words_.size(), 0);
  }
  bool changed = false;
  for (size_t i = 0; i < other.words_.size(); ++i) {
    const uint64_t merged = words_[i] | other.words_[i];
    changed |= merged != words_[i];
    words_[i] = merged;
  }
  return changed;
}

ProvenanceIndex::ProvenanceIndex(const MetadataStore* store,
                                 const ProvenanceIndexOptions& /*options*/)
    : store_(store) {}

void ProvenanceIndex::OnArtifact(const metadata::Artifact& /*artifact*/) {
  ++indexed_artifacts_;
}

void ProvenanceIndex::OnExecution(const metadata::Execution& /*execution*/) {
  anc_.emplace_back();
  out_.emplace_back();
  ++indexed_executions_;
}

void ProvenanceIndex::OnEvent(const metadata::Event& event) {
  // Mirror the store's adjacency routing exactly: events with a dangling
  // endpoint never enter adjacency; kInput indexes as an input edge,
  // every other kind (including hostile enum values) as an output edge.
  if (event.execution >= 1 &&
      static_cast<size_t>(event.execution) <= store_->num_executions() &&
      event.artifact >= 1 &&
      static_cast<size_t>(event.artifact) <= store_->num_artifacts()) {
    if (event.kind == metadata::EventKind::kInput) {
      for (ExecutionId producer : store_->ProducersOf(event.artifact)) {
        AddEdge(producer, event.execution);
      }
    } else {
      for (ExecutionId consumer : store_->ConsumersOf(event.artifact)) {
        AddEdge(event.execution, consumer);
      }
    }
  }
  ++indexed_events_;
}

void ProvenanceIndex::CatchUp() {
  const size_t num_artifacts = store_->num_artifacts();
  anc_.resize(store_->num_executions());
  out_.resize(store_->num_executions());
  indexed_artifacts_ = num_artifacts;
  indexed_executions_ = store_->num_executions();
  if (indexed_events_ < store_->num_events()) {
    indexed_events_ = store_->num_events();
    // Edges come from the store's adjacency — the ground truth for which
    // events were actually indexed (an event inserted leniently before
    // its endpoint existed never enters adjacency). AddEdge deduplicates,
    // so re-sweeping known pairs is harmless.
    for (size_t a = 1; a <= num_artifacts; ++a) {
      const auto id = static_cast<ArtifactId>(a);
      const auto& producers = store_->ProducersOf(id);
      if (producers.empty()) continue;
      const auto& consumers = store_->ConsumersOf(id);
      for (ExecutionId p : producers) {
        for (ExecutionId c : consumers) AddEdge(p, c);
      }
    }
  }
}

bool ProvenanceIndex::InSync() const {
  return indexed_artifacts_ == store_->num_artifacts() &&
         indexed_executions_ == store_->num_executions() &&
         indexed_events_ == store_->num_events();
}

void ProvenanceIndex::AddEdge(ExecutionId u, ExecutionId v) {
  std::vector<ExecutionId>& outs = out_[static_cast<size_t>(u) - 1];
  for (ExecutionId existing : outs) {
    if (existing == v) return;
  }
  outs.push_back(v);
  if (ApplyEdge(u, v)) PropagateFrom(v);
}

bool ProvenanceIndex::ApplyEdge(ExecutionId u, ExecutionId v) {
  IdBitset& label = anc_[static_cast<size_t>(v) - 1];
  const bool added = label.Set(static_cast<size_t>(u));
  return label.UnionWith(anc_[static_cast<size_t>(u) - 1]) || added;
}

void ProvenanceIndex::PropagateFrom(ExecutionId v) {
  if (out_[static_cast<size_t>(v) - 1].empty()) return;  // feed-order case
  if (in_worklist_.size() < anc_.size()) in_worklist_.resize(anc_.size(), 0);
  worklist_.clear();
  worklist_.push_back(v);
  in_worklist_[static_cast<size_t>(v) - 1] = 1;
  size_t head = 0;
  while (head < worklist_.size()) {
    const ExecutionId u = worklist_[head++];
    in_worklist_[static_cast<size_t>(u) - 1] = 0;
    for (ExecutionId w : out_[static_cast<size_t>(u) - 1]) {
      if (ApplyEdge(u, w) && in_worklist_[static_cast<size_t>(w) - 1] == 0) {
        in_worklist_[static_cast<size_t>(w) - 1] = 1;
        worklist_.push_back(w);
      }
    }
  }
  worklist_.clear();
}

std::vector<ExecutionId> ProvenanceIndex::Ancestors(ExecutionId exec) const {
  std::vector<ExecutionId> out;
  const size_t i = static_cast<size_t>(exec) - 1;
  if (i >= anc_.size()) return out;
  anc_[i].ForEachSet([&](size_t bit) {
    // A label fixpoint on a (corrupt) cyclic store can include the node
    // itself; the BFS never reports the start node, so drop it.
    if (static_cast<ExecutionId>(bit) != exec) {
      out.push_back(static_cast<ExecutionId>(bit));
    }
  });
  return out;  // ForEachSet is ascending — already sorted
}

std::vector<ArtifactId> ProvenanceIndex::AncestorArtifacts(
    ExecutionId exec) const {
  std::vector<ArtifactId> out;
  const size_t i = static_cast<size_t>(exec) - 1;
  if (i >= anc_.size()) return out;
  std::vector<char> seen(store_->num_artifacts() + 1, 0);
  auto note = [&](ArtifactId a) {
    if (seen[static_cast<size_t>(a)] == 0) {
      seen[static_cast<size_t>(a)] = 1;
      out.push_back(a);
    }
  };
  for (ArtifactId a : store_->InputsOf(exec)) note(a);
  anc_[i].ForEachSet([&](size_t bit) {
    const auto ancestor = static_cast<ExecutionId>(bit);
    if (ancestor == exec) return;
    for (ArtifactId a : store_->InputsOf(ancestor)) note(a);
    for (ArtifactId a : store_->OutputsOf(ancestor)) note(a);
  });
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<ExecutionId> ProvenanceIndex::Descendants(
    ExecutionId exec) const {
  // Column scan: x descends from exec iff exec is in x's ancestor label.
  // Forward labels are not maintained (they would cost O(ancestors) per
  // edge); probing one fixed bit across all rows is cache-friendly and
  // yields ascending ids for free.
  std::vector<ExecutionId> out;
  const auto bit = static_cast<size_t>(exec);
  for (size_t x = 1; x <= anc_.size(); ++x) {
    if (static_cast<ExecutionId>(x) != exec && anc_[x - 1].Test(bit)) {
      out.push_back(static_cast<ExecutionId>(x));
    }
  }
  return out;
}

bool ProvenanceIndex::IsAncestor(ExecutionId ancestor,
                                 ExecutionId exec) const {
  if (ancestor == exec) return false;
  const size_t i = static_cast<size_t>(exec) - 1;
  return i < anc_.size() && anc_[i].Test(static_cast<size_t>(ancestor));
}

size_t ProvenanceIndex::label_bytes() const {
  size_t total = 0;
  for (const IdBitset& b : anc_) total += b.capacity_bytes();
  return total;
}

// ---------------------------------------------------------------------------
// TraceQuery

common::Status TraceQuery::CheckExecution(ExecutionId exec) const {
  if (exec < 1 ||
      static_cast<size_t>(exec) > store_->num_executions()) {
    return common::Status::NotFound("execution " + std::to_string(exec) +
                                    " out of range");
  }
  return common::Status::Ok();
}

common::Status TraceQuery::CheckArtifact(ArtifactId artifact) const {
  if (artifact < 1 ||
      static_cast<size_t>(artifact) > store_->num_artifacts()) {
    return common::Status::NotFound("artifact " + std::to_string(artifact) +
                                    " out of range");
  }
  return common::Status::Ok();
}

common::Status TraceQuery::CheckInSync() const {
  if (!index_->InSync()) {
    return common::Status::FailedPrecondition(
        "provenance index is behind its store; call CatchUp first");
  }
  return common::Status::Ok();
}

common::StatusOr<std::vector<ExecutionId>> TraceQuery::AncestorsOf(
    ExecutionId exec) const {
  MLPROV_RETURN_IF_ERROR(CheckExecution(exec));
  MLPROV_RETURN_IF_ERROR(CheckInSync());
  return index_->Ancestors(exec);
}

common::StatusOr<std::vector<ArtifactId>> TraceQuery::AncestorArtifactsOf(
    ExecutionId exec) const {
  MLPROV_RETURN_IF_ERROR(CheckExecution(exec));
  MLPROV_RETURN_IF_ERROR(CheckInSync());
  return index_->AncestorArtifacts(exec);
}

common::StatusOr<std::vector<ExecutionId>> TraceQuery::DescendantsOf(
    ExecutionId exec, const metadata::TraverseOptions& options) const {
  MLPROV_RETURN_IF_ERROR(CheckExecution(exec));
  if (!options.stop && options.stop_types.empty()) {
    MLPROV_RETURN_IF_ERROR(CheckInSync());
    return index_->Descendants(exec);
  }
  // Any stop: the TraceView walk against the store (identical code
  // path, so results stay byte-identical for any predicate).
  return metadata::TraceView(store_).DescendantExecutions(exec, options);
}

common::StatusOr<LineageResult> TraceQuery::LineageOf(
    ArtifactId artifact) const {
  MLPROV_RETURN_IF_ERROR(CheckArtifact(artifact));
  MLPROV_RETURN_IF_ERROR(CheckInSync());
  LineageResult lineage;
  lineage.producers = store_->ProducersOf(artifact);

  const size_t n = store_->num_executions();
  std::vector<char> member(n + 1, 0);    // producers ∪ their ancestors
  std::vector<char> ancestor(n + 1, 0);  // ⋃ AncestorExecutions(producer)
  for (ExecutionId producer : lineage.producers) {
    member[static_cast<size_t>(producer)] = 1;
    for (ExecutionId a : index_->Ancestors(producer)) {
      member[static_cast<size_t>(a)] = 1;
      ancestor[static_cast<size_t>(a)] = 1;
    }
  }
  for (size_t id = 1; id <= n; ++id) {
    if (member[id] != 0) {
      lineage.executions.push_back(static_cast<ExecutionId>(id));
    }
  }

  std::vector<char> seen(store_->num_artifacts() + 1, 0);
  seen[static_cast<size_t>(artifact)] = 1;
  for (ExecutionId producer : lineage.producers) {
    for (ArtifactId a : store_->InputsOf(producer)) {
      seen[static_cast<size_t>(a)] = 1;
    }
  }
  for (size_t id = 1; id <= n; ++id) {
    if (ancestor[id] == 0) continue;
    const auto exec = static_cast<ExecutionId>(id);
    for (ArtifactId a : store_->InputsOf(exec)) {
      seen[static_cast<size_t>(a)] = 1;
    }
    for (ArtifactId a : store_->OutputsOf(exec)) {
      seen[static_cast<size_t>(a)] = 1;
    }
  }
  for (size_t id = 1; id < seen.size(); ++id) {
    if (seen[id] != 0) lineage.artifacts.push_back(static_cast<ArtifactId>(id));
  }
  return lineage;
}

common::StatusOr<std::vector<ExecutionId>> TraceQuery::GraphletsTouchingSpan(
    ArtifactId span) const {
  MLPROV_RETURN_IF_ERROR(CheckArtifact(span));
  if (graphlets_ == nullptr) {
    return common::Status::FailedPrecondition(
        "no graphlet membership provider attached (query through a "
        "streaming session)");
  }
  return graphlets_->TrainersTouchingArtifact(span);
}

common::StatusOr<std::vector<ExecutionId>> TraceQuery::TimeWindowSlice(
    const TimeWindowOptions& options) const {
  if (options.to < options.from) {
    return common::Status::InvalidArgument(
        "time window end precedes its start");
  }
  std::vector<ExecutionId> out;
  if (options.to == options.from) return out;  // empty half-open window
  for (const metadata::Execution& e : store_->executions()) {
    if (e.start_time < options.to && e.end_time >= options.from) {
      out.push_back(e.id);
    }
  }
  return out;
}

}  // namespace mlprov::core
