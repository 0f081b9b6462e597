#include "core/segmentation.h"

#include <algorithm>
#include <cstdint>
#include <utility>

#include "core/datalog.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace mlprov::core {

using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::MetadataStore;

namespace {

bool IsDataAnalysisType(ExecutionType type) {
  return type == ExecutionType::kStatisticsGen ||
         type == ExecutionType::kSchemaGen ||
         type == ExecutionType::kExampleValidator;
}

/// The `sc` predicate of Appendix A: descendant traversal stops at (and
/// excludes) Transform and Trainer executions.
bool IsStopType(ExecutionType type) {
  return type == ExecutionType::kTransform || type == ExecutionType::kTrainer;
}

/// An Examples artifact's ingestion order key: its span property when it
/// is an integer, else its creation time.
int64_t SpanKey(const metadata::Artifact& artifact) {
  if (auto it = artifact.properties.find("span");
      it != artifact.properties.end()) {
    if (const int64_t* v = std::get_if<int64_t>(&it->second)) return *v;
  }
  return artifact.create_time;
}

/// Builds the Graphlet record from its member lists (both ascending);
/// `exec_is_descendant` is indexed by execution id.
Graphlet Finalize(const MetadataStore& store, ExecutionId trainer,
                  const std::vector<ExecutionId>& executions,
                  const std::vector<ArtifactId>& artifacts,
                  const std::vector<char>& exec_is_descendant) {
  Graphlet g;
  g.trainer = trainer;
  const auto& trainer_exec =
      store.executions()[static_cast<size_t>(trainer) - 1];
  g.trainer_start = trainer_exec.start_time;
  g.trainer_end = trainer_exec.end_time;
  g.trainer_succeeded = trainer_exec.succeeded;
  g.trainer_cost = trainer_exec.compute_cost;
  // Property access is defensive (get_if, range clamp): corrupted traces
  // can carry wrong-typed or out-of-vocabulary values, and PushStats
  // later indexes arrays by model_type.
  if (auto it = trainer_exec.properties.find("code_version");
      it != trainer_exec.properties.end()) {
    if (const int64_t* v = std::get_if<int64_t>(&it->second)) {
      g.code_version = *v;
    }
  }
  if (auto it = trainer_exec.properties.find("model_type");
      it != trainer_exec.properties.end()) {
    if (const int64_t* v = std::get_if<int64_t>(&it->second);
        v != nullptr && *v >= 0 && *v < metadata::kNumModelTypes) {
      g.model_type = static_cast<metadata::ModelType>(*v);
    }
  }
  if (auto it = trainer_exec.properties.find("architecture");
      it != trainer_exec.properties.end()) {
    if (const int64_t* v = std::get_if<int64_t>(&it->second)) {
      g.architecture = static_cast<int>(*v);
    }
  }

  bool first_time = true;
  auto note_time = [&](metadata::Timestamp lo, metadata::Timestamp hi) {
    if (first_time) {
      g.start_time = lo;
      g.end_time = hi;
      first_time = false;
    } else {
      g.start_time = std::min(g.start_time, lo);
      g.end_time = std::max(g.end_time, hi);
    }
  };

  g.executions = executions;
  for (ExecutionId eid : executions) {
    const auto id = static_cast<size_t>(eid);
    const metadata::Execution& e = store.executions()[id - 1];
    note_time(e.start_time, e.end_time);
    if (eid == trainer) continue;
    if (exec_is_descendant[id]) {
      g.post_trainer_cost += e.compute_cost;
      if (e.type == ExecutionType::kPusher && e.succeeded) {
        g.pushed = true;
      }
    } else {
      g.pre_trainer_cost += e.compute_cost;
    }
  }
  g.artifacts = artifacts;
  // Order spans by ingestion: span key, with the id as tiebreak.
  std::vector<std::pair<int64_t, ArtifactId>> spans;
  for (ArtifactId aid : artifacts) {
    const metadata::Artifact& a =
        store.artifacts()[static_cast<size_t>(aid) - 1];
    note_time(a.create_time, a.create_time);
    if (a.type == ArtifactType::kExamples) spans.emplace_back(SpanKey(a), aid);
  }
  std::sort(spans.begin(), spans.end());
  g.input_spans.reserve(spans.size());
  for (const auto& span : spans) g.input_spans.push_back(span.second);
  for (ArtifactId out : store.OutputsOf(trainer)) {
    if (store.artifacts()[static_cast<size_t>(out) - 1].type ==
        ArtifactType::kModel) {
      g.model = out;
      break;
    }
  }
  for (ArtifactId in : store.InputsOf(trainer)) {
    if (store.artifacts()[static_cast<size_t>(in) - 1].type ==
        ArtifactType::kModel) {
      g.warm_start = true;
      break;
    }
  }
  return g;
}

}  // namespace

void GraphletExtractor::EnsureScratch(const MetadataStore& store) {
  // Grow-only scratch: the streaming segmenter extracts against a store
  // that gains nodes between calls. Fresh slots are zero-initialized,
  // matching the reset-after-use invariant of the existing slots.
  if (exec_in_.size() < store.num_executions() + 1) {
    exec_in_.resize(store.num_executions() + 1, 0);
    exec_is_descendant_.resize(store.num_executions() + 1, 0);
  }
  if (artifact_in_.size() < store.num_artifacts() + 1) {
    artifact_in_.resize(store.num_artifacts() + 1, 0);
  }
  touched_execs_.clear();
  touched_artifacts_.clear();
}

bool GraphletExtractor::AddExec(ExecutionId id, bool descendant) {
  if (exec_in_[static_cast<size_t>(id)]) return false;
  exec_in_[static_cast<size_t>(id)] = 1;
  exec_is_descendant_[static_cast<size_t>(id)] = descendant ? 1 : 0;
  touched_execs_.push_back(id);
  return true;
}

bool GraphletExtractor::AddArtifact(ArtifactId id) {
  if (artifact_in_[static_cast<size_t>(id)]) return false;
  artifact_in_[static_cast<size_t>(id)] = 1;
  touched_artifacts_.push_back(id);
  return true;
}

Graphlet GraphletExtractor::Extract(const MetadataStore& store,
                                    ExecutionId trainer) {
  EnsureScratch(store);
  AddExec(trainer, /*descendant=*/false);

  // Rule (a): ancestor executions, not traversing through other Trainers
  // (Figure 8: the warm-start edge is a cut; the upstream model artifact
  // is included, its producing trainer is not).
  exec_frontier_.assign(1, trainer);
  while (!exec_frontier_.empty()) {
    const ExecutionId cur = exec_frontier_.back();
    exec_frontier_.pop_back();
    for (ArtifactId input : store.InputsOf(cur)) {
      AddArtifact(input);
      for (ExecutionId producer : store.ProducersOf(input)) {
        if (store.executions()[static_cast<size_t>(producer) - 1].type ==
            ExecutionType::kTrainer) {
          continue;
        }
        if (AddExec(producer, /*descendant=*/false)) {
          exec_frontier_.push_back(producer);
          // Ancestors contribute their outputs too.
          for (ArtifactId out : store.OutputsOf(producer)) {
            AddArtifact(out);
          }
        }
      }
    }
  }

  // Rule (c): descendants of the trainer, stopping at `sc` executions.
  exec_frontier_.assign(1, trainer);
  while (!exec_frontier_.empty()) {
    const ExecutionId cur = exec_frontier_.back();
    exec_frontier_.pop_back();
    for (ArtifactId output : store.OutputsOf(cur)) {
      AddArtifact(output);
      for (ExecutionId consumer : store.ConsumersOf(output)) {
        if (IsStopType(
                store.executions()[static_cast<size_t>(consumer) - 1].type)) {
          continue;
        }
        if (AddExec(consumer, /*descendant=*/true)) {
          exec_frontier_.push_back(consumer);
          // Descendants contribute their other inputs as artifacts
          // (e.g. the evaluation read by the model validator).
          for (ArtifactId in : store.InputsOf(consumer)) {
            AddArtifact(in);
          }
        }
      }
    }
  }

  // Rule (b): data-analysis/-validation executions over the graphlet's
  // data spans, chased through their derived artifacts (statistics ->
  // schema/anomalies).
  artifact_frontier_.clear();
  for (ArtifactId a : touched_artifacts_) {
    if (store.artifacts()[static_cast<size_t>(a) - 1].type ==
        ArtifactType::kExamples) {
      artifact_frontier_.push_back(a);
    }
  }
  while (!artifact_frontier_.empty()) {
    const ArtifactId cur = artifact_frontier_.back();
    artifact_frontier_.pop_back();
    for (ExecutionId consumer : store.ConsumersOf(cur)) {
      const ExecutionType type =
          store.executions()[static_cast<size_t>(consumer) - 1].type;
      if (!IsDataAnalysisType(type)) continue;
      if (AddExec(consumer, /*descendant=*/false)) {
        for (ArtifactId out : store.OutputsOf(consumer)) {
          if (AddArtifact(out)) artifact_frontier_.push_back(out);
        }
        for (ArtifactId in : store.InputsOf(consumer)) {
          AddArtifact(in);
        }
      }
    }
  }

  std::sort(touched_execs_.begin(), touched_execs_.end());
  std::sort(touched_artifacts_.begin(), touched_artifacts_.end());
  Graphlet g = Finalize(store, trainer, touched_execs_, touched_artifacts_,
                        exec_is_descendant_);
  // Reset scratch flags for the next extraction.
  for (ExecutionId id : touched_execs_) {
    exec_in_[static_cast<size_t>(id)] = 0;
    exec_is_descendant_[static_cast<size_t>(id)] = 0;
  }
  for (ArtifactId id : touched_artifacts_) {
    artifact_in_[static_cast<size_t>(id)] = 0;
  }
  return g;
}

std::vector<Graphlet> SegmentTrace(const MetadataStore& store) {
  MLPROV_SPAN(segment_span, "core.SegmentTrace");
  MLPROV_SPAN_ARG(segment_span, "executions",
                  static_cast<uint64_t>(store.num_executions()));
  MLPROV_SPAN_ARG(segment_span, "artifacts",
                  static_cast<uint64_t>(store.num_artifacts()));
  std::vector<ExecutionId> trainers =
      store.ExecutionsOfType(ExecutionType::kTrainer);
  // Chronological order by trainer end time (paper Section 4.2).
  std::sort(trainers.begin(), trainers.end(),
            [&](ExecutionId a, ExecutionId b) {
              const auto& ea = store.executions()[static_cast<size_t>(a) - 1];
              const auto& eb = store.executions()[static_cast<size_t>(b) - 1];
              return ea.end_time != eb.end_time ? ea.end_time < eb.end_time
                                                : a < b;
            });
  GraphletExtractor extractor;

  std::vector<Graphlet> graphlets;
  graphlets.reserve(trainers.size());
  for (ExecutionId trainer : trainers) {
    graphlets.push_back(extractor.Extract(store, trainer));
    MLPROV_HISTOGRAM_RECORD("core.graphlet_nodes",
                            graphlets.back().executions.size() +
                                graphlets.back().artifacts.size());
  }
  MLPROV_COUNTER_ADD("core.graphlets_segmented", graphlets.size());
  return graphlets;
}

std::vector<Graphlet> SegmentTraceDatalog(const MetadataStore& store) {
  MLPROV_SPAN(segment_span, "core.SegmentTraceDatalog");
  // Node encoding shared by all relations: artifact k -> 2k, execution
  // k -> 2k + 1.
  auto art = [](ArtifactId id) { return id * 2; };
  auto exe = [](ExecutionId id) { return id * 2 + 1; };

  std::vector<Graphlet> graphlets;
  std::vector<ExecutionId> trainers =
      store.ExecutionsOfType(ExecutionType::kTrainer);
  std::sort(trainers.begin(), trainers.end(),
            [&](ExecutionId a, ExecutionId b) {
              const auto& ea = store.executions()[static_cast<size_t>(a) - 1];
              const auto& eb = store.executions()[static_cast<size_t>(b) - 1];
              return ea.end_time != eb.end_time ? ea.end_time < eb.end_time
                                                : a < b;
            });
  for (ExecutionId trainer : trainers) {
    Datalog dl;
    // Extensional database.
    for (const metadata::Event& ev : store.events()) {
      if (ev.kind == metadata::EventKind::kInput) {
        dl.AddFact("in", {art(ev.artifact), exe(ev.execution)});
      } else {
        dl.AddFact("out", {exe(ev.execution), art(ev.artifact)});
      }
    }
    for (const metadata::Execution& e : store.executions()) {
      if (e.type == ExecutionType::kTrainer && e.id != trainer) {
        dl.AddFact("trainer", {exe(e.id)});
      }
      if (e.id != trainer && IsStopType(e.type)) {
        dl.AddFact("sc", {exe(e.id)});
      }
      if (IsDataAnalysisType(e.type)) dl.AddFact("analysis", {exe(e.id)});
    }
    for (const metadata::Artifact& a : store.artifacts()) {
      if (a.type == ArtifactType::kExamples) dl.AddFact("span", {art(a.id)});
    }
    dl.AddFact("anc", {exe(trainer)});

    using T = Datalog::Term;
    auto rule = [&dl](Datalog::Atom head, std::vector<Datalog::Atom> body) {
      dl.AddRule({std::move(head), std::move(body)});
    };
    // Rule (a): ancestors, cut at other trainers.
    rule({"anc", {T::Var("P")}},
         {{"anc", {T::Var("E")}, false},
          {"in", {T::Var("A"), T::Var("E")}, false},
          {"out", {T::Var("P"), T::Var("A")}, false},
          {"trainer", {T::Var("P")}, true}});
    // Rule (c): descendants, stop (and exclude) at sc.
    rule({"desc", {T::Var("D")}},
         {{"out", {T::Constant(exe(trainer)), T::Var("A")}, false},
          {"in", {T::Var("A"), T::Var("D")}, false},
          {"sc", {T::Var("D")}, true}});
    rule({"desc", {T::Var("D")}},
         {{"desc", {T::Var("E")}, false},
          {"out", {T::Var("E"), T::Var("A")}, false},
          {"in", {T::Var("A"), T::Var("D")}, false},
          {"sc", {T::Var("D")}, true}});
    // Member artifacts from (a) and (c).
    rule({"gart", {T::Var("A")}},
         {{"anc", {T::Var("E")}, false},
          {"in", {T::Var("A"), T::Var("E")}, false}});
    rule({"gart", {T::Var("A")}},
         {{"anc", {T::Var("E")}, false},
          {"out", {T::Var("E"), T::Var("A")}, false}});
    rule({"gart", {T::Var("A")}},
         {{"desc", {T::Var("E")}, false},
          {"in", {T::Var("A"), T::Var("E")}, false}});
    rule({"gart", {T::Var("A")}},
         {{"desc", {T::Var("E")}, false},
          {"out", {T::Var("E"), T::Var("A")}, false}});
    // Rule (b): data-analysis executions over member spans, chased
    // through their derived artifacts.
    rule({"bexec", {T::Var("B")}},
         {{"gart", {T::Var("A")}, false},
          {"span", {T::Var("A")}, false},
          {"in", {T::Var("A"), T::Var("B")}, false},
          {"analysis", {T::Var("B")}, false}});
    rule({"bart", {T::Var("A")}},
         {{"bexec", {T::Var("B")}, false},
          {"out", {T::Var("B"), T::Var("A")}, false}});
    rule({"bart", {T::Var("A")}},
         {{"bexec", {T::Var("B")}, false},
          {"in", {T::Var("A"), T::Var("B")}, false}});
    rule({"bexec", {T::Var("B")}},
         {{"bart", {T::Var("A")}, false},
          {"in", {T::Var("A"), T::Var("B")}, false},
          {"analysis", {T::Var("B")}, false}});

    const common::Status status = dl.Evaluate();
    (void)status;  // rules above are safe by construction

    std::vector<char> exec_in(store.num_executions() + 1, 0);
    std::vector<char> artifact_in(store.num_artifacts() + 1, 0);
    std::vector<char> exec_is_descendant(store.num_executions() + 1, 0);
    auto mark_exec = [&](int64_t encoded, bool descendant) {
      const auto id = static_cast<size_t>(encoded / 2);
      exec_in[id] = 1;
      if (descendant) exec_is_descendant[id] = 1;
    };
    for (const auto& t : dl.Tuples("anc")) mark_exec(t[0], false);
    for (const auto& t : dl.Tuples("bexec")) mark_exec(t[0], false);
    for (const auto& t : dl.Tuples("desc")) mark_exec(t[0], true);
    exec_is_descendant[static_cast<size_t>(trainer)] = 0;
    for (const auto& t : dl.Tuples("gart")) {
      artifact_in[static_cast<size_t>(t[0] / 2)] = 1;
    }
    for (const auto& t : dl.Tuples("bart")) {
      artifact_in[static_cast<size_t>(t[0] / 2)] = 1;
    }
    std::vector<ExecutionId> executions;
    for (size_t id = 1; id < exec_in.size(); ++id) {
      if (exec_in[id]) executions.push_back(static_cast<ExecutionId>(id));
    }
    std::vector<ArtifactId> artifacts;
    for (size_t id = 1; id < artifact_in.size(); ++id) {
      if (artifact_in[id]) artifacts.push_back(static_cast<ArtifactId>(id));
    }
    graphlets.push_back(Finalize(store, trainer, executions, artifacts,
                                 exec_is_descendant));
  }
  return graphlets;
}

}  // namespace mlprov::core
