#include "core/segmentation.h"

#include <algorithm>

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

bool IsStopType(ExecutionType type, const SegmentationOptions& options) {
  for (ExecutionType t : options.descendant_stop) {
    if (t == type) return true;
  }
  return false;
}

/// Builds the Graphlet record from the member node sets.
Graphlet Finalize(const MetadataStore& store, ExecutionId trainer,
                  const std::vector<char>& exec_in,
                  const std::vector<char>& artifact_in,
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

  for (size_t id = 1; id < exec_in.size(); ++id) {
    if (!exec_in[id]) continue;
    const auto eid = static_cast<ExecutionId>(id);
    g.executions.push_back(eid);
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
  for (size_t id = 1; id < artifact_in.size(); ++id) {
    if (!artifact_in[id]) continue;
    const auto aid = static_cast<ArtifactId>(id);
    g.artifacts.push_back(aid);
    const metadata::Artifact& a = store.artifacts()[id - 1];
    note_time(a.create_time, a.create_time);
    if (a.type == ArtifactType::kExamples) {
      g.input_spans.push_back(aid);
    }
  }
  // Order spans by ingestion: span property when present, else creation
  // time, with the id as tiebreak.
  std::sort(g.input_spans.begin(), g.input_spans.end(),
            [&](ArtifactId x, ArtifactId y) {
              const metadata::Artifact& ax =
                  store.artifacts()[static_cast<size_t>(x) - 1];
              const metadata::Artifact& ay =
                  store.artifacts()[static_cast<size_t>(y) - 1];
              int64_t sx = ax.create_time, sy = ay.create_time;
              if (auto it = ax.properties.find("span");
                  it != ax.properties.end()) {
                if (const int64_t* v = std::get_if<int64_t>(&it->second)) {
                  sx = *v;
                }
              }
              if (auto it = ay.properties.find("span");
                  it != ay.properties.end()) {
                if (const int64_t* v = std::get_if<int64_t>(&it->second)) {
                  sy = *v;
                }
              }
              return sx != sy ? sx < sy : x < y;
            });
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
  const SegmentationOptions& options = options_;
  EnsureScratch(store);
  AddExec(trainer, /*descendant=*/false);

  // Rule (a): ancestor executions, not traversing through other Trainers
  // (Figure 8: the warm-start edge is a cut; the upstream model artifact
  // is included, its producing trainer is not).
  {
    std::vector<ExecutionId> frontier = {trainer};
    while (!frontier.empty()) {
      const ExecutionId cur = frontier.back();
      frontier.pop_back();
      for (ArtifactId input : store.InputsOf(cur)) {
        AddArtifact(input);
        for (ExecutionId producer : store.ProducersOf(input)) {
          const ExecutionType type =
              store.executions()[static_cast<size_t>(producer) - 1].type;
          if (options.cut_ancestors_at_trainers &&
              type == ExecutionType::kTrainer) {
            continue;
          }
          if (AddExec(producer, /*descendant=*/false)) {
            frontier.push_back(producer);
            // Ancestors contribute their outputs too.
            for (ArtifactId out : store.OutputsOf(producer)) {
              AddArtifact(out);
            }
          }
        }
      }
    }
  }

  // Rule (c): descendants of the trainer, stopping at `sc` executions.
  {
    std::vector<ExecutionId> frontier = {trainer};
    while (!frontier.empty()) {
      const ExecutionId cur = frontier.back();
      frontier.pop_back();
      for (ArtifactId output : store.OutputsOf(cur)) {
        AddArtifact(output);
        for (ExecutionId consumer : store.ConsumersOf(output)) {
          const ExecutionType type =
              store.executions()[static_cast<size_t>(consumer) - 1].type;
          if (type == ExecutionType::kTrainer ||
              IsStopType(type, options)) {
            continue;
          }
          if (AddExec(consumer, /*descendant=*/true)) {
            frontier.push_back(consumer);
            // Descendants contribute their other inputs as artifacts
            // (e.g. the evaluation read by the model validator).
            for (ArtifactId in : store.InputsOf(consumer)) {
              AddArtifact(in);
            }
          }
        }
      }
    }
  }

  // Rule (b): data-analysis/-validation executions over the graphlet's
  // data spans, chased through their derived artifacts (statistics ->
  // schema/anomalies).
  {
    std::vector<ArtifactId> frontier;
    for (ArtifactId a : touched_artifacts_) {
      if (store.artifacts()[static_cast<size_t>(a) - 1].type ==
          ArtifactType::kExamples) {
        frontier.push_back(a);
      }
    }
    while (!frontier.empty()) {
      const ArtifactId cur = frontier.back();
      frontier.pop_back();
      for (ExecutionId consumer : store.ConsumersOf(cur)) {
        const ExecutionType type =
            store.executions()[static_cast<size_t>(consumer) - 1].type;
        if (!IsDataAnalysisType(type)) continue;
        if (AddExec(consumer, /*descendant=*/false)) {
          for (ArtifactId out : store.OutputsOf(consumer)) {
            if (AddArtifact(out)) frontier.push_back(out);
          }
          for (ArtifactId in : store.InputsOf(consumer)) {
            AddArtifact(in);
          }
        }
      }
    }
  }

  Graphlet g =
      Finalize(store, trainer, exec_in_, artifact_in_, exec_is_descendant_);
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

std::vector<Graphlet> SegmentTrace(const MetadataStore& store,
                                   const SegmentationOptions& options) {
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
  GraphletExtractor extractor(options);

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

std::vector<Graphlet> SegmentTraceDatalog(
    const MetadataStore& store, const SegmentationOptions& options) {
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
      if (e.id != trainer &&
          (e.type == ExecutionType::kTrainer ||
           IsStopType(e.type, options))) {
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
    graphlets.push_back(Finalize(store, trainer, exec_in, artifact_in,
                                 exec_is_descendant));
  }
  return graphlets;
}

}  // namespace mlprov::core
