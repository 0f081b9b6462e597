// Trace explorer: simulate one production pipeline (or load a saved
// trace with --load=FILE), save/load its MLMD trace, and answer
// provenance queries — which spans fed a pushed model, what a graphlet
// cost, how big the trace got. Interactive closure queries
// (--query=anc:ID | desc:ID | lineage:ID | window:FROM-TO) run through
// the provenance index with wall-clock comparison against the BFS
// recompute; --index_stats prints the index's footprint, the trainer
// count and the validator's summary. Demonstrates the metadata store,
// serialization, validation, trace traversal, segmentation, and
// TraceQuery APIs together. Exits non-zero with a clear message on
// missing or corrupt input.
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <variant>

#include <chrono>

#include "common/flags.h"
#include "core/provenance_index.h"
#include "core/segmentation.h"
#include "metadata/binary_serialization.h"
#include "metadata/serialization.h"
#include "metadata/trace.h"
#include "metadata/trace_validator.h"
#include "obs/trace.h"
#include "simulator/pipeline_simulator.h"

using namespace mlprov;  // NOLINT: example brevity

namespace {

// Prints the first few ids of a closure result and the total count.
template <typename Id>
void PrintIdList(const char* label, const std::vector<Id>& ids) {
  std::printf("  %s (%zu):", label, ids.size());
  size_t shown = 0;
  for (Id id : ids) {
    if (shown++ == 12) {
      std::printf(" …");
      break;
    }
    std::printf(" %lld", static_cast<long long>(id));
  }
  std::printf("\n");
}

double MicrosSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

// Index-backed interactive queries: builds the provenance index over
// the store (CatchUp — the one-time cost a streaming session amortizes
// record by record), answers --query through core::TraceQuery with
// wall-clock reporting against the TraceView BFS recompute, and prints
// the index's footprint, the trainer count and the validator's summary
// under --index_stats.
// Returns the process exit code (2 on a malformed --query).
int RunIndexedQueries(const metadata::MetadataStore& store,
                      const common::Flags& flags) {
  using Clock = std::chrono::steady_clock;
  core::ProvenanceIndex index(&store);
  const auto b0 = Clock::now();
  index.CatchUp();
  const double build_us = MicrosSince(b0);
  core::TraceQuery query(&store, &index);
  metadata::TraceView view(&store);

  if (flags.GetBool("index_stats", false)) {
    std::printf("index: built in %.0fus; %.1f KiB of labels over %zu "
                "executions, %zu trainer(s)\n",
                build_us, static_cast<double>(index.label_bytes()) / 1024.0,
                index.num_indexed_executions(),
                store.ExecutionsOfType(metadata::ExecutionType::kTrainer)
                    .size());
    std::printf("validation: %s\n\n",
                metadata::TraceValidator().Validate(store).Summary().c_str());
  }

  std::string spec = flags.GetString("query", "");
  if (spec.empty()) {
    // Default showcase: the full ancestry of the newest trainer.
    const auto trainers =
        store.ExecutionsOfType(metadata::ExecutionType::kTrainer);
    if (trainers.empty()) return 0;
    spec = "anc:" + std::to_string(trainers.back());
  }
  const size_t colon = spec.find(':');
  const std::string kind = spec.substr(0, colon);
  const std::string arg =
      colon == std::string::npos ? "" : spec.substr(colon + 1);
  const long long id = std::strtoll(arg.c_str(), nullptr, 10);

  std::printf("query %s:\n", spec.c_str());
  if (kind == "anc" || kind == "desc") {
    const auto q0 = Clock::now();
    auto indexed = kind == "anc"
                       ? query.AncestorsOf(id)
                       : query.DescendantsOf(id);
    const double indexed_us = MicrosSince(q0);
    if (!indexed.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   indexed.status().ToString().c_str());
      return 1;
    }
    const auto r0 = Clock::now();
    const auto recomputed = kind == "anc" ? view.AncestorExecutions(id)
                                          : view.DescendantExecutions(id);
    const double recompute_us = MicrosSince(r0);
    PrintIdList(kind == "anc" ? "ancestor executions"
                              : "descendant executions",
                *indexed);
    std::printf("  indexed %.1fus vs recompute %.1fus (%.1fx); "
                "identical: %s\n\n",
                indexed_us, recompute_us,
                indexed_us > 0.0 ? recompute_us / indexed_us : 0.0,
                *indexed == recomputed ? "yes" : "NO — BUG");
    return 0;
  }
  if (kind == "lineage") {
    const auto q0 = Clock::now();
    auto lineage = query.LineageOf(id);
    const double indexed_us = MicrosSince(q0);
    if (!lineage.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   lineage.status().ToString().c_str());
      return 1;
    }
    PrintIdList("producing executions", lineage->producers);
    PrintIdList("upstream executions", lineage->executions);
    PrintIdList("upstream artifacts", lineage->artifacts);
    std::printf("  answered from the index in %.1fus\n\n", indexed_us);
    return 0;
  }
  if (kind == "window") {
    const size_t dash = arg.find('-');
    if (dash == std::string::npos) {
      std::fprintf(stderr,
                   "error: --query=window takes FROM-TO timestamps\n");
      return 2;
    }
    core::TimeWindowOptions window;
    window.from = std::strtoll(arg.substr(0, dash).c_str(), nullptr, 10);
    window.to = std::strtoll(arg.substr(dash + 1).c_str(), nullptr, 10);
    const auto q0 = Clock::now();
    auto slice = query.TimeWindowSlice(window);
    const double indexed_us = MicrosSince(q0);
    if (!slice.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   slice.status().ToString().c_str());
      return 1;
    }
    PrintIdList("executions overlapping the window", *slice);
    std::printf("  answered in %.1fus\n\n", indexed_us);
    return 0;
  }
  std::fprintf(stderr,
               "error: --query must be anc:ID | desc:ID | lineage:ID | "
               "window:FROM-TO, got \"%s\"\n",
               spec.c_str());
  return 2;
}

// Explores one store: size, graphlets, and the lineage of the last
// pushed model. Returns the process exit code.
int ExploreStore(const metadata::MetadataStore& store,
                 const common::Flags& flags) {
  metadata::TraceView view(&store);
  std::printf("trace size: %zu nodes in %zu weakly connected "
              "component(s)\n\n",
              view.NumNodes(), view.NumConnectedComponents());

  const auto graphlets = core::SegmentTrace(store);
  if (graphlets.empty()) {
    std::fprintf(stderr,
                 "error: no graphlets found (trace has no trainer "
                 "executions to anchor on)\n");
    return 1;
  }
  size_t pushed = 0;
  double pushed_cost = 0.0, total_cost = 0.0;
  for (const auto& g : graphlets) {
    total_cost += g.TotalCost();
    if (g.pushed) {
      ++pushed;
      pushed_cost += g.TotalCost();
    }
  }
  std::printf("%zu graphlets, %zu pushed (%.1f%%); %.0f machine-hours "
              "total, %.1f%% spent on graphlets that deployed a model\n\n",
              graphlets.size(), pushed,
              100.0 * static_cast<double>(pushed) /
                  static_cast<double>(graphlets.size()),
              total_cost,
              total_cost > 0.0 ? 100.0 * pushed_cost / total_cost : 0.0);

  // Provenance query: the lineage of the last pushed model.
  for (auto it = graphlets.rbegin(); it != graphlets.rend(); ++it) {
    if (!it->pushed) continue;
    std::printf("lineage of the last pushed model (trainer #%lld):\n",
                static_cast<long long>(it->trainer));
    std::printf("  input spans:");
    for (metadata::ArtifactId span : it->input_spans) {
      const auto artifact = store.GetArtifact(span);
      if (!artifact.ok()) continue;
      int64_t number = -1;
      if (auto p = artifact->properties.find("span");
          p != artifact->properties.end()) {
        if (const int64_t* v = std::get_if<int64_t>(&p->second)) {
          number = *v;
        }
      }
      std::printf(" %lld(span %lld)", static_cast<long long>(span),
                  static_cast<long long>(number));
    }
    std::printf("\n  operators:");
    for (metadata::ExecutionId e : it->executions) {
      const auto exec = store.GetExecution(e);
      if (exec.ok()) std::printf(" %s", metadata::ToString(exec->type));
    }
    std::printf("\n  cost split: pre-trainer %.1f + trainer %.1f + "
                "post-trainer %.1f machine-hours\n\n",
                it->pre_trainer_cost, it->trainer_cost,
                it->post_trainer_cost);
    break;
  }
  return RunIndexedQueries(store, flags);
}

// Loads a user-supplied trace: strict parse first (the format — text or
// MLPB binary — is auto-detected from the magic bytes), then a lenient
// parse plus repair, so a partially corrupted file still explores (with
// the damage reported) while garbage is rejected outright.
common::StatusOr<metadata::MetadataStore> LoadUserTrace(
    const std::string& path, metadata::StoreFormat* format) {
  auto strict = metadata::LoadStore(path, format);
  if (strict.ok()) return strict;
  std::fprintf(stderr, "warning: strict parse failed (%s); retrying "
               "leniently\n",
               strict.status().ToString().c_str());
  std::ifstream in(path, std::ios::binary);
  if (!in) return common::Status::NotFound("cannot open " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  metadata::LenientStats stats;
  const bool binary = metadata::IsBinaryStore(buf.str());
  if (format != nullptr) {
    *format = binary ? metadata::StoreFormat::kBinary
                     : metadata::StoreFormat::kText;
  }
  auto lenient =
      binary ? metadata::DeserializeStoreBinaryLenient(buf.str(), &stats)
             : metadata::DeserializeStoreLenient(buf.str(), &stats);
  if (!lenient.ok()) return lenient;
  std::fprintf(stderr,
               "warning: lenient parse skipped %zu malformed line(s), "
               "%zu invalid enum(s), %zu dangling event(s), %zu orphan "
               "propertie(s)\n",
               stats.malformed_lines, stats.invalid_enums,
               stats.dangling_events, stats.orphan_properties);
  const metadata::TraceValidator repairer(
      metadata::TraceValidator::Mode::kRepair);
  const auto report = repairer.ValidateAndRepair(*lenient);
  if (!report.clean()) {
    std::fprintf(stderr, "warning: trace validation: %s\n",
                 report.Summary().c_str());
  }
  return lenient;
}

}  // namespace

int main(int argc, char** argv) {
  common::Flags flags(argc, argv);
  // --trace_out=FILE captures the simulation and segmentation spans as
  // Chrome trace-event JSON (open in chrome://tracing or Perfetto).
  const std::string trace_out = flags.GetString("trace_out", "");
  if (!trace_out.empty()) obs::TraceRecorder::Global().Enable();

  // --load=FILE explores an existing serialized trace instead of
  // simulating a fresh one.
  const std::string load_path = flags.GetString("load", "");
  if (!load_path.empty()) {
    metadata::StoreFormat format = metadata::StoreFormat::kText;
    const auto t0 = std::chrono::steady_clock::now();
    auto loaded = LoadUserTrace(load_path, &format);
    const double load_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    if (!loaded.ok()) {
      std::fprintf(stderr, "error: cannot load trace from %s: %s\n",
                   load_path.c_str(),
                   loaded.status().ToString().c_str());
      return 1;
    }
    std::printf(
        "loaded %s (%s format, %.3fs): %zu executions, %zu artifacts, "
        "%zu events\n",
        load_path.c_str(),
        format == metadata::StoreFormat::kBinary ? "binary" : "text",
        load_seconds, loaded->num_executions(), loaded->num_artifacts(),
        loaded->num_events());
    return ExploreStore(*loaded, flags);
  }

  sim::CorpusConfig corpus_config;
  corpus_config.seed = static_cast<uint64_t>(flags.GetInt("seed", 7));
  common::Rng rng(corpus_config.seed);
  sim::PipelineConfig config =
      sim::SamplePipelineConfig(corpus_config, 0, rng);
  config.lifespan_days = flags.GetDouble("days", 30.0);
  config.triggers_per_day = flags.GetDouble("rate", 3.0);

  std::printf("simulating pipeline: %s model, %d features, window of %d "
              "spans, %.1f triggers/day over %.0f days\n",
              metadata::ToString(config.model_type), config.num_features,
              config.window_spans, config.triggers_per_day,
              config.lifespan_days);
  sim::PipelineTrace trace =
      sim::SimulatePipeline(corpus_config, config, sim::CostModel());

  // Round-trip the trace through the chosen serialization
  // (--corpus_format=text|binary; load always auto-detects).
  const std::string format_name = flags.GetString("corpus_format", "text");
  if (format_name != "text" && format_name != "binary") {
    std::fprintf(stderr,
                 "error: --corpus_format must be text | binary, got "
                 "\"%s\"\n",
                 format_name.c_str());
    return 2;
  }
  const metadata::StoreFormat format =
      format_name == "binary" ? metadata::StoreFormat::kBinary
                              : metadata::StoreFormat::kText;
  const std::string path = format == metadata::StoreFormat::kBinary
                               ? "/tmp/mlprov_trace_example.mlpb"
                               : "/tmp/mlprov_trace_example.txt";
  if (auto status = metadata::SaveStore(trace.store, path, format);
      !status.ok()) {
    std::fprintf(stderr, "error: save failed: %s\n",
                 status.ToString().c_str());
    return 1;
  }
  auto loaded = metadata::LoadStore(path);
  if (!loaded.ok()) {
    std::fprintf(stderr, "error: load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  std::printf("trace saved to %s (%s format) and reloaded: %zu "
              "executions, %zu artifacts, %zu events\n",
              path.c_str(), format_name.c_str(), loaded->num_executions(),
              loaded->num_artifacts(), loaded->num_events());

  const int code = ExploreStore(trace.store, flags);
  if (code != 0) return code;

  if (!trace_out.empty()) {
    const auto& recorder = obs::TraceRecorder::Global();
    if (auto status = recorder.WriteTo(trace_out); status.ok()) {
      std::printf("\nwrote %s (%zu trace events)\n", trace_out.c_str(),
                  recorder.NumEvents());
    } else {
      std::fprintf(stderr, "trace write failed: %s\n",
                   status.ToString().c_str());
    }
  }
  return 0;
}
