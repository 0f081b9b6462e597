#include "simulator/pipeline_simulator.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <memory>
#include <string>

#include "obs/metrics.h"
#include "obs/span_context.h"
#include "obs/trace.h"
#include "simulator/provenance_sink.h"

namespace mlprov::sim {

using metadata::ArtifactId;
using metadata::ArtifactType;
using metadata::EventKind;
using metadata::ExecutionId;
using metadata::ExecutionType;
using metadata::Timestamp;
using metadata::kSecondsPerDay;
using metadata::kSecondsPerHour;

namespace {

double Sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

/// Failpoint name of an operator type: "exec." + lowercased type name,
/// e.g. kTrainer -> "exec.trainer", kStatisticsGen -> "exec.statisticsgen".
std::string FailpointNameFor(ExecutionType type) {
  std::string name = "exec.";
  for (const char* p = metadata::ToString(type); *p != '\0'; ++p) {
    name += static_cast<char>(
        std::tolower(static_cast<unsigned char>(*p)));
  }
  return name;
}

/// Seed salt for the per-pipeline fault-injection stream: keeps injector
/// decisions independent of the pipeline's own rng_ and span_gen_ draws.
constexpr uint64_t kFaultStreamSalt = 0xFA171FA171FA171Full;
constexpr uint64_t kRetryJitterSalt = 0xBAC0FF0000000000ull;

/// Distinguishes a Transform's per-span analyzer-accumulator cache keys
/// from its full-window invocation key (they would collide at window
/// size 1 otherwise).
constexpr uint64_t kSpanAccumulatorSalt = 0xACC0ACC0ACC0ACC0ull;

#ifndef MLPROV_OBS_NOOP
/// Emits the causal-trace records for one operator attempt: an 'X' span
/// plus the flow events that stitch the cross-layer chain. Flow ids are
/// derived from (pipeline id, execution id) — see obs/span_context.h —
/// so the downstream session/scorer can bind to them without shared
/// state, and traces are identical at any thread count. Flow volume is
/// bounded: causal starts only for successful Trainer executions (the
/// spans the streaming plane consumes), retry hops only on fault paths,
/// cache hops only on hits. All of it is gated on the recorder being
/// enabled (--trace_out=), so untraced runs pay one relaxed load.
void EmitExecSpan(const PipelineTrace& trace,
                  metadata::ExecutionType type,
                  metadata::ExecutionId exec_id, int attempt, bool cached,
                  bool succeeded, metadata::ExecutionId retry_prev,
                  metadata::ExecutionId cache_origin, bool will_retry) {
  obs::TraceRecorder& recorder = obs::TraceRecorder::Global();
  if (!recorder.enabled()) return;
  const uint64_t trace_id = obs::DeriveTraceId(
      static_cast<uint64_t>(trace.config.pipeline_id), trace.config.seed);
  // kInvalidId is 0, the SpanContext "no parent" sentinel.
  const obs::SpanContext ctx{trace_id, static_cast<uint64_t>(exec_id),
                             static_cast<uint64_t>(retry_prev)};
  obs::TraceEvent event;
  event.name = "exec.run";
  event.category = "sim.exec";
  event.ph = 'X';
  event.ts_us = obs::TraceRecorder::ProcessEpochMicros();
  event.dur_us = 1;
  event.tid = obs::TraceRecorder::CurrentThreadId();
  event.args.emplace_back(
      "pipeline", obs::Json(static_cast<int64_t>(trace.config.pipeline_id)));
  event.args.emplace_back("exec", obs::Json(exec_id));
  event.args.emplace_back("type", obs::Json(metadata::ToString(type)));
  event.args.emplace_back("attempt", obs::Json(attempt));
  if (cached) event.args.emplace_back("cache_hit", obs::Json(true));
  if (!succeeded) event.args.emplace_back("failed", obs::Json(true));
  recorder.Record(std::move(event));
  if (type == metadata::ExecutionType::kTrainer && succeeded) {
    // Causal chain start: the streaming session marks this flow at
    // arrival ('t'), the segmenter at seal ('t'), the scorer at the
    // abort/continue decision ('f').
    recorder.RecordFlow('s', "exec", "flow.causal",
                        obs::FlowBindId(ctx, obs::FlowKind::kCausal));
  }
  if (retry_prev != metadata::kInvalidId) {
    // This attempt finishes the retry hop the failed attempt started.
    const obs::SpanContext prev{trace_id,
                                static_cast<uint64_t>(retry_prev), 0};
    recorder.RecordFlow('f', "retry", "flow.retry",
                        obs::FlowBindId(prev, obs::FlowKind::kRetry));
  }
  if (will_retry) {
    recorder.RecordFlow('s', "attempt", "flow.retry",
                        obs::FlowBindId(ctx, obs::FlowKind::kRetry));
  }
  if (cached) {
    // Both phases of the cache hop are emitted at hit time: the
    // populating execution may predate tracing (or sit behind a dropped
    // buffer entry), so a populate-time 's' could dangle. The origin
    // execution id travels in the args instead.
    obs::TraceEvent origin;
    origin.name = "origin";
    origin.category = "flow.cache";
    origin.ph = 's';
    origin.ts_us = obs::TraceRecorder::ProcessEpochMicros();
    origin.tid = obs::TraceRecorder::CurrentThreadId();
    origin.flow_id = obs::FlowBindId(ctx, obs::FlowKind::kCache);
    if (cache_origin != metadata::kInvalidId) {
      origin.args.emplace_back("origin_exec", obs::Json(cache_origin));
    }
    recorder.Record(std::move(origin));
    recorder.RecordFlow('f', "hit", "flow.cache",
                        obs::FlowBindId(ctx, obs::FlowKind::kCache));
  }
}
#else
inline void EmitExecSpan(const PipelineTrace&, metadata::ExecutionType,
                         metadata::ExecutionId, int, bool, bool,
                         metadata::ExecutionId, metadata::ExecutionId,
                         bool) {}
#endif  // MLPROV_OBS_NOOP

/// Anonymized per-span feature names, mirroring the paper's obfuscation
/// (Appendix B: "with all terms anonymized"): name equality is destroyed
/// across spans, so Eq. 2's name term rarely fires in corpus analysis,
/// exactly as in the paper's corpus.
void AnonymizeNames(dataspan::SpanStats& span, int64_t pipeline_id) {
  for (size_t i = 0; i < span.features.size(); ++i) {
    const uint64_t mix =
        0x9E3779B97F4A7C15ull * static_cast<uint64_t>(pipeline_id + 1) +
        0xBF58476D1CE4E5B9ull * static_cast<uint64_t>(span.span_number + 1) +
        i;
    span.features[i].name = "anon" + std::to_string(mix);
  }
}

}  // namespace

PipelineSimulator::PipelineSimulator(const CorpusConfig& corpus_config,
                                     const PipelineConfig& config,
                                     const CostModel* cost_model)
    : corpus_(corpus_config),
      config_(config),
      cost_model_(cost_model),
      rng_(config.seed),
      span_gen_(config.Schema(), common::Rng(config.seed ^ 0xABCDEF)),
      injector_(&corpus_config.fault_plan,
                common::Rng::Derive(config.seed, kFaultStreamSalt)
                    .NextUint64()),
      cache_(corpus_config.cache_policy, corpus_config.cache_capacity),
      // The pipeline's seed stands in for its data-source + static
      // operator-configuration identity: the cache is per-pipeline, so
      // only *dynamic* per-invocation state (code version, input
      // contents) needs to enter each key beyond this salt.
      cache_config_salt_(config.seed) {
  if (common::kFailpointsEnabled && !corpus_.fault_plan.empty()) {
    const common::FailpointSpec* any = corpus_.fault_plan.Find("exec.any");
    for (int t = 0; t < metadata::kNumExecutionTypes; ++t) {
      const auto type = static_cast<ExecutionType>(t);
      const common::FailpointSpec* spec =
          corpus_.fault_plan.Find(FailpointNameFor(type));
      op_faults_[static_cast<size_t>(t)] = spec != nullptr ? spec : any;
    }
  }
}

template <typename PrepareFn>
PipelineSimulator::OpResult PipelineSimulator::RunOperator(
    PipelineTrace& trace, ExecutionType type, Timestamp start,
    double cost_hours, bool base_succeeded, uint64_t config_salt,
    const std::vector<ArtifactId>& inputs, PrepareFn&& prepare,
    double precached_fraction) {
  OpResult result;
  if (cache_.enabled()) {
    result.key = cache_.Key(type, config_salt ^ cache_config_salt_, inputs);
  }
  const common::FailpointSpec* spec =
      op_faults_[static_cast<size_t>(type)];
  if (spec == nullptr || !base_succeeded ||
      !MLPROV_FAILPOINT(injector_, spec)) {
    // Fast path: no armed failpoint fired (baseline failures from the
    // calibrated Bernoulli model stay single-shot). With the cache off
    // this emits exactly the pre-retry sequence, so a disabled or
    // never-firing plan yields byte-identical traces.
    // Pushes deploy a model — a side effect, not a pure computation — so
    // kPusher is never memoized.
    const bool cacheable = cache_.enabled() && base_succeeded &&
                           type != ExecutionType::kPusher;
    if (cacheable && cache_.Lookup(result.key)) {
      result.exec = AddExecution(trace, type, start, cost_hours,
                                 /*succeeded=*/true, /*cached=*/true);
      prepare(result.exec, start);
      result.succeeded = true;
      result.cache_hit = true;
      result.end = trace.store.GetExecution(result.exec)->end_time;
      result.attempts = 1;
      cache_.CreditSavedHours(cost_hours);
      EmitExecSpan(trace, type, result.exec, /*attempt=*/0,
                   /*cached=*/true, /*succeeded=*/true, metadata::kInvalidId,
                   cache_.OriginOf(result.key), /*will_retry=*/false);
      return result;
    }
    double charged = cost_hours;
    if (cacheable && precached_fraction > 0.0) {
      // Partial reuse (tf.Transform-style): per-span analyzer
      // accumulators covering `precached_fraction` of the inputs are
      // already cached, so only the remainder is computed.
      charged = cost_hours * (1.0 - precached_fraction);
      cache_.CreditPartialSavedHours(cost_hours - charged);
    }
    result.exec = AddExecution(trace, type, start, charged,
                               base_succeeded);
    prepare(result.exec, start);
    result.succeeded = base_succeeded;
    result.end = trace.store.GetExecution(result.exec)->end_time;
    result.attempts = 1;
    if (cacheable) cache_.Insert(result.key, result.exec);
    EmitExecSpan(trace, type, result.exec, /*attempt=*/0,
                 /*cached=*/false, base_succeeded, metadata::kInvalidId,
                 metadata::kInvalidId, /*will_retry=*/false);
    return result;
  }
  // The failpoint fired: drop any existing entry for this invocation and
  // never populate one — a poisoned result must not be served to retries.
  // The orchestrator pays for the failed attempt, then retries with
  // exponential backoff at full cost. Transient faults re-roll per
  // attempt; persistent faults doom every retry of this invocation.
  cache_.Invalidate(result.key);
  ExecutionId first = metadata::kInvalidId;
  Timestamp attempt_start = start;
  const int max_attempts = 1 + std::max(0, corpus_.max_retries);
  for (int attempt = 0;; ++attempt) {
    bool attempt_fails = true;
    if (attempt > 0 && spec->mode == common::FaultMode::kTransient) {
      attempt_fails = MLPROV_FAILPOINT(injector_, spec);
    }
    const ExecutionId id = AddExecution(trace, type, attempt_start,
                                        cost_hours, !attempt_fails);
    prepare(id, attempt_start);
    metadata::Execution* exec = trace.store.MutableExecution(id);
    const ExecutionId retry_prev =
        first != metadata::kInvalidId ? result.exec : metadata::kInvalidId;
    if (first == metadata::kInvalidId) {
      first = id;
    } else {
      exec->properties["retry_attempt"] = static_cast<int64_t>(attempt);
      exec->properties["retry_of"] = first;
    }
    result.exec = id;
    result.end = exec->end_time;
    ++result.attempts;
    const bool will_retry = attempt_fails && attempt + 1 < max_attempts;
    EmitExecSpan(trace, type, id, attempt, /*cached=*/false,
                 !attempt_fails, retry_prev, metadata::kInvalidId,
                 will_retry);
    if (!attempt_fails) {
      result.succeeded = true;
      return result;
    }
    MLPROV_COUNTER_INC("exec.fault_failures");
    MLPROV_GAUGE_ADD("waste.failed_hours", cost_hours);
    if (attempt + 1 >= max_attempts) {
      result.succeeded = false;
      return result;
    }
    MLPROV_COUNTER_INC("exec.retries");
    // Jitter is keyed by (pipeline seed, invocation, attempt), never
    // drawn from rng_: retries perturb no other stream, and the whole
    // corpus stays byte-identical at any thread count.
    const double backoff_hours =
        corpus_.retry_backoff_hours *
        std::pow(corpus_.retry_backoff_multiplier, attempt) *
        common::BackoffJitterFactor(
            config_.seed,
            kRetryJitterSalt ^ static_cast<uint64_t>(first),
            static_cast<uint64_t>(attempt), corpus_.retry_backoff_jitter);
    attempt_start =
        result.end + std::max<Timestamp>(
                         60, static_cast<Timestamp>(backoff_hours *
                                                    kSecondsPerHour));
  }
}

ExecutionId PipelineSimulator::AddExecution(PipelineTrace& trace,
                                            ExecutionType type,
                                            Timestamp start,
                                            double cost_hours,
                                            bool succeeded, bool cached) {
  metadata::Execution exec;
  exec.type = type;
  exec.start_time = start;
  // Wall-clock duration: a fraction of the machine-hours (operators run
  // distributed), at least a minute. The jitter draw happens even for
  // cache-served executions so the Rng stream stays aligned with the
  // cache-off run (corpora then differ only in costs and timestamps).
  const double jitter = rng_.Uniform(0.15, 0.5);
  const double duration_hours =
      cached ? 1.0 / 60.0 : std::max(cost_hours * jitter, 1.0 / 60.0);
  exec.end_time =
      start + static_cast<Timestamp>(duration_hours * kSecondsPerHour);
  exec.succeeded = succeeded;
  exec.compute_cost = cached ? 0.0 : cost_hours;
  if (cached) exec.properties["cache_hit"] = static_cast<int64_t>(1);
  MLPROV_COUNTER_INC("sim.executions");
  if (type == ExecutionType::kTrainer && !cached) {
    MLPROV_HISTOGRAM_RECORD("sim.trainer_cost_hours", cost_hours);
  }
  const ExecutionId id = trace.store.PutExecution(std::move(exec));
  (void)trace.store.AddToContext(context_, id);
  return id;
}

ArtifactId PipelineSimulator::AddArtifact(PipelineTrace& trace,
                                          ArtifactType type,
                                          Timestamp create_time) {
  metadata::Artifact artifact;
  artifact.type = type;
  artifact.create_time = create_time;
  MLPROV_COUNTER_INC("sim.artifacts");
  const ArtifactId id = trace.store.PutArtifact(std::move(artifact));
  (void)trace.store.AddArtifactToContext(context_, id);
  return id;
}

void PipelineSimulator::Link(PipelineTrace& trace, ExecutionId exec,
                             ArtifactId artifact, EventKind kind,
                             Timestamp time) {
  const auto status = trace.store.PutEvent({exec, artifact, kind, time});
  (void)status;  // ids are internally generated; cannot fail
}

void PipelineSimulator::IngestSpans(Timestamp now, int count,
                                    PipelineTrace& trace) {
  for (int i = 0; i < count; ++i) {
    const double cost = cost_model_->Cost(ExecutionType::kExampleGen,
                                          config_, unhealthy_, rng_);
    // Each ingestion reads a fresh slice of the data source, so the span
    // number salts the key: ExampleGen is never served from the cache,
    // but its key content-addresses the produced span for downstream use.
    const OpResult gen_result = RunOperator(
        trace, ExecutionType::kExampleGen, now, cost, true,
        static_cast<uint64_t>(next_span_number_), {},
        [](ExecutionId, Timestamp) {});
    if (!gen_result.succeeded) continue;  // span lost; no downstream
    MLPROV_COUNTER_INC("sim.spans_ingested");
    const ExecutionId gen = gen_result.exec;
    const Timestamp created = gen_result.end;
    const ArtifactId span =
        AddArtifact(trace, ArtifactType::kExamples, created);
    Link(trace, gen, span, EventKind::kOutput, created);
    cache_.TagArtifact(span,
                       ExecutionCache::OutputFingerprint(gen_result.key, 0));

    metadata::Artifact* a = trace.store.MutableArtifact(span);
    a->properties["span"] = next_span_number_;
    a->properties["feature_count"] =
        static_cast<int64_t>(config_.num_features);
    a->properties["categorical_count"] = static_cast<int64_t>(
        std::lround(config_.num_features * config_.categorical_fraction));
    a->properties["log10_domain_mean"] = config_.log10_domain_mean;

    // The span's one stats object: the feed, sessions and WAL entries
    // share it from here on.
    auto stats = std::make_shared<dataspan::SpanStats>(span_gen_.NextSpan());
    stats->span_number = next_span_number_++;
    AnonymizeNames(*stats, config_.pipeline_id);
    trace.span_stats.emplace(span, std::move(stats));
    window_.push_back(span);
    window_movements_.push_back(pending_movement_);
    pending_movement_ = 0.0;

    // Per-span data analysis chain.
    if (config_.has_statistics_gen) {
      const double stats_cost = cost_model_->Cost(
          ExecutionType::kStatisticsGen, config_, unhealthy_, rng_);
      const OpResult sg_result = RunOperator(
          trace, ExecutionType::kStatisticsGen, created, stats_cost, true,
          /*config_salt=*/0, {span}, [&](ExecutionId sg, Timestamp s) {
            Link(trace, sg, span, EventKind::kInput, s);
          });
      if (!sg_result.succeeded) continue;  // no stats, no schema chain
      const ExecutionId sg = sg_result.exec;
      const Timestamp sg_end = sg_result.end;
      const ArtifactId stats_artifact =
          AddArtifact(trace, ArtifactType::kExampleStatistics, sg_end);
      Link(trace, sg, stats_artifact, EventKind::kOutput, sg_end);
      cache_.TagArtifact(
          stats_artifact,
          ExecutionCache::OutputFingerprint(sg_result.key, 0));

      if (config_.has_schema_gen &&
          schema_artifact_ == metadata::kInvalidId) {
        const double schema_cost = cost_model_->Cost(
            ExecutionType::kSchemaGen, config_, unhealthy_, rng_);
        const OpResult schema_result = RunOperator(
            trace, ExecutionType::kSchemaGen, sg_end, schema_cost, true,
            /*config_salt=*/0, {stats_artifact},
            [&](ExecutionId schema_gen, Timestamp s) {
              Link(trace, schema_gen, stats_artifact, EventKind::kInput,
                   s);
            });
        if (schema_result.succeeded) {
          const Timestamp schema_end = schema_result.end;
          schema_artifact_ =
              AddArtifact(trace, ArtifactType::kSchema, schema_end);
          Link(trace, schema_result.exec, schema_artifact_,
               EventKind::kOutput, schema_end);
          cache_.TagArtifact(
              schema_artifact_,
              ExecutionCache::OutputFingerprint(schema_result.key, 0));
        }
        // On failure schema_artifact_ stays invalid: the next span's
        // trigger re-attempts schema inference.
      }
      // Note: the validator checks stats against the frozen schema, but
      // the schema is referenced as configuration (TFX resolver), not as a
      // data-provenance edge — otherwise every graphlet would transitively
      // include span 0's ingestion chain.
      if (config_.has_example_validator &&
          schema_artifact_ != metadata::kInvalidId) {
        const double v_cost = cost_model_->Cost(
            ExecutionType::kExampleValidator, config_, unhealthy_, rng_);
        // The frozen schema is configuration, not a provenance edge (see
        // above), so it enters the key as a salt instead of an input.
        const OpResult v_result = RunOperator(
            trace, ExecutionType::kExampleValidator, sg_end, v_cost, true,
            cache_.FingerprintOf(schema_artifact_), {stats_artifact},
            [&](ExecutionId validator, Timestamp s) {
              Link(trace, validator, stats_artifact, EventKind::kInput,
                   s);
            });
        if (v_result.succeeded) {
          const Timestamp v_end = v_result.end;
          const ArtifactId anomalies =
              AddArtifact(trace, ArtifactType::kExampleAnomalies, v_end);
          Link(trace, v_result.exec, anomalies, EventKind::kOutput,
               v_end);
          trace.store.MutableArtifact(anomalies)->properties["anomaly"] =
              static_cast<int64_t>(unhealthy_ && rng_.Bernoulli(0.35)
                                       ? 1
                                       : 0);
        }
      }
    }
  }
  while (window_.size() > static_cast<size_t>(config_.window_spans)) {
    window_.pop_front();
    window_movements_.pop_front();
  }
}

void PipelineSimulator::DoTrigger(Timestamp now, PipelineTrace& trace) {
  MLPROV_COUNTER_INC("sim.triggers");
  // Health episode dynamics.
  if (unhealthy_) {
    if (rng_.Bernoulli(config_.unhealthy_exit_prob)) unhealthy_ = false;
  } else {
    if (rng_.Bernoulli(config_.unhealthy_enter_prob)) unhealthy_ = true;
  }
  // Data drift: occasional shocks plus mild background drift.
  const double shock_prob =
      config_.shock_prob * (unhealthy_ ? 2.0 : 1.0);
  // Data-regime dynamics: calm <-> volatile, with rare shocks on top.
  if (volatile_regime_) {
    if (rng_.Bernoulli(config_.volatile_exit_prob)) {
      volatile_regime_ = false;
    }
  } else if (rng_.Bernoulli(config_.volatile_enter_prob)) {
    volatile_regime_ = true;
  }
  double pending_shock = 0.0;
  if (rng_.Bernoulli(shock_prob)) {
    pending_shock = rng_.Uniform(0.8, 2.0);
  }

  // Ingestion: a fresh span per trigger (continuous pipelines ingest at
  // their own trigger cadence — "ingesting the newest span of data every
  // hour and triggering new runs", Section 2.1). The first trigger
  // back-fills the rolling window with historical spans at the data
  // cadence.
  bool stale_retrain = false;
  {
    MLPROV_SPAN(ingest_span, "sim.ingest");
    int new_spans = config_.spans_per_trigger;
    if (window_.empty()) {
      const double spacing_hours = std::clamp(
          std::min(config_.span_interval_hours,
                   24.0 / config_.triggers_per_day),
          0.25, 24.0);
      const auto spacing =
          static_cast<Timestamp>(spacing_hours * kSecondsPerHour);
      for (int i = config_.window_spans - 1; i >= 1; --i) {
        IngestSpans(std::max<Timestamp>(0, now - i * spacing), 1, trace);
      }
    } else if (rng_.Bernoulli(config_.retrain_same_data_prob) ||
               (unhealthy_ && rng_.Bernoulli(0.6))) {
      new_spans = 0;  // author retrain on the same data / ingestion stall
    }
    if (new_spans > 0) {
      // Each fresh span moves the data distribution by the regime's
      // movement scale; the movement perturbs the span-stats latents
      // (observable through the Appendix-B similarity) and is recorded as
      // the span's movement for the quality model.
      for (int i = 0; i < new_spans; ++i) {
        double movement = (volatile_regime_ ? corpus_.volatile_movement
                                            : corpus_.calm_movement) *
                          std::abs(rng_.Normal(1.0, 0.35));
        movement += pending_shock;
        pending_shock = 0.0;
        span_gen_.Shock(movement);
        pending_movement_ = movement;
        IngestSpans(now, 1, trace);
      }
      last_span_time_ = now;
    } else {
      stale_retrain = true;
    }
  }
  if (window_.empty()) return;  // nothing to train on

  ArtifactId transformed = metadata::kInvalidId;
  ArtifactId transform_graph = metadata::kInvalidId;
  bool transform_failed = false;
  ArtifactId hyperparams = metadata::kInvalidId;
  bool tuner_ran = false;
  {
  MLPROV_SPAN(analyze_span, "sim.analyze");
  // Unhealthy episodes trigger debugging re-analysis of the current data
  // (engineers re-run StatisticsGen while investigating), an observable
  // pre-trainer footprint of the episode.
  if (unhealthy_ && config_.has_statistics_gen) {
    const double rerun_cost = cost_model_->Cost(
        ExecutionType::kStatisticsGen, config_, unhealthy_, rng_);
    // Same key as the span's ingestion-time StatisticsGen: the debug
    // rerun recomputes statistics that are already cached, so with the
    // cache on it is (almost) always a hit — a pure §6 redundancy.
    const OpResult rerun = RunOperator(
        trace, ExecutionType::kStatisticsGen, now, rerun_cost, true,
        /*config_salt=*/0, {window_.back()},
        [&](ExecutionId id, Timestamp s) {
          Link(trace, id, window_.back(), EventKind::kInput, s);
        });
    if (rerun.succeeded) {
      const ArtifactId rerun_stats = AddArtifact(
          trace, ArtifactType::kExampleStatistics, rerun.end);
      Link(trace, rerun.exec, rerun_stats, EventKind::kOutput, rerun.end);
      cache_.TagArtifact(rerun_stats,
                         ExecutionCache::OutputFingerprint(rerun.key, 0));
    }
  }

  // Pre-processing.
  if (config_.has_transform) {
    const double cost = cost_model_->Cost(ExecutionType::kTransform,
                                          config_, unhealthy_, rng_);
    const double fail_prob =
        corpus_.transform_failure_prob *
        (unhealthy_ ? corpus_.unhealthy_failure_multiplier : 1.0);
    const bool transform_base_failed = rng_.Bernoulli(fail_prob);
    const std::vector<ArtifactId> window_inputs(window_.begin(),
                                                window_.end());
    // Per-span analyzer accumulators (tf.Transform-style partial reuse):
    // spans already analyzed by an earlier Transform of this pipeline
    // contribute cached accumulators, so a window that merely slid by one
    // span only pays for the new span's analysis pass.
    double precached = 0.0;
    if (cache_.enabled() && !transform_base_failed) {
      int covered = 0;
      for (const ArtifactId span : window_) {
        if (cache_.LookupAccumulator(cache_.Key(
                ExecutionType::kTransform, kSpanAccumulatorSalt, {span}))) {
          ++covered;
        }
      }
      precached = static_cast<double>(covered) /
                  static_cast<double>(window_.size());
    }
    const OpResult transform_result = RunOperator(
        trace, ExecutionType::kTransform, now, cost,
        !transform_base_failed, /*config_salt=*/0, window_inputs,
        [&](ExecutionId transform, Timestamp s) {
          for (ArtifactId span : window_) {
            Link(trace, transform, span, EventKind::kInput, s);
          }
          // Analyzer usage accounting (Figure 4): one application per
          // relevant feature per execution.
          metadata::Execution* texec =
              trace.store.MutableExecution(transform);
          const auto categorical = static_cast<int64_t>(std::lround(
              config_.num_features * config_.categorical_fraction));
          const int64_t numerical = config_.num_features - categorical;
          for (metadata::AnalyzerType a : config_.analyzers) {
            int64_t uses = 0;
            switch (a) {
              case metadata::AnalyzerType::kVocabulary:
                // Applied to every categorical feature.
                uses = categorical;
                break;
              case metadata::AnalyzerType::kCustom:
                uses = 1 + static_cast<int64_t>(rng_.NextUint64(4));
                break;
              default:
                // Numeric analyzers cover the subset of numeric features
                // whose transform needs that statistic.
                uses = std::max<int64_t>(
                    1, static_cast<int64_t>(
                           0.35 * static_cast<double>(numerical)));
            }
            if (uses > 0) {
              texec->properties[std::string("an_") +
                                metadata::ToString(a)] = uses;
            }
          }
        },
        precached);
    transform_failed = !transform_result.succeeded;
    if (!transform_failed) {
      const Timestamp t_end = transform_result.end;
      transform_graph =
          AddArtifact(trace, ArtifactType::kTransformGraph, t_end);
      Link(trace, transform_result.exec, transform_graph,
           EventKind::kOutput, t_end);
      transformed =
          AddArtifact(trace, ArtifactType::kTransformedExamples, t_end);
      Link(trace, transform_result.exec, transformed, EventKind::kOutput,
           t_end);
      cache_.TagArtifact(
          transform_graph,
          ExecutionCache::OutputFingerprint(transform_result.key, 0));
      cache_.TagArtifact(
          transformed,
          ExecutionCache::OutputFingerprint(transform_result.key, 1));
      if (cache_.enabled()) {
        // Publish this window's per-span accumulators for future reuse.
        for (const ArtifactId span : window_) {
          cache_.Insert(cache_.Key(ExecutionType::kTransform,
                                   kSpanAccumulatorSalt, {span}));
        }
      }
    }
  }
  if (transform_failed) {
    MLPROV_COUNTER_INC("sim.transform_failures");
    return;  // downstream blocked; costs already paid
  }

  // Occasional tuning.
  if (config_.has_tuner && (trainers_emitted_ == 0 || rng_.Bernoulli(0.1))) {
    const double cost = cost_model_->Cost(ExecutionType::kTuner, config_,
                                          unhealthy_, rng_);
    const std::vector<ArtifactId> tuner_inputs =
        transformed != metadata::kInvalidId
            ? std::vector<ArtifactId>{transformed}
            : std::vector<ArtifactId>(window_.begin(), window_.end());
    const OpResult tuner = RunOperator(
        trace, ExecutionType::kTuner, now, cost, true, /*config_salt=*/0,
        tuner_inputs, [&](ExecutionId id, Timestamp s) {
          if (transformed != metadata::kInvalidId) {
            Link(trace, id, transformed, EventKind::kInput, s);
          } else {
            for (ArtifactId span : window_) {
              Link(trace, id, span, EventKind::kInput, s);
            }
          }
        });
    if (tuner.succeeded) {
      hyperparams =
          AddArtifact(trace, ArtifactType::kHyperparameters, tuner.end);
      Link(trace, tuner.exec, hyperparams, EventKind::kOutput, tuner.end);
      cache_.TagArtifact(hyperparams,
                         ExecutionCache::OutputFingerprint(tuner.key, 0));
      tuner_ran = true;
    }
  }

  // Custom business-logic operator.
  if (config_.has_custom_op && rng_.Bernoulli(0.3)) {
    const double cost = cost_model_->Cost(ExecutionType::kCustom, config_,
                                          unhealthy_, rng_);
    const OpResult custom = RunOperator(
        trace, ExecutionType::kCustom, now, cost, true, /*config_salt=*/0,
        {window_.back()}, [&](ExecutionId id, Timestamp s) {
          Link(trace, id, window_.back(), EventKind::kInput, s);
        });
    if (custom.succeeded) {
      const ArtifactId out =
          AddArtifact(trace, ArtifactType::kCustom, custom.end);
      Link(trace, custom.exec, out, EventKind::kOutput, custom.end);
    }
  }
  }  // analyze phase

  // Code churn: at most one version bump per trigger.
  const bool code_changed = rng_.Bernoulli(config_.code_change_prob);
  if (code_changed) ++code_version_;

  // Parallel trainers: each one anchors a graphlet.
  for (int k = 0; k < config_.parallel_trainers; ++k) {
    if (trainers_emitted_ >= corpus_.max_graphlets_per_pipeline) return;
    MLPROV_SPAN(train_span, "sim.train");
    const double trainer_fail_prob =
        corpus_.trainer_failure_prob *
        (unhealthy_ ? corpus_.unhealthy_failure_multiplier : 1.0);
    const bool trainer_failed = rng_.Bernoulli(trainer_fail_prob);
    const double cost = cost_model_->Cost(ExecutionType::kTrainer, config_,
                                          unhealthy_, rng_);
    const Timestamp start = now + k * 60;  // stagger parallel trainers
    // Trainer identity = code version (the architecture and model type
    // never change mid-pipeline and live in the per-pipeline salt) over
    // its full input closure. A warm start reads the previous model, so
    // it naturally enters the inputs below and a warm retrain is *not* a
    // cache hit — continuing training is a genuinely new computation.
    std::vector<ArtifactId> trainer_inputs;
    if (transformed != metadata::kInvalidId) {
      trainer_inputs = {transformed, transform_graph};
    } else {
      trainer_inputs.assign(window_.begin(), window_.end());
    }
    if (hyperparams != metadata::kInvalidId) {
      trainer_inputs.push_back(hyperparams);
    }
    if (config_.warm_start && last_model_ != metadata::kInvalidId) {
      trainer_inputs.push_back(last_model_);
    }
    // Each attempt (including retries of injected faults) is a distinct
    // Trainer execution anchoring its own graphlet, with its inputs
    // linked in full — retried work shows up as measurable waste.
    const OpResult trainer_result = RunOperator(
        trace, ExecutionType::kTrainer, start, cost, !trainer_failed,
        static_cast<uint64_t>(code_version_), trainer_inputs,
        [&](ExecutionId trainer, Timestamp s) {
          MLPROV_COUNTER_INC("sim.trainers");
          ++trainers_emitted_;
          metadata::Execution* texec =
              trace.store.MutableExecution(trainer);
          texec->properties["code_version"] = code_version_;
          texec->properties["model_type"] =
              static_cast<int64_t>(config_.model_type);
          texec->properties["architecture"] =
              static_cast<int64_t>(config_.architecture);
          // Latent generative state, recorded for diagnostics and tests
          // only — never used as model features (it would be oracular
          // leakage).
          texec->properties["dbg_volatile"] =
              static_cast<int64_t>(volatile_regime_ ? 1 : 0);
          texec->properties["dbg_unhealthy"] =
              static_cast<int64_t>(unhealthy_ ? 1 : 0);

          if (transformed != metadata::kInvalidId) {
            Link(trace, trainer, transformed, EventKind::kInput, s);
            Link(trace, trainer, transform_graph, EventKind::kInput, s);
          } else {
            for (ArtifactId span : window_) {
              Link(trace, trainer, span, EventKind::kInput, s);
            }
          }
          if (hyperparams != metadata::kInvalidId) {
            Link(trace, trainer, hyperparams, EventKind::kInput, s);
          }
          if (config_.warm_start && last_model_ != metadata::kInvalidId) {
            Link(trace, trainer, last_model_, EventKind::kInput, s);
            texec->properties["warm_start"] = static_cast<int64_t>(1);
          }
        });
    const int failed_attempts =
        trainer_result.attempts - (trainer_result.succeeded ? 1 : 0);
    if (failed_attempts > 0) {
      // Failed trainer attempts anchor graphlets that can never push.
      MLPROV_COUNTER_ADD("sim.trainer_failures", failed_attempts);
      MLPROV_COUNTER_ADD("sim.graphlets_wasted", failed_attempts);
    }
    if (!trainer_result.succeeded) continue;  // no model, no downstream

    const ExecutionId trainer = trainer_result.exec;
    metadata::Execution* texec = trace.store.MutableExecution(trainer);
    const Timestamp trained = trainer_result.end;
    const ArtifactId model =
        AddArtifact(trace, ArtifactType::kModel, trained);
    Link(trace, trainer, model, EventKind::kOutput, trained);
    // A model re-trained from identical inputs and code fingerprints
    // equal to its predecessor, so downstream validation chains hit too.
    cache_.TagArtifact(
        model, ExecutionCache::OutputFingerprint(trainer_result.key, 0));
    last_model_ = model;

    // Latent model quality drives validation and pushing. Quality peaks
    // at moderate data novelty (stale retrains bring no improvement;
    // fresh shocks fail validation) — the non-monotone interaction that
    // defeats single-signal heuristics (Section 5.1). Novelty is the mean
    // per-span movement over the trainer's window, mirroring what the
    // consecutive-window similarity observes.
    double novelty = 0.0;
    for (double m : window_movements_) novelty += m;
    novelty /= static_cast<double>(std::max<size_t>(1, window_.size()));
    texec->properties["dbg_novelty"] = novelty;
    const double novelty_deviation =
        (novelty - corpus_.novelty_sweet_spot) / corpus_.novelty_width;
    const double floor = novelty_deviation < 0.0
                             ? corpus_.novelty_stale_floor
                             : corpus_.novelty_floor;
    const double novelty_term = std::max(
        floor,
        corpus_.novelty_weight * (1.0 - novelty_deviation * novelty_deviation));
    const double quality_logit =
        config_.push_propensity + novelty_term +
        (code_changed ? corpus_.push_code_change_weight : 0.0) +
        (tuner_ran ? 0.4 : 0.0) +
        rng_.Normal(0.0, corpus_.push_noise_sigma);
    // Hard validation failures (deterministic, not noisy): a model
    // retrained on unchanged data cannot beat the last blessed model; a
    // model trained during an unhealthy episode or right after a
    // distribution shock fails its quality bar. These produce the cleanly
    // separable unpushed subpopulation behind Figure 10(a)'s
    // "50% of waste at zero freshness cost".
    const bool hard_fail = stale_retrain || unhealthy_ ||
                           novelty_deviation > 1.8;
    const bool passes =
        !hard_fail && rng_.Bernoulli(Sigmoid(quality_logit));

    Timestamp cursor = trained;
    ArtifactId evaluation = metadata::kInvalidId;
    bool blessed = false;
    bool evaluator_ok = true;
    {
    MLPROV_SPAN(validate_span, "sim.validate");
    if (config_.has_evaluator) {
      const double e_cost = cost_model_->Cost(ExecutionType::kEvaluator,
                                              config_, unhealthy_, rng_);
      const OpResult ev = RunOperator(
          trace, ExecutionType::kEvaluator, cursor, e_cost, true,
          /*config_salt=*/0, {model, window_.back()},
          [&](ExecutionId id, Timestamp s) {
            Link(trace, id, model, EventKind::kInput, s);
            Link(trace, id, window_.back(), EventKind::kInput, s);
          });
      cursor = ev.end;
      evaluator_ok = ev.succeeded;
      if (ev.succeeded) {
        evaluation =
            AddArtifact(trace, ArtifactType::kModelEvaluation, cursor);
        Link(trace, ev.exec, evaluation, EventKind::kOutput, cursor);
        cache_.TagArtifact(evaluation,
                           ExecutionCache::OutputFingerprint(ev.key, 0));
      }
    }
    // An evaluator that never completed cannot bless the model.
    blessed = passes && evaluator_ok;
    // TFX's Evaluator itself emits a ModelBlessing; in pipelines without a
    // separate ModelValidator it is the gating operator.
    if (config_.has_evaluator && !config_.has_model_validator && passes &&
        evaluator_ok) {
      const ArtifactId blessing =
          AddArtifact(trace, ArtifactType::kModelBlessing, cursor);
      const ExecutionId evaluator_exec =
          trace.store.ConsumersOf(model).back();
      Link(trace, evaluator_exec, blessing, EventKind::kOutput, cursor);
      trace.store.MutableArtifact(blessing)->properties["blessed"] =
          static_cast<int64_t>(1);
    }
    if (config_.has_model_validator) {
      const double v_cost = cost_model_->Cost(
          ExecutionType::kModelValidator, config_, unhealthy_, rng_);
      std::vector<ArtifactId> validator_inputs = {model};
      if (evaluation != metadata::kInvalidId) {
        validator_inputs.push_back(evaluation);
      }
      const OpResult validator = RunOperator(
          trace, ExecutionType::kModelValidator, cursor, v_cost, true,
          /*config_salt=*/0, validator_inputs,
          [&](ExecutionId id, Timestamp s) {
            Link(trace, id, model, EventKind::kInput, s);
            if (evaluation != metadata::kInvalidId) {
              Link(trace, id, evaluation, EventKind::kInput, s);
            }
          });
      cursor = validator.end;
      if (!validator.succeeded) blessed = false;
      if (passes && evaluator_ok && validator.succeeded) {
        // TFX materializes the blessing only on success: the graphlet's
        // post-trainer shape nearly reveals the outcome (RF:Validation).
        const ArtifactId blessing =
            AddArtifact(trace, ArtifactType::kModelBlessing, cursor);
        Link(trace, validator.exec, blessing, EventKind::kOutput, cursor);
        trace.store.MutableArtifact(blessing)->properties["blessed"] =
            static_cast<int64_t>(1);
      }
    }
    if (blessed && config_.has_infra_validator) {
      const double i_cost = cost_model_->Cost(
          ExecutionType::kInfraValidator, config_, unhealthy_, rng_);
      const OpResult infra = RunOperator(
          trace, ExecutionType::kInfraValidator, cursor, i_cost, true,
          /*config_salt=*/0, {model}, [&](ExecutionId id, Timestamp s) {
            Link(trace, id, model, EventKind::kInput, s);
          });
      cursor = infra.end;
      if (infra.succeeded) {
        const ArtifactId infra_blessing =
            AddArtifact(trace, ArtifactType::kInfraBlessing, cursor);
        Link(trace, infra.exec, infra_blessing, EventKind::kOutput,
             cursor);
      }
    }
    }  // validate phase

    // Push gating: validated + not throttled + small downstream noise.
    const bool throttled =
        config_.min_push_interval_hours > 0.0 && last_push_time_ >= 0 &&
        (cursor - last_push_time_) <
            static_cast<Timestamp>(config_.min_push_interval_hours *
                                   kSecondsPerHour);
    const bool downstream_noise = rng_.Bernoulli(0.06);
    bool pushed_now = false;
    if (blessed && !throttled && !downstream_noise) {
      MLPROV_SPAN(push_span, "sim.push");
      const double p_cost = cost_model_->Cost(ExecutionType::kPusher,
                                              config_, unhealthy_, rng_);
      const OpResult pusher = RunOperator(
          trace, ExecutionType::kPusher, cursor, p_cost, true,
          /*config_salt=*/0, {model}, [&](ExecutionId id, Timestamp s) {
            Link(trace, id, model, EventKind::kInput, s);
          });
      cursor = pusher.end;
      if (pusher.succeeded) {
        const ArtifactId pushed =
            AddArtifact(trace, ArtifactType::kPushedModel, cursor);
        Link(trace, pusher.exec, pushed, EventKind::kOutput, cursor);
        last_push_time_ = cursor;
        pushed_now = true;
      }
    }
    // The paper's waste metric: graphlets whose model never deploys.
    if (pushed_now) {
      MLPROV_COUNTER_INC("sim.graphlets_pushed");
    } else {
      MLPROV_COUNTER_INC("sim.graphlets_wasted");
    }
  }
}

PipelineTrace PipelineSimulator::Run() {
  MLPROV_SPAN(pipeline_span, "sim.pipeline");
  MLPROV_SPAN_ARG(pipeline_span, "pipeline_id", config_.pipeline_id);
  MLPROV_SPAN_ARG(pipeline_span, "model_type",
                  metadata::ToString(config_.model_type));
  MLPROV_SPAN_ARG(pipeline_span, "lifespan_days", config_.lifespan_days);
  PipelineTrace trace;
  trace.config = config_;
  metadata::Context ctx;
  ctx.name = "pipeline-" + std::to_string(config_.pipeline_id);
  context_ = trace.store.PutContext(std::move(ctx));
  // Live feed: drained at trigger boundaries, when every node created by
  // the trigger has its final property values (no mutation escapes the
  // creating trigger), so each record is complete when it leaves.
  ProvenanceFeeder feeder(sink_);
  if (sink_ != nullptr) feeder.Flush(trace);

  const double lifespan_seconds = config_.lifespan_days * kSecondsPerDay;
  const double start_headroom =
      std::max(0.0, corpus_.horizon_days * kSecondsPerDay -
                        lifespan_seconds);
  Timestamp now =
      static_cast<Timestamp>(rng_.NextDouble() * start_headroom);
  const Timestamp end = now + static_cast<Timestamp>(lifespan_seconds);
  const double mean_interval =
      kSecondsPerDay / config_.triggers_per_day;
  while (now < end &&
         trainers_emitted_ < corpus_.max_graphlets_per_pipeline) {
    DoTrigger(now, trace);
    if (sink_ != nullptr) feeder.Flush(trace);
    const double interval = mean_interval * rng_.LogNormal(0.0, 0.45);
    now += std::max<Timestamp>(60, static_cast<Timestamp>(interval));
  }
  if (sink_ != nullptr) feeder.Finish(trace);
  if (cache_.enabled()) {
    // One flush per pipeline: the registry merges per-pipeline deltas
    // deterministically regardless of ParallelFor interleaving.
    const ExecutionCache::Stats& cs = cache_.stats();
    (void)cs;  // referenced only through macros, which may compile out
    MLPROV_COUNTER_ADD("cache.hits", cs.hits);
    MLPROV_COUNTER_ADD("cache.misses", cs.misses);
    MLPROV_COUNTER_ADD("cache.evictions", cs.evictions);
    MLPROV_COUNTER_ADD("cache.invalidations", cs.invalidations);
    MLPROV_COUNTER_ADD("cache.partial_hits", cs.partial_hits);
    MLPROV_COUNTER_ADD("cache.span_hits", cs.span_hits);
    MLPROV_COUNTER_ADD("cache.span_misses", cs.span_misses);
    MLPROV_GAUGE_ADD("cache.saved_hours", cs.saved_hours);
  }
  return trace;
}

PipelineTrace SimulatePipeline(const CorpusConfig& corpus_config,
                               const PipelineConfig& config,
                               const CostModel& cost_model,
                               ProvenanceSink* sink) {
  PipelineSimulator simulator(corpus_config, config, &cost_model);
  simulator.set_sink(sink);
  return simulator.Run();
}

}  // namespace mlprov::sim
