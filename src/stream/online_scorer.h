#ifndef MLPROV_STREAM_ONLINE_SCORER_H_
#define MLPROV_STREAM_ONLINE_SCORER_H_

/// Online waste scoring at the Table 3 intervention points. An
/// OnlineScorer holds one trained forest per *streaming* variant —
/// RF:Input, RF:Input+Pre, and RF:Input+Pre+Trainer (RF:Validation is
/// not an online option: by validation time the graphlet has already
/// paid its full cost) — and scores a single featurized graphlet row as
/// each variant's feature groups become observable in the feed:
///
///   - Input / Input+Pre: observable at the trainer's first output
///     event (all trainer inputs and pre-trainer operators precede it).
///   - Input+Pre+Trainer: observable at the first post-trainer
///     descendant event (the trainer's own shape is complete).
///
/// The session acts on ONE policy variant: when its score falls below
/// the threshold chosen on the training split, the graphlet is marked
/// for abort at that variant's intervention point, and the cost of the
/// never-run downstream stages is credited as waste.avoided_hours when
/// the graphlet seals. Aborting a graphlet that would have pushed is a
/// lost push — the freshness cost the Figure 10 tradeoff curve sweeps.
///
/// Known divergence from batch evaluation (documented, accepted):
/// concurrently running trainers can reach their intervention points in
/// arrival order, which the simulator's 60s stagger can place ahead of
/// trainer *end-time* order; the history-window features then see a
/// slightly different "previous graphlet" than the batch dataset's.
/// Segmentation itself is never affected.

#include <array>
#include <cstddef>
#include <vector>

#include "common/status.h"
#include "core/features.h"
#include "core/waste_mitigation.h"

namespace mlprov::stream {

/// The streaming variants, indexable by static_cast<size_t>(variant).
inline constexpr std::array<core::Variant, 3> kStreamingVariants = {
    core::Variant::kInput, core::Variant::kInputPre,
    core::Variant::kInputPreTrainer};

struct OnlineScorerOptions {
  /// Must match the featurization the training dataset was built with.
  core::FeatureOptions features;
  core::MitigationOptions mitigation;
  /// The variant whose abort/continue decision the session enforces.
  core::Variant policy_variant = core::Variant::kInput;
};

/// One per-graphlet streaming decision, settled when the cell seals.
struct ScoreDecision {
  metadata::ExecutionId trainer = metadata::kInvalidId;
  /// The policy variant the abort decision used.
  core::Variant variant = core::Variant::kInput;
  double score = 0.0;
  double threshold = 0.5;
  /// Score fell below the threshold at the intervention point: the
  /// downstream stages would not have run.
  bool abort = false;
  /// Per streaming variant: the score, and whether the variant's
  /// intervention point was actually observed in the feed (failed
  /// trainers are scored late, at seal time).
  std::array<double, 3> variant_scores = {};
  std::array<bool, 3> variant_scored = {};
  // --- settled at seal ---
  bool settled = false;
  bool pushed = false;  // ground-truth outcome
  /// Hours of downstream compute not spent on an aborted graphlet
  /// (full-stage cost minus cost up to the intervention point).
  double avoided_hours = 0.0;
  /// Aborted a graphlet that would have pushed (freshness cost).
  bool lost_push = false;
};

/// Aggregate waste accounting over a session's settled decisions.
struct WasteAccounting {
  size_t decisions = 0;
  size_t aborts = 0;
  size_t lost_pushes = 0;
  double avoided_hours = 0.0;
};

class OnlineScorer {
 public:
  /// Trains the three streaming variants on a batch dataset (the warm-up
  /// corpus) with WasteMitigation's grouped split, so thresholds are
  /// chosen exactly like Table 3's. Fails with InvalidArgument on an
  /// empty dataset, a non-streaming policy variant, or a training split
  /// too small to fit every variant's forest.
  static common::StatusOr<OnlineScorer> Train(
      const core::WasteDataset& dataset,
      const OnlineScorerOptions& options = {});

  /// Scores a full-schema featurized row under one variant's forest,
  /// reading the variant's columns from the row in place. Equal to the
  /// batch path's score of the row projected to those columns.
  double Score(core::Variant variant,
               const std::vector<double>& row) const;
  double Threshold(core::Variant variant) const;

  core::Variant policy_variant() const { return options_.policy_variant; }
  const core::FeatureOptions& feature_options() const {
    return options_.features;
  }

 private:
  OnlineScorer() = default;

  OnlineScorerOptions options_;
  /// Each forest's splits are mapped onto full-schema columns
  /// (RandomForest::MapFeatures), so Score reads rows unprojected.
  std::array<core::TrainedVariant, 3> variants_;
};

}  // namespace mlprov::stream

#endif  // MLPROV_STREAM_ONLINE_SCORER_H_
