#include "stream/online_scorer.h"

#include <string>

namespace mlprov::stream {

common::StatusOr<OnlineScorer> OnlineScorer::Train(
    const core::WasteDataset& dataset, const OnlineScorerOptions& options) {
  if (dataset.data.NumRows() == 0) {
    return common::Status::InvalidArgument(
        "OnlineScorer::Train: empty waste dataset");
  }
  const size_t policy = static_cast<size_t>(options.policy_variant);
  if (policy >= kStreamingVariants.size()) {
    return common::Status::InvalidArgument(
        "OnlineScorer::Train: policy variant must be a streaming variant "
        "(Input, Input+Pre, Input+Pre+Trainer), got " +
        std::string(core::ToString(options.policy_variant)));
  }
  OnlineScorer scorer;
  scorer.options_ = options;
  const core::GraphletFeaturizer::Schema schema =
      core::GraphletFeaturizer::BuildSchema(options.features);
  if (schema.names.size() != dataset.data.NumFeatures()) {
    return common::Status::InvalidArgument(
        "OnlineScorer::Train: feature options disagree with the dataset "
        "schema (" +
        std::to_string(schema.names.size()) + " vs " +
        std::to_string(dataset.data.NumFeatures()) + " columns)");
  }
  const core::WasteMitigation mitigation(&dataset, options.mitigation);
  for (size_t v = 0; v < kStreamingVariants.size(); ++v) {
    core::TrainedVariant& trained = scorer.variants_[v];
    trained = mitigation.Train(kStreamingVariants[v]);
    if (!trained.forest.IsFitted()) {
      return common::Status::InvalidArgument(
          "OnlineScorer::Train: the training split (" +
          std::to_string(mitigation.train_rows().size()) + " of " +
          std::to_string(dataset.data.NumRows()) +
          " rows) fits no forest for " +
          std::string(core::ToString(kStreamingVariants[v])));
    }
    trained.forest.MapFeatures(trained.columns);
  }
  return scorer;
}

double OnlineScorer::Score(core::Variant variant,
                           const std::vector<double>& row) const {
  return variants_[static_cast<size_t>(variant)].forest.PredictProba(
      row.data());
}

double OnlineScorer::Threshold(core::Variant variant) const {
  return variants_[static_cast<size_t>(variant)].threshold;
}

}  // namespace mlprov::stream
