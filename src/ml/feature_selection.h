#pragma once

#include "ml/cross_validation.h"

namespace ssresf::ml {

/// Fisher score of every feature: (m+ - m-)^2 / (v+ + v-). Higher is more
/// discriminative. Zero-variance features score 0.
[[nodiscard]] std::vector<double> fisher_scores(const Dataset& dataset);

/// The paper's feature-selection experiment (Fig. 5): rank features by
/// Fisher score, then evaluate the mean k-fold CV accuracy using the top-1,
/// top-2, ... top-N feature subsets. best_count is the smallest subset
/// within half a standard deviation of the best score. `threads` as in
/// cross_validate: every subset's folds train as one task list.
struct FeatureSelectionResult {
  std::vector<int> ranked;               // feature indices, best first
  std::vector<double> cv_score_by_count; // [k-1] = score using top-k
  int best_count = 0;
};

[[nodiscard]] FeatureSelectionResult select_features(const Dataset& dataset,
                                                     const SvmConfig& config,
                                                     int folds,
                                                     util::Rng& rng,
                                                     int threads = 1);

}  // namespace ssresf::ml
