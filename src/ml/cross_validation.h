#pragma once

#include "ml/metrics.h"
#include "ml/scaler.h"

namespace ssresf::ml {

/// Result of a k-fold cross-validation run.
struct CvResult {
  std::vector<double> fold_accuracies;
  ConfusionMatrix aggregate;  // summed over held-out folds
  double mean_accuracy = 0.0;
  double stddev_accuracy = 0.0;
  /// Held-out decision values + labels, for ROC plotting (Fig. 6).
  std::vector<double> decision_values;
  std::vector<int> labels;
};

/// Stratified k-fold cross-validation: per fold, fit a MinMaxScaler and the
/// SVM on the training split, evaluate on the held-out split.
///
/// `threads` (<= 1: one) trains folds concurrently here and in grid_search /
/// select_features. Every RNG draw happens before training, in sequential
/// order, and results are reduced in sequential order, so the result is
/// bit-identical for every thread count.
[[nodiscard]] CvResult cross_validate(const Dataset& dataset,
                                      const SvmConfig& config, int folds,
                                      util::Rng& rng, int threads = 1);

/// Grid search over (C, gamma) with k-fold CV, as in Sec. IV-B.
struct GridPoint {
  double c = 0.0;
  double gamma = 0.0;
  double score = 0.0;
};

struct GridSearchResult {
  SvmConfig best;
  double best_score = 0.0;
  std::vector<GridPoint> grid;
};

[[nodiscard]] GridSearchResult grid_search(const Dataset& dataset,
                                           const SvmConfig& base,
                                           std::span<const double> c_values,
                                           std::span<const double> gamma_values,
                                           int folds, util::Rng& rng,
                                           int threads = 1);

namespace detail {

/// One cross-validation to run: the fold split is drawn before any training.
struct CvJob {
  const Dataset* dataset = nullptr;
  SvmConfig config;
  std::vector<std::vector<std::size_t>> folds;
};

/// Runs every (job, fold) training as one flat task list on `threads`
/// workers, then reduces each job's folds in order into its CvResult.
[[nodiscard]] std::vector<CvResult> run_cv_jobs(std::span<const CvJob> jobs,
                                                int threads);

}  // namespace detail

}  // namespace ssresf::ml
