#include "ml/feature_selection.h"

#include <algorithm>
#include <numeric>

#include "util/error.h"

namespace ssresf::ml {

std::vector<double> fisher_scores(const Dataset& dataset) {
  const std::size_t nf = dataset.num_features();
  std::vector<double> mean_pos(nf, 0.0);
  std::vector<double> mean_neg(nf, 0.0);
  std::vector<double> var_pos(nf, 0.0);
  std::vector<double> var_neg(nf, 0.0);
  const double n_pos = static_cast<double>(dataset.count_label(1));
  const double n_neg = static_cast<double>(dataset.count_label(-1));
  if (n_pos == 0 || n_neg == 0) {
    throw InvalidArgument("fisher_scores needs both classes");
  }
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto row = dataset.row(i);
    auto& mean = dataset.label(i) == 1 ? mean_pos : mean_neg;
    for (std::size_t f = 0; f < nf; ++f) mean[f] += row[f];
  }
  for (std::size_t f = 0; f < nf; ++f) {
    mean_pos[f] /= n_pos;
    mean_neg[f] /= n_neg;
  }
  for (std::size_t i = 0; i < dataset.size(); ++i) {
    const auto row = dataset.row(i);
    const bool pos = dataset.label(i) == 1;
    for (std::size_t f = 0; f < nf; ++f) {
      const double d = row[f] - (pos ? mean_pos[f] : mean_neg[f]);
      (pos ? var_pos[f] : var_neg[f]) += d * d;
    }
  }
  std::vector<double> scores(nf, 0.0);
  for (std::size_t f = 0; f < nf; ++f) {
    const double denom = var_pos[f] / n_pos + var_neg[f] / n_neg;
    const double num =
        (mean_pos[f] - mean_neg[f]) * (mean_pos[f] - mean_neg[f]);
    scores[f] = denom > 0 ? num / denom : 0.0;
  }
  return scores;
}

FeatureSelectionResult select_features(const Dataset& dataset,
                                       const SvmConfig& config, int folds,
                                       util::Rng& rng, int threads) {
  const auto scores = fisher_scores(dataset);
  FeatureSelectionResult result;
  result.ranked.resize(scores.size());
  std::iota(result.ranked.begin(), result.ranked.end(), 0);
  std::stable_sort(result.ranked.begin(), result.ranked.end(),
                   [&](int a, int b) {
                     return scores[static_cast<std::size_t>(a)] >
                            scores[static_cast<std::size_t>(b)];
                   });

  std::vector<Dataset> projected;
  projected.reserve(result.ranked.size());
  std::vector<detail::CvJob> jobs;
  for (std::size_t k = 1; k <= result.ranked.size(); ++k) {
    const std::span<const int> top(result.ranked.data(), k);
    projected.push_back(dataset.project(top));
    util::Rng fold_rng = rng.fork();
    jobs.push_back({&projected.back(), config,
                    stratified_kfold(projected.back(), folds, fold_rng)});
  }
  std::vector<double> stddevs;
  for (const CvResult& cv : detail::run_cv_jobs(jobs, threads)) {
    result.cv_score_by_count.push_back(cv.mean_accuracy);
    stddevs.push_back(cv.stddev_accuracy);
  }
  // Smallest subset within half a standard deviation of the best score.
  const std::size_t best_index = static_cast<std::size_t>(
      std::max_element(result.cv_score_by_count.begin(),
                       result.cv_score_by_count.end()) -
      result.cv_score_by_count.begin());
  const double floor =
      result.cv_score_by_count[best_index] - 0.5 * stddevs[best_index];
  result.best_count = static_cast<int>(best_index) + 1;
  for (std::size_t k = 0; k <= best_index; ++k) {
    if (result.cv_score_by_count[k] >= floor) {
      result.best_count = static_cast<int>(k) + 1;
      break;
    }
  }
  return result;
}

}  // namespace ssresf::ml
