#include "ml/cross_validation.h"

#include <cmath>

#include "util/error.h"
#include "util/thread_pool.h"

namespace ssresf::ml {

namespace {

/// Held-out evaluation of one fold; `used` is false when the fold was
/// skipped (empty split or a single-class training split).
struct FoldOutcome {
  bool used = false;
  ConfusionMatrix cm;
  std::vector<double> decision_values;
  std::vector<int> labels;
};

FoldOutcome run_fold(const detail::CvJob& job, std::size_t k) {
  const Dataset& dataset = *job.dataset;
  std::vector<std::size_t> train_idx;
  for (std::size_t j = 0; j < job.folds.size(); ++j) {
    if (j == k) continue;
    train_idx.insert(train_idx.end(), job.folds[j].begin(), job.folds[j].end());
  }
  const auto& test_idx = job.folds[k];
  FoldOutcome out;
  if (test_idx.empty() || train_idx.empty()) return out;

  Dataset train = dataset.subset(train_idx);
  if (train.count_label(1) == 0 || train.count_label(-1) == 0) return out;
  MinMaxScaler scaler;
  scaler.fit_transform(train);

  SvmClassifier model(job.config);
  model.train(train);

  for (const std::size_t i : test_idx) {
    const auto x = scaler.transform_row(dataset.row(i));
    const double score = model.decision_value(x);
    out.cm.add(dataset.label(i), score >= 0 ? 1 : -1);
    out.decision_values.push_back(score);
    out.labels.push_back(dataset.label(i));
  }
  out.used = true;
  return out;
}

CvResult reduce_folds(const Dataset& dataset,
                      std::span<const FoldOutcome> folds) {
  CvResult result;
  for (const FoldOutcome& fold : folds) {
    if (!fold.used) continue;
    result.decision_values.insert(result.decision_values.end(),
                                  fold.decision_values.begin(),
                                  fold.decision_values.end());
    result.labels.insert(result.labels.end(), fold.labels.begin(),
                         fold.labels.end());
    result.fold_accuracies.push_back(fold.cm.accuracy());
    result.aggregate += fold.cm;
  }
  if (result.fold_accuracies.empty()) {
    const bool single_class =
        dataset.size() > 0 &&
        (dataset.count_label(1) == 0 || dataset.count_label(-1) == 0);
    if (!single_class) {
      throw InvalidArgument("cross-validation produced no usable folds");
    }
    // Single-class dataset: every fold degenerates, and the constant
    // majority classifier is trivially right on all held-out samples.
    // Campaigns on robust designs can legitimately observe zero soft
    // errors, so report that instead of failing the whole pipeline.
    const int label = dataset.count_label(1) > 0 ? 1 : -1;
    ConfusionMatrix cm;
    for (std::size_t i = 0; i < dataset.size(); ++i) {
      cm.add(dataset.label(i), label);
      result.decision_values.push_back(static_cast<double>(label));
      result.labels.push_back(dataset.label(i));
    }
    result.fold_accuracies.push_back(cm.accuracy());
    result.aggregate += cm;
  }
  double sum = 0.0;
  for (const double a : result.fold_accuracies) sum += a;
  result.mean_accuracy = sum / static_cast<double>(result.fold_accuracies.size());
  double var = 0.0;
  for (const double a : result.fold_accuracies) {
    var += (a - result.mean_accuracy) * (a - result.mean_accuracy);
  }
  result.stddev_accuracy =
      std::sqrt(var / static_cast<double>(result.fold_accuracies.size()));
  return result;
}

}  // namespace

std::vector<CvResult> detail::run_cv_jobs(std::span<const CvJob> jobs,
                                          int threads) {
  struct Task {
    std::size_t job;
    std::size_t fold;
  };
  std::vector<Task> tasks;
  std::vector<std::vector<FoldOutcome>> outcomes(jobs.size());
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    outcomes[p].resize(jobs[p].folds.size());
    for (std::size_t k = 0; k < jobs[p].folds.size(); ++k) {
      tasks.push_back({p, k});
    }
  }
  util::parallel_for(tasks.size(), threads, [&](std::size_t t) {
    const Task task = tasks[t];
    outcomes[task.job][task.fold] = run_fold(jobs[task.job], task.fold);
  });
  std::vector<CvResult> results;
  results.reserve(jobs.size());
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    results.push_back(reduce_folds(*jobs[p].dataset, outcomes[p]));
  }
  return results;
}

CvResult cross_validate(const Dataset& dataset, const SvmConfig& config,
                        int folds, util::Rng& rng, int threads) {
  const detail::CvJob job{&dataset, config,
                          stratified_kfold(dataset, folds, rng)};
  return std::move(detail::run_cv_jobs({&job, 1}, threads).front());
}

GridSearchResult grid_search(const Dataset& dataset, const SvmConfig& base,
                             std::span<const double> c_values,
                             std::span<const double> gamma_values, int folds,
                             util::Rng& rng, int threads) {
  if (c_values.empty() || gamma_values.empty()) {
    throw InvalidArgument("grid_search needs candidate values");
  }
  std::vector<detail::CvJob> jobs;
  for (const double c : c_values) {
    for (const double gamma : gamma_values) {
      SvmConfig config = base;
      config.c = c;
      config.kernel.gamma = gamma;
      util::Rng fold_rng = rng.fork();
      jobs.push_back({&dataset, config,
                      stratified_kfold(dataset, folds, fold_rng)});
    }
  }
  const std::vector<CvResult> cvs = detail::run_cv_jobs(jobs, threads);
  GridSearchResult result;
  result.best = base;
  result.best_score = -1.0;
  for (std::size_t p = 0; p < jobs.size(); ++p) {
    const SvmConfig& config = jobs[p].config;
    result.grid.push_back({config.c, config.kernel.gamma, cvs[p].mean_accuracy});
    if (cvs[p].mean_accuracy > result.best_score) {
      result.best_score = cvs[p].mean_accuracy;
      result.best = config;
    }
  }
  return result;
}

}  // namespace ssresf::ml
