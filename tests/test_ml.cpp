// ML library tests: dataset handling, scalers, kernels, SMO SVM training on
// separable and XOR data, the SMO against its row-cache reference, metrics
// math, ROC properties, cross-validation, grid search, feature selection,
// and thread-count invariance of the parallel CV paths.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "ml/cross_validation.h"
#include "ml/feature_selection.h"
#include "util/bytes.h"
#include "util/error.h"

#include "svm_reference.h"

namespace ssresf::ml {
namespace {

Dataset linearly_separable(int n, util::Rng& rng, double margin = 1.0) {
  Dataset d({"x", "y"});
  for (int i = 0; i < n; ++i) {
    const double x = rng.uniform(-3, 3);
    const double noise = rng.uniform(-0.3, 0.3);
    // Separator: y = x; positives above by at least `margin`.
    const int label = i % 2 == 0 ? 1 : -1;
    d.add({x, x + label * (margin + std::abs(noise))}, label);
  }
  return d;
}

Dataset xor_dataset(int per_quadrant, util::Rng& rng) {
  Dataset d({"x", "y"});
  for (int i = 0; i < per_quadrant; ++i) {
    for (const double sx : {-1.0, 1.0}) {
      for (const double sy : {-1.0, 1.0}) {
        const double x = sx * rng.uniform(0.5, 1.5);
        const double y = sy * rng.uniform(0.5, 1.5);
        d.add({x, y}, sx * sy > 0 ? 1 : -1);
      }
    }
  }
  return d;
}

TEST(Dataset, AddAndSubsetAndProject) {
  Dataset d({"a", "b", "c"});
  d.add({1, 2, 3}, 1);
  d.add({4, 5, 6}, -1);
  d.add({7, 8, 9}, 1);
  EXPECT_EQ(d.size(), 3u);
  EXPECT_EQ(d.count_label(1), 2u);
  const std::size_t idx[] = {2, 0};
  const Dataset sub = d.subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.row(0)[0], 7);
  const int features[] = {2, 0};
  const Dataset proj = d.project(features);
  EXPECT_EQ(proj.num_features(), 2u);
  EXPECT_EQ(proj.row(1)[0], 6);
  EXPECT_EQ(proj.feature_names()[0], "c");
  EXPECT_THROW(d.add({1, 2}, 1), InvalidArgument);
  EXPECT_THROW(d.add({1, 2, 3}, 0), InvalidArgument);
}

TEST(Dataset, StratifiedKFoldBalanced) {
  util::Rng rng(1);
  Dataset d({"x"});
  for (int i = 0; i < 50; ++i) d.add({static_cast<double>(i)}, 1);
  for (int i = 0; i < 100; ++i) d.add({static_cast<double>(i)}, -1);
  const auto folds = stratified_kfold(d, 5, rng);
  ASSERT_EQ(folds.size(), 5u);
  std::size_t total = 0;
  for (const auto& fold : folds) {
    std::size_t pos = 0;
    for (const std::size_t i : fold) pos += d.label(i) == 1;
    EXPECT_EQ(pos, 10u);            // 50 positives / 5 folds
    EXPECT_EQ(fold.size(), 30u);    // 150 / 5
    total += fold.size();
  }
  EXPECT_EQ(total, d.size());
}

TEST(Scaler, MinMaxMapsToUnitInterval) {
  Dataset d({"a", "b"});
  d.add({0, 100}, 1);
  d.add({10, 200}, -1);
  d.add({5, 150}, 1);
  MinMaxScaler scaler;
  scaler.fit_transform(d);
  EXPECT_DOUBLE_EQ(d.row(0)[0], 0.0);
  EXPECT_DOUBLE_EQ(d.row(1)[0], 1.0);
  EXPECT_DOUBLE_EQ(d.row(2)[0], 0.5);
  EXPECT_DOUBLE_EQ(d.row(2)[1], 0.5);
}

TEST(Scaler, ConstantFeatureMapsToZero) {
  Dataset d({"a"});
  d.add({7}, 1);
  d.add({7}, -1);
  MinMaxScaler scaler;
  scaler.fit_transform(d);
  EXPECT_DOUBLE_EQ(d.row(0)[0], 0.0);
}

TEST(Scaler, StandardizeZeroMeanUnitVar) {
  Dataset d({"a"});
  for (const double v : {1.0, 2.0, 3.0, 4.0, 5.0}) d.add({v}, 1);
  d.add({6.0}, -1);
  StandardScaler scaler;
  scaler.fit_transform(d);
  double mean = 0;
  for (std::size_t i = 0; i < d.size(); ++i) mean += d.row(i)[0];
  EXPECT_NEAR(mean / static_cast<double>(d.size()), 0.0, 1e-12);
}

TEST(Kernel, Values) {
  const double a[] = {1.0, 0.0};
  const double b[] = {0.0, 1.0};
  KernelConfig linear{KernelType::kLinear};
  EXPECT_DOUBLE_EQ(kernel_eval(linear, a, a), 1.0);
  EXPECT_DOUBLE_EQ(kernel_eval(linear, a, b), 0.0);
  KernelConfig rbf{KernelType::kRbf, 0.5};
  EXPECT_DOUBLE_EQ(kernel_eval(rbf, a, a), 1.0);
  EXPECT_NEAR(kernel_eval(rbf, a, b), std::exp(-1.0), 1e-12);
  KernelConfig poly{KernelType::kPoly, 1.0, 2, 1.0};
  EXPECT_DOUBLE_EQ(kernel_eval(poly, a, a), 4.0);  // (1*1+1)^2
}

TEST(Svm, LearnsLinearlySeparableData) {
  util::Rng rng(42);
  const Dataset train = linearly_separable(120, rng);
  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  config.c = 10.0;
  SvmClassifier model(config);
  model.train(train);
  EXPECT_GT(model.num_support_vectors(), 0u);
  const Dataset test = linearly_separable(60, rng);
  EXPECT_GE(evaluate(model, test).accuracy(), 0.95);
}

TEST(Svm, RbfSolvesXor) {
  util::Rng rng(7);
  const Dataset train = xor_dataset(25, rng);
  SvmConfig config;
  config.kernel.type = KernelType::kRbf;
  config.kernel.gamma = 1.0;
  config.c = 10.0;
  SvmClassifier model(config);
  model.train(train);
  const Dataset test = xor_dataset(10, rng);
  EXPECT_GE(evaluate(model, test).accuracy(), 0.95)
      << "RBF SVM should separate XOR";
}

TEST(Svm, LinearCannotSolveXor) {
  util::Rng rng(7);
  const Dataset train = xor_dataset(25, rng);
  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  SvmClassifier model(config);
  model.train(train);
  EXPECT_LE(evaluate(model, train).accuracy(), 0.75);
}

TEST(Svm, DecisionValueSignMatchesMargin) {
  util::Rng rng(3);
  const Dataset train = linearly_separable(80, rng, 2.0);
  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  config.c = 5.0;
  SvmClassifier model(config);
  model.train(train);
  const double far_pos[] = {0.0, 10.0};
  const double far_neg[] = {0.0, -10.0};
  EXPECT_GT(model.decision_value(far_pos), 1.0);
  EXPECT_LT(model.decision_value(far_neg), -1.0);
}

TEST(Svm, SingleClassTrainsConstantClassifier) {
  // A campaign that observed no soft errors yields a single-class dataset;
  // training then degenerates to the constant majority classifier instead
  // of failing the whole pipeline.
  Dataset d({"x"});
  d.add({1}, 1);
  d.add({2}, 1);
  SvmClassifier model;
  model.train(d);
  EXPECT_EQ(model.num_support_vectors(), 0u);
  const double anywhere[] = {-7.0};
  EXPECT_EQ(model.predict(anywhere), 1);

  Dataset neg({"x"});
  neg.add({1}, -1);
  SvmClassifier neg_model;
  neg_model.train(neg);
  EXPECT_EQ(neg_model.predict(anywhere), -1);

  Dataset empty({"x"});
  SvmClassifier empty_model;
  EXPECT_THROW(empty_model.train(empty), InvalidArgument);
}

/// `n` rows of `features` uniform [0, 1) values; roughly `positive_share` of
/// the labels are +1, and both classes always occur.
Dataset random_dataset(std::uint64_t seed, int n, int features,
                       double positive_share) {
  util::Rng rng(seed);
  Dataset d;
  for (int i = 0; i < n; ++i) {
    std::vector<double> row;
    for (int f = 0; f < features; ++f) row.push_back(rng.uniform());
    const int label =
        i == 0 ? 1 : (i == 1 ? -1 : (rng.chance(positive_share) ? 1 : -1));
    d.add(std::move(row), label);
  }
  return d;
}

/// Datasets for the reference comparison: seeded random ones of several
/// shapes, n = 2, one feature, duplicated rows (some with both labels) and
/// heavy class imbalance.
std::vector<std::pair<std::string, Dataset>> reference_datasets() {
  std::vector<std::pair<std::string, Dataset>> out;
  for (const std::uint64_t seed : {1, 2, 3}) {
    out.emplace_back("random-" + std::to_string(seed),
                     random_dataset(seed, 60 + 20 * static_cast<int>(seed),
                                    4, 0.4));
  }
  Dataset pair;
  pair.add({0.2, 0.7}, 1);
  pair.add({0.9, 0.1}, -1);
  out.emplace_back("n=2", pair);
  Dataset twins;
  twins.add({0.5, 0.5}, 1);
  twins.add({0.5, 0.5}, -1);
  out.emplace_back("n=2-duplicates", twins);
  out.emplace_back("one-feature", random_dataset(4, 50, 1, 0.5));
  Dataset duplicates = random_dataset(5, 40, 3, 0.5);
  for (std::size_t i = 0; i < 20; ++i) {
    const std::vector<double> row(duplicates.row(i).begin(),
                                  duplicates.row(i).end());
    duplicates.add(row, i % 3 == 0 ? -duplicates.label(i) : duplicates.label(i));
  }
  out.emplace_back("duplicates", duplicates);
  out.emplace_back("imbalanced", random_dataset(6, 150, 3, 0.03));
  return out;
}

std::vector<std::uint8_t> encoded(const SvmClassifier& model) {
  util::ByteWriter w;
  model.encode(w);
  return w.data();
}

TEST(SvmReference, ModelsMatchTheRowCacheSolverByteForByte) {
  for (const auto& [name, data] : reference_datasets()) {
    for (const KernelType kernel :
         {KernelType::kLinear, KernelType::kRbf, KernelType::kPoly}) {
      for (const double c : {0.5, 8.0}) {
        SvmConfig config;
        config.kernel.type = kernel;
        config.c = c;
        const testing_support::ReferenceSvm want =
            testing_support::reference_svm_train(config, data);
        SvmClassifier model(config);
        model.train(data);
        const std::string where = name + " kernel " +
                                  std::to_string(static_cast<int>(kernel)) +
                                  " C " + std::to_string(c);
        EXPECT_EQ(encoded(model), want.encoded) << where;
        EXPECT_LE(model.kernel_evals(), want.kernel_evals) << where;
      }
    }
  }
}

TEST(SvmReference, KernelStoreEvictionKeepsModelsIdentical) {
  // Budgets of zero, one and a few columns: the store evicts the columns of
  // zero-alpha samples, or keeps none, and evaluates the rest afresh.
  const Dataset data = random_dataset(7, 120, 3, 0.4);
  for (const KernelType kernel : {KernelType::kRbf, KernelType::kPoly}) {
    SvmConfig config;
    config.kernel.type = kernel;
    config.c = 0.5;
    const testing_support::ReferenceSvm want =
        testing_support::reference_svm_train(config, data);
    SvmClassifier full(config);
    full.train(data);
    ASSERT_EQ(encoded(full), want.encoded);
    for (const std::size_t columns : {0, 1, 4}) {
      SvmClassifier model(config);
      detail::train_with_kernel_budget(model, data,
                                       columns * data.size() * sizeof(double));
      EXPECT_EQ(encoded(model), want.encoded) << columns << " columns";
      EXPECT_GT(model.kernel_evals(), full.kernel_evals())
          << columns << " columns: the budget should force re-evaluation";
    }
  }
}

TEST(Metrics, ConfusionMathAndF1) {
  ConfusionMatrix cm;
  // 8 TP, 2 FN, 85 TN, 5 FP.
  for (int i = 0; i < 8; ++i) cm.add(1, 1);
  for (int i = 0; i < 2; ++i) cm.add(1, -1);
  for (int i = 0; i < 85; ++i) cm.add(-1, -1);
  for (int i = 0; i < 5; ++i) cm.add(-1, 1);
  EXPECT_DOUBLE_EQ(cm.tpr(), 0.8);
  EXPECT_NEAR(cm.tnr(), 85.0 / 90.0, 1e-12);
  EXPECT_NEAR(cm.precision(), 8.0 / 13.0, 1e-12);
  EXPECT_DOUBLE_EQ(cm.accuracy(), 0.93);
  const double p = 8.0 / 13.0;
  const double r = 0.8;
  EXPECT_NEAR(cm.f1(), 2 * p * r / (p + r), 1e-12);
}

TEST(Metrics, RocPerfectAndRandom) {
  // Perfectly ranked scores -> AUC 1.
  const double perfect[] = {0.9, 0.8, 0.2, 0.1};
  const int labels[] = {1, 1, -1, -1};
  const auto curve = roc_curve(perfect, labels);
  EXPECT_DOUBLE_EQ(roc_auc(curve), 1.0);
  // Inverted scores -> AUC 0.
  const double inverted[] = {0.1, 0.2, 0.8, 0.9};
  EXPECT_DOUBLE_EQ(roc_auc(roc_curve(inverted, labels)), 0.0);
}

TEST(Metrics, RocMonotonicAndEndsAtOne) {
  util::Rng rng(5);
  std::vector<double> scores;
  std::vector<int> labels;
  for (int i = 0; i < 200; ++i) {
    const int y = rng.chance(0.4) ? 1 : -1;
    scores.push_back(y * 0.3 + rng.uniform(-1, 1));
    labels.push_back(y);
  }
  const auto curve = roc_curve(scores, labels);
  for (std::size_t i = 1; i < curve.size(); ++i) {
    EXPECT_GE(curve[i].fpr, curve[i - 1].fpr);
    EXPECT_GE(curve[i].tpr, curve[i - 1].tpr);
  }
  EXPECT_DOUBLE_EQ(curve.back().fpr, 1.0);
  EXPECT_DOUBLE_EQ(curve.back().tpr, 1.0);
  const double auc = roc_auc(curve);
  EXPECT_GT(auc, 0.5);
  EXPECT_LE(auc, 1.0);
}

TEST(CrossValidation, ReportsReasonableAccuracy) {
  util::Rng rng(11);
  const Dataset d = linearly_separable(150, rng);
  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  config.c = 5.0;
  util::Rng cv_rng(1);
  const CvResult cv = cross_validate(d, config, 5, cv_rng);
  EXPECT_EQ(cv.fold_accuracies.size(), 5u);
  EXPECT_GE(cv.mean_accuracy, 0.9);
  EXPECT_EQ(cv.aggregate.total(), d.size());
  EXPECT_EQ(cv.decision_values.size(), d.size());
}

TEST(GridSearch, FindsWorkingHyperparameters) {
  util::Rng rng(13);
  const Dataset d = xor_dataset(20, rng);
  SvmConfig base;
  base.kernel.type = KernelType::kRbf;
  const double cs[] = {0.01, 1.0, 10.0};
  const double gammas[] = {0.001, 1.0};
  util::Rng gs_rng(2);
  const auto result = grid_search(d, base, cs, gammas, 4, gs_rng);
  EXPECT_EQ(result.grid.size(), 6u);
  EXPECT_GE(result.best_score, 0.9);
  EXPECT_GT(result.best.kernel.gamma, 0.001);  // tiny gamma can't fit XOR
}

TEST(FeatureSelection, FisherRanksDiscriminativeFirst) {
  util::Rng rng(17);
  Dataset d({"signal", "noise1", "noise2"});
  for (int i = 0; i < 200; ++i) {
    const int y = i % 2 == 0 ? 1 : -1;
    d.add({y * 2.0 + rng.uniform(-0.5, 0.5), rng.uniform(-1, 1),
           rng.uniform(-1, 1)},
          y);
  }
  const auto scores = fisher_scores(d);
  EXPECT_GT(scores[0], scores[1] * 10);
  EXPECT_GT(scores[0], scores[2] * 10);

  SvmConfig config;
  config.kernel.type = KernelType::kLinear;
  util::Rng fs_rng(3);
  const auto sel = select_features(d, config, 4, fs_rng);
  EXPECT_EQ(sel.ranked[0], 0);
  EXPECT_EQ(sel.cv_score_by_count.size(), 3u);
  // The single informative feature should already reach peak accuracy.
  EXPECT_LE(sel.best_count, 2);
  EXPECT_GE(sel.cv_score_by_count[0], 0.9);
}

template <class T>
bool same_bytes(const std::vector<T>& a, const std::vector<T>& b) {
  return a.size() == b.size() &&
         (a.empty() || std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0);
}

bool same_cv(const CvResult& a, const CvResult& b) {
  return same_bytes(a.fold_accuracies, b.fold_accuracies) &&
         a.aggregate.tp == b.aggregate.tp && a.aggregate.tn == b.aggregate.tn &&
         a.aggregate.fp == b.aggregate.fp && a.aggregate.fn == b.aggregate.fn &&
         std::memcmp(&a.mean_accuracy, &b.mean_accuracy, sizeof(double)) == 0 &&
         std::memcmp(&a.stddev_accuracy, &b.stddev_accuracy, sizeof(double)) ==
             0 &&
         same_bytes(a.decision_values, b.decision_values) &&
         same_bytes(a.labels, b.labels);
}

TEST(ParallelCv, ResultsAreIdenticalForEveryThreadCount) {
  const Dataset d = random_dataset(21, 160, 4, 0.35);
  SvmConfig config;
  config.c = 2.0;
  const double cs[] = {0.5, 2.0, 8.0};
  const double gammas[] = {0.2, 1.0};
  const auto run = [&](int threads) {
    util::Rng rng(5);
    CvResult cv = cross_validate(d, config, 4, rng, threads);
    GridSearchResult grid = grid_search(d, config, cs, gammas, 4, rng, threads);
    FeatureSelectionResult selection = select_features(d, config, 4, rng, threads);
    return std::make_tuple(std::move(cv), std::move(grid), std::move(selection),
                           rng.next());
  };
  const auto [cv1, grid1, sel1, rng1] = run(1);
  for (const int threads : {2, 3, 8}) {
    const auto [cv, grid, sel, rng_after] = run(threads);
    EXPECT_TRUE(same_cv(cv, cv1)) << threads << " threads";
    ASSERT_EQ(grid.grid.size(), grid1.grid.size());
    for (std::size_t p = 0; p < grid.grid.size(); ++p) {
      EXPECT_EQ(std::memcmp(&grid.grid[p], &grid1.grid[p], sizeof(GridPoint)), 0)
          << threads << " threads, grid point " << p;
    }
    EXPECT_TRUE(grid.best == grid1.best) << threads << " threads";
    EXPECT_EQ(std::memcmp(&grid.best_score, &grid1.best_score, sizeof(double)),
              0);
    EXPECT_EQ(sel.ranked, sel1.ranked);
    EXPECT_TRUE(same_bytes(sel.cv_score_by_count, sel1.cv_score_by_count))
        << threads << " threads";
    EXPECT_EQ(sel.best_count, sel1.best_count);
    // Every fork happened in sequential order: the caller's stream is left
    // where a sequential run leaves it.
    EXPECT_EQ(rng_after, rng1);
  }
}

TEST(ParallelCv, SingleClassDatasetFallsBackToMajorityAtAnyThreadCount) {
  Dataset single({"x"});
  for (int i = 0; i < 12; ++i) single.add({static_cast<double>(i)}, -1);
  SvmConfig config;
  for (const int threads : {1, 4}) {
    util::Rng rng(1);
    const CvResult cv = cross_validate(single, config, 3, rng, threads);
    EXPECT_EQ(cv.mean_accuracy, 1.0);
    EXPECT_EQ(cv.decision_values.size(), single.size());
  }
}

}  // namespace
}  // namespace ssresf::ml
