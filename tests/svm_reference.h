// Reference SMO for the SVM tests: the solver as it stood before the lazy
// kernel store, kept verbatim as an oracle. It reads whole Q-matrix rows
// from an LRU row cache, so it evaluates every row it visits in full. The
// library's solver must produce byte-identical models from the same inputs
// while evaluating no more kernel values.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "ml/svm.h"
#include "util/bytes.h"
#include "util/error.h"

namespace ssresf::testing_support {

struct ReferenceSvm {
  std::vector<std::uint8_t> encoded;  // SvmClassifier::encode layout
  std::uint64_t kernel_evals = 0;
};

namespace reference_detail {

using ml::Dataset;
using ml::KernelConfig;
using ml::kernel_eval;

constexpr std::size_t kQCacheBytes = std::size_t{64} << 20;

/// LRU cache of Q-matrix rows (row i = K(x_i, x_j) for all j), computed on
/// demand. Symmetry is exploited on fill: entries whose mirror row is
/// resident are copied instead of re-evaluated, so a fully resident cache
/// costs exactly the n(n+1)/2 evaluations of a triangular precompute while
/// touching rows lazily.
class QRowCache {
 public:
  QRowCache(const Dataset& dataset, const KernelConfig& kernel,
            std::uint64_t& evals)
      : dataset_(dataset), kernel_(kernel), evals_(evals) {
    const std::size_t n = dataset.size();
    capacity_ = std::clamp<std::size_t>(
        kQCacheBytes / (n * sizeof(double)), 2, n);
    resident_.assign(n, nullptr);
    diag_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      diag_[i] = kernel_eval(kernel_, dataset_.row(i), dataset_.row(i));
      ++evals_;
    }
  }

  [[nodiscard]] double diag(std::size_t i) const { return diag_[i]; }

  /// Reference stays valid until at least one more row() call has completed
  /// after the next one (capacity >= 2: the two most recent rows coexist).
  const std::vector<double>& row(std::size_t i) {
    if (auto it = index_.find(i); it != index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);
      return it->second->second;
    }
    const std::size_t n = dataset_.size();
    if (lru_.size() >= capacity_) {
      // Recycle the least-recently-used row's storage.
      const std::size_t evicted = lru_.back().first;
      index_.erase(evicted);
      resident_[evicted] = nullptr;
      lru_.splice(lru_.begin(), lru_, std::prev(lru_.end()));
      lru_.front().first = i;
    } else {
      lru_.emplace_front(i, std::vector<double>(n));
    }
    std::vector<double>& row = lru_.front().second;
    for (std::size_t j = 0; j < n; ++j) {
      if (j == i) {
        row[j] = diag_[i];
      } else if (resident_[j] != nullptr) {
        row[j] = (*resident_[j])[i];  // K is symmetric
      } else {
        row[j] = kernel_eval(kernel_, dataset_.row(i), dataset_.row(j));
        ++evals_;
      }
    }
    index_[i] = lru_.begin();
    resident_[i] = &row;
    return row;
  }

 private:
  using RowList = std::list<std::pair<std::size_t, std::vector<double>>>;
  const Dataset& dataset_;
  const KernelConfig& kernel_;
  std::uint64_t& evals_;
  std::size_t capacity_ = 2;
  std::vector<double> diag_;
  std::vector<const std::vector<double>*> resident_;  // null when not cached
  RowList lru_;
  std::unordered_map<std::size_t, RowList::iterator> index_;
};

}  // namespace reference_detail

/// SvmClassifier::train as it was with the row cache; returns the model in
/// SvmClassifier::encode's byte layout.
inline ReferenceSvm reference_svm_train(const ml::SvmConfig& config_,
                                        const ml::Dataset& dataset) {
  using reference_detail::QRowCache;
  ReferenceSvm out;
  std::uint64_t& kernel_evals_ = out.kernel_evals;
  std::vector<std::vector<double>> support_x_;
  std::vector<double> support_alpha_y_;
  double bias_ = 0.0;

  const std::size_t n = dataset.size();
  if (n == 0) throw InvalidArgument("SVM needs at least one sample");
  const auto encode = [&] {
    util::ByteWriter w;
    config_.encode(w);
    w.f64(bias_);
    w.varint(support_x_.size());
    w.varint(support_x_.empty() ? 0 : support_x_.front().size());
    for (std::size_t i = 0; i < support_x_.size(); ++i) {
      w.f64(support_alpha_y_[i]);
      for (const double v : support_x_[i]) w.f64(v);
    }
    out.encoded = w.data();
    return out;
  };
  if (dataset.count_label(1) == 0 || dataset.count_label(-1) == 0) {
    bias_ = dataset.count_label(1) >= dataset.count_label(-1) ? 1.0 : -1.0;
    return encode();
  }
  if (n < 2) throw InvalidArgument("SVM needs at least two samples");

  QRowCache cache(dataset, config_.kernel, kernel_evals_);
  const auto y = [&](std::size_t i) {
    return static_cast<double>(dataset.label(i));
  };

  std::vector<double> alpha(n, 0.0);
  double b = 0.0;
  const double c = config_.c;
  const double tol = config_.tolerance;
  util::Rng rng(config_.seed);

  // f consumes a whole Q-row; k_i[j] == K(x_i, x_j) by symmetry.
  auto f = [&](const std::vector<double>& k_i) {
    double sum = b;
    for (std::size_t j = 0; j < n; ++j) {
      if (alpha[j] != 0.0) sum += alpha[j] * y(j) * k_i[j];
    }
    return sum;
  };

  int passes = 0;
  int iterations = 0;
  while (passes < config_.max_passes && iterations < config_.max_iterations) {
    int changed = 0;
    for (std::size_t i = 0; i < n && iterations < config_.max_iterations; ++i) {
      ++iterations;
      const double ei = f(cache.row(i)) - y(i);
      const bool violates = (y(i) * ei < -tol && alpha[i] < c) ||
                            (y(i) * ei > tol && alpha[i] > 0);
      if (!violates) continue;
      std::size_t j = static_cast<std::size_t>(rng.below(n - 1));
      if (j >= i) ++j;
      // Fetch row j first, then re-reference row i: the two most recent
      // rows are guaranteed resident together (cache capacity >= 2).
      const double ej = f(cache.row(j)) - y(j);
      const std::vector<double>& k_i = cache.row(i);
      const double ai_old = alpha[i];
      const double aj_old = alpha[j];
      double lo;
      double hi;
      if (dataset.label(i) != dataset.label(j)) {
        lo = std::max(0.0, aj_old - ai_old);
        hi = std::min(c, c + aj_old - ai_old);
      } else {
        lo = std::max(0.0, ai_old + aj_old - c);
        hi = std::min(c, ai_old + aj_old);
      }
      if (lo >= hi) continue;
      const double k_ij = k_i[j];
      const double eta = 2.0 * k_ij - cache.diag(i) - cache.diag(j);
      if (eta >= 0) continue;
      double aj = aj_old - y(j) * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-6) continue;
      const double ai = ai_old + y(i) * y(j) * (aj_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;
      const double b1 = b - ei - y(i) * (ai - ai_old) * cache.diag(i) -
                        y(j) * (aj - aj_old) * k_ij;
      const double b2 = b - ej - y(i) * (ai - ai_old) * k_ij -
                        y(j) * (aj - aj_old) * cache.diag(j);
      if (ai > 0 && ai < c) {
        b = b1;
      } else if (aj > 0 && aj < c) {
        b = b2;
      } else {
        b = 0.5 * (b1 + b2);
      }
      ++changed;
    }
    passes = changed == 0 ? passes + 1 : 0;
  }

  support_x_.clear();
  support_alpha_y_.clear();
  for (std::size_t i = 0; i < n; ++i) {
    if (alpha[i] > 1e-9) {
      support_x_.emplace_back(dataset.row(i).begin(), dataset.row(i).end());
      support_alpha_y_.push_back(alpha[i] * y(i));
    }
  }
  bias_ = b;
  if (support_x_.empty()) {
    // Degenerate convergence: fall back to a majority-vote bias.
    bias_ = dataset.count_label(1) >= dataset.count_label(-1) ? 1.0 : -1.0;
  }
  return encode();
}

}  // namespace ssresf::testing_support
