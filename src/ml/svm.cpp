#include "ml/svm.h"

#include <algorithm>
#include <bit>
#include <cmath>

#include "util/bytes.h"
#include "util/error.h"

namespace ssresf::ml {

void SvmConfig::encode(util::ByteWriter& out) const {
  out.u8(static_cast<std::uint8_t>(kernel.type));
  out.f64(kernel.gamma);
  out.varint(static_cast<std::uint64_t>(kernel.degree));
  out.f64(kernel.coef0);
  out.f64(c);
  out.f64(tolerance);
  out.varint(static_cast<std::uint64_t>(max_passes));
  out.varint(static_cast<std::uint64_t>(max_iterations));
  out.varint(seed);
}

SvmConfig SvmConfig::decode(util::ByteReader& in) {
  SvmConfig config;
  const std::uint8_t kind = in.u8();
  if (kind > static_cast<std::uint8_t>(KernelType::kPoly)) {
    throw InvalidArgument("svm: unknown kernel type " + std::to_string(kind));
  }
  config.kernel.type = static_cast<KernelType>(kind);
  config.kernel.gamma = in.f64();
  config.kernel.degree = static_cast<int>(in.varint());
  config.kernel.coef0 = in.f64();
  config.c = in.f64();
  config.tolerance = in.f64();
  config.max_passes = static_cast<int>(in.varint());
  config.max_iterations = static_cast<int>(in.varint());
  config.seed = in.varint();
  return config;
}

void SvmClassifier::encode(util::ByteWriter& out) const {
  config_.encode(out);
  out.f64(bias_);
  out.varint(support_x_.size());
  out.varint(support_x_.empty() ? 0 : support_x_.front().size());
  for (std::size_t i = 0; i < support_x_.size(); ++i) {
    out.f64(support_alpha_y_[i]);
    for (const double v : support_x_[i]) out.f64(v);
  }
}

SvmClassifier SvmClassifier::decode(util::ByteReader& in) {
  SvmClassifier model(SvmConfig::decode(in));
  model.bias_ = in.f64();
  const std::size_t num_sv = in.element_count(1);
  // Each dimension is one 8-byte double, so bound the count by the input
  // itself: a crafted bundle must not drive an arbitrary-size reserve.
  const std::size_t dims = in.element_count(8);
  model.support_alpha_y_.reserve(num_sv);
  model.support_x_.reserve(num_sv);
  for (std::size_t i = 0; i < num_sv; ++i) {
    model.support_alpha_y_.push_back(in.f64());
    std::vector<double> x;
    x.reserve(dims);
    for (std::size_t d = 0; d < dims; ++d) x.push_back(in.f64());
    model.support_x_.push_back(std::move(x));
  }
  return model;
}

namespace {

/// Default memory budget of the kernel store's dense columns. A column holds
/// n doubles, so Table-II-sized datasets (a few hundred to a few thousand
/// samples) give every nonzero-alpha sample a column; larger ones evaluate
/// the kernel values of column-less samples afresh instead of failing or
/// allocating n^2 doubles.
constexpr std::size_t kKernelStoreBytes = std::size_t{64} << 20;

/// The bits of a store entry that has not been evaluated yet: a signalling
/// NaN. kernel_eval returns the result of floating-point arithmetic, which
/// never produces a signalling NaN, so no evaluated kernel value has them.
constexpr std::uint64_t kUnknownBits = 0x7ff4000000000000ull;

[[nodiscard]] bool known(double v) {
  return std::bit_cast<std::uint64_t>(v) != kUnknownBits;
}

/// Kernel values K(x_i, x_j) for SMO, evaluated only when the solver reads
/// them. The decision value f(i) reads K(i, k) for every k with a nonzero
/// alpha, so each such k gets a dense column (K(x, x_k) for every x, filled
/// entry by entry on first read) while the budget allows. The pair step's
/// K(i, j) between two samples without columns goes into a short sparse list
/// per sample, which moves into the dense column when the sample gets one.
/// kernel_eval is exactly symmetric, so an entry is read from either
/// sample's column. Until the budget forces an eviction, no kernel value is
/// evaluated twice.
class KernelStore {
 public:
  KernelStore(const Dataset& dataset, const KernelConfig& kernel,
              std::size_t budget_bytes, std::uint64_t& evals)
      : dataset_(dataset),
        kernel_(kernel),
        evals_(evals),
        capacity_(std::min(budget_bytes / (dataset.size() * sizeof(double)),
                           dataset.size())),
        dense_(dataset.size(), nullptr),
        sparse_(dataset.size()) {
    const std::size_t n = dataset.size();
    diag_.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      diag_[i] = kernel_eval(kernel_, dataset_.row(i), dataset_.row(i));
      ++evals_;
    }
  }

  [[nodiscard]] double diag(std::size_t i) const { return diag_[i]; }

  /// K(x_i, x_k) for the decision value's sum over nonzero-alpha samples k.
  double at(std::size_t i, std::size_t k) {
    if (const double* col = dense_[k]; col != nullptr && known(col[i])) {
      return col[i];
    }
    return fill(i, k, /*pair_step=*/false);
  }

  /// K(x_i, x_j) for the pair step: a value between two samples without
  /// columns is kept in their sparse lists.
  double pair(std::size_t i, std::size_t j) {
    if (const double* col = dense_[j]; col != nullptr && known(col[i])) {
      return col[i];
    }
    return fill(i, j, /*pair_step=*/true);
  }

  /// Gives k a dense column (call when alpha_k becomes nonzero). When the
  /// budget is spent, the column of a sample whose alpha is zero is reused;
  /// when every column belongs to a nonzero alpha, k goes without.
  void activate(std::size_t k, std::span<const double> alpha) {
    if (dense_[k] != nullptr) return;
    std::size_t slot = columns_.size();
    if (slot < capacity_) {
      columns_.emplace_back(dataset_.size(), std::bit_cast<double>(kUnknownBits));
      owners_.push_back(k);
    } else {
      for (std::size_t scanned = 0; scanned < columns_.size(); ++scanned) {
        hand_ = (hand_ + 1) % columns_.size();
        if (alpha[owners_[hand_]] == 0.0) {
          slot = hand_;
          break;
        }
      }
      if (slot == columns_.size()) return;
      dense_[owners_[slot]] = nullptr;
      std::fill(columns_[slot].begin(), columns_[slot].end(),
                std::bit_cast<double>(kUnknownBits));
      owners_[slot] = k;
    }
    double* col = columns_[slot].data();
    dense_[k] = col;
    for (const auto& [m, value] : sparse_[k]) col[m] = value;
    std::vector<std::pair<std::size_t, double>>().swap(sparse_[k]);
  }

 private:
  double fill(std::size_t i, std::size_t j, bool pair_step) {
    double* const col_i = dense_[i];
    double* const col_j = dense_[j];
    double value;
    if (i == j) {
      value = diag_[i];
    } else if (col_i != nullptr && known(col_i[j])) {
      value = col_i[j];
    } else {
      // Only pair steps fill the sparse lists, so they stay bounded by the
      // iteration count even when the budget leaves active samples without
      // a column.
      const bool sparse = pair_step && col_i == nullptr && col_j == nullptr;
      if (sparse) {
        for (const auto& [m, v] : sparse_[i]) {
          if (m == j) return v;
        }
      }
      value = kernel_eval(kernel_, dataset_.row(i), dataset_.row(j));
      ++evals_;
      if (sparse) {
        sparse_[i].emplace_back(j, value);
        sparse_[j].emplace_back(i, value);
        return value;
      }
    }
    if (col_j != nullptr) {
      col_j[i] = value;
    } else if (col_i != nullptr) {
      col_i[j] = value;
    }
    return value;
  }

  const Dataset& dataset_;
  const KernelConfig& kernel_;
  std::uint64_t& evals_;
  std::size_t capacity_;  // dense columns
  std::vector<double> diag_;
  std::vector<double*> dense_;  // sample -> its column, null when none
  std::vector<std::vector<std::pair<std::size_t, double>>> sparse_;
  std::vector<std::vector<double>> columns_;
  std::vector<std::size_t> owners_;  // column -> sample
  std::size_t hand_ = 0;             // eviction scan position
};

}  // namespace

double kernel_eval(const KernelConfig& kernel, std::span<const double> a,
                   std::span<const double> b) {
  if (a.size() != b.size()) throw InvalidArgument("kernel operand size mismatch");
  switch (kernel.type) {
    case KernelType::kLinear: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
      return dot;
    }
    case KernelType::kRbf: {
      double dist2 = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) {
        const double d = a[i] - b[i];
        dist2 += d * d;
      }
      return std::exp(-kernel.gamma * dist2);
    }
    case KernelType::kPoly: {
      double dot = 0.0;
      for (std::size_t i = 0; i < a.size(); ++i) dot += a[i] * b[i];
      return std::pow(kernel.gamma * dot + kernel.coef0, kernel.degree);
    }
  }
  throw InvalidArgument("unknown kernel type");
}

void SvmClassifier::train(const Dataset& dataset) {
  train(dataset, kKernelStoreBytes);
}

void detail::train_with_kernel_budget(SvmClassifier& model,
                                      const Dataset& dataset,
                                      std::size_t budget_bytes) {
  model.train(dataset, budget_bytes);
}

void SvmClassifier::train(const Dataset& dataset, std::size_t kernel_budget) {
  const std::size_t n = dataset.size();
  kernel_evals_ = 0;
  if (n == 0) throw InvalidArgument("SVM needs at least one sample");
  if (dataset.count_label(1) == 0 || dataset.count_label(-1) == 0) {
    // Single-class dataset (e.g. a campaign that observed no soft errors):
    // the constant majority classifier, reusing the degenerate-convergence
    // representation (no support vectors, bias carries the vote).
    support_x_.clear();
    support_alpha_y_.clear();
    bias_ = dataset.count_label(1) >= dataset.count_label(-1) ? 1.0 : -1.0;
    return;
  }
  if (n < 2) throw InvalidArgument("SVM needs at least two samples");

  KernelStore store(dataset, config_.kernel, kernel_budget, kernel_evals_);
  const auto y = [&](std::size_t i) {
    return static_cast<double>(dataset.label(i));
  };

  std::vector<double> alpha(n, 0.0);
  std::vector<std::size_t> active;  // ascending; exactly the alpha != 0
  // Call after alpha_k changed from `old_alpha`.
  const auto update_active = [&](std::size_t k, double old_alpha) {
    const bool was_active = old_alpha != 0.0;
    if (was_active == (alpha[k] != 0.0)) return;
    const auto at = std::lower_bound(active.begin(), active.end(), k);
    if (was_active) {
      active.erase(at);
    } else {
      active.insert(at, k);
      store.activate(k, alpha);
    }
  };
  double b = 0.0;
  const double c = config_.c;
  const double tol = config_.tolerance;
  util::Rng rng(config_.seed);

  // Sums the nonzero-alpha terms in ascending index order: the same terms in
  // the same order as a sum over all j that skips alpha_j == 0, so the
  // result does not depend on how the kernel values are stored.
  const auto f = [&](std::size_t i) {
    double sum = b;
    for (const std::size_t k : active) sum += alpha[k] * y(k) * store.at(i, k);
    return sum;
  };

  int passes = 0;
  int iterations = 0;
  while (passes < config_.max_passes && iterations < config_.max_iterations) {
    int changed = 0;
    for (std::size_t i = 0; i < n && iterations < config_.max_iterations; ++i) {
      ++iterations;
      const double ei = f(i) - y(i);
      const bool violates = (y(i) * ei < -tol && alpha[i] < c) ||
                            (y(i) * ei > tol && alpha[i] > 0);
      if (!violates) continue;
      std::size_t j = static_cast<std::size_t>(rng.below(n - 1));
      if (j >= i) ++j;
      const double ej = f(j) - y(j);
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
      const double k_ij = store.pair(i, j);
      const double eta = 2.0 * k_ij - store.diag(i) - store.diag(j);
      if (eta >= 0) continue;
      double aj = aj_old - y(j) * (ei - ej) / eta;
      aj = std::clamp(aj, lo, hi);
      if (std::abs(aj - aj_old) < 1e-6) continue;
      const double ai = ai_old + y(i) * y(j) * (aj_old - aj);
      alpha[i] = ai;
      alpha[j] = aj;
      update_active(i, ai_old);
      update_active(j, aj_old);
      const double b1 = b - ei - y(i) * (ai - ai_old) * store.diag(i) -
                        y(j) * (aj - aj_old) * k_ij;
      const double b2 = b - ej - y(i) * (ai - ai_old) * k_ij -
                        y(j) * (aj - aj_old) * store.diag(j);
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
}

double SvmClassifier::decision_value(std::span<const double> x) const {
  if (support_x_.empty()) {
    return bias_;  // degenerate majority model
  }
  double sum = bias_;
  for (std::size_t i = 0; i < support_x_.size(); ++i) {
    sum += support_alpha_y_[i] * kernel_eval(config_.kernel, support_x_[i], x);
  }
  return sum;
}

}  // namespace ssresf::ml
