#pragma once

#include <span>
#include <vector>

#include "ml/dataset.h"

namespace ssresf::util {
class ByteWriter;
class ByteReader;
}  // namespace ssresf::util

namespace ssresf::ml {

enum class KernelType { kLinear, kRbf, kPoly };

struct KernelConfig {
  KernelType type = KernelType::kRbf;
  double gamma = 1.0;  // RBF / poly scale
  int degree = 3;      // poly only
  double coef0 = 1.0;  // poly only

  [[nodiscard]] bool operator==(const KernelConfig&) const = default;
};

[[nodiscard]] double kernel_eval(const KernelConfig& kernel,
                                 std::span<const double> a,
                                 std::span<const double> b);

struct SvmConfig {
  KernelConfig kernel;
  double c = 1.0;          // soft-margin penalty
  double tolerance = 1e-3;
  int max_passes = 8;      // convergence: passes without alpha updates
  int max_iterations = 20000;
  std::uint64_t seed = 42;

  [[nodiscard]] bool operator==(const SvmConfig&) const = default;

  /// Bit-exact serialization (doubles travel as raw IEEE-754 words), used by
  /// the .ssmd model bundle; decode(encode(x)) == x exactly.
  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static SvmConfig decode(util::ByteReader& in);
};

class SvmClassifier;

namespace detail {
/// SvmClassifier::train with a kernel-store memory budget other than the
/// default 64 MiB; tests reach the store's eviction path through it.
void train_with_kernel_budget(SvmClassifier& model, const Dataset& dataset,
                              std::size_t budget_bytes);
}  // namespace detail

/// Soft-margin SVM trained with Platt's SMO (simplified heuristics). The SMO
/// loop reads only the kernel values it needs: K(x_i, x_k) for the samples k
/// with a nonzero alpha, plus the pair step's K(x_i, x_j). They are evaluated
/// on first read and kept in one lazily filled column per nonzero-alpha
/// sample, within a fixed memory budget, so the full n x n kernel matrix is
/// never materialised and no kernel value is evaluated twice while the
/// budget holds. Decision value f(x) = sum_i alpha_i y_i K(x_i, x) + b;
/// predict = sign(f).
class SvmClassifier {
 public:
  explicit SvmClassifier(SvmConfig config = {}) : config_(std::move(config)) {}

  void train(const Dataset& dataset);

  [[nodiscard]] bool trained() const { return !support_x_.empty(); }
  [[nodiscard]] double decision_value(std::span<const double> x) const;
  [[nodiscard]] int predict(std::span<const double> x) const {
    return decision_value(x) >= 0 ? 1 : -1;
  }

  [[nodiscard]] std::size_t num_support_vectors() const {
    return support_x_.size();
  }
  [[nodiscard]] double bias() const { return bias_; }
  [[nodiscard]] const SvmConfig& config() const { return config_; }

  /// Kernel evaluations spent by the last train() call: n for the diagonal
  /// plus each distinct off-diagonal value SMO read while the store's budget
  /// held (the Table II bench asserts it stays at or below the n(n+1)/2 of
  /// a full kernel-matrix precompute).
  [[nodiscard]] std::uint64_t kernel_evals() const { return kernel_evals_; }

  /// Bit-exact round trip of the trained model (config, support vectors,
  /// alpha*y weights, bias): a decoded classifier produces decision values
  /// identical to the original on every input. The .ssmd transport.
  void encode(util::ByteWriter& out) const;
  [[nodiscard]] static SvmClassifier decode(util::ByteReader& in);

 private:
  friend void detail::train_with_kernel_budget(SvmClassifier&, const Dataset&,
                                               std::size_t);
  void train(const Dataset& dataset, std::size_t kernel_budget);

  SvmConfig config_;
  std::vector<std::vector<double>> support_x_;
  std::vector<double> support_alpha_y_;  // alpha_i * y_i
  double bias_ = 0.0;
  std::uint64_t kernel_evals_ = 0;
};

}  // namespace ssresf::ml
