// Generic reasonable iterative bundle-minimizing algorithm
// (Definitions 4.3/4.4) — the family Theorem 4.5 lower-bounds.
//
// Mirrors ufp/iterative_minimizer.hpp: repeatedly select the request whose
// bundle minimizes a reasonable function of the current allocation counts,
// among requests that still fit the residual multiplicities; stop when
// nothing fits. Drives the Figure-4 reproduction (bench E5).
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "tufp/auction/muca_instance.hpp"
#include "tufp/auction/muca_solution.hpp"

namespace tufp {

class ReasonableBundleFunction {
 public:
  virtual ~ReasonableBundleFunction() = default;
  virtual std::string name() const = 0;
  // Priority of a (bundle, value) request given the copies already
  // allocated per item; lower is better.
  virtual double evaluate(double value, const std::vector<int>& bundle,
                          std::span<const int> allocated,
                          std::span<const int> multiplicities) const = 0;
};

// The rule Algorithm 2 minimizes:
//   h(s) = (1/v_s) sum_{u in s} (1/c_u) e^{eps*B*f_u/c_u}.
class ExponentialBundleFunction final : public ReasonableBundleFunction {
 public:
  ExponentialBundleFunction(double eps, double B);
  std::string name() const override;
  double evaluate(double value, const std::vector<int>& bundle,
                  std::span<const int> allocated,
                  std::span<const int> multiplicities) const override;

 private:
  double eps_;
  double B_;
};

// Bundle-cardinality-biased analogue of h1.
class HopBiasedBundleFunction final : public ReasonableBundleFunction {
 public:
  HopBiasedBundleFunction(double eps, double B);
  std::string name() const override;
  double evaluate(double value, const std::vector<int>& bundle,
                  std::span<const int> allocated,
                  std::span<const int> multiplicities) const override;

 private:
  ExponentialBundleFunction inner_;
};

using BundleTieScore = std::function<double(int request)>;

struct BundleMinimizerConfig {
  const ReasonableBundleFunction* function = nullptr;  // required
  BundleTieScore tie_score;  // lower preferred on exact priority ties
};

struct BundleMinimizerIteration {
  int request = -1;
  double score = 0.0;
};

struct BundleMinimizerResult {
  MucaSolution solution;
  int iterations = 0;
  std::vector<BundleMinimizerIteration> trace{};
};

BundleMinimizerResult reasonable_bundle_minimizer(
    const MucaInstance& instance, const BundleMinimizerConfig& config);

}  // namespace tufp
