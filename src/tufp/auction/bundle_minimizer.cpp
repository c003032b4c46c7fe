#include "tufp/auction/bundle_minimizer.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

ExponentialBundleFunction::ExponentialBundleFunction(double eps, double B)
    : eps_(eps), B_(B) {
  TUFP_REQUIRE(eps > 0.0 && eps <= 1.0, "eps outside (0,1]");
  TUFP_REQUIRE(B >= 1.0, "B must be >= 1");
}

std::string ExponentialBundleFunction::name() const {
  std::ostringstream os;
  os << "h(eps=" << eps_ << ",B=" << B_ << ")";
  return os.str();
}

double ExponentialBundleFunction::evaluate(
    double value, const std::vector<int>& bundle, std::span<const int> allocated,
    std::span<const int> multiplicities) const {
  double sum = 0.0;
  for (int u : bundle) {
    const auto ui = static_cast<std::size_t>(u);
    const double cap = static_cast<double>(multiplicities[ui]);
    sum += (1.0 / cap) *
           std::exp(eps_ * B_ * static_cast<double>(allocated[ui]) / cap);
  }
  return sum / value;
}

HopBiasedBundleFunction::HopBiasedBundleFunction(double eps, double B)
    : inner_(eps, B) {}

std::string HopBiasedBundleFunction::name() const {
  return "h1=ln(1+|T|)*" + inner_.name();
}

double HopBiasedBundleFunction::evaluate(
    double value, const std::vector<int>& bundle, std::span<const int> allocated,
    std::span<const int> multiplicities) const {
  return std::log(1.0 + static_cast<double>(bundle.size())) *
         inner_.evaluate(value, bundle, allocated, multiplicities);
}

BundleMinimizerResult reasonable_bundle_minimizer(
    const MucaInstance& instance, const BundleMinimizerConfig& config) {
  TUFP_REQUIRE(config.function != nullptr, "a reasonable function is required");
  const int R = instance.num_requests();

  BundleMinimizerResult result{MucaSolution(R)};
  std::vector<int> allocated(static_cast<std::size_t>(instance.num_items()), 0);
  const std::span<const int> multiplicities = instance.multiplicities();

  std::vector<int> remaining(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) remaining[static_cast<std::size_t>(r)] = r;

  while (!remaining.empty()) {
    int best = -1;
    double best_score = kInf;
    double best_tie = kInf;
    for (int r : remaining) {
      const MucaRequest& req = instance.request(r);
      bool fits = true;
      for (int u : req.bundle) {
        if (allocated[static_cast<std::size_t>(u)] >=
            multiplicities[static_cast<std::size_t>(u)]) {
          fits = false;
          break;
        }
      }
      if (!fits) continue;
      const double score = config.function->evaluate(req.value, req.bundle,
                                                     allocated, multiplicities);
      if (score > best_score) continue;
      if (score < best_score) {
        best_score = score;
        best_tie = config.tie_score ? config.tie_score(r) : 0.0;
        best = r;
        continue;
      }
      if (config.tie_score) {
        const double tie = config.tie_score(r);
        if (tie < best_tie) {
          best_tie = tie;
          best = r;
        }
      }
    }

    if (best < 0) break;

    for (int u : instance.request(best).bundle) {
      ++allocated[static_cast<std::size_t>(u)];
    }
    result.solution.select(best);
    ++result.iterations;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));
    result.trace.push_back({best, best_score});
  }

  return result;
}

}  // namespace tufp
