#include "tufp/lab/upper_bound.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "tufp/lp/garg_konemann.hpp"
#include "tufp/lp/ufp_lp.hpp"
#include "tufp/ufp/dual_certificate.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp::lab {

namespace {

class Claim36Provider final : public UpperBoundProvider {
 public:
  explicit Claim36Provider(BoundedUfpConfig config)
      : config_(std::move(config)) {}

  const char* name() const override { return "claim36"; }

  UpperBound bound(const UfpInstance& instance) const override {
    return {claim36_upper_bound(instance, config_), true, name()};
  }

 private:
  BoundedUfpConfig config_;
};

class GkDualProvider final : public UpperBoundProvider {
 public:
  GkDualProvider(double epsilon, int max_requests)
      : epsilon_(epsilon), max_requests_(max_requests) {}

  const char* name() const override { return "gk-dual"; }

  UpperBound bound(const UfpInstance& instance) const override {
    if (instance.num_requests() == 0 ||
        instance.num_requests() > max_requests_) {
      return {};
    }
    GkConfig config;
    config.epsilon = epsilon_;
    const GkResult run = garg_konemann_fractional_ufp(instance, config);
    // A non-converged run's duals are still strictly positive, hence still
    // a sound certificate after rescaling — just a looser one.
    if (run.edge_duals.empty()) return {};
    const DualCertificate cert = best_dual_bound(instance, run.edge_duals);
    return {cert.upper_bound, true, name()};
  }

 private:
  double epsilon_;
  int max_requests_;
};

class PackingLpProvider final : public UpperBoundProvider {
 public:
  explicit PackingLpProvider(PackingLpBoundOptions options)
      : options_(options) {}

  const char* name() const override { return "packing-lp"; }

  UpperBound bound(const UfpInstance& instance) const override {
    if (instance.num_requests() == 0 ||
        instance.num_requests() > options_.max_requests) {
      return {};
    }
    UfpLpOptions lp_options;
    lp_options.path_enum = options_.path_enum;
    lp_options.simplex.max_pivots = options_.max_pivots;
    try {
      const UfpFractionalSolution lp = solve_ufp_lp(instance, lp_options);
      if (!lp.solved_to_optimality) return {};
      return {lp.objective, true, name()};
    } catch (const std::exception&) {
      // Truncated path enumeration (or a degenerate simplex): the exact
      // relaxation is out of reach here, fall through to the dual bounds.
      return {};
    }
  }

 private:
  PackingLpBoundOptions options_;
};

}  // namespace

BoundedUfpConfig certifying_solver_config(double epsilon) {
  BoundedUfpConfig config;
  config.epsilon = epsilon;
  config.capacity_guard = true;
  config.run_to_saturation = true;
  return config;
}

std::unique_ptr<UpperBoundProvider> make_claim36_provider(
    const BoundedUfpConfig& config) {
  return std::make_unique<Claim36Provider>(config);
}

std::unique_ptr<UpperBoundProvider> make_gk_dual_provider(double epsilon,
                                                          int max_requests) {
  TUFP_REQUIRE(epsilon > 0.0 && epsilon <= 0.5,
               "gk-dual epsilon outside (0, 0.5]");
  return std::make_unique<GkDualProvider>(epsilon, max_requests);
}

std::unique_ptr<UpperBoundProvider> make_packing_lp_provider(
    const PackingLpBoundOptions& options) {
  return std::make_unique<PackingLpProvider>(options);
}

std::vector<std::unique_ptr<UpperBoundProvider>> standard_providers(
    double epsilon) {
  std::vector<std::unique_ptr<UpperBoundProvider>> providers;
  providers.push_back(make_packing_lp_provider());
  providers.push_back(make_gk_dual_provider());
  providers.push_back(make_claim36_provider(certifying_solver_config(epsilon)));
  return providers;
}

UpperBound best_upper_bound(
    std::span<const std::unique_ptr<UpperBoundProvider>> providers,
    const UfpInstance& instance) {
  UpperBound best;
  for (const auto& provider : providers) {
    const UpperBound candidate = provider->bound(instance);
    if (!candidate.available) continue;
    if (!best.available || candidate.value < best.value) best = candidate;
  }
  return best;
}

}  // namespace tufp::lab
