#include "tufp/baselines/bkv.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/detail/substrate.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {

BkvResult run_bkv(const detail::Substrate& sub, const BoundedUfpConfig& config,
                  detail::SpCache& cache) {
  TUFP_REQUIRE(config.epsilon > 0.0 && config.epsilon <= 1.0,
               "epsilon outside (0,1]");
  TUFP_REQUIRE(sub.num_active > 0, "BKV needs at least one active edge");
  const double B = sub.B;
  TUFP_REQUIRE(B >= 1.0, "B must be >= 1");
  const double eps = config.epsilon;
  TUFP_REQUIRE(eps * B <= kMaxSafeExponent, "eps*B too large");
  TUFP_REQUIRE(!config.run_to_saturation || config.capacity_guard,
               "run_to_saturation requires the capacity guard");

  const int R = static_cast<int>(sub.requests.size());

  BkvResult result{UfpSolution(R)};
  result.coarse_upper_bound = kInf;
  result.tight_upper_bound = kInf;

  std::vector<double> y;
  double dual_sum = 0.0;
  WeightProfile profile;
  detail::init_duals(sub, &y, &dual_sum, &profile);
  const double threshold = std::exp(eps * (B - 1.0));

  std::vector<double> residual(sub.capacities.begin(), sub.capacities.end());
  std::vector<std::int64_t> edge_stamp(sub.capacities.size(), 0);
  std::int64_t now = 0;

  // The coarse certificate needs shortest paths for *every* request each
  // iteration (selected ones included), so the cache tracks all of them.
  std::vector<int> all(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) all[static_cast<std::size_t>(r)] = r;
  std::vector<bool> selected(static_cast<std::size_t>(R), false);

  const std::span<const double> guard_residual =
      config.capacity_guard ? std::span<const double>(residual)
                            : std::span<const double>();

  double primal_value = 0.0;
  int num_remaining = R;

  while (num_remaining > 0) {
    if (!config.run_to_saturation && dual_sum > threshold) {
      result.stopped_by_threshold = true;
      break;
    }
    ++now;
    cache.refresh(y, edge_stamp, now, all, guard_residual, &profile);

    int best = -1;
    double best_priority = kInf;
    double alpha_remaining = kInf;
    double alpha_all = kInf;
    for (int r = 0; r < R; ++r) {
      const auto& entry = cache.entry(r);
      if (!entry.reachable) continue;
      const Request& req = sub.requests[static_cast<std::size_t>(r)];
      const double priority = req.demand / req.value * entry.length;
      alpha_all = std::min(alpha_all, priority);
      if (selected[static_cast<std::size_t>(r)]) continue;
      alpha_remaining = std::min(alpha_remaining, priority);
      // Cached guard verdict: valid because residual only decreases here
      // and every decrement stamps its edge (sp_cache.hpp's direction-
      // agnostic invariant — capacity *increases* would need stamps too).
      if (config.capacity_guard && !entry.fits) continue;
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
      }
    }

    if (alpha_all < kInf && alpha_all > 0.0) {
      result.coarse_upper_bound =
          std::min(result.coarse_upper_bound, dual_sum / alpha_all);
    }
    if (alpha_remaining < kInf && alpha_remaining > 0.0) {
      result.tight_upper_bound = std::min(
          result.tight_upper_bound, dual_sum / alpha_remaining + primal_value);
    }

    if (best < 0) break;

    const Request& req = sub.requests[static_cast<std::size_t>(best)];
    const auto& entry = cache.entry(best);
    for (EdgeId e : entry.path) {
      const auto ei = static_cast<std::size_t>(e);
      const double cap = sub.capacities[ei];
      const double old_y = y[ei];
      y[ei] = old_y * std::exp(eps * B * req.demand / cap);
      dual_sum += cap * (y[ei] - old_y);
      edge_stamp[ei] = now;
      residual[ei] -= req.demand;
      profile.include(y[ei]);
    }
    result.solution.assign(best, entry.path);
    selected[static_cast<std::size_t>(best)] = true;
    primal_value += req.value;
    --num_remaining;
    ++result.iterations;
  }

  // Everything routed: the value itself is a tight bound. Summed in
  // request order, as UfpSolution::total_value is, so the bound equals
  // the reported value to the bit (Claim 3.6 checked exactly);
  // primal_value above is in selection order.
  if (num_remaining == 0) {
    double total = 0.0;
    for (const Request& req : sub.requests) total += req.value;
    result.tight_upper_bound = std::min(result.tight_upper_bound, total);
  }
  return result;
}

}  // namespace

BkvResult bkv_ufp(const UfpInstance& instance, const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(), "demands must be in (0,1]");
  const detail::Substrate sub = detail::substrate_of(instance);
  detail::SpCache cache(instance, config.num_threads);
  return run_bkv(sub, config, cache);
}

}  // namespace tufp
