#include "tufp/ufp/bounded_ufp_repeat.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/detail/substrate.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {

BoundedUfpRepeatResult run_repeat(const detail::Substrate& sub,
                                  const BoundedUfpRepeatConfig& config,
                                  detail::SpCache& cache) {
  TUFP_REQUIRE(config.epsilon > 0.0 && config.epsilon <= 1.0,
               "epsilon outside (0,1]");
  TUFP_REQUIRE(sub.num_active > 0,
               "Bounded-UFP-Repeat needs at least one active edge");
  const double B = sub.B;
  TUFP_REQUIRE(B >= 1.0, "Bounded-UFP-Repeat requires B >= 1");
  const double eps = config.epsilon;
  TUFP_REQUIRE(eps * B <= kMaxSafeExponent,
               "eps*B too large for double-range weights");

  const int R = static_cast<int>(sub.requests.size());

  BoundedUfpRepeatResult result{UfpMultiSolution(R)};
  result.dual_upper_bound = kInf;

  std::vector<double> y;
  double dual_sum = 0.0;
  WeightProfile profile;
  detail::init_duals(sub, &y, &dual_sum, &profile);
  const double threshold = std::exp(eps * (B - 1.0));

  std::vector<double> residual(sub.capacities.begin(), sub.capacities.end());
  std::vector<std::int64_t> edge_stamp(sub.capacities.size(), 0);
  std::int64_t now = 0;

  std::vector<int> live(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) live[static_cast<std::size_t>(r)] = r;

  const std::span<const double> guard_residual =
      config.capacity_guard ? std::span<const double>(residual)
                            : std::span<const double>();

  double primal_value = 0.0;

  // Line 3: while (sum c_e y_e <= e^{eps(B-1)}). L never shrinks here.
  while (dual_sum <= threshold) {
    if (config.max_iterations > 0 && result.iterations >= config.max_iterations) {
      result.hit_iteration_cap = true;
      break;
    }
    ++now;
    cache.refresh(y, edge_stamp, now, live, config.lazy_shortest_paths,
                  guard_residual, &profile);
    result.sp_computations +=
        static_cast<std::int64_t>(cache.recomputed_last_refresh());

    int best = -1;
    double best_priority = kInf;
    double alpha_cert = kInf;
    for (int r : live) {
      const auto& entry = cache.entry(r);
      if (!entry.reachable) continue;
      const Request& req = sub.requests[static_cast<std::size_t>(r)];
      const double priority = req.demand / req.value * entry.length;
      alpha_cert = std::min(alpha_cert, priority);
      // Cached guard verdict: sound while residual is monotone non-
      // increasing with stamped decrements (sp_cache.hpp). Note for the
      // repeated-auction reading of §5: capacity does NOT reset between
      // selections here — if a future variant restores it, the restored
      // edges must be stamped or this read keeps stale negative fits.
      if (config.capacity_guard && !entry.fits) continue;
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
      }
    }

    if (alpha_cert < kInf && alpha_cert > 0.0) {
      // Claim 5.2: y/alpha is feasible for Figure 5's dual (no z terms).
      result.dual_upper_bound =
          std::min(result.dual_upper_bound, dual_sum / alpha_cert);
    }

    if (best < 0) break;  // no routable request at all

    const Request& req = sub.requests[static_cast<std::size_t>(best)];
    const auto& entry = cache.entry(best);
    const double dual_before = dual_sum;
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
    result.solution.add(best, entry.path);
    primal_value += req.value;
    ++result.iterations;
    if (config.record_trace) {
      result.trace.push_back({best, best_priority, dual_before, primal_value});
    }
  }

  result.stopped_by_threshold = dual_sum > threshold;
  result.final_dual_sum = dual_sum;
  result.y = std::move(y);
  return result;
}

}  // namespace

BoundedUfpRepeatResult bounded_ufp_repeat(const UfpInstance& instance,
                                          const BoundedUfpRepeatConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP-Repeat requires demands in (0,1]");
  const detail::Substrate sub = detail::substrate_of(instance);
  detail::SpCache cache(instance, config.num_threads, config.sp_kernel);
  return run_repeat(sub, config, cache);
}

}  // namespace tufp
