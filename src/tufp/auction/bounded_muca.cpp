#include "tufp/auction/bounded_muca.hpp"

#include <algorithm>
#include <cmath>

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

BoundedMucaResult bounded_muca(const MucaInstance& instance,
                               const BoundedMucaConfig& config) {
  TUFP_REQUIRE(config.epsilon > 0.0 && config.epsilon <= 1.0,
               "epsilon outside (0,1]");
  const double B = static_cast<double>(instance.bound_B());
  const double eps = config.epsilon;
  TUFP_REQUIRE(eps * B <= kMaxSafeExponent,
               "eps*B too large for double-range weights");
  TUFP_REQUIRE(!config.run_to_saturation || config.capacity_guard,
               "run_to_saturation requires the capacity guard");

  const int m = instance.num_items();
  const int R = instance.num_requests();

  BoundedMucaResult result{MucaSolution(R)};
  result.dual_upper_bound = kInf;

  // Line 2: y_u = 1/c_u, so sum_u c_u y_u = m.
  std::vector<double> y(static_cast<std::size_t>(m));
  for (int u = 0; u < m; ++u) {
    y[static_cast<std::size_t>(u)] = 1.0 / instance.multiplicity(u);
  }
  double dual_sum = static_cast<double>(m);
  const double threshold = std::exp(eps * (B - 1.0));

  std::vector<int> residual(instance.multiplicities());
  std::vector<int> remaining(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) remaining[static_cast<std::size_t>(r)] = r;

  double primal_value = 0.0;

  // Line 3: while (L != empty and sum c_u y_u <= e^{eps(B-1)}).
  while (!remaining.empty()) {
    if (!config.run_to_saturation && dual_sum > threshold) {
      result.stopped_by_threshold = true;
      break;
    }

    // Line 4: request minimizing (1/v_r) sum_{u in U_r} y_u.
    int best = -1;
    double best_priority = kInf;
    double alpha_cert = kInf;
    for (int r : remaining) {
      const MucaRequest& req = instance.request(r);
      double sum = 0.0;
      bool fits = true;
      for (int u : req.bundle) {
        sum += y[static_cast<std::size_t>(u)];
        if (residual[static_cast<std::size_t>(u)] < 1) fits = false;
      }
      const double priority = sum / req.value;
      alpha_cert = std::min(alpha_cert, priority);
      if (config.capacity_guard && !fits) continue;
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
      }
    }

    if (alpha_cert < kInf && alpha_cert > 0.0) {
      result.dual_upper_bound = std::min(result.dual_upper_bound,
                                         dual_sum / alpha_cert + primal_value);
    }

    if (best < 0) break;

    // Lines 5-6: inflate item duals over the winning bundle.
    const MucaRequest& req = instance.request(best);
    const double dual_before = dual_sum;
    for (int u : req.bundle) {
      const auto ui = static_cast<std::size_t>(u);
      const double cap = static_cast<double>(instance.multiplicity(u));
      const double old_y = y[ui];
      y[ui] = old_y * std::exp(eps * B / cap);
      dual_sum += cap * (y[ui] - old_y);
      --residual[ui];
    }
    result.solution.select(best);
    primal_value += req.value;
    ++result.iterations;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));
    result.trace.push_back({best, best_priority, dual_before, primal_value});
  }

  // Everything selected: the value itself is a tight bound. Summed in
  // request order, as MucaSolution::total_value is, so the bound equals
  // the reported value to the bit (Claim 3.6 checked exactly);
  // primal_value above is in selection order.
  if (remaining.empty()) {
    double total = 0.0;
    for (int r = 0; r < R; ++r) total += instance.request(r).value;
    result.dual_upper_bound = std::min(result.dual_upper_bound, total);
  }
  result.final_dual_sum = dual_sum;
  result.y = std::move(y);
  return result;
}

}  // namespace tufp
