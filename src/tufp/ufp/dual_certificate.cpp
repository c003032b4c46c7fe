#include "tufp/ufp/dual_certificate.hpp"

#include <algorithm>
#include <cmath>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

DualCertificate best_dual_bound(const UfpInstance& instance,
                                std::span<const double> y) {
  const Graph& g = instance.graph();
  TUFP_REQUIRE(y.size() == static_cast<std::size_t>(g.num_edges()),
               "weight vector size must equal edge count");
  for (double w : y) TUFP_REQUIRE(w > 0.0, "certificate weights must be positive");

  const int R = instance.num_requests();
  ShortestPathEngine engine(g);

  // sp_r under y; unreachable requests have empty S_r (no dual constraint).
  std::vector<double> sp(static_cast<std::size_t>(R), kInf);
  for (int r = 0; r < R; ++r) {
    const Request& req = instance.request(r);
    sp[static_cast<std::size_t>(r)] =
        engine.shortest_path(y, req.source, req.target);
  }

  double weight_sum = 0.0;  // sum_e c_e y_e
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    weight_sum += g.capacity(e) * y[static_cast<std::size_t>(e)];
  }

  // With t = 1/alpha the objective is f(t) = weight_sum * t +
  // sum_r max(0, v_r - d_r sp_r t): convex piecewise linear, kinks at
  // t_r = v_r/(d_r sp_r). Sweep kinks in increasing order, maintaining the
  // set of still-active (positive z) requests.
  struct Kink {
    double t;
    double value;  // v_r
    double slope;  // d_r * sp_r
  };
  std::vector<Kink> kinks;
  kinks.reserve(static_cast<std::size_t>(R));
  double active_value = 0.0;  // sum of v_r over active requests
  double active_slope = 0.0;  // sum of d_r sp_r over active requests
  for (int r = 0; r < R; ++r) {
    const double s = sp[static_cast<std::size_t>(r)];
    if (s >= kInf) continue;  // no constraint
    const Request& req = instance.request(r);
    TUFP_CHECK(s > 0.0, "positive weights imply positive path lengths");
    kinks.push_back({req.value / (req.demand * s), req.value, req.demand * s});
    active_value += req.value;
    active_slope += req.demand * s;
  }
  std::sort(kinks.begin(), kinks.end(),
            [](const Kink& a, const Kink& b) { return a.t < b.t; });

  // t = 0 (alpha -> infinity): z_r = v_r for every request.
  DualCertificate best;
  best.upper_bound = active_value;
  best.alpha = 0.0;

  double best_t = 0.0;
  for (const Kink& k : kinks) {
    const double f = weight_sum * k.t + (active_value - active_slope * k.t);
    if (f < best.upper_bound) {
      best.upper_bound = f;
      best_t = k.t;
    }
    // Past its kink the request's z clamps to 0.
    active_value -= k.value;
    active_slope -= k.slope;
  }

  best.alpha = best_t > 0.0 ? 1.0 / best_t : 0.0;
  best.z.assign(static_cast<std::size_t>(R), 0.0);
  for (int r = 0; r < R; ++r) {
    const double s = sp[static_cast<std::size_t>(r)];
    if (s >= kInf) continue;
    const Request& req = instance.request(r);
    best.z[static_cast<std::size_t>(r)] =
        std::max(0.0, req.value - req.demand * s * best_t);
  }
  return best;
}

double claim36_upper_bound(const UfpInstance& instance,
                           const BoundedUfpConfig& config) {
  return claim36_upper_bound(instance, bounded_ufp(instance, config));
}

double claim36_upper_bound(const UfpInstance& instance,
                           const BoundedUfpResult& run) {
  double bound = run.dual_upper_bound;
  // The final weights are one more feasible dual snapshot; the best
  // rescaled certificate over them can only tighten Claim 3.6's running
  // minimum (and caps the bound at the total declared value).
  if (!run.y.empty()) {
    bound = std::min(bound, best_dual_bound(instance, run.y).upper_bound);
  }
  return bound;
}

}  // namespace tufp
