// A recompute-all reference for Algorithm 1, shared by the tests of the
// lazy shortest-path cache (test_sp_cache, test_bounded_ufp). Every
// iteration asks one fresh ShortestPathEngine query per remaining request
// (no cache, stamps, shards or weight profile) and then selects, updates
// and stops exactly as bounded_ufp does over a UfpInstance. Searches are
// canonical (graph/dijkstra.hpp), so a correct lazy cache gives the same
// run to the bit.
#pragma once

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

struct RecomputeAllRun {
  std::vector<IterationRecord> trace;  // one record per selection
  double final_dual_sum = 0.0;
  std::int64_t queries = 0;  // shortest-path queries, one per request a round
};

inline RecomputeAllRun recompute_all_bounded_ufp(const UfpInstance& instance,
                                                 const BoundedUfpConfig& config) {
  const Graph& graph = instance.graph();
  const std::span<const double> capacity = graph.capacities();
  const double B = instance.bound_B();
  const double eps = config.epsilon;
  std::vector<double> y(capacity.size());
  for (std::size_t e = 0; e < y.size(); ++e) y[e] = 1.0 / capacity[e];
  std::vector<double> residual(capacity.begin(), capacity.end());
  double dual_sum = static_cast<double>(graph.num_edges());
  const double threshold = std::exp(eps * (B - 1.0));
  std::vector<int> remaining;
  for (int r = 0; r < instance.num_requests(); ++r) remaining.push_back(r);

  ShortestPathEngine engine(graph);
  RecomputeAllRun run;
  double primal_value = 0.0;
  while (!remaining.empty()) {
    if (!config.run_to_saturation && dual_sum > threshold) break;
    int best = -1;
    double best_priority = kInf;
    Path best_path;
    for (const int r : remaining) {
      const Request& req = instance.request(r);
      Path path;
      const double length =
          engine.shortest_path(y, req.source, req.target, &path);
      ++run.queries;
      if (length >= kInf) continue;
      if (config.capacity_guard &&
          !detail::path_fits(path, residual, req.demand)) {
        continue;
      }
      const double priority = req.demand / req.value * length;
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
        best_path = std::move(path);
      }
    }
    if (best < 0) break;
    const Request& req = instance.request(best);
    const double dual_before = dual_sum;
    for (const EdgeId e : best_path) {
      const auto ei = static_cast<std::size_t>(e);
      const double old_y = y[ei];
      y[ei] = old_y * std::exp(eps * B * req.demand / capacity[ei]);
      dual_sum += capacity[ei] * (y[ei] - old_y);
      residual[ei] -= req.demand;
    }
    primal_value += req.value;
    run.trace.push_back({best, best_priority, dual_before, primal_value});
    std::erase(remaining, best);
  }
  run.final_dual_sum = dual_sum;
  return run;
}

}  // namespace tufp
