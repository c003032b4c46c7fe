// A recompute-all reference for Algorithm 1, shared by the tests of the
// lazy shortest-path cache (test_sp_cache, test_bounded_ufp). Every
// iteration asks one fresh ShortestPathEngine query per remaining request
// (no cache, stamps, shards, weight profile or lazy scan) and then
// selects, updates and stops exactly as bounded_ufp does over a
// UfpInstance. Searches are canonical (graph/dijkstra.hpp), so a correct
// lazy solve gives the same run to the bit: its trace, its Claim 3.6
// bound and, classified from the paths of the last round, its rejection
// records.
#pragma once

#include <algorithm>
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
  // min over rounds of sum c_e y_e / alpha + primal value, alpha the
  // smallest priority of any reachable remaining request, fit ignored;
  // capped at the total value, summed in request order, when every
  // request is routed.
  double dual_upper_bound = kInf;
  bool stopped_by_threshold = false;
  // One per unselected request, ascending, judged at exit on the path its
  // last round computed (RejectionRecord, DESIGN.md §14).
  std::vector<RejectionRecord> rejections;
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
  const int R = instance.num_requests();
  std::vector<int> remaining;
  for (int r = 0; r < R; ++r) remaining.push_back(r);
  // Each request's path and length as its last round computed them.
  std::vector<Path> paths(static_cast<std::size_t>(R));
  std::vector<double> lengths(static_cast<std::size_t>(R), kInf);
  std::vector<bool> computed(static_cast<std::size_t>(R), false);

  ShortestPathEngine engine(graph);
  RecomputeAllRun run;
  double primal_value = 0.0;
  while (!remaining.empty()) {
    if (!config.run_to_saturation && dual_sum > threshold) {
      run.stopped_by_threshold = true;
      break;
    }
    int best = -1;
    double best_priority = kInf;
    double alpha = kInf;
    for (const int r : remaining) {
      const auto i = static_cast<std::size_t>(r);
      const Request& req = instance.request(r);
      lengths[i] = engine.shortest_path(y, req.source, req.target, &paths[i]);
      computed[i] = true;
      ++run.queries;
      if (lengths[i] >= kInf) continue;
      const double priority = req.demand / req.value * lengths[i];
      alpha = std::min(alpha, priority);
      if (config.capacity_guard &&
          !detail::path_fits(paths[i], residual, req.demand)) {
        continue;
      }
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
      }
    }
    if (alpha < kInf && alpha > 0.0) {
      run.dual_upper_bound =
          std::min(run.dual_upper_bound, dual_sum / alpha + primal_value);
    }
    if (best < 0) break;
    const Request& req = instance.request(best);
    const double dual_before = dual_sum;
    for (const EdgeId e : paths[static_cast<std::size_t>(best)]) {
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
  if (remaining.empty()) {
    double total = 0.0;
    for (int r = 0; r < R; ++r) total += instance.request(r).value;
    run.dual_upper_bound = std::min(run.dual_upper_bound, total);
  }

  // The first edge of `path` short of `demand` under `capacities`, or -1.
  const auto short_edge = [](const Path& path,
                             std::span<const double> capacities,
                             double demand) -> EdgeId {
    for (const EdgeId e : path) {
      if (capacities[static_cast<std::size_t>(e)] + detail::kFitSlack <
          demand) {
        return e;
      }
    }
    return -1;
  };
  for (const int r : remaining) {
    const auto i = static_cast<std::size_t>(r);
    const Request& req = instance.request(r);
    RejectionRecord rec;
    rec.request = r;
    if (!computed[i]) {
      rec.reason = RejectReason::kLostAuction;  // never got a round
    } else if (lengths[i] >= kInf) {
      rec.reason = RejectReason::kNoPath;
    } else {
      rec.density = req.demand / req.value * lengths[i];
      rec.path = paths[i];
      if (short_edge(paths[i], residual, req.demand) < 0) {
        rec.reason = RejectReason::kLostAuction;
      } else if (short_edge(paths[i], capacity, req.demand) < 0) {
        rec.reason = RejectReason::kCapacityRace;
        rec.bottleneck = short_edge(paths[i], residual, req.demand);
      } else {
        rec.reason = RejectReason::kBlockedAtStart;
        rec.bottleneck = short_edge(paths[i], capacity, req.demand);
      }
    }
    run.rejections.push_back(std::move(rec));
  }
  return run;
}

}  // namespace tufp
