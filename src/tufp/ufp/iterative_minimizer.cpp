#include "tufp/ufp/iterative_minimizer.hpp"

#include <algorithm>
#include <map>
#include <utility>

#include "tufp/graph/path_enum.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {

constexpr double kFitSlack = 1e-9;

bool path_fits(const Path& path, const std::vector<double>& flows,
               std::span<const double> capacities, double demand) {
  for (EdgeId e : path) {
    const auto ei = static_cast<std::size_t>(e);
    if (flows[ei] + demand > capacities[ei] + kFitSlack) return false;
  }
  return true;
}

}  // namespace

IterativeMinimizerResult reasonable_iterative_minimizer(
    const UfpInstance& instance, const IterativeMinimizerConfig& config) {
  TUFP_REQUIRE(config.function != nullptr, "a reasonable function is required");
  const Graph& g = instance.graph();
  const int R = instance.num_requests();

  // Enumerate S_r once per distinct terminal pair; duplicated requests
  // (the lower-bound gadgets use B identical copies) share the path set.
  std::map<std::pair<VertexId, VertexId>, std::size_t> pair_index;
  std::vector<std::vector<Path>> path_sets;
  std::vector<std::size_t> request_paths(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) {
    const Request& req = instance.request(r);
    const auto key = std::make_pair(req.source, req.target);
    auto it = pair_index.find(key);
    if (it == pair_index.end()) {
      PathEnumOptions opts;
      opts.max_paths = config.max_paths_per_pair;
      opts.max_hops = config.max_hops;
      PathEnumResult enumerated =
          enumerate_simple_paths(g, req.source, req.target, opts);
      TUFP_REQUIRE(!enumerated.truncated,
                   "path enumeration exceeded max_paths_per_pair");
      it = pair_index.emplace(key, path_sets.size()).first;
      path_sets.push_back(std::move(enumerated.paths));
    }
    request_paths[static_cast<std::size_t>(r)] = it->second;
  }

  IterativeMinimizerResult result{UfpSolution(R)};
  std::vector<double> flows(static_cast<std::size_t>(g.num_edges()), 0.0);
  const std::span<const double> capacities = g.capacities();

  std::vector<int> remaining(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) remaining[static_cast<std::size_t>(r)] = r;

  while (!remaining.empty()) {
    int best_request = -1;
    const Path* best_path = nullptr;
    double best_score = kInf;
    double best_tie = kInf;

    for (int r : remaining) {
      const Request& req = instance.request(r);
      const auto& paths = path_sets[request_paths[static_cast<std::size_t>(r)]];
      for (const Path& path : paths) {
        if (!path_fits(path, flows, capacities, req.demand)) continue;
        const double score = config.function->evaluate(req.demand, req.value,
                                                       path, flows, capacities);
        if (score > best_score) continue;
        if (score < best_score) {
          best_score = score;
          best_tie = config.tie_score ? config.tie_score(r, path) : 0.0;
          best_request = r;
          best_path = &path;
          continue;
        }
        // Exact priority tie: defer to the tie score; keep the earlier
        // (request id, path index) candidate on a full tie.
        if (config.tie_score) {
          const double tie = config.tie_score(r, path);
          if (tie < best_tie) {
            best_tie = tie;
            best_request = r;
            best_path = &path;
          }
        }
      }
    }

    if (best_request < 0) break;  // nothing fits: the algorithm stops

    const Request& req = instance.request(best_request);
    for (EdgeId e : *best_path) flows[static_cast<std::size_t>(e)] += req.demand;
    result.solution.assign(best_request, *best_path);
    ++result.iterations;
    remaining.erase(
        std::find(remaining.begin(), remaining.end(), best_request));
    result.trace.push_back({best_request, best_score});
  }

  return result;
}

}  // namespace tufp
