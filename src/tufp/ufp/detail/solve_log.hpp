// A checkpointed solve's run of Algorithm 1, kept as deltas (internal
// header; DESIGN.md §4).
//
// Checkpoint k is the loop's state just after iteration k's refresh: the
// remaining set, dual_sum, the weight profile, the primal value, the
// duals, the residual, the edge stamps and the cache entries. The log
// does not copy that state per iteration. It keeps what each iteration
// changed: the entries its refresh recomputed, and the edges its
// selection wrote, with their new y and residual. Checkpoint k is then
// rebuilt from line 4 by applying every recomputation through iteration
// k and every selection before it, so a log takes O(sum of selected path
// lengths + recomputations x path length) per solve, never O(K x m).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/util/math.hpp"

namespace tufp::detail {

struct SolveLog {
  struct Iteration {
    std::int64_t stamp = 0;  // the iteration's `now`
    // The state at the checkpoint, which the selection has not touched.
    double dual_sum = 0.0;
    WeightProfile profile;
    double primal_value = 0.0;
    double dual_upper_bound = kInf;  // the running bound before the scan
    std::int64_t sp_computations = 0;  // through this iteration's refresh
    std::int64_t sp_tree_runs = 0;
    // The request the iteration selected; -1 when nothing fit and the
    // loop ended here.
    int best = -1;
    // Where this iteration's records end in `recomputed` and `writes`.
    std::size_t recomputed_end = 0;
    std::size_t writes_end = 0;
  };

  // One cache entry a refresh recomputed, as it left the refresh. Its
  // path is path_edges[path_begin, path_end).
  struct Recomputed {
    int request = -1;
    double length = kInf;
    std::int64_t computed_at = -1;
    bool reachable = true;
    bool fits = true;
    std::size_t path_begin = 0;
    std::size_t path_end = 0;
  };

  // One edge of a selected path, after the selection updated it; the
  // edges of a selection are logged in path order.
  struct Write {
    EdgeId edge = kInvalidEdge;
    double y = 0.0;
    double residual = 0.0;
  };

  std::int64_t first_stamp = 0;       // iteration 1's stamp
  std::vector<Iteration> iterations;  // iterations[t - 1] is iteration t
  std::vector<Recomputed> recomputed;
  std::vector<EdgeId> path_edges;
  std::vector<Write> writes;
  // Per request, the iteration that selected it; 0 for a loser.
  std::vector<int> selected_at;

  // Empties the log for a solve of `num_requests` requests whose first
  // iteration is stamped `first`, keeping the storage.
  void clear(std::size_t num_requests, std::int64_t first) {
    first_stamp = first;
    iterations.clear();
    recomputed.clear();
    path_edges.clear();
    writes.clear();
    selected_at.assign(num_requests, 0);
  }
};

}  // namespace tufp::detail
