// Bellman–Ford single-source shortest paths.
//
// O(nm) reference oracle used by the test suite to cross-check the Dijkstra
// engine.
#pragma once

#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"

namespace tufp {

// Distances from `source` to every vertex (kInf when unreachable).
std::vector<double> bellman_ford(const Graph& graph,
                                 std::span<const double> weights,
                                 VertexId source);

}  // namespace tufp
