#include "tufp/graph/bellman_ford.hpp"

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {

// Relax every edge once: next[v] = min(cur[v], cur[u] + w(u,v)).
void relax_all(const Graph& graph, std::span<const double> weights,
               const std::vector<double>& cur, std::vector<double>& next) {
  next = cur;
  for (EdgeId e = 0; e < graph.num_edges(); ++e) {
    const auto [u, v] = graph.endpoints(e);
    const double w = weights[static_cast<std::size_t>(e)];
    TUFP_REQUIRE(w >= 0.0, "negative weights are not supported");
    const auto ui = static_cast<std::size_t>(u), vi = static_cast<std::size_t>(v);
    if (cur[ui] + w < next[vi]) next[vi] = cur[ui] + w;
    if (!graph.is_directed() && cur[vi] + w < next[ui]) next[ui] = cur[vi] + w;
  }
}

}  // namespace

std::vector<double> bellman_ford(const Graph& graph,
                                 std::span<const double> weights,
                                 VertexId source) {
  TUFP_REQUIRE(graph.finalized(), "graph must be finalized");
  TUFP_REQUIRE(weights.size() == static_cast<std::size_t>(graph.num_edges()),
               "weight vector size must equal edge count");
  std::vector<double> cur(static_cast<std::size_t>(graph.num_vertices()), kInf);
  cur[static_cast<std::size_t>(source)] = 0.0;
  std::vector<double> next;
  for (int round = 0; round + 1 < graph.num_vertices(); ++round) {
    relax_all(graph, weights, cur, next);
    if (next == cur) break;
    cur.swap(next);
  }
  return cur;
}

}  // namespace tufp
