#include "tufp/sim/snapshot.hpp"

#include <algorithm>
#include <utility>

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

GraphSnapshot GraphSnapshot::compile(std::shared_ptr<const Graph> base,
                                     std::span<const double> residual,
                                     double min_usable_capacity) {
  TUFP_REQUIRE(base != nullptr && base->finalized(),
               "snapshot requires a finalized base graph");
  TUFP_REQUIRE(static_cast<int>(residual.size()) == base->num_edges(),
               "residual vector size must match base edge count");
  TUFP_REQUIRE(min_usable_capacity > 0.0,
               "min_usable_capacity must be positive");

  GraphSnapshot snap;
  snap.base_ = std::move(base);
  snap.min_residual_ = kInf;

  const Graph& b = *snap.base_;
  Graph g = b.is_directed() ? Graph::directed(b.num_vertices())
                            : Graph::undirected(b.num_vertices());
  snap.edge_map_.reserve(residual.size());
  for (EdgeId e = 0; e < b.num_edges(); ++e) {
    const double r = residual[static_cast<std::size_t>(e)];
    TUFP_REQUIRE(r <= b.capacity(e) + 1e-9,
                 "residual exceeds base capacity");
    if (r < min_usable_capacity) {
      ++snap.num_saturated_;
      continue;
    }
    const auto [u, v] = b.endpoints(e);
    g.add_edge(u, v, r);
    snap.edge_map_.push_back(e);
    snap.min_residual_ = std::min(snap.min_residual_, r);
  }
  g.finalize();
  snap.graph_ = std::make_shared<const Graph>(std::move(g));
  return snap;
}

}  // namespace tufp
