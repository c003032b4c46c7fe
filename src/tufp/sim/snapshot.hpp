// GraphSnapshot — an immutable per-epoch compile of the residual network.
//
// The reference side of the engine-differential oracle (sim/oracles.cpp)
// replays each epoch cold: it compiles the base graph plus the residual
// capacities carried over from all previous epochs into a fresh snapshot —
// a finalized CSR `tufp::Graph` holding only the edges that can still
// carry a full-size request, with capacity equal to the remaining
// headroom — and solves Bounded-UFP on it as a plain UfpInstance. Solving
// on the snapshot is therefore solving the residual instance, and the
// paper's preconditions hold by construction: demands are normalized to
// (0,1] and every snapshot edge has capacity >= kResidualFloor (1.0, the
// normalized maximum demand), so B >= 1 (DESIGN.md §7). The engine itself
// never compiles snapshots; it keeps one in-place ResidualGraph
// (graph/residual_csr.hpp) with the same active-edge rule.
//
// Edges whose residual drops below the floor are *saturated*: they leave
// the snapshot entirely rather than shipping a tiny capacity that would
// drag B below 1. This is conservative — a 0.7-residual edge could still
// serve a 0.3-demand request — but it is what keeps every epoch a valid
// B-bounded instance, and in the paper's large-capacity regime the lost
// fraction is at most 1/B of the edge. Vertex ids are shared with the base
// graph, so requests need no translation; edge ids are remapped and
// `base_edge()` translates snapshot paths back for the residual update.
#pragma once

#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"
#include "tufp/graph/residual_csr.hpp"

namespace tufp {

class GraphSnapshot {
 public:
  // Compiles the residual view. `residual` is indexed by base EdgeId and
  // must match base->num_edges(); entries must not exceed the base
  // capacities. The snapshot keeps base edges with
  // residual >= kResidualFloor.
  static GraphSnapshot compile(std::shared_ptr<const Graph> base,
                               std::span<const double> residual);

  // The compiled residual graph. Finalized; may have zero edges when the
  // network is fully saturated (then it cannot back a UfpInstance and the
  // epoch must be skipped).
  const std::shared_ptr<const Graph>& graph() const { return graph_; }
  const std::shared_ptr<const Graph>& base() const { return base_; }

  // Translates a snapshot edge id back to the base edge id.
  EdgeId base_edge(EdgeId snapshot_edge) const {
    return edge_map_[static_cast<std::size_t>(snapshot_edge)];
  }
  std::span<const EdgeId> edge_map() const { return edge_map_; }

  int num_active_edges() const { return static_cast<int>(edge_map_.size()); }
  int num_saturated_edges() const { return num_saturated_; }

  // min residual over active edges — the epoch's bound B. +inf when no
  // edge is active.
  double min_residual() const { return min_residual_; }

 private:
  GraphSnapshot() = default;

  std::shared_ptr<const Graph> base_;
  std::shared_ptr<const Graph> graph_;
  std::vector<EdgeId> edge_map_;
  int num_saturated_ = 0;
  double min_residual_ = 0.0;
};

}  // namespace tufp
