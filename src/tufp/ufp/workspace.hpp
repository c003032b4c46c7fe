// Cross-epoch solver workspace: the state a resident driver keeps alive
// between solves so each epoch starts warm instead of from scratch.
//
// One UfpWorkspace owns, behind an opaque pimpl:
//   * the sharded shortest-path cache (detail/sp_cache.hpp) — engine
//     pool and source-shard plan reused across epochs via rebind();
//   * the cross-epoch settled-tree cache (graph/residual_csr.hpp) that
//     lets an epoch's first refresh skip Dijkstra runs whose stored
//     trees are still stamp-valid.
//
// Passing a workspace to the ResidualView solver overloads is purely an
// optimization: results are bitwise identical with or without one (the
// residual-differential sim oracle enforces this against a cold replay
// that never builds one). The engine keeps one workspace per world;
// standalone callers may simply pass nullptr.
#pragma once

#include <cstdint>
#include <memory>
#include <span>

#include "tufp/graph/graph.hpp"

namespace tufp {

namespace detail {
class WorkspaceAccess;
}

class UfpWorkspace {
 public:
  UfpWorkspace();
  ~UfpWorkspace();
  UfpWorkspace(UfpWorkspace&&) noexcept;
  UfpWorkspace& operator=(UfpWorkspace&&) noexcept;
  UfpWorkspace(const UfpWorkspace&) = delete;
  UfpWorkspace& operator=(const UfpWorkspace&) = delete;

  // Drops all cached state (caches, trees, counters). Required whenever
  // the underlying residual graph is reset (its stamp clock restarts).
  void clear();

  // Per-tree reclaim revalidation over the cross-epoch tree cache
  // (graph/residual_csr.hpp survival criterion): drops the stored trees
  // the reclaimed edges can touch, keeps the rest warm through the
  // weight decrease. The engine calls this right after stamping a
  // reclaim batch, with `clock_after` the residual graph's clock once
  // every reclaim is stamped. Returns the kept/dropped tree counts for
  // the deterministic telemetry channel.
  struct ReclaimRevalidation {
    std::int64_t kept = 0;
    std::int64_t dropped = 0;
  };
  ReclaimRevalidation revalidate_warm_trees(const Graph& base,
                                            std::span<const EdgeId> reclaimed,
                                            std::int64_t clock_after);

  // Telemetry (monotone over the workspace lifetime, zeroed by clear()).
  std::int64_t warm_tree_hits() const;      // shards served from stored trees
  std::int64_t warm_entries_served() const; // entries those shards covered
  std::int64_t shard_plan_builds() const;
  std::int64_t shard_plan_reuses() const;

 private:
  friend class detail::WorkspaceAccess;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tufp
