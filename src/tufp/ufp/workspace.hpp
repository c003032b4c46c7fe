// Cross-epoch solver workspace: the state a resident driver keeps alive
// between solves so each epoch skips rebuilding it.
//
// One UfpWorkspace owns, behind an opaque pimpl:
//   * the sharded shortest-path cache (detail/sp_cache.hpp) — engine
//     pool and source-shard plan reused across epochs via rebind();
//   * the per-edge iteration stamps of the lazy cache, a generation that
//     only grows across solves, so no solve zero-fills them
//     (detail/workspace_access.hpp).
//
// Its one consumer is the engine's bounded_ufp over the residual graph
// (ufp/bounded_ufp.hpp), which keeps one workspace per world. The
// workspace is purely an optimization: results are bitwise identical to
// a cold solve (the engine-differential sim oracle enforces this against
// a cold replay that never builds one).
#pragma once

#include <memory>

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

  // Drops all cached state. Never needed for correctness: the next solve
  // rebuilds what it needs.
  void clear();

 private:
  friend class detail::WorkspaceAccess;
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace tufp
