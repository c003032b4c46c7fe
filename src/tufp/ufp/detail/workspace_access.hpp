// Internal backdoor into UfpWorkspace's pimpl (Algorithm 1's
// implementation files only). Public consumers see ufp/workspace.hpp's
// opaque surface; the engine's solve needs the concrete SpCache and the
// lazy cache's per-edge iteration stamps.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/workspace.hpp"

namespace tufp {

struct UfpWorkspace::Impl {
  std::unique_ptr<detail::SpCache> cache;

  // Iteration stamps of the engine's solves (detail/sp_cache.hpp): a
  // generation that only grows across solves, so every stamp is at most
  // `generation` when a solve starts, each solve numbers its iterations
  // on from there, and the array is never zero-filled again.
  std::vector<std::int64_t> edge_stamp;
  std::int64_t generation = 0;

  // Construction parameters the cached SpCache was built with; a solve
  // with a different configuration rebuilds it.
  const Graph* graph = nullptr;
  int num_threads = 1;
  SpKernel kernel = SpKernel::kAuto;
};

namespace detail {

class WorkspaceAccess {
 public:
  // The workspace's SpCache bound to (graph, requests) under the given
  // thread count and kernel: rebinds the existing cache when compatible,
  // rebuilds it otherwise.
  static SpCache& bind_cache(UfpWorkspace& ws, const Graph& graph,
                             std::span<const Request> requests,
                             int num_threads, SpKernel kernel) {
    UfpWorkspace::Impl& state = *ws.impl_;
    if (state.cache == nullptr || state.graph != &graph ||
        state.num_threads != num_threads || state.kernel != kernel) {
      state.cache =
          std::make_unique<SpCache>(graph, requests, num_threads, kernel);
      state.graph = &graph;
      state.num_threads = num_threads;
      state.kernel = kernel;
    } else {
      state.cache->rebind(requests);
    }
    return *state.cache;
  }

  // The stamp array sized for `graph`. A fresh array is all zeros, at
  // most any generation; it is allocated when the workspace first meets
  // a graph of this size, never per solve.
  static std::span<std::int64_t> edge_stamps(UfpWorkspace& ws,
                                             const Graph& graph) {
    std::vector<std::int64_t>& stamps = ws.impl_->edge_stamp;
    const auto m = static_cast<std::size_t>(graph.num_edges());
    if (stamps.size() != m) stamps.assign(m, 0);
    return stamps;
  }

  static std::int64_t& generation(UfpWorkspace& ws) {
    return ws.impl_->generation;
  }
};

}  // namespace detail
}  // namespace tufp
