// Internal backdoor into UfpWorkspace's pimpl (Algorithm 1's
// implementation files only). Public consumers see ufp/workspace.hpp's
// opaque surface; the engine's solve needs the concrete SpCache and the
// lazy cache's per-edge iteration stamps, and the critical-value replays
// the checkpointed solve's log and their per-worker state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"
#include "tufp/ufp/detail/solve_log.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/workspace.hpp"

namespace tufp {

namespace detail {

// One worker's replay state, kept across epochs: a one-thread cache and
// the stamps of the worker's lane (ufp/critical_replay.cpp). Between
// replays every stamp is 0, below any solve's first stamp.
struct ReplayWorker {
  std::unique_ptr<SpCache> cache;
  std::vector<std::int64_t> edge_stamp;
  const Graph* graph = nullptr;  // the graph the cache was built for
  std::int64_t bound_to = -1;    // the logged solve it is rebound to
};

}  // namespace detail

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

  // The last checkpointed solve, numbered by `solves_logged`, and the
  // replay workers that price its winners.
  detail::SolveLog log;
  std::int64_t solves_logged = 0;
  std::vector<detail::ReplayWorker> replay_workers;
};

namespace detail {

class WorkspaceAccess {
 public:
  // The workspace's SpCache bound to (graph, requests) under the given
  // thread count: rebinds the existing cache when compatible, rebuilds it
  // otherwise.
  static SpCache& bind_cache(UfpWorkspace& ws, const Graph& graph,
                             std::span<const Request> requests,
                             int num_threads) {
    UfpWorkspace::Impl& state = *ws.impl_;
    if (state.cache == nullptr || state.graph != &graph ||
        state.num_threads != num_threads) {
      state.cache = std::make_unique<SpCache>(graph, requests, num_threads);
      state.graph = &graph;
      state.num_threads = num_threads;
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

  // The log a checkpointed solve writes: cleared for `num_requests`
  // requests from the workspace's next stamp on, with `workers` replay
  // workers made ready for it (serial; before the replays fan out).
  static SolveLog& start_log(UfpWorkspace& ws, std::size_t num_requests,
                             std::size_t workers) {
    UfpWorkspace::Impl& state = *ws.impl_;
    state.log.clear(num_requests, state.generation + 1);
    ++state.solves_logged;
    if (state.replay_workers.size() < workers) {
      state.replay_workers.resize(workers);
    }
    return state.log;
  }

  static const SolveLog& log(const UfpWorkspace& ws) { return ws.impl_->log; }

  // Replay worker `worker` with its cache bound to (graph, requests) for
  // the last logged solve, and its stamps sized for `graph`. Distinct
  // workers may be taken on distinct threads at once.
  static ReplayWorker& replay_worker(UfpWorkspace& ws, std::size_t worker,
                                     const Graph& graph,
                                     std::span<const Request> requests) {
    UfpWorkspace::Impl& state = *ws.impl_;
    TUFP_REQUIRE(worker < state.replay_workers.size(),
                 "replay worker beyond the checkpointed solve's team");
    ReplayWorker& rw = state.replay_workers[worker];
    if (rw.graph != &graph) {
      rw.cache = std::make_unique<SpCache>(graph, requests, 1);
      rw.edge_stamp.assign(static_cast<std::size_t>(graph.num_edges()), 0);
      rw.graph = &graph;
    } else if (rw.bound_to != state.solves_logged) {
      rw.cache->rebind(requests);
    }
    rw.bound_to = state.solves_logged;
    return rw;
  }
};

}  // namespace detail
}  // namespace tufp
