// Internal backdoor into UfpWorkspace's pimpl (Algorithm 1's
// implementation files only). Public consumers see ufp/workspace.hpp's
// opaque surface; the engine's solve needs the concrete SpCache and
// epoch-start solve state.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/residual_csr.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/workspace.hpp"

namespace tufp {

namespace detail {

// Epoch-start solver state cached across solves (bounded_ufp.cpp). The
// arrays are exactly Algorithm 1's line-4 state: y_e = 1/c_e duals, the
// residual working copy (== epoch capacities at solve start) and the
// all-zero iteration stamps. They are only mutated by admissions, so a
// solve that admits nothing leaves them bitwise at their epoch-start
// values — and a later solve whose view shows the same stamp clock over
// the same capacity span may reuse them without the O(m) rebuild. That
// is the clean-epoch fast path: on a saturated steady state the solver
// setup drops from O(m) to O(1).
struct EpochSolveState {
  std::vector<double> y;
  std::vector<double> residual;
  std::vector<std::int64_t> edge_stamp;
  WeightProfile profile;
  double dual_sum = 0.0;

  // Reuse key: valid only for this owner at this stamp clock over this
  // exact capacity span. An engine reset() clears the whole workspace,
  // so a restarted clock can never alias a stale key.
  bool valid = false;
  const ResidualGraph* owner = nullptr;
  std::int64_t clock = -1;
  const double* cap_data = nullptr;
  std::size_t cap_size = 0;
};

}  // namespace detail

struct UfpWorkspace::Impl {
  std::unique_ptr<detail::SpCache> cache;
  detail::EpochSolveState solve_state;

  // Construction parameters the cached SpCache was built with; a solve
  // with a different configuration rebuilds it.
  const Graph* graph = nullptr;
  bool parallel = false;
  int num_threads = 0;
  SpKernel kernel = SpKernel::kAuto;
};

namespace detail {

class WorkspaceAccess {
 public:
  static UfpWorkspace::Impl& impl(UfpWorkspace& ws) { return *ws.impl_; }

  // The workspace's SpCache bound to (graph, requests) under the given
  // parallelism/kernel configuration: rebinds the existing cache when
  // compatible, rebuilds it otherwise.
  static SpCache& bind_cache(UfpWorkspace& ws, const Graph& graph,
                             std::span<const Request> requests, bool parallel,
                             int num_threads, SpKernel kernel) {
    UfpWorkspace::Impl& state = *ws.impl_;
    if (state.cache == nullptr || state.graph != &graph ||
        state.parallel != parallel || state.num_threads != num_threads ||
        state.kernel != kernel) {
      state.cache = std::make_unique<SpCache>(graph, requests, parallel,
                                              num_threads, kernel);
      state.graph = &graph;
      state.parallel = parallel;
      state.num_threads = num_threads;
      state.kernel = kernel;
    } else {
      state.cache->rebind(requests);
    }
    return *state.cache;
  }

  static EpochSolveState& solve_state(UfpWorkspace& ws) {
    return ws.impl_->solve_state;
  }
};

}  // namespace detail
}  // namespace tufp
