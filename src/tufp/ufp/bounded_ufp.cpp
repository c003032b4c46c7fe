#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/ufp/detail/bounded_ufp_loop.hpp"

namespace tufp {

using detail::LoopForm;
using detail::run_bounded_ufp;
using detail::validate_config;

BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP requires demands in (0,1]; call normalized() first");
  const detail::Substrate sub = detail::substrate_of(instance);
  validate_config(sub, config);
  detail::SpCache cache(instance, config.num_threads);
  return run_bounded_ufp<LoopForm::kSolve>(sub, config, cache);
}

BoundedUfpResult bounded_ufp(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace) {
  const detail::Substrate sub = detail::substrate_of(rgraph, requests);
  detail::validate_requests(sub);
  validate_config(sub, config);
  detail::SpCache& cache = detail::WorkspaceAccess::bind_cache(
      workspace, rgraph.base(), requests, config.num_threads);
  // Line 4 is already in the graph: the overlay starts at the epoch-start
  // duals and capacities open_epoch() derived, and its destructor rolls
  // back every edge this solve writes before the caller reads the graph
  // again (payments, commits).
  ResidualGraph::SolveOverlay overlay(rgraph);
  detail::LoopArrays arrays = detail::overlay_arrays(
      overlay, rgraph,
      detail::WorkspaceAccess::edge_stamps(workspace, rgraph.base()),
      &detail::WorkspaceAccess::generation(workspace));
  return run_bounded_ufp<LoopForm::kSolve>(sub, config, cache, &arrays);
}

}  // namespace tufp
