#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/ufp/detail/bounded_ufp_loop.hpp"
#include "tufp/ufp/detail/workspace_access.hpp"

namespace tufp {

using detail::run_bounded_ufp;
using detail::validate_config;

BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP requires demands in (0,1]; call normalized() first");
  const detail::Substrate sub = detail::substrate_of(instance);
  validate_config(sub, config);
  detail::SpCache cache(instance, config.num_threads, config.sp_kernel);
  return run_bounded_ufp<false>(sub, config, cache);
}

BoundedUfpResult bounded_ufp(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace) {
  const detail::Substrate sub = detail::substrate_of(rgraph, requests);
  detail::validate_requests(sub);
  validate_config(sub, config);
  detail::SpCache& cache = detail::WorkspaceAccess::bind_cache(
      workspace, rgraph.base(), requests, config.num_threads, config.sp_kernel);
  // Line 4 is already in the graph: the overlay starts at the epoch-start
  // duals and capacities open_epoch() derived, and its destructor rolls
  // back every edge this solve writes before the caller reads the graph
  // again (payments, commits).
  ResidualGraph::SolveOverlay overlay(rgraph);
  detail::LoopArrays arrays;
  arrays.y = overlay.duals();
  arrays.residual = overlay.residual();
  arrays.edge_stamp =
      detail::WorkspaceAccess::edge_stamps(workspace, rgraph.base());
  arrays.generation = &detail::WorkspaceAccess::generation(workspace);
  arrays.profile = rgraph.dual_profile();
  arrays.dual_sum = static_cast<double>(sub.num_active);
  arrays.written = &overlay.written();
  return run_bounded_ufp<false>(sub, config, cache, &arrays);
}

}  // namespace tufp
