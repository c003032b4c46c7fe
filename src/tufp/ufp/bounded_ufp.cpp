#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/ufp/detail/bounded_ufp_loop.hpp"

namespace tufp {

using detail::run_bounded_ufp;
using detail::validate_config;

BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP requires demands in (0,1]; call normalized() first");
  const detail::Substrate sub = detail::substrate_of(instance);
  validate_config(sub, config);
  detail::SpCache cache(instance, config.parallel, config.num_threads,
                        config.sp_kernel);
  return run_bounded_ufp<false>(sub, config, cache);
}

BoundedUfpResult bounded_ufp(const ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace) {
  const detail::Substrate sub = detail::substrate_of(rgraph, requests);
  detail::validate_requests(sub);
  validate_config(sub, config);
  detail::SpCache& cache = detail::WorkspaceAccess::bind_cache(
      workspace, rgraph.base(), requests, config.parallel, config.num_threads,
      config.sp_kernel);
  detail::EpochSolveState& st = detail::WorkspaceAccess::solve_state(workspace);
  if (st.owner != &rgraph) {
    st.valid = false;  // a rebound workspace never reuses foreign state
    st.owner = &rgraph;
  }
  return run_bounded_ufp<false>(sub, config, cache, &st);
}

}  // namespace tufp
