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
  return run_bounded_ufp<false>(sub, config, cache, /*warm_start=*/false);
}

BoundedUfpResult bounded_ufp(const ResidualView& view,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace* workspace) {
  const detail::Substrate sub = detail::substrate_of(view, requests);
  detail::validate_requests(sub);
  validate_config(sub, config);
  if (workspace != nullptr) {
    detail::SpCache& cache = detail::WorkspaceAccess::bind_cache(
        *workspace, view.owner(), requests, config.parallel,
        config.num_threads, config.sp_kernel);
    detail::EpochSolveState& st =
        detail::WorkspaceAccess::solve_state(*workspace);
    if (st.owner != &view.owner()) {
      st.valid = false;  // a rebound workspace never reuses foreign state
      st.owner = &view.owner();
    }
    return run_bounded_ufp<false>(sub, config, cache, /*warm_start=*/true,
                                  &st);
  }
  detail::SpCache cache(view.base(), requests, config.parallel,
                        config.num_threads, config.sp_kernel);
  return run_bounded_ufp<false>(sub, config, cache, /*warm_start=*/false);
}

}  // namespace tufp
