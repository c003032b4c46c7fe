// bounded_ufp_critical_value (ufp/bounded_ufp.hpp): the exact critical
// value of one request, read off a shadowed replay of Algorithm 1. The
// replay's form of the loop is instantiated here, apart from the solve's
// (see detail/bounded_ufp_loop.hpp).
#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/ufp/detail/bounded_ufp_loop.hpp"

namespace tufp {

using detail::run_bounded_ufp;
using detail::validate_config;

namespace {

// One shadowed replay from the epoch-start state. Only the threshold is
// read, so the replay skips every export the selection does not need.
double replay_critical(const detail::Substrate& sub,
                       const BoundedUfpConfig& config, detail::SpCache& cache,
                       int r) {
  TUFP_REQUIRE(r >= 0 && r < static_cast<int>(sub.requests.size()),
               "critical value of a request outside the batch");
  BoundedUfpConfig replay = config;
  replay.record_trace = false;
  replay.classify_rejections = false;
  replay.export_duals = false;
  detail::Shadow shadow{r};
  run_bounded_ufp<true>(sub, replay, cache, /*arrays=*/nullptr, &shadow);
  return shadow.critical;
}

}  // namespace

double bounded_ufp_critical_value(const UfpInstance& instance, int r,
                                  const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP requires demands in (0,1]; call normalized() first");
  const detail::Substrate sub = detail::substrate_of(instance);
  validate_config(sub, config);
  detail::SpCache cache(instance, config.num_threads, config.sp_kernel);
  return replay_critical(sub, config, cache, r);
}

double bounded_ufp_critical_value(const ResidualGraph& rgraph,
                                  std::span<const Request> requests, int r,
                                  const BoundedUfpConfig& config) {
  const detail::Substrate sub = detail::substrate_of(rgraph, requests);
  detail::validate_requests(sub);
  validate_config(sub, config);
  detail::SpCache cache(rgraph.base(), requests, config.num_threads,
                        config.sp_kernel);
  return replay_critical(sub, config, cache, r);
}

}  // namespace tufp
