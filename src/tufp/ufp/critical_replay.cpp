// Algorithm 1 resumed (ufp/bounded_ufp.hpp, DESIGN.md §4): the
// checkpointed solve, the replays resumed at its checkpoints, and the
// cold critical value of one request. The winners are priced by the lazy
// form of the replay (kPricing); the solve resumed and the cold
// reference run the eager one (kReplay). Every form of the loop but the
// solve's is instantiated here (see detail/bounded_ufp_loop.hpp).
#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/ufp/detail/bounded_ufp_loop.hpp"
#include "tufp/util/parallel.hpp"

namespace tufp {

using detail::LoopForm;
using detail::run_bounded_ufp;
using detail::validate_config;
using detail::WorkspaceAccess;

namespace {

// Rebuilds checkpoint k of `log` on a replay's arrays and cache, which
// hold line 4's state: a lane at the epoch-start values, every stamp
// below the log's first one, and the cache bound to the epoch's
// requests. Walks the log from iteration 1: each iteration's
// recomputations through k go into the cache, and each selection before
// k into the arrays, stamped with its iteration.
detail::ResumePoint seek(const detail::SolveLog& log, int k,
                         const detail::Substrate& sub, detail::SpCache& cache,
                         detail::LoopArrays& arrays) {
  TUFP_REQUIRE(k >= 1 && k <= static_cast<int>(log.iterations.size()),
               "no checkpoint at that iteration");
  std::size_t rec = 0;
  std::size_t write = 0;
  for (int t = 1; t <= k; ++t) {
    const detail::SolveLog::Iteration& it =
        log.iterations[static_cast<std::size_t>(t - 1)];
    for (; rec < it.recomputed_end; ++rec) {
      const detail::SolveLog::Recomputed& logged = log.recomputed[rec];
      detail::SpCache::Entry& entry = cache.restore_entry(logged.request);
      entry.path.assign(
          log.path_edges.begin() + static_cast<std::ptrdiff_t>(logged.path_begin),
          log.path_edges.begin() + static_cast<std::ptrdiff_t>(logged.path_end));
      entry.length = logged.length;
      entry.computed_at = logged.computed_at;
      entry.reachable = logged.reachable;
      entry.fits = logged.fits;
    }
    if (t == k) break;
    for (; write < it.writes_end; ++write) {
      const detail::SolveLog::Write& logged = log.writes[write];
      const auto e = static_cast<std::size_t>(logged.edge);
      if (arrays.edge_stamp[e] < log.first_stamp) {
        arrays.written->push_back(logged.edge);
      }
      arrays.y[e] = logged.y;
      arrays.residual[e] = logged.residual;
      arrays.edge_stamp[e] = it.stamp;
    }
  }

  const detail::SolveLog::Iteration& at =
      log.iterations[static_cast<std::size_t>(k - 1)];
  arrays.dual_sum = at.dual_sum;
  arrays.profile = at.profile;
  *arrays.generation = at.stamp;
  const int R = static_cast<int>(sub.requests.size());
  detail::ResumePoint resume{.remaining = {},
                             .primal_value = at.primal_value,
                             .result = {UfpSolution(R)},
                             .first_stamp = log.first_stamp};
  for (int r = 0; r < R; ++r) {
    const int selected = log.selected_at[static_cast<std::size_t>(r)];
    if (selected == 0 || selected >= k) resume.remaining.push_back(r);
  }
  resume.result.iterations = k - 1;
  resume.result.dual_upper_bound = at.dual_upper_bound;
  resume.result.sp_computations = at.sp_computations;
  resume.result.sp_tree_runs = at.sp_tree_runs;
  return resume;
}

// The last checkpointed solve resumed at checkpoint k in form kForm on
// replay worker `worker`: its lane of the residual graph, its cache and
// its stamps. Everything the replay writes there is rolled back before it
// returns.
template <LoopForm kForm>
BoundedUfpResult replay_from(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace, int k, int worker,
                             detail::Shadow* shadow) {
  const detail::SolveLog& log = WorkspaceAccess::log(workspace);
  TUFP_REQUIRE(requests.size() == log.selected_at.size(),
               "replay over another batch than the checkpointed solve's");
  const detail::Substrate sub = detail::substrate_of(rgraph, requests);
  detail::ReplayWorker& rw = WorkspaceAccess::replay_worker(
      workspace, static_cast<std::size_t>(worker), rgraph.base(), requests);
  ResidualGraph::SolveOverlay overlay(rgraph, static_cast<std::size_t>(worker));
  // The overlay restores y and the residual of every edge it lists; this
  // puts their stamps back to 0 first, whatever the replay throws.
  struct StampReset {
    std::vector<std::int64_t>& stamps;
    const std::vector<EdgeId>& edges;
    ~StampReset() {
      for (const EdgeId e : edges) stamps[static_cast<std::size_t>(e)] = 0;
    }
  } stamp_reset{rw.edge_stamp, overlay.written()};
  std::int64_t now = 0;
  detail::LoopArrays arrays =
      detail::overlay_arrays(overlay, rgraph, rw.edge_stamp, &now);
  detail::ResumePoint resume = seek(log, k, sub, *rw.cache, arrays);
  return run_bounded_ufp<kForm>(sub, config, *rw.cache, &arrays, nullptr,
                                shadow, &resume);
}

}  // namespace

BoundedUfpResult bounded_ufp_checkpointed(ResidualGraph& rgraph,
                                          std::span<const Request> requests,
                                          const BoundedUfpConfig& config,
                                          UfpWorkspace& workspace) {
  const detail::Substrate sub = detail::substrate_of(rgraph, requests);
  detail::validate_requests(sub);
  validate_config(sub, config);
  // One lane and one replay worker per thread of the team the winners
  // fan out on.
  const auto team =
      static_cast<std::size_t>(effective_num_threads(config.num_threads));
  rgraph.ensure_lanes(team);
  detail::SolveLog& log =
      WorkspaceAccess::start_log(workspace, requests.size(), team);
  detail::SpCache& cache = WorkspaceAccess::bind_cache(
      workspace, rgraph.base(), requests, config.num_threads);
  ResidualGraph::SolveOverlay overlay(rgraph);
  detail::LoopArrays arrays = detail::overlay_arrays(
      overlay, rgraph, WorkspaceAccess::edge_stamps(workspace, rgraph.base()),
      &WorkspaceAccess::generation(workspace));
  return run_bounded_ufp<LoopForm::kCheckpointed>(sub, config, cache, &arrays,
                                                  &log);
}

BoundedUfpResult bounded_ufp_resume(ResidualGraph& rgraph,
                                    std::span<const Request> requests,
                                    const BoundedUfpConfig& config,
                                    UfpWorkspace& workspace, int iteration,
                                    int worker) {
  detail::Shadow none;
  BoundedUfpResult result = replay_from<LoopForm::kReplay>(
      rgraph, requests, config, workspace, iteration, worker, &none);
  // The selections before the checkpoint, each along its logged path.
  const detail::SolveLog& log = WorkspaceAccess::log(workspace);
  std::size_t write = 0;
  for (int t = 1; t < iteration; ++t) {
    const detail::SolveLog::Iteration& it =
        log.iterations[static_cast<std::size_t>(t - 1)];
    Path path;
    for (; write < it.writes_end; ++write) {
      path.push_back(log.writes[write].edge);
    }
    result.solution.assign(it.best, std::move(path));
  }
  return result;
}

double winner_critical_value(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace, int w, int worker,
                             std::int64_t* sp_computations) {
  const detail::SolveLog& log = WorkspaceAccess::log(workspace);
  TUFP_REQUIRE(w >= 0 && static_cast<std::size_t>(w) < log.selected_at.size() &&
                   log.selected_at[static_cast<std::size_t>(w)] > 0,
               "critical value of a request the checkpointed solve did not "
               "select");
  const int k = log.selected_at[static_cast<std::size_t>(w)];
  detail::Shadow shadow{w};
  const BoundedUfpResult replayed = replay_from<LoopForm::kPricing>(
      rgraph, requests, config, workspace, k, worker, &shadow);
  if (sp_computations != nullptr) {
    // The counters resume at the checkpoint's.
    *sp_computations =
        replayed.sp_computations -
        log.iterations[static_cast<std::size_t>(k - 1)].sp_computations;
  }
  return shadow.critical;
}

double bounded_ufp_critical_value(const UfpInstance& instance, int r,
                                  const BoundedUfpConfig& config) {
  TUFP_REQUIRE(instance.is_normalized(),
               "Bounded-UFP requires demands in (0,1]; call normalized() first");
  TUFP_REQUIRE(r >= 0 && r < instance.num_requests(),
               "critical value of a request outside the batch");
  const detail::Substrate sub = detail::substrate_of(instance);
  validate_config(sub, config);
  detail::SpCache cache(instance, config.num_threads);
  detail::Shadow shadow{r};
  run_bounded_ufp<LoopForm::kReplay>(sub, config, cache, /*arrays=*/nullptr,
                                     nullptr, &shadow);
  return shadow.critical;
}

}  // namespace tufp
