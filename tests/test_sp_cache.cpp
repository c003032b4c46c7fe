// Direct tests of the lazy shortest-path cache behind Bounded-UFP and
// Bounded-UFP-Repeat (detail/sp_cache.hpp): stale detection, permanent
// unreachability caching, and deterministic parallel refresh.
#include "tufp/ufp/detail/sp_cache.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <string>

#include "tufp/ufp/bounded_ufp.hpp"

#include "tufp/graph/generators.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {
namespace {

UfpInstance diamond_instance() {
  // Two 0->3 routes (edges {0,1} and {2,3}).
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 5.0);  // e0
  g.add_edge(1, 3, 5.0);  // e1
  g.add_edge(0, 2, 5.0);  // e2
  g.add_edge(2, 3, 5.0);  // e3
  g.finalize();
  return UfpInstance(std::move(g),
                     {{0, 3, 1.0, 1.0}, {0, 3, 1.0, 2.0}, {1, 0, 1.0, 1.0}});
}

TEST(SpCache, ComputesShortestPathsOnFirstRefresh) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, /*num_threads=*/1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{0, 1, 2};
  cache.refresh(y, stamps, 1, active, /*lazy=*/true);
  EXPECT_DOUBLE_EQ(cache.entry(0).length, 2.0);
  EXPECT_EQ(cache.entry(0).path, (Path{0, 1}));
  EXPECT_FALSE(cache.entry(2).reachable);  // 1 -> 0 has no arc
  EXPECT_EQ(cache.recomputed_last_refresh(), 3u);
}

TEST(SpCache, UntouchedPathsAreNotRecomputed) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, true);
  ASSERT_EQ(cache.recomputed_last_refresh(), 2u);

  // Update an edge OFF the cached paths: nothing becomes stale.
  y[2] = 3.0;
  stamps[2] = 2;
  cache.refresh(y, stamps, 2, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);

  // Update an edge ON the cached path: both requests go stale and the
  // recomputed paths switch to the alternative route (y = 3.0 + 2.0).
  y[0] = 10.0;
  stamps[0] = 3;
  cache.refresh(y, stamps, 3, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
  EXPECT_EQ(cache.entry(0).path, (Path{2, 3}));
  EXPECT_DOUBLE_EQ(cache.entry(0).length, 5.0);
}

TEST(SpCache, UnreachableIsCachedForever) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 1.0, 1.0};
  std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{2};
  cache.refresh(y, stamps, 1, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 1u);
  // Even with every edge stamped dirty, the unreachable entry stays put.
  for (auto& s : stamps) s = 2;
  cache.refresh(y, stamps, 2, active, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);
  EXPECT_FALSE(cache.entry(2).reachable);
}

TEST(SpCache, EagerModeAlwaysRecomputes) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, /*lazy=*/false);
  cache.refresh(y, stamps, 2, active, /*lazy=*/false);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
}

TEST(SpCache, ParallelAndSerialProduceIdenticalEntries) {
  Rng rng(321);
  Graph g = grid_graph(4, 4, 3.0, false);
  RequestGenConfig cfg;
  cfg.num_requests = 40;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  const UfpInstance inst(std::move(g), std::move(reqs));

  std::vector<double> y(static_cast<std::size_t>(inst.graph().num_edges()));
  for (auto& w : y) w = rng.next_double(0.1, 2.0);
  const std::vector<std::int64_t> stamps(y.size(), 0);
  std::vector<int> active(static_cast<std::size_t>(inst.num_requests()));
  for (int r = 0; r < inst.num_requests(); ++r) active[static_cast<std::size_t>(r)] = r;

  detail::SpCache serial(inst, 1);
  detail::SpCache parallel(inst, 4);  // a team on any machine
  serial.refresh(y, stamps, 1, active, true);
  parallel.refresh(y, stamps, 1, active, true);
  for (int r = 0; r < inst.num_requests(); ++r) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(serial.entry(r).length),
              std::bit_cast<std::uint64_t>(parallel.entry(r).length));
    EXPECT_EQ(serial.entry(r).path, parallel.entry(r).path);
  }
}

TEST(SpCache, WorkerExceptionReachesTheCaller) {
  // Request 2 -> 2 breaks shortest_tree's target != source precondition
  // inside its source shard. With a team of 4 the shard runs on a worker
  // thread; the exception must still reach the caller of refresh(), with
  // the message one thread reports, not end the process.
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 5.0);
  g.add_edge(1, 3, 5.0);
  g.add_edge(2, 3, 5.0);
  g.finalize();
  const std::vector<Request> requests{
      {0, 3, 1.0, 1.0}, {1, 3, 1.0, 1.0}, {2, 2, 1.0, 1.0}};
  const std::vector<double> y(3, 1.0);
  const std::vector<std::int64_t> stamps(3, 0);
  const std::vector<int> active{0, 1, 2};
  std::string messages[2];
  for (const int threads : {1, 4}) {
    detail::SpCache cache(g, requests, threads);
    try {
      cache.refresh(y, stamps, 1, active, true);
      ADD_FAILURE() << "refresh did not throw at " << threads << " threads";
    } catch (const std::invalid_argument& e) {
      messages[threads == 1 ? 0 : 1] = e.what();
    }
  }
  EXPECT_FALSE(messages[0].empty());
  EXPECT_EQ(messages[0], messages[1]);
}

TEST(SpCache, FitStatusTracksCapacityGuardCrossings) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  std::vector<std::int64_t> stamps(4, 0);
  std::vector<double> residual{5.0, 5.0, 5.0, 5.0};
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, true, residual);
  EXPECT_TRUE(cache.entry(0).fits);
  EXPECT_TRUE(cache.entry(1).fits);

  // An admission drives edge 0 below the demand (1.0) and stamps it —
  // the invariant the solvers uphold: residual changes only on stamped
  // edges. Both cached paths cross edge 0, so both entries go stale and
  // their guard status flips on the recomputation.
  residual[0] = 0.5;
  stamps[0] = 1;
  cache.refresh(y, stamps, 2, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
  EXPECT_EQ(cache.entry(0).path, (Path{0, 1}));  // still shortest under y
  EXPECT_FALSE(cache.entry(0).fits);
  EXPECT_FALSE(cache.entry(1).fits);

  // No further stamps: the guard verdict stays cached, nothing recomputes.
  cache.refresh(y, stamps, 3, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);
  EXPECT_FALSE(cache.entry(0).fits);
}

TEST(SpCache, FitStatusIsPerRequestDemand) {
  // Same path, different demands: the crossing threshold is the demand.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 5.0);
  g.finalize();
  const UfpInstance inst(std::move(g), {{0, 1, 1.0, 1.0}, {0, 1, 0.25, 1.0}});
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0};
  std::vector<std::int64_t> stamps{0};
  std::vector<double> residual{0.5};
  const std::vector<int> active{0, 1};
  cache.refresh(y, stamps, 1, active, true, residual);
  EXPECT_FALSE(cache.entry(0).fits);  // demand 1.0 > residual 0.5
  EXPECT_TRUE(cache.entry(1).fits);   // demand 0.25 fits
}

TEST(SpCache, ReclaimedCapacityNeedsAStampToUnstickNegativeFits) {
  // The admit → expire → re-admit bug class (DESIGN.md §10): a cached
  // "does not fit" verdict is valid until the entry goes stale, and the
  // entry only goes stale through edge stamps. Returning capacity to an
  // edge WITHOUT stamping it therefore leaves the negative verdict in
  // place — the request is starved although its path now fits. The
  // reclaim path must stamp every edge whose residual it increases, which
  // is exactly what flips the verdict back.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  std::vector<std::int64_t> stamps(4, 0);
  std::vector<double> residual{5.0, 5.0, 5.0, 5.0};
  const std::vector<int> active{0};

  // Admission saturates edge 0 (stamped, per the solver invariant).
  residual[0] = 0.0;
  stamps[0] = 1;
  cache.refresh(y, stamps, 2, active, true, residual);
  ASSERT_FALSE(cache.entry(0).fits);

  // A lease expiry restores the capacity. Without a stamp the cache has
  // no way to know: the stale negative verdict persists — this assertion
  // documents the hazard the invariant exists to prevent.
  residual[0] = 5.0;
  cache.refresh(y, stamps, 3, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 0u);
  EXPECT_FALSE(cache.entry(0).fits);  // stale: the path actually fits now

  // The reclaim bumps the invalidation stamp of the touched edge; the
  // entry recomputes and the request is admittable again.
  stamps[0] = 3;
  cache.refresh(y, stamps, 4, active, true, residual);
  EXPECT_EQ(cache.recomputed_last_refresh(), 1u);
  EXPECT_TRUE(cache.entry(0).fits);
}

TEST(SpCache, WithoutResidualEveryEntryFits) {
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1}, true);
  EXPECT_TRUE(cache.entry(0).fits);
  EXPECT_TRUE(cache.entry(1).fits);
}

TEST(SpCache, SharedSourcesRefreshFromOneTree) {
  // Requests 0 and 1 share source 0: one Dijkstra tree serves both, so
  // two recomputed entries cost one tree run.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst, 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1, 2}, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 3u);
  EXPECT_EQ(cache.tree_runs_last_refresh(), 2);  // sources {0, 1}
}

TEST(SpCache, RebindReusesShardPlanAcrossEpochs) {
  // The cross-epoch regression this PR fixes: rebind() used to re-shard
  // the batch by source on every call, paying O(batch) plan construction
  // per epoch even when a resident driver replays the same source
  // sequence. The plan must be reused whenever the new batch's sources
  // match the previous batch position-for-position, and rebuilt whenever
  // they do not.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst.graph(), inst.requests(), /*num_threads=*/1);
  EXPECT_EQ(cache.plan_builds(), 1);
  EXPECT_EQ(cache.plan_reuses(), 0);

  // Same source sequence in a different span: plan reused, no rebuild.
  const std::vector<Request> same_sources{
      {0, 3, 0.5, 9.0}, {0, 3, 0.5, 9.0}, {1, 0, 0.5, 9.0}};
  cache.rebind(same_sources);
  EXPECT_EQ(cache.plan_builds(), 1);
  EXPECT_EQ(cache.plan_reuses(), 1);
  cache.rebind(same_sources);
  EXPECT_EQ(cache.plan_builds(), 1);
  EXPECT_EQ(cache.plan_reuses(), 2);

  // A different source sequence (same length) must rebuild.
  const std::vector<Request> new_sources{
      {2, 3, 0.5, 9.0}, {0, 3, 0.5, 9.0}, {1, 0, 0.5, 9.0}};
  cache.rebind(new_sources);
  EXPECT_EQ(cache.plan_builds(), 2);
  EXPECT_EQ(cache.plan_reuses(), 2);

  // So must a different batch size.
  const std::vector<Request> shorter{{2, 3, 0.5, 9.0}};
  cache.rebind(shorter);
  EXPECT_EQ(cache.plan_builds(), 3);
}

TEST(SpCache, RebindResetsEntriesEvenWhenThePlanIsReused) {
  // Computation stamps and fit verdicts are epoch-local (the blocked
  // mask they were judged under changes between epochs); a reused plan
  // must never carry a reused entry with it.
  const UfpInstance inst = diamond_instance();
  detail::SpCache cache(inst.graph(), inst.requests(), 1);
  const std::vector<double> y{1.0, 1.0, 2.0, 2.0};
  const std::vector<std::int64_t> stamps(4, 0);
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1}, true);
  ASSERT_GE(cache.entry(0).computed_at, 0);

  cache.rebind(inst.requests());
  EXPECT_EQ(cache.plan_reuses(), 1);
  EXPECT_EQ(cache.entry(0).computed_at, -1);  // stale by construction
  cache.refresh(y, stamps, 1, std::vector<int>{0, 1}, true);
  EXPECT_EQ(cache.recomputed_last_refresh(), 2u);
}

TEST(SpCache, SolverCountersShowLazySavings) {
  // Jittered capacities keep shortest paths unique (lazy and eager runs
  // are provably identical only up to shortest-path ties).
  Rng rng(654);
  Graph g = random_graph(12, 30, 5.0, 8.0, /*directed=*/true, rng);
  RequestGenConfig cfg;
  cfg.num_requests = 60;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  const UfpInstance inst(std::move(g), std::move(reqs));

  BoundedUfpConfig lazy;
  lazy.epsilon = 0.6;
  lazy.run_to_saturation = true;
  BoundedUfpConfig eager = lazy;
  eager.lazy_shortest_paths = false;
  const auto a = bounded_ufp(inst, lazy);
  const auto b = bounded_ufp(inst, eager);
  ASSERT_GT(a.iterations, 0);
  // Identical outcomes, strictly fewer Dijkstra runs.
  EXPECT_EQ(a.solution.selected_requests(), b.solution.selected_requests());
  EXPECT_GT(b.sp_computations, a.sp_computations);
  // Eager does |remaining| recomputes per iteration.
  EXPECT_GE(b.sp_computations, static_cast<std::int64_t>(b.iterations));
}

}  // namespace
}  // namespace tufp
