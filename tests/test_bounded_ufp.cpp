#include "tufp/ufp/bounded_ufp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "tufp/graph/generators.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"
#include "tufp/workload/scenarios.hpp"

#include "recompute_all_reference.hpp"

namespace tufp {
namespace {

UfpInstance ample_instance(std::uint64_t seed, int requests = 6,
                           double capacity = 50.0) {
  Rng rng(seed);
  Graph g = grid_graph(3, 3, capacity, /*directed=*/false);
  RequestGenConfig cfg;
  cfg.num_requests = requests;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  return UfpInstance(std::move(g), std::move(reqs));
}

TEST(BoundedUfp, RoutesEverythingWhenCapacityAmple) {
  const UfpInstance inst = ample_instance(1);
  const BoundedUfpResult result = bounded_ufp(inst);
  EXPECT_EQ(result.solution.num_selected(), inst.num_requests());
  EXPECT_FALSE(result.stopped_by_threshold);
  EXPECT_TRUE(result.solution.check_feasibility(inst).feasible);
  // All-routed solutions are optimal, and the certificate collapses onto
  // the achieved value.
  EXPECT_DOUBLE_EQ(result.dual_upper_bound, result.solution.total_value(inst));
}

TEST(BoundedUfp, AllRoutedBoundEqualsValueBitwise) {
  // Equal demands on one edge: the highest bid wins first, so requests
  // are selected in the order 2, 1, 0. The values are chosen so the two
  // summation orders differ in the last bit: (0.3 + 0.2) + 0.1 == 0.6,
  // but (0.1 + 0.2) + 0.3 == 0.6000000000000001. The tight bound of an
  // all-routed run must be the value as reported (request order), or an
  // exact Claim 3.6 check reads value > bound.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  const UfpInstance inst(
      std::move(g), {{0, 1, 1.0, 0.1}, {0, 1, 1.0, 0.2}, {0, 1, 1.0, 0.3}});
  // The default config fills the trace: one record per selection, in
  // selection order.
  const BoundedUfpResult result = bounded_ufp(inst);
  ASSERT_EQ(result.solution.num_selected(), 3);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace[0].request, 2);
  EXPECT_EQ(result.trace[1].request, 1);
  EXPECT_EQ(result.trace[2].request, 0);
  ASSERT_NE((0.3 + 0.2) + 0.1, (0.1 + 0.2) + 0.3);
  EXPECT_EQ(result.dual_upper_bound, result.solution.total_value(inst));
}

TEST(BoundedUfp, EmptyRequestSet) {
  Graph g = grid_graph(2, 2, 5.0, false);
  UfpInstance inst(std::move(g), {});
  const BoundedUfpResult result = bounded_ufp(inst);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_EQ(result.solution.num_selected(), 0);
}

TEST(BoundedUfp, UnreachableRequestsAreSkipped) {
  Graph g = Graph::directed(3);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 1.0, 1.0}, {1, 0, 1.0, 5.0}});
  const BoundedUfpResult result = bounded_ufp(inst);
  EXPECT_TRUE(result.solution.is_selected(0));
  EXPECT_FALSE(result.solution.is_selected(1));
}

TEST(BoundedUfp, ValidatesParameters) {
  const UfpInstance inst = ample_instance(2);
  BoundedUfpConfig cfg;
  cfg.epsilon = 0.0;
  EXPECT_THROW(bounded_ufp(inst, cfg), std::invalid_argument);
  cfg.epsilon = 1.5;
  EXPECT_THROW(bounded_ufp(inst, cfg), std::invalid_argument);
}

TEST(BoundedUfp, RejectsUnnormalizedDemands) {
  Graph g = grid_graph(2, 2, 50.0, false);
  UfpInstance inst(std::move(g), {{0, 3, 2.0, 1.0}});
  EXPECT_THROW(bounded_ufp(inst), std::invalid_argument);
  EXPECT_EQ(bounded_ufp(inst.normalized()).solution.num_selected(), 1);
}

TEST(BoundedUfp, RejectsSubUnitB) {
  Graph g = grid_graph(2, 2, 0.5, false);
  UfpInstance inst(std::move(g), {{0, 3, 0.4, 1.0}});
  EXPECT_THROW(bounded_ufp(inst), std::invalid_argument);
}

TEST(BoundedUfp, RejectsOverflowingExponent) {
  Graph g = grid_graph(2, 2, 1e6, false);
  UfpInstance inst(std::move(g), {{0, 3, 1.0, 1.0}});
  BoundedUfpConfig cfg;
  cfg.epsilon = 1.0;  // eps*B = 1e6 >> safe exponent
  EXPECT_THROW(bounded_ufp(inst, cfg), std::invalid_argument);
}

TEST(BoundedUfp, ThresholdOneStopsImmediately) {
  // B = 1 makes the threshold e^0 = 1 < m, so the paper-faithful loop exits
  // before the first selection.
  Graph g = grid_graph(2, 2, 1.0, false);
  UfpInstance inst(std::move(g), {{0, 3, 1.0, 1.0}});
  const BoundedUfpResult result = bounded_ufp(inst);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_TRUE(result.stopped_by_threshold);
}

TEST(BoundedUfp, GuardKeepsTightInstanceFeasible) {
  // Out-of-regime tight instance: guard must keep the output feasible.
  for (std::uint64_t seed = 40; seed < 52; ++seed) {
    Rng rng(seed);
    Graph g = grid_graph(3, 3, 1.3, false);
    RequestGenConfig cfg;
    cfg.num_requests = 20;
    std::vector<Request> reqs = generate_requests(g, cfg, rng);
    UfpInstance inst(std::move(g), std::move(reqs));
    BoundedUfpConfig solver_cfg;
    solver_cfg.run_to_saturation = true;  // out-of-regime: exercise the guard
    const BoundedUfpResult result = bounded_ufp(inst, solver_cfg);
    EXPECT_GT(result.iterations, 0) << "seed " << seed;
    EXPECT_TRUE(result.solution.check_feasibility(inst).feasible)
        << "seed " << seed << ": "
        << result.solution.check_feasibility(inst).message;
  }
}

TEST(BoundedUfp, GuardSkipsUnfittableAndContinues) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 0.9, 5.0}, {0, 1, 0.9, 1.0}});
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  const BoundedUfpResult result = bounded_ufp(inst, cfg);
  EXPECT_TRUE(result.solution.is_selected(0));  // higher value wins first
  EXPECT_FALSE(result.solution.is_selected(1));
  EXPECT_TRUE(result.solution.check_feasibility(inst).feasible);
}

TEST(BoundedUfp, FaithfulModeFeasibleInRegime) {
  // Lemma 3.3: without any capacity checks the threshold alone guarantees
  // feasibility once B >= ln(m)/eps^2.
  for (std::uint64_t seed = 60; seed < 72; ++seed) {
    Rng rng(seed);
    const double eps = 0.5;
    Graph g = grid_graph(3, 3, 1.0, false);
    const double B = regime_capacity(g.num_edges(), eps, 1.05);
    Graph scaled = grid_graph(3, 3, B, false);
    RequestGenConfig cfg;
    cfg.num_requests = 80;
    std::vector<Request> reqs = generate_requests(scaled, cfg, rng);
    UfpInstance inst(std::move(scaled), std::move(reqs));
    ASSERT_TRUE(inst.in_large_capacity_regime(eps));
    BoundedUfpConfig config;
    config.epsilon = eps;
    config.capacity_guard = false;
    const BoundedUfpResult result = bounded_ufp(inst, config);
    EXPECT_TRUE(result.solution.check_feasibility(inst).feasible)
        << "seed " << seed;
  }
}

TEST(BoundedUfp, GuardNeverFiresInRegime) {
  // In the valid regime the guard is provably idle, so guarded and faithful
  // runs coincide exactly.
  for (std::uint64_t seed = 80; seed < 88; ++seed) {
    Rng rng(seed);
    const double eps = 0.5;
    Graph g = grid_graph(3, 3, 1.0, false);
    const double B = regime_capacity(g.num_edges(), eps, 1.05);
    Graph scaled = grid_graph(3, 3, B, false);
    RequestGenConfig cfg;
    cfg.num_requests = 60;
    std::vector<Request> reqs = generate_requests(scaled, cfg, rng);
    UfpInstance inst(std::move(scaled), std::move(reqs));
    BoundedUfpConfig guarded;
    guarded.epsilon = eps;
    BoundedUfpConfig faithful = guarded;
    faithful.capacity_guard = false;
    const auto a = bounded_ufp(inst, guarded);
    const auto b = bounded_ufp(inst, faithful);
    ASSERT_EQ(a.trace.size(), b.trace.size());
    for (std::size_t i = 0; i < a.trace.size(); ++i) {
      EXPECT_EQ(a.trace[i].request, b.trace[i].request);
    }
  }
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// The solve through both lowerings against the recompute-all reference,
// bit for bit: the UfpInstance one, and the engine's over a fresh
// residual graph of the same graph, which alone keeps rejection records.
// Returns the engine run.
BoundedUfpResult expect_matches_reference(const UfpInstance& inst,
                                          const BoundedUfpConfig& config) {
  const RecomputeAllRun reference = recompute_all_bounded_ufp(inst, config);
  ResidualGraph rgraph(std::make_shared<const Graph>(inst.graph()));
  rgraph.open_epoch();
  UfpWorkspace workspace;
  const BoundedUfpResult cold = bounded_ufp(inst, config);
  BoundedUfpResult engine =
      bounded_ufp(rgraph, inst.requests(), config, workspace);
  const BoundedUfpResult* const runs[] = {&cold, &engine};
  for (const BoundedUfpResult* run : runs) {
    SCOPED_TRACE(run == &cold ? "instance solve" : "residual-graph solve");
    EXPECT_EQ(run->trace.size(), reference.trace.size());
    for (std::size_t i = 0;
         i < std::min(run->trace.size(), reference.trace.size()); ++i) {
      EXPECT_EQ(run->trace[i].request, reference.trace[i].request);
      EXPECT_EQ(bits(run->trace[i].alpha), bits(reference.trace[i].alpha));
      EXPECT_EQ(bits(run->trace[i].dual_sum),
                bits(reference.trace[i].dual_sum));
    }
    EXPECT_EQ(bits(run->final_dual_sum), bits(reference.final_dual_sum));
    EXPECT_EQ(bits(run->dual_upper_bound), bits(reference.dual_upper_bound));
    EXPECT_EQ(run->stopped_by_threshold, reference.stopped_by_threshold);
  }
  EXPECT_TRUE(cold.rejections.empty());
  EXPECT_EQ(engine.rejections.size(), reference.rejections.size());
  for (std::size_t i = 0;
       i < std::min(engine.rejections.size(), reference.rejections.size());
       ++i) {
    const RejectionRecord& a = engine.rejections[i];
    const RejectionRecord& b = reference.rejections[i];
    SCOPED_TRACE(::testing::Message() << "record of request " << b.request);
    EXPECT_EQ(a.request, b.request);
    EXPECT_EQ(a.reason, b.reason);
    EXPECT_EQ(bits(a.density), bits(b.density));
    EXPECT_EQ(a.bottleneck, b.bottleneck);
    EXPECT_EQ(a.path, b.path);
  }
  return engine;
}

TEST(BoundedUfp, LazyShortestPathsMatchARecomputeAllReference) {
  // The reference asks a fresh query per remaining request every round;
  // canonical searches make the lazy solve's run equal to it to the bit,
  // ties, Claim 3.6 bound and rejection records included. The uniform
  // grid is tie-heavy; the random digraph has jittered capacities and
  // unreachable pairs. The faithful legs lift capacities so that
  // e^{eps(B-1)} clears the initial dual sum and the threshold ends most
  // runs with requests left.
  //
  // Dropping the solve's threshold-exit refresh (the stale entries
  // refreshed under the pre-update y when a selection lifts the dual sum
  // past the threshold) fails the records' density and path checks on
  // the faithful legs.
  struct Leg {
    const char* name;
    bool faithful;
    bool guard;
  };
  const Leg legs[] = {{"saturation", false, true},
                      {"faithful", true, true},
                      {"faithful, no guard", true, false}};
  for (const Leg& leg : legs) {
    BoundedUfpConfig config;
    config.capacity_guard = leg.guard;
    config.run_to_saturation = !leg.faithful;
    if (leg.faithful) config.epsilon = 1.0;
    int stopped = 0;
    int records = 0;
    for (std::uint64_t seed = 90; seed < 102; ++seed) {
      SCOPED_TRACE(::testing::Message() << leg.name << " seed " << seed);
      Rng rng(seed);
      const double low = leg.faithful ? 5.0 : 3.0;
      Graph g = seed % 2 == 0
                    ? random_graph(10, 26, low, low + 2.0, /*directed=*/true,
                                   rng)
                    : grid_graph(3, 4, low, /*directed=*/false);
      RequestGenConfig cfg;
      cfg.num_requests = leg.faithful ? 40 : 25;
      std::vector<Request> reqs = generate_requests(g, cfg, rng);
      const UfpInstance inst(std::move(g), std::move(reqs));
      const BoundedUfpResult run = expect_matches_reference(inst, config);
      EXPECT_GT(run.iterations, 0);
      if (run.stopped_by_threshold) ++stopped;
      records += static_cast<int>(run.rejections.size());
    }
    EXPECT_GT(records, 0) << leg.name;
    if (leg.faithful) EXPECT_GT(stopped, 0) << leg.name;
  }
}

TEST(BoundedUfp, ClaimBoundAlphaIsExactWhenItsArgminIsStaleAndDoesNotFit) {
  // alpha, the smallest priority over every reachable remaining request
  // with fit ignored, is read off the lazy scan. This world makes the
  // iteration that sets the bound one where alpha's argmin at its cached
  // length is a stale request that no longer fits. Two edges of capacity
  // 1.5 (B = 1.5, eps = 1, so y starts at 2/3 and an update at demand 1
  // multiplies it by e):
  //   X  0->1, v = 100: priority 1/150, selected first;
  //   S  0->1, v = 10:  1/15 cached, stale after X (2/3·e/10 ~ 0.181 now),
  //                     and shut out of edge 0->1 by X's demand;
  //   T  2->3, v = 5:   2/15, fits, selected second.
  // Round 2 must use alpha = 2/15 (T), not S's stale 1/15: its term
  // (e+1)·15/2 + 100 ~ 127.9 is the bound, below round 1's 300 and round
  // 3's ~135.0. Keeping alpha from the scan's pass before it recomputed S
  // (a stale lower bound) gives ~155.8 in round 2 and a bound of ~135.0,
  // which still dominates the value and so passes every property check;
  // only the bitwise comparison with the reference catches it.
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 1.5);
  g.add_edge(2, 3, 1.5);
  g.finalize();
  const UfpInstance inst(std::move(g), {{0, 1, 1.0, 100.0},
                                        {0, 1, 1.0, 10.0},
                                        {2, 3, 1.0, 5.0}});
  BoundedUfpConfig config;
  config.epsilon = 1.0;
  config.run_to_saturation = true;  // e^{eps(B-1)} < m: out of regime
  const BoundedUfpResult run = expect_matches_reference(inst, config);
  ASSERT_EQ(run.trace.size(), 2u);
  EXPECT_EQ(run.trace[0].request, 0);
  EXPECT_EQ(run.trace[1].request, 2);
  const double y0 = 1.0 / 1.5;
  EXPECT_NEAR(run.dual_upper_bound,
              (std::exp(1.0) + 1.0) / (y0 / 5.0) + 100.0, 1e-9);
  ASSERT_EQ(run.rejections.size(), 1u);
  EXPECT_EQ(run.rejections[0].reason, RejectReason::kCapacityRace);
}

TEST(BoundedUfp, ExitRecordOfARequestThatCanNeverWinIsTheEagerOne) {
  // A value so small that d/v overflows: the request's priority is +inf
  // at any length, so no scan ever takes it as a candidate, and the lazy
  // scan never recomputes it. X takes edge 0->1 first and makes it longer
  // than the detour 0->2->1; the exit state must still hold the
  // request's eager path, the detour (which fits: lost_auction), not
  // its stale one over 0->1 (which would read capacity_race).
  Graph g = Graph::directed(3);
  g.add_edge(0, 1, 1.5);
  g.add_edge(0, 2, 1.5);
  g.add_edge(2, 1, 1.5);
  g.finalize();
  const UfpInstance inst(std::move(g),
                         {{0, 1, 1.0, 100.0}, {0, 1, 1.0, 1e-310}});
  BoundedUfpConfig config;
  config.epsilon = 1.0;
  config.run_to_saturation = true;
  const BoundedUfpResult run = expect_matches_reference(inst, config);
  ASSERT_EQ(run.rejections.size(), 1u);
  EXPECT_EQ(run.rejections[0].reason, RejectReason::kLostAuction);
  EXPECT_EQ(run.rejections[0].path, (Path{1, 2}));
  EXPECT_EQ(run.rejections[0].density, kInf);
}

TEST(BoundedUfp, ParallelAndSerialAgree) {
  const UfpInstance inst = ample_instance(7, 30, 4.0);
  BoundedUfpConfig serial;
  serial.run_to_saturation = true;  // B=4 sits below the faithful threshold
  serial.num_threads = 1;
  BoundedUfpConfig parallel = serial;
  parallel.num_threads = 4;  // a team on any machine
  const auto a = bounded_ufp(inst, serial);
  const auto b = bounded_ufp(inst, parallel);
  ASSERT_GT(a.iterations, 0);
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    EXPECT_EQ(a.trace[i].request, b.trace[i].request);
    EXPECT_DOUBLE_EQ(a.trace[i].alpha, b.trace[i].alpha);
  }
}

TEST(BoundedUfp, TraceInvariants) {
  const UfpInstance inst = ample_instance(11, 12, 40.0);
  const BoundedUfpResult result = bounded_ufp(inst);
  ASSERT_EQ(static_cast<int>(result.trace.size()), result.iterations);
  double last_alpha = 0.0;
  double last_primal = 0.0;
  double last_dual = 0.0;
  for (const IterationRecord& rec : result.trace) {
    // alpha(i) is non-decreasing when the guard never filters (weights only
    // grow; Claim 3.5's increasing-sequence requirement).
    EXPECT_GE(rec.alpha, last_alpha - 1e-12);
    last_alpha = rec.alpha;
    // P(i) strictly increases by the selected value; D1(i) never shrinks.
    EXPECT_GT(rec.primal_value, last_primal);
    last_primal = rec.primal_value;
    EXPECT_GE(rec.dual_sum, last_dual);
    last_dual = rec.dual_sum;
  }
}

TEST(BoundedUfp, FinalDualSumMatchesWeights) {
  const UfpInstance inst = ample_instance(13, 10, 8.0);
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  const BoundedUfpResult result = bounded_ufp(inst, cfg);
  ASSERT_GT(result.iterations, 0);
  double recomputed = 0.0;
  for (EdgeId e = 0; e < inst.graph().num_edges(); ++e) {
    recomputed += inst.graph().capacity(e) * result.y[static_cast<std::size_t>(e)];
  }
  EXPECT_NEAR(result.final_dual_sum, recomputed, 1e-6 * recomputed);
}

TEST(BoundedUfp, DualUpperBoundDominatesValue) {
  for (std::uint64_t seed = 120; seed < 132; ++seed) {
    const UfpInstance inst = ample_instance(seed, 15, 2.0);
    BoundedUfpConfig cfg;
    cfg.run_to_saturation = true;
    const BoundedUfpResult result = bounded_ufp(inst, cfg);
    ASSERT_GT(result.iterations, 0) << "seed " << seed;
    // Exact: Claim 3.6 holds to the bit (the bound and the value sum in
    // the same request order).
    EXPECT_LE(result.solution.total_value(inst), result.dual_upper_bound)
        << "seed " << seed;
  }
}

TEST(BoundedUfp, ExactnessHoldsByConstruction) {
  const UfpInstance inst = ample_instance(17);
  const BoundedUfpResult result = bounded_ufp(inst);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (result.solution.is_selected(r)) {
      const Path* p = result.solution.path_of(r);
      ASSERT_NE(p, nullptr);
      EXPECT_TRUE(is_simple_path(inst.graph(), *p, inst.request(r).source,
                                 inst.request(r).target));
    } else {
      EXPECT_EQ(result.solution.path_of(r), nullptr);
    }
  }
}


TEST(BoundedUfp, SaturationRequiresGuard) {
  const UfpInstance inst = ample_instance(3);
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  cfg.capacity_guard = false;
  EXPECT_THROW(bounded_ufp(inst, cfg), std::invalid_argument);
}

TEST(BoundedUfp, SaturationNeverStopsByThreshold) {
  Rng rng(141);
  Graph g = grid_graph(3, 3, 1.5, false);
  RequestGenConfig gen;
  gen.num_requests = 25;
  std::vector<Request> reqs = generate_requests(g, gen, rng);
  UfpInstance inst(std::move(g), std::move(reqs));
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  const BoundedUfpResult result = bounded_ufp(inst, cfg);
  EXPECT_FALSE(result.stopped_by_threshold);
  // Saturated: no remaining request fits any of its shortest paths, which
  // implies substantial utilization on at least one edge.
  const auto loads = result.solution.edge_loads(inst);
  double max_load = 0.0;
  for (double l : loads) max_load = std::max(max_load, l);
  EXPECT_GT(max_load, 0.0);
}

TEST(BoundedUfp, SpComputationCounterPopulated) {
  const UfpInstance inst = ample_instance(5, 12, 50.0);
  const BoundedUfpResult result = bounded_ufp(inst);
  // At least one Dijkstra per request on the first refresh.
  EXPECT_GE(result.sp_computations,
            static_cast<std::int64_t>(inst.num_requests()));
}

}  // namespace
}  // namespace tufp
