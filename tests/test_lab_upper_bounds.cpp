// The lab's certified bound hierarchy (DESIGN.md §9): every provider
// dominates the true integral optimum, packing-lp equals the exact
// Figure-1 relaxation where it applies, gating declines instead of
// throwing, and best_upper_bound picks the tightest answer.
#include "tufp/lab/upper_bound.hpp"

#include <gtest/gtest.h>

#include "tufp/graph/generators.hpp"
#include "tufp/lp/branch_and_bound.hpp"
#include "tufp/lp/ufp_lp.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/lower_bounds.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {
namespace {

UfpInstance small_instance(std::uint64_t seed, double capacity = 1.6,
                           int requests = 8) {
  Rng rng(seed);
  Graph g = grid_graph(2, 3, capacity, false);
  RequestGenConfig cfg;
  cfg.num_requests = requests;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  return UfpInstance(std::move(g), std::move(reqs));
}

TEST(LabUpperBounds, EveryProviderDominatesExactOpt) {
  const auto providers = lab::standard_providers();
  for (std::uint64_t seed : {11u, 12u, 13u, 14u}) {
    const UfpInstance inst = small_instance(seed);
    const UfpExactResult exact = solve_ufp_exact(inst);
    ASSERT_TRUE(exact.proven_optimal);
    for (const auto& provider : providers) {
      const lab::UpperBound bound = provider->bound(inst);
      ASSERT_TRUE(bound.available) << provider->name();
      EXPECT_TRUE(approx_le(exact.optimal_value, bound.value, 1e-7, 1e-7))
          << provider->name() << " bound " << bound.value << " below OPT "
          << exact.optimal_value << " (seed " << seed << ")";
    }
  }
}

TEST(LabUpperBounds, PackingLpMatchesExactRelaxation) {
  const UfpInstance inst = small_instance(21);
  const auto provider = lab::make_packing_lp_provider();
  const lab::UpperBound bound = provider->bound(inst);
  ASSERT_TRUE(bound.available);
  EXPECT_EQ(bound.method, "packing-lp");
  EXPECT_NEAR(bound.value, solve_ufp_lp(inst).objective, 1e-9);
}

TEST(LabUpperBounds, PackingLpGatesOnRequestCountInsteadOfThrowing) {
  const UfpInstance inst = small_instance(22, 1.6, 10);
  lab::PackingLpBoundOptions options;
  options.max_requests = 4;
  const auto provider = lab::make_packing_lp_provider(options);
  const lab::UpperBound bound = provider->bound(inst);
  EXPECT_FALSE(bound.available);
}

TEST(LabUpperBounds, GkDualDeclinesWhenItsDualsUnderflow) {
  // An undirected path of 41 vertices at capacity 1e308: Garg-Konemann's
  // delta/c_e underflows to 0, and the certificate rejects zero weights.
  // The provider declines, as packing-lp does, instead of throwing.
  Graph g = Graph::undirected(41);
  for (int v = 0; v < 40; ++v) g.add_edge(v, v + 1, 1e308);
  g.finalize();
  const UfpInstance inst(std::move(g), {{0, 40, 1.0, 1.0}});
  lab::UpperBound bound;
  EXPECT_NO_THROW(bound = lab::make_gk_dual_provider()->bound(inst));
  EXPECT_FALSE(bound.available);
}

TEST(LabUpperBounds, GkDualBracketsTheFractionalOptimumFromAbove) {
  for (std::uint64_t seed : {31u, 32u, 33u}) {
    const UfpInstance inst = small_instance(seed, 2.0, 9);
    const double lp = solve_ufp_lp(inst).objective;
    const lab::UpperBound bound = lab::make_gk_dual_provider()->bound(inst);
    ASSERT_TRUE(bound.available);
    EXPECT_TRUE(approx_le(lp, bound.value, 1e-7, 1e-7))
        << "gk-dual " << bound.value << " below LP " << lp;
  }
}

TEST(LabUpperBounds, Claim36AlwaysAnswersAndDominatesItsOwnRun) {
  // Families where the other providers gate off still get a bound, and it
  // caps the solver value it certifies against — on the paper's own
  // staircase adversary too.
  const StaircaseInstance staircase = make_staircase(3, 3);
  const BoundedUfpConfig config = lab::certifying_solver_config();
  const double bound = lab::claim36_upper_bound(staircase.instance, config);
  const BoundedUfpResult run = bounded_ufp(staircase.instance, config);
  EXPECT_TRUE(approx_le(run.solution.total_value(staircase.instance), bound,
                        1e-9, 1e-9));
  // The certificate never exceeds the total declared value (the alpha ->
  // infinity kink) and never falls below OPT = B*l.
  EXPECT_TRUE(approx_le(staircase.optimal_value(), bound, 1e-9, 1e-9));
  EXPECT_TRUE(
      approx_le(bound, staircase.instance.total_value(), 1e-9, 1e-9));
}

TEST(LabUpperBounds, LongPathsAreNeverSilentlyDropped) {
  // 14-edge directed line, one end-to-end request: the only path is
  // longer than any casual hop cutoff. Every provider must either price
  // the full path set (bound >= the routable value 5) or decline — a
  // hop-restricted enumeration would silently certify a bound of 0 here.
  Graph g = Graph::directed(15);
  for (VertexId v = 0; v + 1 < 15; ++v) g.add_edge(v, v + 1, 2.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 14, 1.0, 5.0}});
  const auto providers = lab::standard_providers();
  for (const auto& provider : providers) {
    const lab::UpperBound bound = provider->bound(inst);
    if (bound.available) {
      EXPECT_TRUE(approx_le(5.0, bound.value, 1e-9, 1e-9))
          << provider->name() << " certified " << bound.value
          << " below the routable value";
    }
  }
  ASSERT_TRUE(lab::best_upper_bound(providers, inst).available);
}

TEST(LabUpperBounds, BestUpperBoundPicksTheTightestAvailable) {
  const UfpInstance inst = small_instance(41);
  const auto providers = lab::standard_providers();
  const lab::UpperBound best = lab::best_upper_bound(providers, inst);
  ASSERT_TRUE(best.available);
  for (const auto& provider : providers) {
    const lab::UpperBound bound = provider->bound(inst);
    if (bound.available) {
      EXPECT_TRUE(approx_le(best.value, bound.value, 1e-12, 1e-12))
          << provider->name();
    }
  }
}

TEST(LabUpperBounds, TighteningWithFinalWeightsNeverLoosensClaim36) {
  const UfpInstance inst = small_instance(51, 1.4, 10);
  const BoundedUfpConfig config = lab::certifying_solver_config();
  const BoundedUfpResult run = bounded_ufp(inst, config);
  EXPECT_TRUE(approx_le(lab::claim36_upper_bound(inst, config),
                        run.dual_upper_bound, 1e-12, 1e-12));
}

}  // namespace
}  // namespace tufp
