#include <gtest/gtest.h>

#include "tufp/baselines/bkv.hpp"
#include "tufp/baselines/greedy.hpp"
#include "tufp/baselines/randomized_rounding.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/lp/ufp_lp.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

UfpInstance make_instance(std::uint64_t seed, double capacity, int requests) {
  Rng rng(seed);
  Graph g = grid_graph(3, 3, capacity, false);
  RequestGenConfig cfg;
  cfg.num_requests = requests;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  return UfpInstance(std::move(g), std::move(reqs));
}

TEST(Greedy, ByValuePicksHighValueFirst) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 0.8, 1.0}, {0, 1, 0.8, 9.0}});
  const UfpSolution sol = greedy_ufp(inst, GreedyRanking::kByValue);
  EXPECT_FALSE(sol.is_selected(0));
  EXPECT_TRUE(sol.is_selected(1));
}

TEST(Greedy, AlwaysFeasible) {
  for (std::uint64_t seed = 1; seed < 9; ++seed) {
    const UfpInstance inst = make_instance(seed, 1.2, 18);
    for (GreedyRanking ranking :
         {GreedyRanking::kByValue, GreedyRanking::kByDensity}) {
      const UfpSolution sol = greedy_ufp(inst, ranking);
      EXPECT_TRUE(sol.check_feasibility(inst).feasible) << "seed " << seed;
    }
  }
}

TEST(Greedy, DensityBeatsValueOnAdversarialMix) {
  // One huge-value long-demand request vs many small efficient ones.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  std::vector<Request> reqs;
  reqs.push_back({0, 1, 1.0, 1.2});  // hog: value 1.2 for the whole edge
  for (int i = 0; i < 9; ++i) reqs.push_back({0, 1, 0.1, 0.5});
  UfpInstance inst(std::move(g), std::move(reqs));
  const double by_value =
      greedy_ufp(inst, GreedyRanking::kByValue).total_value(inst);
  const double by_density =
      greedy_ufp(inst, GreedyRanking::kByDensity).total_value(inst);
  EXPECT_DOUBLE_EQ(by_value, 1.2);
  EXPECT_DOUBLE_EQ(by_density, 4.5);
}

TEST(Greedy, MucaVariantsFeasible) {
  const MucaInstance inst = make_random_auction(8, 2, 16, 2, 4, 1, 9, 5);
  for (GreedyRanking ranking :
       {GreedyRanking::kByValue, GreedyRanking::kByDensity}) {
    const MucaSolution sol = greedy_muca(inst, ranking);
    EXPECT_TRUE(sol.check_feasibility(inst).feasible);
    EXPECT_GT(sol.num_selected(), 0);
  }
}

TEST(Bkv, SharedSkeletonMatchesBoundedUfpSelections) {
  const UfpInstance inst = make_instance(11, 2.0, 15);
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  const BkvResult bkv = bkv_ufp(inst, cfg);
  const BoundedUfpResult ufp = bounded_ufp(inst, cfg);
  EXPECT_GT(bkv.iterations, 0);
  EXPECT_EQ(bkv.solution.selected_requests(), ufp.solution.selected_requests());
  EXPECT_EQ(bkv.iterations, ufp.iterations);
  EXPECT_EQ(bkv.tight_upper_bound, ufp.dual_upper_bound);
}

TEST(Bkv, CoarseBoundDominatesTightBound) {
  // The paper's improvement is exactly this gap: the z-credited certificate
  // is never worse than the BKV-style one.
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const UfpInstance inst = make_instance(seed, 2.5, 20);
    BoundedUfpConfig cfg;
    cfg.run_to_saturation = true;
    const BkvResult bkv = bkv_ufp(inst, cfg);
    EXPECT_GT(bkv.iterations, 0);
    const double value = bkv.solution.total_value(inst);
    EXPECT_GE(bkv.coarse_upper_bound, bkv.tight_upper_bound - 1e-9)
        << "seed " << seed;
    EXPECT_GE(bkv.tight_upper_bound, value) << "seed " << seed;
  }
}

TEST(Bkv, AllRoutedTightBoundEqualsValueBitwise) {
  // Values 0.1, 0.2, 0.3 on one edge are selected in order 2, 1, 0, and
  // 0.3 + 0.2 + 0.1 is one ulp below 0.1 + 0.2 + 0.3. The all-routed cap
  // must be the value as reported — summed in request order — or the
  // bound reads below the value it certifies.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 2.0);
  g.finalize();
  const UfpInstance inst(std::move(g), {{0, 1, 0.5, 0.1},
                                        {0, 1, 0.5, 0.2},
                                        {0, 1, 0.5, 0.3}});
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  const BoundedUfpResult ufp = bounded_ufp(inst, cfg);
  ASSERT_EQ(ufp.trace.size(), 3u);
  EXPECT_EQ(ufp.trace[0].request, 2);
  EXPECT_EQ(ufp.trace[1].request, 1);
  EXPECT_EQ(ufp.trace[2].request, 0);
  ASSERT_NE(0.3 + 0.2 + 0.1, 0.1 + 0.2 + 0.3);

  const BkvResult bkv = bkv_ufp(inst, cfg);
  EXPECT_EQ(bkv.solution.num_selected(), 3);
  EXPECT_EQ(bkv.tight_upper_bound, bkv.solution.total_value(inst));
  EXPECT_EQ(bkv.tight_upper_bound, ufp.dual_upper_bound);
}

TEST(Bkv, TightBoundNeverBelowValue) {
  // Claim 3.6 with no tolerance, on saturating grids where many runs
  // route every request.
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const UfpInstance inst = make_instance(
        seed, 1.0 + 0.5 * static_cast<double>(seed % 7),
        5 + static_cast<int>(seed % 20));
    BoundedUfpConfig cfg;
    cfg.run_to_saturation = true;
    const BkvResult bkv = bkv_ufp(inst, cfg);
    EXPECT_GE(bkv.tight_upper_bound, bkv.solution.total_value(inst))
        << "seed " << seed;
  }
}

TEST(Bkv, CoarseBoundStillSound) {
  // Coarse certificate uses the repetitions dual: must dominate the
  // fractional UFP optimum too.
  const UfpInstance inst = make_instance(31, 1.5, 8);
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  const BkvResult bkv = bkv_ufp(inst, cfg);
  const double frac = solve_ufp_lp(inst).objective;
  EXPECT_GE(bkv.coarse_upper_bound, frac - 1e-6);
}

TEST(RandomizedRoundingTest, FeasibleAfterRepair) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const UfpInstance inst = make_instance(seed, 1.5, 14);
    const RoundingResult result = randomized_rounding_ufp(inst, seed);
    EXPECT_TRUE(result.solution.check_feasibility(inst).feasible)
        << "seed " << seed;
    EXPECT_GE(result.fractional_optimum,
              result.solution.total_value(inst) - 1e-6);
  }
}

TEST(RandomizedRoundingTest, DeterministicGivenSeed) {
  const UfpInstance inst = make_instance(50, 1.5, 12);
  const auto a = randomized_rounding_ufp(inst, 99);
  const auto b = randomized_rounding_ufp(inst, 99);
  EXPECT_EQ(a.solution.selected_requests(), b.solution.selected_requests());
}

TEST(RandomizedRoundingTest, TracksLpOnLargeCapacity) {
  // In the large-capacity regime rounding rarely needs repair and lands
  // close to the fractional optimum (the 1+eps story the paper cites).
  const UfpInstance inst = make_instance(60, 40.0, 20);
  const RoundingResult result = randomized_rounding_ufp(inst, 7);
  EXPECT_EQ(result.dropped, 0);
  EXPECT_GE(result.solution.total_value(inst),
            0.75 * result.fractional_optimum);
}

TEST(RandomizedRoundingTest, ScaleValidation) {
  const UfpInstance inst = make_instance(70, 2.0, 5);
  RoundingConfig cfg;
  cfg.scale = 0.0;
  EXPECT_THROW(randomized_rounding_ufp(inst, 1, cfg), std::invalid_argument);
}


TEST(Bkv, SaturationRequiresGuard) {
  const UfpInstance inst = make_instance(77, 2.0, 6);
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  cfg.capacity_guard = false;
  EXPECT_THROW(bkv_ufp(inst, cfg), std::invalid_argument);
}

TEST(Bkv, FaithfulThresholdStopsOutOfRegime) {
  // B = 2 with the default eps: threshold below m, so the faithful run is
  // empty and both certificates stay at +infinity (no iteration priced).
  const UfpInstance inst = make_instance(78, 2.0, 6);
  const BkvResult bkv = bkv_ufp(inst);
  EXPECT_EQ(bkv.iterations, 0);
  EXPECT_TRUE(bkv.stopped_by_threshold);
}

}  // namespace
}  // namespace tufp
