#include "tufp/auction/bounded_muca.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "tufp/auction/muca_exact.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/mechanism/truthfulness_audit.hpp"
#include "tufp/util/math.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

MucaInstance regime_auction(std::uint64_t seed, double eps, int requests) {
  const int items = 12;
  const int B = static_cast<int>(
      std::ceil(std::log(static_cast<double>(items)) / (eps * eps))) + 1;
  return make_random_auction(items, B, requests, 2, 5, 1.0, 10.0, seed);
}

TEST(MucaInstanceTest, ValidatesInput) {
  EXPECT_THROW(MucaInstance({}, {}), std::invalid_argument);
  EXPECT_THROW(MucaInstance({0}, {}), std::invalid_argument);
  EXPECT_THROW(MucaInstance({2}, {{{}, 1.0}}), std::invalid_argument);
  EXPECT_THROW(MucaInstance({2}, {{{0}, 0.0}}), std::invalid_argument);
  EXPECT_THROW(MucaInstance({2}, {{{0, 0}, 1.0}}), std::invalid_argument);
  EXPECT_THROW(MucaInstance({2}, {{{1}, 1.0}}), std::invalid_argument);
}

TEST(BoundedMuca, SelectsEverythingWhenMultiplicityAmple) {
  const MucaInstance inst = make_random_auction(10, 200, 12, 2, 4, 1, 5, 7);
  const BoundedMucaResult result = bounded_muca(inst);
  EXPECT_EQ(result.solution.num_selected(), inst.num_requests());
  EXPECT_TRUE(result.solution.check_feasibility(inst).feasible);
  EXPECT_EQ(result.dual_upper_bound, result.solution.total_value(inst));
}

TEST(BoundedMuca, AllSelectedBoundEqualsValueBitwise) {
  // Values 0.1, 0.2, 0.3 on one item are selected in order 2, 1, 0, and
  // 0.3 + 0.2 + 0.1 is one ulp below 0.1 + 0.2 + 0.3: the all-selected
  // cap must be the value as reported, summed in request order.
  const MucaInstance inst({10}, {{{0}, 0.1}, {{0}, 0.2}, {{0}, 0.3}});
  const BoundedMucaResult result = bounded_muca(inst);
  ASSERT_EQ(result.trace.size(), 3u);
  EXPECT_EQ(result.trace[0].request, 2);
  EXPECT_EQ(result.trace[1].request, 1);
  EXPECT_EQ(result.trace[2].request, 0);
  ASSERT_NE(0.3 + 0.2 + 0.1, 0.1 + 0.2 + 0.3);
  EXPECT_EQ(result.dual_upper_bound, result.solution.total_value(inst));
}

TEST(BoundedMuca, DualBoundNeverBelowValue) {
  // Claim 3.6 with no tolerance, on saturating auctions from scarce to
  // ample multiplicity (the ample ones select everything).
  for (std::uint64_t seed = 1; seed <= 200; ++seed) {
    const MucaInstance inst = make_random_auction(
        10, 2 + static_cast<int>(seed % 200), 5 + static_cast<int>(seed % 20),
        1, 4, 1, 10, seed);
    BoundedMucaConfig cfg;
    cfg.run_to_saturation = true;
    const BoundedMucaResult result = bounded_muca(inst, cfg);
    EXPECT_GE(result.dual_upper_bound, result.solution.total_value(inst))
        << "seed " << seed;
  }
}

TEST(BoundedMuca, GuardKeepsTightAuctionFeasible) {
  for (std::uint64_t seed = 1; seed < 10; ++seed) {
    const MucaInstance inst = make_random_auction(8, 2, 20, 2, 4, 1, 5, seed);
    BoundedMucaConfig cfg;
    cfg.run_to_saturation = true;
    const BoundedMucaResult result = bounded_muca(inst, cfg);
    EXPECT_GT(result.iterations, 0) << "seed " << seed;
    EXPECT_TRUE(result.solution.check_feasibility(inst).feasible)
        << "seed " << seed;
  }
}

TEST(BoundedMuca, FaithfulModeFeasibleInRegime) {
  for (std::uint64_t seed = 20; seed < 28; ++seed) {
    const double eps = 0.5;
    const MucaInstance inst = regime_auction(seed, eps, 40);
    ASSERT_TRUE(inst.in_large_capacity_regime(eps));
    BoundedMucaConfig cfg;
    cfg.epsilon = eps;
    cfg.capacity_guard = false;
    const BoundedMucaResult result = bounded_muca(inst, cfg);
    EXPECT_TRUE(result.solution.check_feasibility(inst).feasible)
        << "seed " << seed;
  }
}

TEST(BoundedMuca, ApproximationWithinPaperBound) {
  for (std::uint64_t seed = 30; seed < 36; ++seed) {
    const double eps = 1.0 / 6.0;
    const MucaInstance inst = regime_auction(seed, eps, 14);
    BoundedMucaConfig cfg;
    cfg.epsilon = eps;
    const BoundedMucaResult result = bounded_muca(inst, cfg);
    const double value = result.solution.total_value(inst);
    const MucaExactResult exact = solve_muca_exact(inst);
    ASSERT_TRUE(exact.proven_optimal);
    const double bound = (1.0 + 6.0 * eps) * kEOverEMinus1;
    EXPECT_GE(value * bound, exact.optimal_value - 1e-9) << "seed " << seed;
    EXPECT_LE(value, exact.optimal_value + 1e-9);
    EXPECT_GE(result.dual_upper_bound, exact.optimal_value - 1e-6);
  }
}

TEST(BoundedMuca, DualBoundDominatesLp) {
  const double eps = 1.0 / 6.0;
  const MucaInstance inst = regime_auction(77, eps, 16);
  BoundedMucaConfig cfg;
  cfg.epsilon = eps;
  const BoundedMucaResult result = bounded_muca(inst, cfg);
  EXPECT_GE(result.dual_upper_bound, solve_muca_lp(inst) - 1e-6);
}

TEST(BoundedMuca, MonotoneInValue) {
  for (std::uint64_t seed = 40; seed < 48; ++seed) {
    const MucaInstance inst = make_random_auction(8, 3, 15, 2, 4, 1, 9, seed);
    MonotonicityOptions options;
    options.seed = seed + 1;
    BoundedMucaConfig cfg;
    cfg.run_to_saturation = true;
    const MucaRule rule = make_bounded_muca_rule(cfg);
    ASSERT_GT(rule(inst).num_selected(), 0) << "seed " << seed;
    const auto report = audit_muca_monotonicity(inst, rule, options);
    EXPECT_TRUE(report.monotone()) << "seed " << seed;
  }
}

TEST(BoundedMuca, UnknownSingleMindedBundleMonotone) {
  // Shrinking the declared bundle (keeping it non-empty) can only help:
  // a selected request stays selected (Theorem 4.1's closing remark).
  const MucaInstance inst = make_random_auction(10, 3, 12, 3, 5, 1, 9, 99);
  BoundedMucaConfig cfg;
  cfg.run_to_saturation = true;
  const MucaRule rule = make_bounded_muca_rule(cfg);
  const MucaSolution base = rule(inst);
  ASSERT_GT(base.num_selected(), 0);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (!base.is_selected(r)) continue;
    MucaRequest shrunk = inst.request(r);
    shrunk.bundle.pop_back();
    if (shrunk.bundle.empty()) continue;
    EXPECT_TRUE(rule(inst.with_request(r, shrunk)).is_selected(r))
        << "request " << r;
  }
}

TEST(BoundedMuca, ThresholdStopsLowMultiplicityAuction) {
  // B = 1: threshold e^0 = 1 < m, faithful loop exits immediately.
  const MucaInstance inst = make_random_auction(6, 1, 5, 2, 3, 1, 5, 3);
  const BoundedMucaResult result = bounded_muca(inst);
  EXPECT_EQ(result.iterations, 0);
  EXPECT_TRUE(result.stopped_by_threshold);
}

TEST(BoundedMuca, ValidatesEpsilon) {
  const MucaInstance inst = make_random_auction(6, 4, 5, 2, 3, 1, 5, 3);
  BoundedMucaConfig cfg;
  cfg.epsilon = 0.0;
  EXPECT_THROW(bounded_muca(inst, cfg), std::invalid_argument);
}

TEST(MucaExactTest, MatchesBruteForceOnTinyAuctions) {
  for (std::uint64_t seed = 60; seed < 70; ++seed) {
    const MucaInstance inst = make_random_auction(5, 2, 10, 1, 3, 1, 9, seed);
    const MucaExactResult exact = solve_muca_exact(inst);
    ASSERT_TRUE(exact.proven_optimal);
    // Brute force over all subsets.
    double best = 0.0;
    const int R = inst.num_requests();
    for (int mask = 0; mask < (1 << R); ++mask) {
      std::vector<int> load(static_cast<std::size_t>(inst.num_items()), 0);
      double value = 0.0;
      bool ok = true;
      for (int r = 0; r < R && ok; ++r) {
        if (!(mask & (1 << r))) continue;
        value += inst.request(r).value;
        for (int u : inst.request(r).bundle) {
          if (++load[static_cast<std::size_t>(u)] > inst.multiplicity(u)) {
            ok = false;
            break;
          }
        }
      }
      if (ok) best = std::max(best, value);
    }
    EXPECT_NEAR(exact.optimal_value, best, 1e-9) << "seed " << seed;
  }
}

TEST(MucaExactTest, LpDominatesIlp) {
  for (std::uint64_t seed = 80; seed < 86; ++seed) {
    const MucaInstance inst = make_random_auction(6, 2, 12, 2, 4, 1, 9, seed);
    EXPECT_GE(solve_muca_lp(inst), solve_muca_exact(inst).optimal_value - 1e-7);
  }
}


TEST(BoundedMuca, SaturationRequiresGuard) {
  const MucaInstance inst = make_random_auction(6, 4, 5, 2, 3, 1, 5, 3);
  BoundedMucaConfig cfg;
  cfg.run_to_saturation = true;
  cfg.capacity_guard = false;
  EXPECT_THROW(bounded_muca(inst, cfg), std::invalid_argument);
}

TEST(BoundedMuca, SaturationFillsSomeItem) {
  const MucaInstance inst = make_random_auction(6, 3, 30, 2, 3, 1, 9, 11);
  BoundedMucaConfig cfg;
  cfg.run_to_saturation = true;
  const BoundedMucaResult result = bounded_muca(inst, cfg);
  EXPECT_FALSE(result.stopped_by_threshold);
  const auto loads = result.solution.item_loads(inst);
  bool some_item_full = false;
  for (int u = 0; u < inst.num_items(); ++u) {
    some_item_full |= loads[static_cast<std::size_t>(u)] == inst.multiplicity(u);
  }
  EXPECT_TRUE(some_item_full);
}

}  // namespace
}  // namespace tufp
