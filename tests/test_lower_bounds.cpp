// Theorems 3.11, 3.12 and 4.5 as executable assertions: simulating the
// reasonable iterative algorithms on the paper's gadgets reproduces the
// closed-form adversarial values.
#include <gtest/gtest.h>

#include "tufp/auction/bundle_minimizer.hpp"
#include "tufp/auction/muca_exact.hpp"
#include "tufp/ufp/iterative_minimizer.hpp"
#include "tufp/ufp/reasonable.hpp"
#include "tufp/util/math.hpp"
#include "tufp/workload/lower_bounds.hpp"

namespace tufp {
namespace {

IterativeMinimizerResult run_staircase(const StaircaseInstance& sc,
                                       double eps = 0.25) {
  const ExponentialLengthFunction h(eps, static_cast<double>(sc.B));
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  cfg.tie_score = sc.paper_tie_score();
  return reasonable_iterative_minimizer(sc.instance, cfg);
}

TEST(Staircase, BOneMatchesHandComputation) {
  // l=4, B=1: the schedule satisfies s_1 via v_4 and s_2 via v_3, then
  // starves s_3 and s_4 (each fresh v_j with j >= i is exhausted).
  const auto sc = make_staircase(4, 1);
  const auto result = run_staircase(sc);
  EXPECT_EQ(result.solution.num_selected(), 2);
  EXPECT_TRUE(result.solution.is_selected(0));
  EXPECT_TRUE(result.solution.is_selected(1));
  EXPECT_DOUBLE_EQ(sc.predicted_alg_value(), 2.0);
}

class StaircaseSweep
    : public ::testing::TestWithParam<std::pair<int, int>> {};

TEST_P(StaircaseSweep, AlgValueWithinPaperWindow) {
  const auto [l, B] = GetParam();
  const auto sc = make_staircase(l, B);
  const auto result = run_staircase(sc);
  const double alg = result.solution.total_value(sc.instance);
  // Theorem 3.11: fluid value B*l*(1-(B/(B+1))^B), integrality correction
  // at most +B^2; the discrete schedule can also undershoot slightly.
  EXPECT_LE(alg, sc.predicted_alg_value() + static_cast<double>(B) * B + 1e-9);
  EXPECT_GE(alg, sc.predicted_alg_value() - static_cast<double>(B) * B - 1e-9);
  EXPECT_TRUE(result.solution.check_feasibility(sc.instance).feasible);
  // The forced ratio is at least ~ 1/(1-(B/(B+1))^B) modulo the correction.
  EXPECT_LT(alg, sc.optimal_value());
}

INSTANTIATE_TEST_SUITE_P(
    Sizes, StaircaseSweep,
    ::testing::Values(std::pair{6, 2}, std::pair{8, 2}, std::pair{12, 3},
                      std::pair{16, 3}, std::pair{16, 4}, std::pair{24, 4}));

TEST(Staircase, RatioNearFluidPrediction) {
  // With l >> B^2 the integrality correction washes out and the measured
  // ratio sits near 1/(1-(B/(B+1))^B), which tends to e/(e-1) as B grows.
  const auto sc = make_staircase(40, 3);
  const double alg = run_staircase(sc).solution.total_value(sc.instance);
  const double ratio = sc.optimal_value() / alg;
  EXPECT_GT(ratio, 1.45);
  EXPECT_LT(ratio, staircase_ratio(3) + 0.15);
  // The family's limit bound: ratio always above e/(e-1) minus slack,
  // matching "cannot be better than e/(e-1) - o(1)".
  EXPECT_GT(ratio + 0.15, kEOverEMinus1);
}

TEST(Staircase, OptimalAssignmentIsFeasible) {
  // Sanity for OPT = B*l: the diagonal assignment routes everything.
  const auto sc = make_staircase(6, 3);
  UfpSolution opt(sc.instance.num_requests());
  // Request block i uses path (s_i, v_i, t); find the edges by scanning.
  const Graph& g = sc.instance.graph();
  for (int i = 0; i < sc.l; ++i) {
    EdgeId to_v = kInvalidEdge, to_t = kInvalidEdge;
    for (const Arc& a : g.arcs_from(sc.s[static_cast<std::size_t>(i)])) {
      if (a.to == sc.v[static_cast<std::size_t>(i)]) to_v = a.edge;
    }
    for (const Arc& a : g.arcs_from(sc.v[static_cast<std::size_t>(i)])) {
      if (a.to == sc.t) to_t = a.edge;
    }
    ASSERT_NE(to_v, kInvalidEdge);
    ASSERT_NE(to_t, kInvalidEdge);
    for (int b = 0; b < sc.B; ++b) {
      opt.assign(i * sc.B + b, {to_v, to_t});
    }
  }
  EXPECT_TRUE(opt.check_feasibility(sc.instance).feasible);
  EXPECT_DOUBLE_EQ(opt.total_value(sc.instance), sc.optimal_value());
}

TEST(Fig3, AdversarialScheduleReachesExactlyThreeB) {
  for (int B : {2, 4, 8, 16}) {
    const auto fig = make_fig3(B);
    const ExponentialLengthFunction h(0.25, static_cast<double>(B));
    IterativeMinimizerConfig cfg;
    cfg.function = &h;
    cfg.tie_score = fig.paper_tie_score();
    const auto result = reasonable_iterative_minimizer(fig.instance, cfg);
    EXPECT_DOUBLE_EQ(result.solution.total_value(fig.instance),
                     fig.predicted_alg_value())
        << "B=" << B;
    EXPECT_TRUE(result.solution.check_feasibility(fig.instance).feasible);
  }
}

TEST(Fig3, OptimalValueIsFourB) {
  // The four disjoint routings of the proof certify OPT >= 4B; verify via a
  // hand-built solution for B=2.
  const auto fig = make_fig3(2);
  const Graph& g = fig.instance.graph();
  const auto edge_between = [&](VertexId a, VertexId b) {
    for (const Arc& arc : g.arcs_from(a)) {
      if (arc.to == b) return arc.edge;
    }
    return kInvalidEdge;
  };
  const auto V = [&](int k) { return fig.v[static_cast<std::size_t>(k - 1)]; };
  UfpSolution opt(fig.instance.num_requests());
  for (int b = 0; b < 2; ++b) {
    opt.assign(0 + b, {edge_between(V(1), V(2)), edge_between(V(2), V(3))});
    opt.assign(2 + b, {edge_between(V(4), V(5)), edge_between(V(5), V(6))});
    opt.assign(4 + b, {edge_between(V(1), V(7)), edge_between(V(7), V(6))});
    opt.assign(6 + b, {edge_between(V(3), V(7)), edge_between(V(7), V(4))});
  }
  EXPECT_TRUE(opt.check_feasibility(fig.instance).feasible);
  EXPECT_DOUBLE_EQ(opt.total_value(fig.instance), 8.0);
}

TEST(Fig3, RatioIsFourThirdsForAllB) {
  for (int B : {2, 6, 12}) {
    const auto fig = make_fig3(B);
    EXPECT_NEAR(fig.optimal_value() / fig.predicted_alg_value(), 4.0 / 3.0,
                1e-12);
  }
}

TEST(Fig4, AdversarialScheduleMatchesClosedForm) {
  for (const auto& [p, B] : {std::pair{3, 4}, std::pair{5, 4}, std::pair{7, 2},
                             std::pair{5, 8}}) {
    const auto fig = make_fig4(p, B);
    const ExponentialBundleFunction h(0.25,
                                      static_cast<double>(fig.instance.bound_B()));
    BundleMinimizerConfig cfg;
    cfg.function = &h;
    const auto result = reasonable_bundle_minimizer(fig.instance, cfg);
    EXPECT_DOUBLE_EQ(result.solution.total_value(fig.instance),
                     fig.predicted_alg_value())
        << "p=" << p << " B=" << B;
    EXPECT_TRUE(result.solution.check_feasibility(fig.instance).feasible);
  }
}

TEST(Fig4, TypeOneRequestsAreSelectedFirst) {
  const auto fig = make_fig4(3, 4);
  const ExponentialBundleFunction h(0.25, 4.0);
  BundleMinimizerConfig cfg;
  cfg.function = &h;
  const auto result = reasonable_bundle_minimizer(fig.instance, cfg);
  for (int i = 0; i < fig.num_type1_requests; ++i) {
    EXPECT_LT(result.trace[static_cast<std::size_t>(i)].request,
              fig.num_type1_requests)
        << "iteration " << i << " selected a type-2 request too early";
  }
}

TEST(Fig4, OptimalSelectionIsFeasibleAndMatchesPB) {
  // The proof's OPT: everything except the B/2 requests on bundle U_1.
  const auto fig = make_fig4(3, 4);
  MucaSolution opt(fig.instance.num_requests());
  for (int r = fig.B / 2; r < fig.instance.num_requests(); ++r) opt.select(r);
  EXPECT_TRUE(opt.check_feasibility(fig.instance).feasible);
  EXPECT_DOUBLE_EQ(opt.total_value(fig.instance), fig.optimal_value());
}

TEST(Fig4, ExactSolverConfirmsOptimum) {
  const auto fig = make_fig4(3, 2);
  const MucaExactResult exact = solve_muca_exact(fig.instance);
  ASSERT_TRUE(exact.proven_optimal);
  EXPECT_DOUBLE_EQ(exact.optimal_value, fig.optimal_value());
}

TEST(Fig4, RatioApproachesFourThirds) {
  double prev = 0.0;
  for (int p : {3, 7, 11, 15}) {
    const auto fig = make_fig4(p, 2);
    const double ratio = fig.optimal_value() / fig.predicted_alg_value();
    EXPECT_GT(ratio, prev);  // monotone in p toward 4/3
    prev = ratio;
  }
  EXPECT_NEAR(prev, 4.0 * 15 / (3.0 * 15 + 1), 1e-12);
}


TEST(Staircase, SubdividedVariantStaysFeasibleAndBounded) {
  // The paper's tie-forcing subdivision (EXPERIMENTS.md caveat): with a
  // flow-sensitive reasonable function at small eps the schedule can
  // funnel whole sources through one v_j and beat the fluid bound, so the
  // only universal assertions are feasibility and ALG <= OPT.
  const auto sc = make_staircase(6, 2, /*subdivided=*/true);
  const ExponentialLengthFunction h(0.15, static_cast<double>(sc.B));
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  const auto result = reasonable_iterative_minimizer(sc.instance, cfg);
  EXPECT_TRUE(result.solution.check_feasibility(sc.instance).feasible);
  EXPECT_LE(result.solution.total_value(sc.instance), sc.optimal_value());
  EXPECT_GT(result.solution.total_value(sc.instance), 0.0);
}

}  // namespace
}  // namespace tufp
