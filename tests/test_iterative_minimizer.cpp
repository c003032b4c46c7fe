#include "tufp/ufp/iterative_minimizer.hpp"

#include <gtest/gtest.h>

#include "tufp/graph/generators.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/reasonable.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {
namespace {

TEST(ReasonableFunctions, ExponentialLengthMatchesFormula) {
  const ExponentialLengthFunction h(0.5, 4.0);
  const std::vector<double> flows{1.0, 0.0};
  const std::vector<double> caps{4.0, 2.0};
  const Path path{0, 1};
  // d/v * sum (1/c) e^{eps*B*f/c} = (2/3) * (0.25 e^{0.5} + 0.5 e^0).
  const double expected =
      2.0 / 3.0 * (0.25 * std::exp(0.5 * 4.0 * 1.0 / 4.0) + 0.5);
  EXPECT_NEAR(h.evaluate(2.0, 3.0, path, flows, caps), expected, 1e-12);
}

TEST(ReasonableFunctions, ExponentialPrefersColdEdges) {
  const ExponentialLengthFunction h(0.5, 4.0);
  const std::vector<double> caps{4.0, 4.0};
  const Path p0{0};
  const Path p1{1};
  const std::vector<double> flows{2.0, 1.0};
  EXPECT_GT(h.evaluate(1, 1, p0, flows, caps), h.evaluate(1, 1, p1, flows, caps));
}

TEST(ReasonableFunctions, HopBiasPenalizesLongPaths) {
  const ExponentialLengthFunction h(0.5, 4.0);
  const HopBiasedFunction h1(0.5, 4.0);
  const std::vector<double> caps{4.0, 4.0, 4.0};
  const std::vector<double> flows{0.0, 0.0, 0.0};
  const Path two{0, 1};
  const Path three{0, 1, 2};
  // Relative penalty of the 3-edge path is larger under h1 than under h.
  const double ratio_h = h.evaluate(1, 1, three, flows, caps) /
                         h.evaluate(1, 1, two, flows, caps);
  const double ratio_h1 = h1.evaluate(1, 1, three, flows, caps) /
                          h1.evaluate(1, 1, two, flows, caps);
  EXPECT_GT(ratio_h1, ratio_h);
}

TEST(ReasonableFunctions, FlowProductZeroOnColdPath) {
  const FlowProductFunction h2;
  const std::vector<double> caps{4.0, 4.0};
  const std::vector<double> flows{3.0, 0.0};
  EXPECT_DOUBLE_EQ(h2.evaluate(1, 1, {0, 1}, flows, caps), 0.0);
  EXPECT_GT(h2.evaluate(1, 1, {0}, flows, caps), 0.0);
}

TEST(Minimizer, RequiresFunction) {
  Graph g = grid_graph(2, 2, 2.0, false);
  UfpInstance inst(std::move(g), {{0, 3, 1.0, 1.0}});
  IterativeMinimizerConfig cfg;
  EXPECT_THROW(reasonable_iterative_minimizer(inst, cfg), std::invalid_argument);
}

TEST(Minimizer, RoutesEverythingWithAmpleCapacity) {
  Rng rng(5);
  Graph g = grid_graph(3, 3, 20.0, false);
  RequestGenConfig gen;
  gen.num_requests = 8;
  std::vector<Request> reqs = generate_requests(g, gen, rng);
  UfpInstance inst(std::move(g), std::move(reqs));
  const ExponentialLengthFunction h(0.5, inst.bound_B());
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  const auto result = reasonable_iterative_minimizer(inst, cfg);
  EXPECT_EQ(result.solution.num_selected(), inst.num_requests());
  EXPECT_TRUE(result.solution.check_feasibility(inst).feasible);
}

TEST(Minimizer, StopsWhenNothingFits) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  UfpInstance inst(std::move(g),
                   {{0, 1, 0.7, 1.0}, {0, 1, 0.7, 2.0}, {0, 1, 0.7, 3.0}});
  const ExponentialLengthFunction h(0.5, 1.0);
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  const auto result = reasonable_iterative_minimizer(inst, cfg);
  EXPECT_EQ(result.solution.num_selected(), 1);
  EXPECT_TRUE(result.solution.is_selected(2));  // best d/v ratio
}

TEST(Minimizer, SelectionOrderMatchesBoundedUfpWithoutSaturation) {
  // On an instance where nothing saturates and no exact ties occur, the
  // enumeration-based minimizer of h must replay Bounded-UFP's Dijkstra-
  // based selection sequence exactly. Jittered capacities keep equal-hop
  // paths at distinct lengths, so ties have measure zero.
  Rng rng(1234);
  Graph g = random_graph(8, 18, 60.0, 80.0, /*directed=*/true, rng);
  RequestGenConfig gen;
  gen.num_requests = 10;
  gen.value_min = 1.0;
  gen.value_max = 9.7;
  std::vector<Request> reqs = generate_requests(g, gen, rng);
  UfpInstance inst(std::move(g), std::move(reqs));

  const BoundedUfpConfig ufp_cfg;
  const BoundedUfpResult ufp = bounded_ufp(inst, ufp_cfg);
  ASSERT_FALSE(ufp.stopped_by_threshold);

  const ExponentialLengthFunction h(ufp_cfg.epsilon, inst.bound_B());
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  const auto minimizer = reasonable_iterative_minimizer(inst, cfg);

  ASSERT_EQ(minimizer.trace.size(), ufp.trace.size());
  for (std::size_t i = 0; i < minimizer.trace.size(); ++i) {
    EXPECT_EQ(minimizer.trace[i].request, ufp.trace[i].request) << "iter " << i;
  }
}

TEST(Minimizer, TieScoreDirectsSelection) {
  // Two identical parallel edges; tie score picks the designated one.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 4.0);  // e0
  g.add_edge(0, 1, 4.0);  // e1
  g.finalize();
  UfpInstance inst(std::move(g), {{0, 1, 1.0, 1.0}});
  const ExponentialLengthFunction h(0.5, 4.0);
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  cfg.tie_score = [](int, const Path& path) {
    return path[0] == 1 ? 0.0 : 1.0;  // prefer the second edge
  };
  const auto result = reasonable_iterative_minimizer(inst, cfg);
  ASSERT_TRUE(result.solution.is_selected(0));
  EXPECT_EQ(*result.solution.path_of(0), (Path{1}));
}

TEST(Minimizer, TraceScoresAreNonDecreasingUnderH) {
  Rng rng(77);
  Graph g = grid_graph(3, 3, 6.0, false);
  RequestGenConfig gen;
  gen.num_requests = 12;
  std::vector<Request> reqs = generate_requests(g, gen, rng);
  UfpInstance inst(std::move(g), std::move(reqs));
  const ExponentialLengthFunction h(0.5, inst.bound_B());
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  const auto result = reasonable_iterative_minimizer(inst, cfg);
  // h only grows with flow, so without capacity filtering the selected
  // scores form a non-decreasing sequence; saturation can only raise them.
  for (std::size_t i = 1; i < result.trace.size(); ++i) {
    EXPECT_GE(result.trace[i].score, result.trace[i - 1].score - 1e-12);
  }
}

TEST(Minimizer, RefusesTruncatedPathSets) {
  // Complete DAG blows past a tiny enumeration budget.
  const int k = 12;
  Graph g = Graph::directed(k);
  for (int i = 0; i < k; ++i) {
    for (int j = i + 1; j < k; ++j) {
      g.add_edge(static_cast<VertexId>(i), static_cast<VertexId>(j), 2.0);
    }
  }
  g.finalize();
  UfpInstance inst(std::move(g), {{0, static_cast<VertexId>(k - 1), 1.0, 1.0}});
  const ExponentialLengthFunction h(0.5, 2.0);
  IterativeMinimizerConfig cfg;
  cfg.function = &h;
  cfg.max_paths_per_pair = 10;
  EXPECT_THROW(reasonable_iterative_minimizer(inst, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace tufp
