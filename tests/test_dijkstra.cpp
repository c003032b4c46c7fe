#include "tufp/graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tufp/graph/bellman_ford.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"

namespace tufp {
namespace {

Graph diamond() {
  // 0 -> 1 -> 3 (weights 1 + 1), 0 -> 2 -> 3 (weights 2 + 0.5).
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 1.0);  // e0
  g.add_edge(1, 3, 1.0);  // e1
  g.add_edge(0, 2, 1.0);  // e2
  g.add_edge(2, 3, 1.0);  // e3
  g.finalize();
  return g;
}

TEST(Dijkstra, PicksCheaperBranch) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  const std::vector<double> w{1.0, 1.0, 2.0, 0.5};
  Path path;
  const double dist = engine.shortest_path(w, 0, 3, &path);
  EXPECT_DOUBLE_EQ(dist, 2.0);
  EXPECT_EQ(path, (Path{0, 1}));
}

TEST(Dijkstra, WeightChangeFlipsPath) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  const std::vector<double> w{5.0, 1.0, 2.0, 0.5};
  Path path;
  const double dist = engine.shortest_path(w, 0, 3, &path);
  EXPECT_DOUBLE_EQ(dist, 2.5);
  EXPECT_EQ(path, (Path{2, 3}));
}

TEST(Dijkstra, UnreachableReturnsInf) {
  Graph g = Graph::directed(3);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  ShortestPathEngine engine(g);
  const std::vector<double> w{1.0};
  Path path{99};
  EXPECT_EQ(engine.shortest_path(w, 0, 2, &path), kInf);
  EXPECT_EQ(path, (Path{99}));  // untouched on failure
}

TEST(Dijkstra, DirectionRespected) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  ShortestPathEngine engine(g);
  const std::vector<double> w{1.0};
  EXPECT_EQ(engine.shortest_path(w, 1, 0), kInf);
}

TEST(Dijkstra, UndirectedBothDirections) {
  Graph g = Graph::undirected(3);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.finalize();
  ShortestPathEngine engine(g);
  const std::vector<double> w{1.0, 2.0};
  Path path;
  EXPECT_DOUBLE_EQ(engine.shortest_path(w, 2, 0, &path), 3.0);
  EXPECT_EQ(path, (Path{1, 0}));
}

TEST(Dijkstra, ZeroWeightsAllowed) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  const std::vector<double> w{0.0, 0.0, 0.0, 0.0};
  EXPECT_DOUBLE_EQ(engine.shortest_path(w, 0, 3), 0.0);
}

// A weight far below dist(u)'s ulp is absorbed: 1 + 1e-17 == 1. Vertices
// 1 and 2 then sit at equal distance with positive arcs both ways, and a
// tie-break guarded by w > 0 let each adopt the other as its parent — the
// path extraction looped. Ties must come from strictly closer vertices.
TEST(Dijkstra, AbsorbedWeightsCannotCloseAParentCycle) {
  Graph g = Graph::directed(4);
  g.add_edge(3, 1, 1.0);  // e0
  g.add_edge(1, 2, 1.0);  // e1
  g.add_edge(2, 1, 1.0);  // e2
  g.add_edge(2, 0, 1.0);  // e3
  g.finalize();
  const std::vector<double> w{1.0, 1e-17, 1e-17, 1.0};
  for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
    ShortestPathEngine engine(g, kernel);
    Path path;
    EXPECT_EQ(engine.shortest_path(w, 3, 0, &path), 2.0);
    EXPECT_EQ(path, (Path{0, 1, 3}));
  }
}

TEST(Dijkstra, NegativeWeightRejected) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  const std::vector<double> w{-0.1, 1.0, 1.0, 1.0};
  EXPECT_THROW(engine.shortest_path(w, 0, 3), std::invalid_argument);
}

TEST(Dijkstra, BlockedEdgesAreSkipped) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  const std::vector<double> w{1.0, 1.0, 2.0, 0.5};
  std::vector<std::uint8_t> blocked{1, 0, 0, 0};  // block 0->1
  Path path;
  const double dist = engine.shortest_path(w, 0, 3, &path, blocked);
  EXPECT_DOUBLE_EQ(dist, 2.5);
  EXPECT_EQ(path, (Path{2, 3}));
  blocked = {1, 0, 1, 0};
  EXPECT_EQ(engine.shortest_path(w, 0, 3, nullptr, blocked), kInf);
}

TEST(Dijkstra, RejectsBadArguments) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  const std::vector<double> w{1.0, 1.0, 1.0};  // wrong size
  EXPECT_THROW(engine.shortest_path(w, 0, 3), std::invalid_argument);
  const std::vector<double> ok{1.0, 1.0, 1.0, 1.0};
  EXPECT_THROW(engine.shortest_path(ok, 0, 0), std::invalid_argument);
  EXPECT_THROW(engine.shortest_path(ok, -1, 3), std::invalid_argument);
}

TEST(Dijkstra, EngineReusableAcrossQueries) {
  Graph g = diamond();
  ShortestPathEngine engine(g);
  std::vector<double> w{1.0, 1.0, 2.0, 0.5};
  for (int i = 0; i < 100; ++i) {
    EXPECT_DOUBLE_EQ(engine.shortest_path(w, 0, 3), 2.0);
    EXPECT_DOUBLE_EQ(engine.shortest_path(w, 0, 1), 1.0);
  }
  // Changing weights between queries is picked up.
  w[0] = 10.0;
  EXPECT_DOUBLE_EQ(engine.shortest_path(w, 0, 3), 2.5);
}

// Property: Dijkstra agrees with Bellman-Ford on random graphs for every
// vertex pair, and its reported path has exactly the reported length.
class DijkstraRandomTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DijkstraRandomTest, MatchesBellmanFordEverywhere) {
  Rng rng(GetParam());
  const bool directed = rng.next_bool();
  const int n = 4 + static_cast<int>(rng.next_below(12));
  const int extra = static_cast<int>(rng.next_below(2 * n));
  Graph g = random_graph(n, n - 1 + extra, 1.0, 1.0, directed, rng);

  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.next_double(0.0, 10.0);

  ShortestPathEngine engine(g);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const std::vector<double> reference = bellman_ford(g, weights, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      Path path;
      const double dist = engine.shortest_path(weights, s, t, &path);
      ASSERT_NEAR(dist, reference[static_cast<std::size_t>(t)], 1e-9)
          << "seed=" << GetParam() << " s=" << s << " t=" << t;
      if (dist < kInf) {
        ASSERT_TRUE(is_simple_path(g, path, s, t));
        ASSERT_NEAR(path_length(path, weights), dist, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DijkstraRandomTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11,
                                           12, 13, 14, 15, 16));

TEST(BellmanFord, HopProfileMonotoneInHops) {
  Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 2.0, 0.5};
  const auto profile = hop_profile(g, w, 0, 3);
  ASSERT_EQ(profile.size(), 4u);
  EXPECT_EQ(profile[0][3], kInf);
  EXPECT_EQ(profile[1][3], kInf);
  EXPECT_DOUBLE_EQ(profile[2][3], 2.0);
  EXPECT_DOUBLE_EQ(profile[3][3], 2.0);
  for (std::size_t k = 1; k < profile.size(); ++k) {
    for (std::size_t v = 0; v < profile[k].size(); ++v) {
      EXPECT_LE(profile[k][v], profile[k - 1][v]);
    }
  }
}

TEST(BellmanFord, HopProfilePathReconstruction) {
  Graph g = diamond();
  const std::vector<double> w{1.0, 1.0, 2.0, 0.5};
  const auto profile = hop_profile(g, w, 0, 3);
  const Path path = hop_profile_path(g, w, profile, 0, 3, 2);
  EXPECT_EQ(path, (Path{0, 1}));
  EXPECT_TRUE(hop_profile_path(g, w, profile, 0, 3, 1).empty());
}

}  // namespace
}  // namespace tufp
