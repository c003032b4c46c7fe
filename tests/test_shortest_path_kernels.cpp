// Cross-checks of the two ShortestPathEngine kernels (dijkstra.hpp).
//
// The bucket-queue (dial) kernel must be byte-for-byte interchangeable
// with the heap kernel wherever it is eligible: same distances, same
// canonical (lexicographic-min predecessor) paths, for single-pair and
// multi-target tree queries alike — including on tie-heavy uniform-weight
// graphs, which is where queue disciplines usually diverge. The solver
// cross-check at the bottom pins the consequence the engine relies on:
// Bounded-UFP output is invariant under the kernel choice.
#include "tufp/graph/dijkstra.hpp"

#include <gtest/gtest.h>

#include <vector>

#include "tufp/graph/bellman_ford.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {
namespace {

class KernelCrossCheckTest : public ::testing::TestWithParam<std::uint64_t> {};

// Random positive weights with a bounded ratio, so the bucket kernel is
// always eligible; compare both kernels against each other (exact) and
// against Bellman-Ford (tolerance).
TEST_P(KernelCrossCheckTest, SameDistancesAndPathsEverywhere) {
  Rng rng(GetParam());
  const bool directed = rng.next_bool();
  const int n = 4 + static_cast<int>(rng.next_below(12));
  const int extra = static_cast<int>(rng.next_below(2 * n));
  Graph g = random_graph(n, n - 1 + extra, 1.0, 1.0, directed, rng);

  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.next_double(0.2, 5.0);
  const WeightProfile profile = WeightProfile::scan(weights);
  ASSERT_TRUE(profile.all_positive);

  ShortestPathEngine heap(g, SpKernel::kHeap);
  ShortestPathEngine bucket(g, SpKernel::kBucket);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    const std::vector<double> reference = bellman_ford(g, weights, s);
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      Path heap_path;
      Path bucket_path;
      const double dh = heap.shortest_path(weights, s, t, &heap_path, {},
                                           &profile);
      const double db = bucket.shortest_path(weights, s, t, &bucket_path, {},
                                             &profile);
      ASSERT_EQ(bucket.last_used_kernel(), SpKernel::kBucket);
      // Identical relaxation semantics -> bitwise identical distances.
      ASSERT_EQ(dh, db) << "seed=" << GetParam() << " s=" << s << " t=" << t;
      ASSERT_EQ(heap_path, bucket_path)
          << "seed=" << GetParam() << " s=" << s << " t=" << t;
      ASSERT_NEAR(dh, reference[static_cast<std::size_t>(t)], 1e-9);
      if (dh < kInf) {
        ASSERT_TRUE(is_simple_path(g, heap_path, s, t));
        ASSERT_NEAR(path_length(heap_path, weights), dh, 1e-9);
      }
    }
  }
}

// Uniform weights maximize shortest-path ties — grids have exponentially
// many equal-length paths — which is exactly where naive queue orders
// diverge. The canonical tie-break must keep the kernels identical.
TEST_P(KernelCrossCheckTest, TieHeavyUniformGridsAgree) {
  Rng rng(GetParam() * 977 + 5);
  const int side = 3 + static_cast<int>(rng.next_below(4));
  Graph g = grid_graph(side, side, 2.0, /*directed=*/false);
  const std::vector<double> weights(static_cast<std::size_t>(g.num_edges()),
                                    1.0);
  const WeightProfile profile = WeightProfile::scan(weights);

  ShortestPathEngine heap(g, SpKernel::kHeap);
  ShortestPathEngine bucket(g, SpKernel::kBucket);
  for (VertexId s = 0; s < g.num_vertices(); ++s) {
    for (VertexId t = 0; t < g.num_vertices(); ++t) {
      if (s == t) continue;
      Path hp;
      Path bp;
      ASSERT_EQ(heap.shortest_path(weights, s, t, &hp, {}, &profile),
                bucket.shortest_path(weights, s, t, &bp, {}, &profile));
      ASSERT_EQ(hp, bp) << "s=" << s << " t=" << t;
    }
  }
}

// The canonical path's every step uses the lexicographically smallest
// (predecessor, edge) among shortest predecessors — the property the
// cross-kernel and cross-shard determinism proofs rest on.
TEST_P(KernelCrossCheckTest, PathsUseLexMinShortestPredecessors) {
  Rng rng(GetParam() * 31 + 7);
  const int n = 5 + static_cast<int>(rng.next_below(8));
  Graph g = random_graph(n, 2 * n, 1.0, 1.0, /*directed=*/true, rng);
  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()));
  for (auto& w : weights) w = 0.25 * (1.0 + rng.next_below(8));  // many ties
  const WeightProfile profile = WeightProfile::scan(weights);

  ShortestPathEngine engine(g, SpKernel::kBucket);
  const VertexId s = 0;
  // Engine-exact distances from s (bitwise consistent with path checks).
  std::vector<double> dist(static_cast<std::size_t>(n), kInf);
  dist[0] = 0.0;
  for (VertexId v = 1; v < n; ++v) {
    dist[static_cast<std::size_t>(v)] =
        engine.shortest_path(weights, s, v, nullptr, {}, &profile);
  }

  for (VertexId t = 1; t < n; ++t) {
    if (dist[static_cast<std::size_t>(t)] >= kInf) continue;
    Path path;
    engine.shortest_path(weights, s, t, &path, {}, &profile);
    const std::vector<VertexId> vertices = path_vertices(g, path, s);
    for (std::size_t k = 1; k < vertices.size(); ++k) {
      const VertexId v = vertices[k];
      VertexId best_u = kInvalidVertex;
      EdgeId best_e = kInvalidEdge;
      for (VertexId u = 0; u < n; ++u) {
        if (dist[static_cast<std::size_t>(u)] >= kInf) continue;
        for (const Arc& arc : g.arcs_from(u)) {
          if (arc.to != v) continue;
          const double w = weights[static_cast<std::size_t>(arc.edge)];
          if (!(w > 0.0)) continue;
          if (dist[static_cast<std::size_t>(u)] + w !=
              dist[static_cast<std::size_t>(v)]) {
            continue;
          }
          if (best_u == kInvalidVertex || u < best_u ||
              (u == best_u && arc.edge < best_e)) {
            best_u = u;
            best_e = arc.edge;
          }
        }
      }
      ASSERT_EQ(vertices[k - 1], best_u) << "t=" << t << " step=" << k;
      ASSERT_EQ(path[k - 1], best_e) << "t=" << t << " step=" << k;
    }
  }
}

// One tree query must answer exactly like the per-target single-pair
// queries it replaces (the sharded cache refresh depends on this).
TEST_P(KernelCrossCheckTest, TreeMatchesSinglePairQueries) {
  Rng rng(GetParam() * 131 + 3);
  const int n = 6 + static_cast<int>(rng.next_below(10));
  Graph g = random_graph(n, 3 * n, 1.0, 1.0, rng.next_bool(), rng);
  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.next_double(0.5, 2.0);
  const WeightProfile profile = WeightProfile::scan(weights);

  for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
    ShortestPathEngine tree_engine(g, kernel);
    ShortestPathEngine pair_engine(g, kernel);
    const VertexId s = 0;
    std::vector<ShortestPathEngine::TreeTarget> targets;
    std::vector<Path> tree_paths(static_cast<std::size_t>(n));
    for (VertexId t = 1; t < n; ++t) {
      ShortestPathEngine::TreeTarget target;
      target.vertex = t;
      target.path = &tree_paths[static_cast<std::size_t>(t)];
      targets.push_back(target);
    }
    // Duplicate target: allowed, must answer like the first occurrence.
    Path dup_path;
    targets.push_back({1, 0.0, &dup_path});
    tree_engine.shortest_tree(weights, s, targets, {}, &profile);

    for (const auto& target : targets) {
      Path pair_path;
      const double d = pair_engine.shortest_path(weights, s, target.vertex,
                                                 &pair_path, {}, &profile);
      ASSERT_EQ(target.length, d) << "t=" << target.vertex;
      if (d < kInf) {
        ASSERT_EQ(*target.path, pair_path) << "t=" << target.vertex;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelCrossCheckTest,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8));

TEST(KernelSelection, AutoNeedsProfileAndBoundedRange) {
  Graph g = grid_graph(4, 4, 2.0, false);
  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()), 1.0);
  ShortestPathEngine engine(g);  // kAuto

  // No profile: general-weights fallback.
  engine.shortest_path(weights, 0, 15);
  EXPECT_EQ(engine.last_used_kernel(), SpKernel::kHeap);

  // Bounded positive range: bucket queue.
  WeightProfile profile = WeightProfile::scan(weights);
  engine.shortest_path(weights, 0, 15, nullptr, {}, &profile);
  EXPECT_EQ(engine.last_used_kernel(), SpKernel::kBucket);

  // Range wider than the bucket cap: heap, even when forced to bucket.
  weights[0] = 1e9;
  profile = WeightProfile::scan(weights);
  engine.set_kernel(SpKernel::kBucket);
  engine.shortest_path(weights, 0, 15, nullptr, {}, &profile);
  EXPECT_EQ(engine.last_used_kernel(), SpKernel::kHeap);

  // A zero weight disqualifies the monotone bucket layout.
  weights[0] = 0.0;
  profile = WeightProfile::scan(weights);
  EXPECT_FALSE(profile.all_positive);
  engine.shortest_path(weights, 0, 15, nullptr, {}, &profile);
  EXPECT_EQ(engine.last_used_kernel(), SpKernel::kHeap);
}

TEST(KernelSelection, ProfileIncludeTracksGrowth) {
  std::vector<double> weights{1.0, 2.0, 4.0};
  WeightProfile profile = WeightProfile::scan(weights);
  EXPECT_DOUBLE_EQ(profile.min_positive, 1.0);
  EXPECT_DOUBLE_EQ(profile.max_weight, 4.0);
  profile.include(16.0);
  EXPECT_DOUBLE_EQ(profile.max_weight, 16.0);
  EXPECT_TRUE(profile.all_positive);
  profile.include(0.0);
  EXPECT_FALSE(profile.all_positive);
}

TEST(KernelCrossCheck, BlockedEdgesRespectedByBothKernels) {
  Graph g = grid_graph(4, 4, 2.0, false);
  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()), 1.0);
  const WeightProfile profile = WeightProfile::scan(weights);
  ShortestPathEngine heap(g, SpKernel::kHeap);
  ShortestPathEngine bucket(g, SpKernel::kBucket);
  Rng rng(99);
  for (int round = 0; round < 20; ++round) {
    std::vector<std::uint8_t> blocked(
        static_cast<std::size_t>(g.num_edges()), 0);
    for (auto& b : blocked) b = rng.next_below(4) == 0 ? 1 : 0;
    Path hp;
    Path bp;
    const double dh = heap.shortest_path(weights, 0, 15, &hp, blocked, &profile);
    const double db =
        bucket.shortest_path(weights, 0, 15, &bp, blocked, &profile);
    ASSERT_EQ(dh, db) << "round=" << round;
    if (dh < kInf) ASSERT_EQ(hp, bp);
  }
}

// Kernel choice must not leak into solver output: Bounded-UFP selections,
// paths and duals are identical under heap, bucket and auto.
TEST(KernelCrossCheck, BoundedUfpInvariantUnderKernel) {
  Rng rng(4242);
  Graph g = grid_graph(5, 5, 6.0, false);
  RequestGenConfig cfg;
  cfg.num_requests = 120;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  const UfpInstance inst(std::move(g), std::move(reqs));

  BoundedUfpConfig base;
  base.epsilon = 0.5;
  base.run_to_saturation = true;

  BoundedUfpConfig heap_cfg = base;
  heap_cfg.sp_kernel = SpKernel::kHeap;
  BoundedUfpConfig bucket_cfg = base;
  bucket_cfg.sp_kernel = SpKernel::kBucket;
  BoundedUfpConfig auto_cfg = base;
  auto_cfg.sp_kernel = SpKernel::kAuto;

  const BoundedUfpResult a = bounded_ufp(inst, heap_cfg);
  const BoundedUfpResult b = bounded_ufp(inst, bucket_cfg);
  const BoundedUfpResult c = bounded_ufp(inst, auto_cfg);
  ASSERT_GT(a.iterations, 0);
  EXPECT_EQ(a.solution.selected_requests(), b.solution.selected_requests());
  EXPECT_EQ(a.solution.selected_requests(), c.solution.selected_requests());
  EXPECT_EQ(a.final_dual_sum, b.final_dual_sum);
  EXPECT_EQ(a.final_dual_sum, c.final_dual_sum);
  for (int r = 0; r < inst.num_requests(); ++r) {
    if (!a.solution.is_selected(r)) continue;
    EXPECT_EQ(*a.solution.path_of(r), *b.solution.path_of(r)) << "r=" << r;
    EXPECT_EQ(*a.solution.path_of(r), *c.solution.path_of(r)) << "r=" << r;
  }
}

}  // namespace
}  // namespace tufp
