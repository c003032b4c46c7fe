// Unit coverage for the persistent serving core (DESIGN.md §12): the
// ResidualGraph CSR store's epoch cycle (open/commit/reclaim/reset and
// the stamp-clock invariants), the arena primitives its caches are built
// on (GenerationMap, BumpArena), the cross-epoch SourceTreeCache with
// its generation-reset eviction, and the engine-side accessors that
// expose the persistent state to telemetry.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/graph.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/util/arena.hpp"
#include "tufp/util/math.hpp"

namespace tufp {
namespace {

// 0 -> 1 -> 2 plus a direct 0 -> 2 edge, distinct capacities so every
// edge is identifiable by its residual.
std::shared_ptr<const Graph> make_diamond() {
  Graph g = Graph::directed(3);
  g.add_edge(0, 1, 4.0);  // edge 0
  g.add_edge(1, 2, 3.0);  // edge 1
  g.add_edge(0, 2, 2.0);  // edge 2
  g.finalize();
  return std::make_shared<const Graph>(std::move(g));
}

TEST(ResidualGraph, EpochCycleUpdatesInPlace) {
  ResidualGraph rg(make_diamond(), 1.0);

  // The constructor opens epoch 0: all edges active, capacities frozen.
  EXPECT_EQ(rg.num_active(), 3);
  EXPECT_EQ(rg.num_saturated(), 0);
  EXPECT_EQ(rg.min_residual(), 2.0);
  EXPECT_EQ(rg.clock(), 0);
  EXPECT_EQ(rg.last_decrease(), 0);
  EXPECT_EQ(rg.epoch_capacities()[2], 2.0);

  // Commit a path over edges {0, 1}: residuals drop, stamps advance.
  const std::vector<EdgeId> path{0, 1};
  rg.commit_admission(path, 2.5);
  EXPECT_EQ(rg.residual()[0], 1.5);
  EXPECT_EQ(rg.residual()[1], 0.5);
  EXPECT_EQ(rg.residual()[2], 2.0);  // untouched
  EXPECT_GT(rg.clock(), 0);
  EXPECT_EQ(rg.stamps()[0], rg.clock());
  EXPECT_EQ(rg.stamps()[1], rg.clock());
  EXPECT_EQ(rg.stamps()[2], 0);
  // Admissions only increase weights: last_decrease stays put.
  EXPECT_EQ(rg.last_decrease(), 0);
  // Epoch-start capacities are frozen; only the live residual moved.
  EXPECT_EQ(rg.epoch_capacities()[0], 4.0);

  // Re-opening the epoch blocks edge 1 (residual 0.5 < floor 1.0).
  rg.open_epoch();
  EXPECT_EQ(rg.num_active(), 2);
  EXPECT_EQ(rg.num_saturated(), 1);
  EXPECT_NE(rg.blocked()[1], 0);
  EXPECT_EQ(rg.blocked()[0], 0);
  EXPECT_EQ(rg.min_residual(), 1.5);
  EXPECT_EQ(rg.epoch_capacities()[1], 0.5);

  // The clamp rule: residual never goes negative.
  const std::vector<EdgeId> direct{2};
  rg.commit_admission(direct, 99.0);
  EXPECT_EQ(rg.residual()[2], 0.0);
}

TEST(ResidualGraph, ReclaimBumpsLastDecrease) {
  ResidualGraph rg(make_diamond(), 1.0);
  const std::vector<EdgeId> path{0};
  rg.commit_admission(path, 3.5);
  EXPECT_EQ(rg.residual()[0], 0.5);
  const std::int64_t clock_after_admit = rg.clock();

  // A reclaim writes residual back through mutable_residual() and then
  // declares the touched edges; the stamp AND last_decrease both move —
  // a residual increase is the one direction stored trees cannot
  // certify against.
  rg.mutable_residual()[0] = 4.0;
  rg.note_reclaimed(path);
  EXPECT_GT(rg.clock(), clock_after_admit);
  EXPECT_EQ(rg.stamps()[0], rg.clock());
  EXPECT_EQ(rg.last_decrease(), rg.clock());
}

TEST(ResidualGraph, ResetRestoresBaseAndRestartsClock) {
  ResidualGraph rg(make_diamond(), 1.0);
  const std::vector<EdgeId> path{0, 1};
  rg.commit_admission(path, 3.0);
  rg.open_epoch();
  rg.reset();
  EXPECT_EQ(rg.residual()[0], 4.0);
  EXPECT_EQ(rg.residual()[1], 3.0);
  EXPECT_EQ(rg.clock(), 0);
  EXPECT_EQ(rg.last_decrease(), 0);
  EXPECT_EQ(rg.stamps()[0], 0);
  EXPECT_EQ(rg.num_active(), 3);
}

TEST(ResidualGraph, ViewIsANonOwningWindow) {
  ResidualGraph rg(make_diamond(), 1.0);
  const ResidualView view = rg.view();
  EXPECT_EQ(&view.base(), &rg.base());
  EXPECT_EQ(view.num_active(), 3);
  EXPECT_EQ(view.bound_B(), 2.0);

  // Commits through the view mutate the owning store.
  const std::vector<EdgeId> path{2};
  view.commit_admission(path, 1.0);
  EXPECT_EQ(rg.residual()[2], 1.0);
  EXPECT_EQ(view.residual()[2], 1.0);
  EXPECT_EQ(view.clock(), rg.clock());

  // make_instance materializes the base graph for offline consumers.
  std::vector<Request> requests{{0, 2, 1.0, 5.0}};
  const UfpInstance instance = view.make_instance(requests);
  EXPECT_EQ(instance.graph().num_vertices(), 3);
  EXPECT_EQ(instance.num_requests(), 1);
}

TEST(GenerationMap, AdvanceIsAWholesaleReset) {
  GenerationMap<int> map(4, -1);
  EXPECT_EQ(map.get(2), -1);
  map.set(2, 7);
  map.set(0, 3);
  EXPECT_EQ(map.get(2), 7);
  EXPECT_EQ(map.get(0), 3);
  map.advance();
  // Every slot logically reset without a rewrite.
  EXPECT_EQ(map.get(2), -1);
  EXPECT_EQ(map.get(0), -1);
  map.set(2, 9);
  EXPECT_EQ(map.get(2), 9);
  EXPECT_EQ(map.get(0), -1);

  // Growing the universe re-stamps; shrinking to the same size advances.
  map.reset(8, -2);
  EXPECT_EQ(map.size(), 8u);
  EXPECT_EQ(map.get(2), -2);
}

TEST(BumpArena, SpansSurviveLaterAllocations) {
  BumpArena arena(64);  // tiny chunks force multi-chunk growth
  auto a = arena.allocate<std::int64_t>(4);
  for (int i = 0; i < 4; ++i) a[i] = 100 + i;
  auto b = arena.allocate<double>(32);  // spills into a new chunk
  for (int i = 0; i < 32; ++i) b[i] = 0.5 * i;
  // allocate() never invalidates previously returned spans.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(a[i], 100 + i);
  EXPECT_GE(arena.bytes_allocated(), 4 * sizeof(std::int64_t));

  arena.reset();
  EXPECT_EQ(arena.bytes_allocated(), 0u);
  // Memory is retained: a fresh allocation succeeds immediately.
  auto c = arena.allocate<int>(4);
  c[0] = 1;
  EXPECT_EQ(c[0], 1);
}

TEST(SourceTreeCache, StoreLookupAndGenerationEviction) {
  const std::shared_ptr<const Graph> base = make_diamond();
  const std::vector<double> weights{1.0, 1.0, 3.0};

  ShortestPathEngine engine(*base, SpKernel::kHeap);
  engine.set_record_settled(true);

  SourceTreeCache::Limits limits;
  limits.max_trees = 2;
  SourceTreeCache cache(limits);
  EXPECT_EQ(cache.lookup(0), nullptr);

  // Run a full tree query from source 0 and snapshot it.
  std::vector<ShortestPathEngine::TreeTarget> targets{{1, 0.0, nullptr},
                                                      {2, 0.0, nullptr}};
  engine.shortest_tree(weights, 0, targets);
  cache.store(0, engine, /*computed_clock=*/5);
  ASSERT_EQ(cache.num_trees(), 1u);

  const SourceTreeCache::Tree* tree = cache.lookup(0);
  ASSERT_NE(tree, nullptr);
  EXPECT_EQ(tree->source, 0);
  EXPECT_EQ(tree->computed_clock, 5);
  // 0 -> 1 -> 2 (length 2) beats the direct edge (length 3).
  const int idx2 = tree->index_of(2);
  ASSERT_GE(idx2, 0);
  EXPECT_EQ(tree->dist[static_cast<std::size_t>(idx2)], 2.0);
  EXPECT_EQ(tree->parent_vertex[static_cast<std::size_t>(idx2)], 1);
  EXPECT_EQ(tree->index_of(42), -1);

  // A second source fills the cache to its limit...
  std::vector<ShortestPathEngine::TreeTarget> from1{{2, 0.0, nullptr}};
  engine.shortest_tree(weights, 1, from1);
  cache.store(1, engine, 6);
  EXPECT_EQ(cache.num_trees(), 2u);
  const std::int64_t generation_before = cache.generation();

  // ...and a third store exceeds it WITHOUT evicting: store() runs on
  // the OpenMP refresh workers, where an eviction would make the
  // surviving tree set thread-schedule dependent. The limits are soft
  // until the serial enforce_limits() point. (Vertex 2 has no outgoing
  // edges, so this tree records only its source — unreachable targets
  // are a legal tree to cache.)
  std::vector<ShortestPathEngine::TreeTarget> from2{{0, 0.0, nullptr}};
  engine.shortest_tree(weights, 2, from2);
  cache.store(2, engine, 7);
  EXPECT_EQ(cache.evictions(), 0);
  EXPECT_EQ(cache.num_trees(), 3u);
  EXPECT_EQ(cache.generation(), generation_before);
  EXPECT_NE(cache.lookup(0), nullptr);
  EXPECT_EQ(cache.stores(), 3);

  // The serial point applies the wholesale generation-reset eviction:
  // arena rewound, every tree gone, generation bumped.
  cache.enforce_limits();
  EXPECT_EQ(cache.evictions(), 1);
  EXPECT_GT(cache.generation(), generation_before);
  EXPECT_EQ(cache.num_trees(), 0u);
  EXPECT_EQ(cache.lookup(0), nullptr);
  EXPECT_EQ(cache.lookup(2), nullptr);

  // Back under the limit nothing is evicted.
  cache.enforce_limits();
  EXPECT_EQ(cache.evictions(), 1);

  cache.clear();
  EXPECT_EQ(cache.num_trees(), 0u);
  EXPECT_EQ(cache.lookup(2), nullptr);
}

TEST(SourceTreeCache, ReclaimRevalidationOnlyDropsTouchedTrees) {
  const std::shared_ptr<const Graph> base = make_diamond();
  const std::vector<double> weights{1.0, 1.0, 3.0};

  ShortestPathEngine engine(*base, SpKernel::kHeap);
  engine.set_record_settled(true);
  SourceTreeCache cache;

  // Tree A from source 0 settles {0, 1, 2}; tree B from source 2 settles
  // only {2} (no outgoing edges, radius-exhausted).
  std::vector<ShortestPathEngine::TreeTarget> from0{{2, 0.0, nullptr}};
  engine.shortest_tree(weights, 0, from0);
  cache.store(0, engine, /*computed_clock=*/5);
  std::vector<ShortestPathEngine::TreeTarget> from2{{0, 0.0, nullptr}};
  engine.shortest_tree(weights, 2, from2);
  cache.store(2, engine, 5);
  ASSERT_EQ(cache.num_trees(), 2u);

  // Reclaim edge 0 (0 -> 1): its usable endpoint (the tail, 0) lies in
  // tree A's settled set but not in tree B's — exactly one tree must
  // die. The old wholesale generation reset dropped both.
  const std::vector<EdgeId> reclaimed{0};
  const SourceTreeCache::ReclaimRevalidation out =
      cache.revalidate_after_reclaim(*base, reclaimed, /*clock_after=*/9);
  EXPECT_EQ(out.dropped, 1);
  EXPECT_EQ(out.kept, 1);
  EXPECT_EQ(cache.num_trees(), 1u);
  EXPECT_EQ(cache.lookup(0), nullptr);

  // The survivor is revalidated through the post-reclaim clock, so the
  // warm path's last_decrease() check keeps passing for it.
  const SourceTreeCache::Tree* survivor = cache.lookup(2);
  ASSERT_NE(survivor, nullptr);
  EXPECT_EQ(survivor->computed_clock, 5);
  EXPECT_EQ(survivor->validated_clock, 9);

  // An empty reclaim batch is a no-op: nothing counted, nothing dropped.
  const SourceTreeCache::ReclaimRevalidation quiet =
      cache.revalidate_after_reclaim(*base, {}, /*clock_after=*/11);
  EXPECT_EQ(quiet.kept, 0);
  EXPECT_EQ(quiet.dropped, 0);
  EXPECT_EQ(cache.num_trees(), 1u);
}

TEST(ResidualGraph, OpenEpochEnforcesTheReclaimWriteBackContract) {
  ResidualGraph rg(make_diamond(), 1.0);

  // A compliant writer: take the span, write, declare the touched edges.
  const std::vector<EdgeId> touched{0};
  rg.mutable_residual()[0] = 3.0;
  rg.note_reclaimed(touched);
  EXPECT_NO_THROW(rg.open_epoch());

  // The deliberately-broken driver: writes through mutable_residual()
  // and forgets the stamp. The next epoch must refuse to solve instead
  // of silently serving stale fit verdicts (DESIGN.md §10's admit →
  // expire → re-admit starvation).
  rg.mutable_residual()[0] = 4.0;
  EXPECT_THROW(rg.open_epoch(), std::logic_error);

  // Declaring the touched edges closes the window and service resumes.
  rg.note_reclaimed(touched);
  EXPECT_NO_THROW(rg.open_epoch());
  EXPECT_EQ(rg.epoch_capacities()[0], 4.0);

  // The empty-span idiom: a writer that took the span but drained
  // nothing reports done with note_reclaimed({}) — no clock tick, no
  // invalidation, window closed.
  const std::int64_t clock_before = rg.clock();
  (void)rg.mutable_residual();
  rg.note_reclaimed({});
  EXPECT_NO_THROW(rg.open_epoch());
  EXPECT_EQ(rg.clock(), clock_before);
}

TEST(ResidualGraph, EngineExposesPersistentStateAndTelemetry) {
  const std::shared_ptr<const Graph> base = make_diamond();

  // The engine owns a ResidualGraph and a cross-epoch workspace, and
  // residual() reads through the store.
  EpochEngine engine(base, EpochEngineConfig{});
  ASSERT_NE(engine.residual_graph(), nullptr);
  ASSERT_NE(engine.workspace(), nullptr);
  EXPECT_EQ(engine.residual().data(), engine.residual_graph()->residual().data());
  EXPECT_GE(engine.workspace()->warm_tree_hits(), 0);
  EXPECT_GE(engine.workspace()->warm_entries_served(), 0);
  EXPECT_GE(engine.workspace()->shard_plan_builds(), 0);
  EXPECT_GE(engine.workspace()->shard_plan_reuses(), 0);

  TimedRequest req;
  req.arrival_time = 0.0;
  req.sequence = 0;
  req.duration = kInf;
  req.request = {0, 2, 1.0, 5.0};
  const AdmissionReport report = engine.run_epoch({req});
  EXPECT_EQ(report.admitted, 1);
  // The admission went through the persistent store in place.
  EXPECT_GT(engine.residual_graph()->clock(), 0);
}

}  // namespace
}  // namespace tufp
