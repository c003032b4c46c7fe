// Unit coverage for the persistent serving core (DESIGN.md §12): the
// ResidualGraph CSR store's epoch cycle (open/commit/reclaim/reset and
// the stamp-clock invariants), the GenerationMap the solver's shard plan
// is built on, and the engine-side accessors that expose the persistent
// state to telemetry.
#include <gtest/gtest.h>

#include <memory>
#include <stdexcept>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
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
  EXPECT_EQ(rg.epoch_capacities()[2], 2.0);

  // Commit a path over edges {0, 1}: residuals drop, the clock ticks.
  const std::vector<EdgeId> path{0, 1};
  rg.commit_admission(path, 2.5);
  EXPECT_EQ(rg.residual()[0], 1.5);
  EXPECT_EQ(rg.residual()[1], 0.5);
  EXPECT_EQ(rg.residual()[2], 2.0);  // untouched
  EXPECT_GT(rg.clock(), 0);
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

TEST(ResidualGraph, ReclaimTicksTheClock) {
  ResidualGraph rg(make_diamond(), 1.0);
  const std::vector<EdgeId> path{0};
  rg.commit_admission(path, 3.5);
  EXPECT_EQ(rg.residual()[0], 0.5);
  const std::int64_t clock_after_admit = rg.clock();

  // A reclaim writes residual back through mutable_residual() and then
  // declares the touched edges, which ticks the clock: the next
  // open_epoch() rescans instead of taking the clean-epoch fast path.
  rg.open_epoch();
  EXPECT_EQ(rg.epoch_capacities()[0], 0.5);
  rg.mutable_residual()[0] = 4.0;
  rg.note_reclaimed(path);
  EXPECT_GT(rg.clock(), clock_after_admit);
  rg.open_epoch();
  EXPECT_EQ(rg.epoch_capacities()[0], 4.0);
  EXPECT_EQ(rg.blocked()[0], 0);
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
  EXPECT_EQ(rg.num_active(), 3);
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

  // The engine owns a ResidualGraph, and residual() reads through the
  // store.
  EpochEngine engine(base, EpochEngineConfig{});
  ASSERT_NE(engine.residual_graph(), nullptr);
  EXPECT_EQ(engine.residual().data(), engine.residual_graph()->residual().data());

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
