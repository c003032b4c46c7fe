// Unit coverage for the persistent serving core (DESIGN.md §12): the
// ResidualGraph CSR store's epoch cycle (open/commit/reclaim/reset, the
// dirty-edge list against a from-scratch rescan, the solve overlay's
// rollback), the GenerationMap the solver's shard plan is built on, and
// the engine-side accessors that expose the persistent state to
// telemetry.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/graph/graph.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/util/arena.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"

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

// The epoch-start duals, read through a solve overlay that writes nothing.
std::vector<double> duals_of(ResidualGraph& rg) {
  ResidualGraph::SolveOverlay overlay(rg);
  return {overlay.duals().begin(), overlay.duals().end()};
}

TEST(ResidualGraph, EpochCycleUpdatesInPlace) {
  ResidualGraph rg(make_diamond(), 1.0);

  // The constructor opens epoch 0: all edges active, capacities frozen.
  EXPECT_EQ(rg.num_active(), 3);
  EXPECT_EQ(rg.num_saturated(), 0);
  EXPECT_EQ(rg.min_residual(), 2.0);
  EXPECT_EQ(rg.epoch_capacities()[2], 2.0);
  EXPECT_EQ(duals_of(rg)[0], 0.25);
  EXPECT_EQ(rg.dual_profile().min_positive, 0.25);
  EXPECT_EQ(rg.dual_profile().max_weight, 0.5);

  // Commit a path over edges {0, 1}: the live residuals drop.
  const std::vector<EdgeId> path{0, 1};
  rg.commit_admission(path, 2.5);
  EXPECT_EQ(rg.residual()[0], 1.5);
  EXPECT_EQ(rg.residual()[1], 0.5);
  EXPECT_EQ(rg.residual()[2], 2.0);  // untouched
  // The epoch-start state is frozen until the next open.
  EXPECT_EQ(rg.epoch_capacities()[0], 4.0);
  EXPECT_EQ(duals_of(rg)[0], 0.25);

  // Re-opening the epoch blocks edge 1 (residual 0.5 < floor 1.0).
  rg.open_epoch();
  EXPECT_EQ(rg.num_active(), 2);
  EXPECT_EQ(rg.num_saturated(), 1);
  EXPECT_NE(rg.blocked()[1], 0);
  EXPECT_EQ(rg.blocked()[0], 0);
  EXPECT_EQ(rg.min_residual(), 1.5);
  EXPECT_EQ(rg.epoch_capacities()[1], 0.5);
  EXPECT_EQ(duals_of(rg)[0], 1.0 / 1.5);
  EXPECT_EQ(duals_of(rg)[1], 0.0);  // blocked
  EXPECT_EQ(rg.dual_profile().max_weight, 1.0 / 1.5);

  // The clamp rule: residual never goes negative.
  const std::vector<EdgeId> direct{2};
  rg.commit_admission(direct, 99.0);
  EXPECT_EQ(rg.residual()[2], 0.0);
}

TEST(ResidualGraph, ReclaimReachesTheNextEpoch) {
  ResidualGraph rg(make_diamond(), 1.0);
  const std::vector<EdgeId> path{0};
  rg.commit_admission(path, 3.5);
  EXPECT_EQ(rg.residual()[0], 0.5);

  // A reclaim writes residual back through mutable_residual() and then
  // declares the touched edges, which lists them as dirty: the next
  // open_epoch() re-derives them instead of keeping the blocked state.
  rg.open_epoch();
  EXPECT_EQ(rg.epoch_capacities()[0], 0.5);
  EXPECT_NE(rg.blocked()[0], 0);
  EXPECT_EQ(rg.num_active(), 2);
  rg.mutable_residual()[0] = 4.0;
  rg.note_reclaimed(path);
  rg.open_epoch();
  EXPECT_EQ(rg.epoch_capacities()[0], 4.0);
  EXPECT_EQ(rg.blocked()[0], 0);
  EXPECT_EQ(duals_of(rg)[0], 0.25);
  EXPECT_EQ(rg.num_active(), 3);
  EXPECT_EQ(rg.min_residual(), 2.0);
}

TEST(ResidualGraph, ResetRestoresBase) {
  ResidualGraph rg(make_diamond(), 1.0);
  const std::vector<EdgeId> path{0, 1};
  rg.commit_admission(path, 3.0);
  rg.open_epoch();
  EXPECT_EQ(rg.num_active(), 2);
  rg.reset();
  EXPECT_EQ(rg.residual()[0], 4.0);
  EXPECT_EQ(rg.residual()[1], 3.0);
  // The epoch-start state is the base graph's again, with nothing left
  // on the dirty list: a further open changes nothing.
  EXPECT_EQ(rg.epoch_capacities()[1], 3.0);
  EXPECT_EQ(rg.blocked()[1], 0);
  EXPECT_EQ(duals_of(rg)[1], 1.0 / 3.0);
  EXPECT_EQ(rg.num_active(), 3);
  EXPECT_EQ(rg.min_residual(), 2.0);
  rg.open_epoch();
  EXPECT_EQ(rg.epoch_capacities()[1], 3.0);
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
  // nothing reports done with note_reclaimed({}) — nothing listed as
  // dirty, window closed.
  (void)rg.mutable_residual();
  rg.note_reclaimed({});
  EXPECT_NO_THROW(rg.open_epoch());
  EXPECT_EQ(rg.epoch_capacities()[0], 4.0);
  EXPECT_EQ(rg.num_active(), 3);
}

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// Mixed capacities over a random digraph: a few levels, two of them below
// the floor (born blocked), drawn in short runs so the constructor's fold
// of equal neighbours is exercised too.
std::shared_ptr<const Graph> make_mixed(Rng& rng) {
  constexpr int kVertices = 12;
  const double levels[] = {0.5, 0.75, 1.0, 1.5, 2.0, 3.0, 7.25};
  Graph g = Graph::directed(kVertices);
  double cap = 2.0;
  for (int i = 0; i < 60; ++i) {
    const auto u = static_cast<VertexId>(rng.next_below(kVertices));
    auto v = static_cast<VertexId>(rng.next_below(kVertices - 1));
    if (v >= u) ++v;
    if (rng.next_bool(0.4)) cap = levels[rng.next_below(std::size(levels))];
    g.add_edge(u, v, cap);
  }
  g.finalize();
  return std::make_shared<const Graph>(std::move(g));
}

// Every exposed array and scalar of a freshly opened epoch against the
// O(m) rescan the dirty list replaces, bitwise.
void expect_matches_rescan(ResidualGraph& rg) {
  const auto m = static_cast<std::size_t>(rg.base().num_edges());
  const std::vector<double> duals = duals_of(rg);
  int active = 0;
  double min_residual = kInf;
  WeightProfile fold;
  for (std::size_t e = 0; e < m; ++e) {
    const double r = rg.residual()[e];
    const bool on = r >= rg.min_usable_capacity();
    ASSERT_EQ(bits(rg.epoch_capacities()[e]), bits(r)) << "edge " << e;
    ASSERT_EQ(rg.blocked()[e] == 0, on) << "edge " << e;
    ASSERT_EQ(bits(duals[e]), bits(on ? 1.0 / r : 0.0)) << "edge " << e;
    if (!on) continue;
    ++active;
    min_residual = std::min(min_residual, r);
    fold.include(1.0 / r);
  }
  EXPECT_EQ(rg.num_active(), active);
  EXPECT_EQ(rg.num_saturated(), static_cast<int>(m) - active);
  EXPECT_EQ(bits(rg.min_residual()), bits(min_residual));
  const WeightProfile profile = rg.dual_profile();
  EXPECT_EQ(bits(profile.min_positive), bits(fold.min_positive));
  EXPECT_EQ(bits(profile.max_weight), bits(fold.max_weight));
  EXPECT_EQ(profile.all_positive, fold.all_positive);
}

// A solve's worth of overlay writes, then the rollback: the duals and the
// working residual must read the epoch-start state again, bitwise.
void write_and_roll_back(ResidualGraph& rg, Rng& rng) {
  const std::vector<double> duals = duals_of(rg);
  const auto m = rg.base().num_edges();
  {
    ResidualGraph::SolveOverlay overlay(rg);
    std::vector<std::uint8_t> logged(static_cast<std::size_t>(m), 0);
    for (int k = 0; k < 8; ++k) {
      const auto e = static_cast<EdgeId>(rng.next_below(m));
      const auto i = static_cast<std::size_t>(e);
      if (rg.blocked()[i]) continue;  // searches never reach them
      if (!logged[i]) {
        logged[i] = 1;
        overlay.written().push_back(e);
      }
      overlay.duals()[i] *= 3.0;
      overlay.residual()[i] -= 0.5;
    }
  }
  ResidualGraph::SolveOverlay overlay(rg);
  for (std::size_t e = 0; e < duals.size(); ++e) {
    ASSERT_EQ(bits(overlay.duals()[e]), bits(duals[e])) << "edge " << e;
    ASSERT_EQ(bits(overlay.residual()[e]), bits(rg.epoch_capacities()[e]))
        << "edge " << e;
  }
}

TEST(ResidualGraph, DirtyListMatchesAFullRescanUnderRandomChurn) {
  for (std::uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(::testing::Message() << "seed " << seed);
    Rng rng(seed);
    const std::shared_ptr<const Graph> base = make_mixed(rng);
    const auto m = base->num_edges();
    ResidualGraph rg(base, 1.0);
    expect_matches_rescan(rg);
    // Long enough that the extremes' stale heap entries get compacted.
    for (int step = 0; step < 8000; ++step) {
      const double op = rng.next_double();
      if (op < 0.35) {
        std::vector<EdgeId> path;
        const auto len = 1 + rng.next_below(4);
        for (std::uint64_t k = 0; k < len; ++k) {
          path.push_back(static_cast<EdgeId>(rng.next_below(m)));
        }
        rg.commit_admission(path, rng.next_double(0.05, 1.0));
      } else if (op < 0.65) {
        // A reclaim: raise a few residuals (some snap exactly back to the
        // base capacity, undoing earlier commits) and declare them, one
        // edge possibly twice.
        const std::span<double> residual = rg.mutable_residual();
        std::vector<EdgeId> touched;
        const auto count = rng.next_below(4);
        for (std::uint64_t k = 0; k < count; ++k) {
          const auto e = static_cast<EdgeId>(rng.next_below(m));
          const auto i = static_cast<std::size_t>(e);
          const double cap = base->capacities()[i];
          residual[i] = rng.next_bool(0.5)
                            ? cap
                            : std::min(cap, residual[i] + rng.next_double());
          touched.push_back(e);
        }
        rg.note_reclaimed(touched);
      } else if (op < 0.9995) {
        rg.open_epoch();
        expect_matches_rescan(rg);
        if (rng.next_bool(0.3)) write_and_roll_back(rg, rng);
      } else {
        rg.reset();
        expect_matches_rescan(rg);
      }
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(ResidualGraph, OverlayAndOpenAreExclusive) {
  ResidualGraph rg(make_diamond(), 1.0);
  ResidualGraph::SolveOverlay overlay(rg);
  EXPECT_THROW(rg.open_epoch(), std::logic_error);
  EXPECT_THROW(rg.reset(), std::logic_error);
  EXPECT_THROW(ResidualGraph::SolveOverlay second(rg), std::logic_error);
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
  // The admission went through the persistent store in place: the direct
  // edge 2 (dual 1/2, against 1/4 + 1/3 around) carries it, and the
  // epoch-start state waits for the next open.
  EXPECT_EQ(engine.residual()[2], 1.0);
  EXPECT_EQ(engine.residual_graph()->epoch_capacities()[2], 2.0);
}

}  // namespace
}  // namespace tufp
