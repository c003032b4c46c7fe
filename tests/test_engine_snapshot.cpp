#include "tufp/sim/snapshot.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <stdexcept>
#include <vector>

#include "tufp/graph/generators.hpp"

namespace tufp {
namespace {

std::shared_ptr<const Graph> small_grid(double capacity) {
  return std::make_shared<const Graph>(
      grid_graph(3, 3, capacity, /*directed=*/false));
}

TEST(GraphSnapshot, FullResidualKeepsEveryEdge) {
  const auto base = small_grid(5.0);
  const std::vector<double> residual(
      static_cast<std::size_t>(base->num_edges()), 5.0);
  const GraphSnapshot snap = GraphSnapshot::compile(base, residual);

  EXPECT_EQ(snap.num_active_edges(), base->num_edges());
  EXPECT_EQ(snap.num_saturated_edges(), 0);
  EXPECT_DOUBLE_EQ(snap.min_residual(), 5.0);
  EXPECT_EQ(snap.graph()->num_vertices(), base->num_vertices());
  for (EdgeId e = 0; e < snap.graph()->num_edges(); ++e) {
    EXPECT_EQ(snap.base_edge(e), e);  // no edge dropped => identity map
    EXPECT_DOUBLE_EQ(snap.graph()->capacity(e), 5.0);
  }
}

TEST(GraphSnapshot, SaturatedEdgesLeaveTheSnapshot) {
  const auto base = small_grid(5.0);
  std::vector<double> residual(static_cast<std::size_t>(base->num_edges()),
                               5.0);
  residual[0] = 0.4;  // below the floor of 1.0
  residual[3] = 0.999;
  residual[5] = 1.0;  // exactly at the floor: stays

  const GraphSnapshot snap = GraphSnapshot::compile(base, residual);
  EXPECT_EQ(snap.num_saturated_edges(), 2);
  EXPECT_EQ(snap.num_active_edges(), base->num_edges() - 2);
  EXPECT_DOUBLE_EQ(snap.min_residual(), 1.0);

  // The mapping translates each surviving edge to its base endpoints and
  // residual capacity.
  for (EdgeId e = 0; e < snap.graph()->num_edges(); ++e) {
    const EdgeId b = snap.base_edge(e);
    EXPECT_NE(b, 0);
    EXPECT_NE(b, 3);
    EXPECT_EQ(snap.graph()->endpoints(e), base->endpoints(b));
    EXPECT_DOUBLE_EQ(snap.graph()->capacity(e),
                     residual[static_cast<std::size_t>(b)]);
  }
}

TEST(GraphSnapshot, FloorKeepsResidualsOfOneAndAbove) {
  // The floor is the largest normalized demand: a residual of exactly 1.0
  // stays in the snapshot, the next double below it does not.
  const auto base = small_grid(5.0);
  std::vector<double> residual(static_cast<std::size_t>(base->num_edges()),
                               5.0);
  residual[1] = std::nextafter(1.0, 0.0);
  residual[2] = 1.0;
  const GraphSnapshot snap = GraphSnapshot::compile(base, residual);
  EXPECT_EQ(snap.num_saturated_edges(), 1);
  EXPECT_EQ(snap.num_active_edges(), base->num_edges() - 1);
  EXPECT_EQ(snap.base_edge(1), 2);  // edge 1 dropped, edge 2 kept
  EXPECT_EQ(snap.min_residual(), 1.0);
}

TEST(GraphSnapshot, FullySaturatedNetworkCompilesToEdgelessGraph) {
  const auto base = small_grid(2.0);
  const std::vector<double> residual(
      static_cast<std::size_t>(base->num_edges()), 0.0);
  const GraphSnapshot snap = GraphSnapshot::compile(base, residual);
  EXPECT_EQ(snap.num_active_edges(), 0);
  EXPECT_EQ(snap.num_saturated_edges(), base->num_edges());
  EXPECT_TRUE(snap.graph()->finalized());
  EXPECT_EQ(snap.graph()->num_edges(), 0);
}

TEST(GraphSnapshot, PreservesDirectedness) {
  Graph g = Graph::directed(3);
  g.add_edge(0, 1, 4.0);
  g.add_edge(1, 2, 4.0);
  g.finalize();
  const auto base = std::make_shared<const Graph>(std::move(g));
  const std::vector<double> residual{4.0, 2.5};
  const GraphSnapshot snap = GraphSnapshot::compile(base, residual);
  EXPECT_TRUE(snap.graph()->is_directed());
  EXPECT_EQ(snap.num_active_edges(), 2);
  EXPECT_DOUBLE_EQ(snap.min_residual(), 2.5);
}

TEST(GraphSnapshot, RejectsBadInputs) {
  const auto base = small_grid(5.0);
  const std::vector<double> short_residual(3, 1.0);
  EXPECT_THROW(GraphSnapshot::compile(base, short_residual),
               std::invalid_argument);

  std::vector<double> above(static_cast<std::size_t>(base->num_edges()), 5.0);
  above[2] = 6.0;  // residual above base capacity
  EXPECT_THROW(GraphSnapshot::compile(base, above), std::invalid_argument);
}

}  // namespace
}  // namespace tufp
