// Solver substrate (internal header): the one description of an epoch's
// problem that Bounded-UFP, Bounded-UFP-Repeat and BKV all run against.
//
// Every solver takes a UfpInstance (the offline mechanism, the lab, and
// the sim oracles' cold reference replay, which solves a value-copied
// snapshot per epoch). Algorithm 1 alone also runs over the engine's
// persistent residual graph: the base graph plus a blocked mask
// (graph/residual_csr.hpp), with base edge ids as solver edge ids. This
// struct is the common denominator: both lowerings meet here, and each
// solver's core loop is written once against it. The two lowerings are
// byte-equivalent on the active edge set — a compiled snapshot's arc
// lists are order-preserving subsequences of the base arc lists, so the
// canonical searches, tie-breaks and dual arithmetic agree bitwise
// (enforced end-to-end by the engine-differential sim oracle).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp::detail {

struct Substrate {
  const Graph* graph = nullptr;
  // Per base edge; over a residual graph, the epoch-start residuals.
  std::span<const double> capacities;
  std::span<const Request> requests;
  // Empty means every edge is active (the instance lowering).
  std::span<const std::uint8_t> blocked;
  double B = 0.0;  // min active capacity, the paper's bound
  int num_active = 0;
  // The owning ResidualGraph's stamp clock at lowering time (-1 for the
  // instance lowering). An unchanged clock certifies that capacities and
  // blocked mask are bitwise what they were — the key for the
  // workspace's epoch-start solve-state cache (workspace_access.hpp).
  std::int64_t clock = -1;
};

inline Substrate substrate_of(const UfpInstance& instance) {
  Substrate s;
  s.graph = &instance.graph();
  s.capacities = instance.graph().capacities();
  s.requests = instance.requests();
  s.B = instance.bound_B();
  s.num_active = instance.graph().num_edges();
  return s;
}

inline Substrate substrate_of(const ResidualGraph& rgraph,
                              std::span<const Request> requests) {
  Substrate s;
  s.graph = &rgraph.base();
  s.capacities = rgraph.epoch_capacities();
  s.requests = requests;
  s.blocked = rgraph.blocked();
  s.B = rgraph.min_residual();
  s.num_active = rgraph.num_active();
  s.clock = rgraph.clock();
  return s;
}

inline bool edge_active(const Substrate& s, std::size_t e) {
  return s.blocked.empty() || !s.blocked[e];
}

// The validation the UfpInstance constructor performs, applied to a raw
// request span for the residual-graph entry points; plus the
// normalized-demand precondition every solver shares.
inline void validate_requests(const Substrate& s) {
  const int n = s.graph->num_vertices();
  for (const Request& r : s.requests) {
    TUFP_REQUIRE(r.source >= 0 && r.source < n && r.target >= 0 &&
                     r.target < n,
                 "request endpoint out of range");
    TUFP_REQUIRE(r.source != r.target, "request with source == target");
    TUFP_REQUIRE(r.demand > 0.0 && r.value > 0.0,
                 "request with non-positive demand or value");
    TUFP_REQUIRE(r.demand <= 1.0 + 1e-12,
                 "solvers require normalized demands in (0,1]");
  }
}

// Line 4 of Alg. 1 over the active edge set: y_e = 1/c_e on active edges
// and 0 on blocked ones (never read — searches skip blocked edges before
// reading their weight), D1(0) = sum_e c_e y_e = |active|, and the
// weight profile folded over active weights only (so bucket-queue
// eligibility matches the compiled-subgraph baseline exactly).
inline void init_duals(const Substrate& s, std::vector<double>* y,
                       double* dual_sum, WeightProfile* profile) {
  const std::size_t m = s.capacities.size();
  y->assign(m, 0.0);
  for (std::size_t e = 0; e < m; ++e) {
    if (!edge_active(s, e)) continue;
    (*y)[e] = 1.0 / s.capacities[e];
    profile->include((*y)[e]);
  }
  *dual_sum = static_cast<double>(s.num_active);
}

}  // namespace tufp::detail
