// Algorithm 3: Bounded-UFP-Repeat(eps) — unsplittable flow with
// repetitions (paper §5).
//
// Identical primal-dual skeleton to Algorithm 1 except requests are never
// removed: the same request may be satisfied many times over possibly
// different paths, and the profit is proportional to the number of
// satisfactions. In sharp contrast to the e/(e-1) barrier of the
// no-repetition problem, this variant achieves (1+eps)-approximation
// (Theorem 5.1); the run time is polynomial in m and c_max/d_min because
// every iteration inflates some y_e by at least e^{eps*B*d_min/c_max}.
#pragma once

#include <vector>

#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/ufp/solution.hpp"

namespace tufp {

struct BoundedUfpRepeatConfig {
  double epsilon = 1.0 / 6.0;
  bool capacity_guard = true;   // same semantics as BoundedUfpConfig
  int num_threads = 1;  // same semantics as BoundedUfpConfig
  // Hard stop on iteration count (defense against tiny d_min blowing up
  // the m*c_max/d_min bound); 0 disables.
  std::int64_t max_iterations = 0;
};

struct BoundedUfpRepeatResult {
  UfpMultiSolution solution;
  std::int64_t iterations = 0;
  double final_dual_sum = 0.0;
  std::vector<double> y{};
  // min_i D(i)/alpha(i) (Claim 5.2): upper bound on the fractional OPT of
  // Figure 5's relaxation.
  double dual_upper_bound = 0.0;
  bool stopped_by_threshold = false;
  bool hit_iteration_cap = false;
  // Dijkstra computations performed (see BoundedUfpResult::sp_computations).
  std::int64_t sp_computations = 0;
  std::vector<IterationRecord> trace{};
};

BoundedUfpRepeatResult bounded_ufp_repeat(
    const UfpInstance& instance, const BoundedUfpRepeatConfig& config = {});

}  // namespace tufp
