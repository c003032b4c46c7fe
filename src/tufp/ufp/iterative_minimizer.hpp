// Generic reasonable iterative path-minimizing algorithm (Definition 3.10).
//
// Repeatedly selects, over all candidate paths of unselected requests that
// still fit the residual capacities, the one minimizing a reasonable
// function; routes it; repeats until nothing fits. This is the algorithm
// family Theorems 3.11/3.12 lower-bound, and the engine behind the
// Figure 2/Figure 3 reproductions.
//
// Candidate paths are enumerated exhaustively per distinct (s, t) pair
// (the lower-bound gadgets and ratio experiments are small), which lets
// arbitrary — including non-additive — reasonable functions and exact,
// auditable tie-breaking schedules be used. The paper's adversarial
// tie-breaks ("select (s_i, v_j, t) with i minimal, j maximal") are
// supplied as a TieScore: among priority-equal candidates the lowest
// tie score wins, with (request id, path index) as the final resolver.
#pragma once

#include <functional>
#include <vector>

#include "tufp/ufp/instance.hpp"
#include "tufp/ufp/reasonable.hpp"
#include "tufp/ufp/solution.hpp"

namespace tufp {

// Lower value = preferred on exact priority ties.
using TieScore = std::function<double(int request, const Path& path)>;

struct IterativeMinimizerConfig {
  const ReasonableFunction* function = nullptr;  // required, non-owning
  TieScore tie_score;                            // optional
  std::size_t max_paths_per_pair = 200000;
  int max_hops = -1;  // -1: all simple paths
};

struct MinimizerIteration {
  int request = -1;
  double score = 0.0;
};

struct IterativeMinimizerResult {
  UfpSolution solution;
  int iterations = 0;
  std::vector<MinimizerIteration> trace{};
};

// Throws if some (s,t) pair exceeds max_paths_per_pair (the enumeration-
// based engine refuses to run on silently truncated path sets).
IterativeMinimizerResult reasonable_iterative_minimizer(
    const UfpInstance& instance, const IterativeMinimizerConfig& config);

}  // namespace tufp
