// The lab's solver registry: every UFP allocation algorithm in the tree
// behind one name -> run interface, so the sweep driver (sweep.hpp), the
// tufp_lab CLI and the ratio benches enumerate solvers instead of
// hard-coding call sites.
//
// Members: the paper's Bounded-UFP (Algorithm 1), the BKV predecessor
// baseline, the two greedy orderings, LP randomized rounding, and the
// exact branch-and-bound optimum. Expensive members gate themselves
// (`ran = false`) instead of throwing: `exact` and `rounding` need
// complete path enumeration and run only on small instances, which is
// precisely the subset where the measured ratio can be compared against
// the true OPT.
//
// Every solver is a pure function of (instance, config) — `rounding`
// includes its explicit seed in the config — so lab sweeps are
// deterministic under any thread count and schedule.
#pragma once

#include <cstdint>
#include <span>
#include <string>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/ufp/solution.hpp"

namespace tufp::lab {

// Every lab solve runs on one thread (the solver default; this config has
// no thread knob): the sweep fans out across cells instead
// (SweepConfig::num_threads, util/parallel.hpp).
struct LabSolveConfig {
  // Accuracy parameter for the primal-dual solvers (bounded, bkv) and for
  // the claim36 certifying run, which uses the identical configuration.
  double epsilon = 1.0 / 6.0;
  std::uint64_t rounding_seed = 0xd1ce;
  // Shortest-path queue for the primal-dual members (bounded, bkv, and
  // the sweep's certifying run). Kernel choice never changes results —
  // the thread/kernel-diff oracles pin that — only the wall clock.
  SpKernel sp_kernel = SpKernel::kAuto;
  // Gates for the enumeration-backed members.
  int exact_max_requests = 14;
  int rounding_max_requests = 14;
};

struct LabSolve {
  bool ran = false;  // false: solver gated off on this instance
  double value = 0.0;
  int selected = 0;
  // For `exact`: true when branch and bound proved optimality, so `value`
  // is the true OPT (the denominator of a *measured* ratio).
  bool proven_optimal = false;
  std::string note;  // deterministic diagnostics (gating reason, ...)
};

// Lab solvers are offline: each one solves a whole UfpInstance.
using LabSolverFn = LabSolve (*)(const UfpInstance&, const LabSolveConfig&);

struct LabSolverEntry {
  const char* name;
  const char* summary;
  LabSolverFn fn;
};

// Fixed canonical order: bounded, bkv, greedy-value, greedy-density,
// rounding, exact.
std::span<const LabSolverEntry> solver_catalogue();

// nullptr on an unknown name.
const LabSolverEntry* find_solver(const std::string& name);

}  // namespace tufp::lab
