// Algorithm 1: Bounded-UFP(eps) — the paper's primary contribution.
//
// A deterministic, monotone, exact primal-dual algorithm for the
// Omega(ln m)-bounded unsplittable flow problem achieving approximation
// (1+eps)*e/(e-1) (Theorem 3.1). Maintains dual weights y_e = (1/c_e) *
// e^{eps*B*f_e/c_e}; each iteration satisfies the request minimizing the
// normalized shortest-path length (d_r/v_r)*|p_r| and exponentially
// inflates the weights along the chosen path; stops when the dual value
// sum_e c_e*y_e crosses e^{eps*(B-1)}.
//
// Monotonicity (Lemma 3.4) + exactness (Def. 2.2) make the algorithm a
// truthful mechanism when combined with critical-value payments
// (Theorem 2.3; see mechanism/critical_payment.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/ufp/solution.hpp"
#include "tufp/ufp/workspace.hpp"

namespace tufp {

struct BoundedUfpConfig {
  // Accuracy parameter in (0,1]. Theorem 3.1 invokes the algorithm with
  // eps/6 to obtain the (1+eps)*e/(e-1) guarantee in the ln(m)/eps^2
  // regime; the config takes the raw algorithm parameter.
  double epsilon = 1.0 / 6.0;

  // Paper-faithful Algorithm 1 never checks residual capacity — Lemma 3.3
  // proves feasibility from the threshold alone, but only in the
  // B = Omega(ln m) regime. With the guard on, a request whose current
  // shortest path does not fit the residual capacities is skipped for the
  // round; this keeps outputs feasible on arbitrary instances and
  // preserves monotonicity and exactness (DESIGN.md §6).
  bool capacity_guard = true;

  // Reuse cached shortest paths whose edges were untouched since their
  // computation (provably equivalent; see detail/sp_cache.hpp). Off only
  // for the equivalence tests / ablation bench.
  bool lazy_shortest_paths = true;

  // Ignore the e^{eps(B-1)} stopping threshold and keep selecting while
  // anything fits. Off-paper convenience for out-of-regime instances
  // (where the faithful threshold can be below the initial dual value m
  // and the loop would exit immediately); requires capacity_guard, which
  // then solely enforces feasibility. The approximation guarantee of
  // Theorem 3.1 applies only to the faithful setting.
  bool run_to_saturation = false;

  // Threads for the per-source shortest-path trees: 1 (the default) runs
  // serially, 0 takes the OpenMP runtime default, n > 1 forks a team of n
  // (util/parallel.hpp). Output is identical for any thread count.
  int num_threads = 1;

  // Shortest-path queue discipline. kAuto runs the monotone bucket queue
  // while the dual weights' key range allows it and falls back to the
  // heap as saturation spreads them (DESIGN.md §6); kHeap/kBucket force
  // a kernel (tests, ablation benches).
  SpKernel sp_kernel = SpKernel::kAuto;

  // Record one IterationRecord per selection (tests/benches).
  bool record_trace = false;

  // Classify every unselected request at loop exit (result.rejections).
  // The classification reads only the solver's own deterministic exit
  // state — cached entries, the live residual, the epoch-start
  // capacities — so records are identical across kernels and thread
  // counts (the engine-differential oracle's contract, DESIGN.md §14).
  // Cost: O(rejected × path length) once per solve.
  bool classify_rejections = false;

  // Populate result.y with the final dual weights. Only dual-certificate
  // consumers need them; the epoch engine turns this off so its solve
  // costs no O(m) export. Never changes the solution.
  bool export_duals = true;
};

struct IterationRecord {
  int request = -1;
  double alpha = 0.0;       // normalized length of the selected path, alpha(i)
  double dual_sum = 0.0;    // D1(i) = sum_e c_e y_e before the update
  double primal_value = 0.0;  // P(i+1), value routed after this selection
};

// Why an unselected request lost, judged at loop exit (DESIGN.md §14).
// The solver speaks capacity language only; the engine reports
// kCapacityRace as the shard_conflict outcome (the request lost the
// capacity race to earlier winners within the epoch).
enum class RejectReason {
  kNoPath,          // no residual-feasible route exists at all
  kBlockedAtStart,  // candidate path short of capacity even at epoch start
  kCapacityRace,    // fit at epoch start, displaced by this epoch's winners
  kLostAuction,     // path feasible at exit; density never won an iteration
};

struct RejectionRecord {
  int request = -1;
  RejectReason reason = RejectReason::kLostAuction;
  // (d_r/v_r)·|p_r|_y at exit — the density that kept losing (reachable
  // requests only; zero when no path was ever computed).
  double density = 0.0;
  // First candidate-path edge short of the relevant capacity vector
  // (kBlockedAtStart: epoch-start; kCapacityRace: live residual); -1
  // otherwise.
  EdgeId bottleneck = -1;
  // The cached candidate path the classification inspected.
  Path path;
};

struct BoundedUfpResult {
  UfpSolution solution;
  int iterations = 0;

  // sum_e c_e y_e when the loop exited.
  double final_dual_sum = 0.0;
  // Final dual weights y_e (inputs to dual_certificate / diagnostics).
  std::vector<double> y;

  // Best (smallest) dual-feasible upper bound on the *fractional* optimum
  // observed during the run: min_i D1(i)/alpha(i) + P(i) (Claim 3.6).
  // Always >= OPT >= solution value, so value/dual_upper_bound lower-bounds
  // the true approximation quality of this run. When every request is
  // routed it is capped at the routed value, summed in request order like
  // UfpSolution::total_value, so the two agree to the bit.
  double dual_upper_bound = 0.0;

  // True when the loop exited because sum c_e y_e > e^{eps(B-1)}; false
  // when every request was routed (output provably optimal) or, under the
  // capacity guard, when no remaining request fit.
  bool stopped_by_threshold = false;

  // Total shortest-path recomputations (cache entries refilled). The
  // naive loop costs iterations * |remaining| of them; lazy invalidation
  // only recomputes requests whose cached path touched updated edges
  // (DESIGN.md §6).
  std::int64_t sp_computations = 0;

  // Dijkstra tree searches actually run: one per source shard with a
  // stale entry, so sp_tree_runs <= sp_computations with equality only
  // when no two stale requests ever share a source.
  std::int64_t sp_tree_runs = 0;

  std::vector<IterationRecord> trace;

  // classify_rejections only: one record per unselected request in
  // ascending request order.
  std::vector<RejectionRecord> rejections;
};

// Preconditions: normalized instance (d_r <= 1), B >= 1, eps in (0,1],
// eps*B within safe double exponent range (util/math.hpp).
BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config = {});

// The engine's entry point: solves the epoch over the persistent
// residual graph without compiling a per-epoch instance. Edge ids are
// base-graph ids; blocked edges are excluded from every search and carry
// y = 0 in result.y. Preconditions as above with B = the graph's min
// active residual and at least one active edge. The solve starts from
// the graph's epoch-start duals and writes through its SolveOverlay,
// which it rolls back before returning: the graph is unchanged on exit,
// and no O(m) pass runs unless export_duals asks for result.y.
// `workspace` carries the shortest-path engines, shard plan and
// iteration stamps across calls; results are bitwise identical to a cold
// solve of the compiled epoch instance.
BoundedUfpResult bounded_ufp(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace);

// Exact critical value of request r (Theorem 2.3's payment): the smallest
// positive double bid at which bounded_ufp(·, config) selects r, all
// other declarations fixed; kInf when no bid wins. For a winner it never
// exceeds the declared value.
//
// One replay of Algorithm 1 from the epoch-start state with r shadowed
// (Lehmann–O'Callaghan–Shoham's critical value of a greedy auction, read
// off the run without the bidder). r's path and guard fit are refreshed
// every iteration but r is never selected: a bid moves only r's own
// priority (d_r/v_r)·|p_r|_y, never the paths, the duals or the stop
// threshold, so for every bid at which r keeps losing the real run IS
// this run. At each iteration t where r's path fits, with α_t the best
// priority among the others and b_t its id, r wins exactly at the bids
// v with d_r/v·|p_r| < α_t, or == α_t and r < b_t — the selection scan's
// own predicate and id tie-break, evaluated in the same floating point —
// and the smallest such double is found by bisecting the ordered bit
// patterns of the positive doubles. The answer is the minimum over t, or
// exactly 0 at an iteration where r is the only request that fits.
//
// Cost: one solve (the run without r) on config.num_threads threads,
// against the ~log2(1/tol) re-solves of the rule-agnostic bisection in
// mechanism/critical_payment.hpp, which stays the reference.
// Preconditions as bounded_ufp's. The residual-graph overload prices r
// against the graph's epoch-start capacities, so it may run concurrently
// with other replays over the same graph but not across a commit.
double bounded_ufp_critical_value(const UfpInstance& instance, int r,
                                  const BoundedUfpConfig& config = {});
double bounded_ufp_critical_value(const ResidualGraph& rgraph,
                                  std::span<const Request> requests, int r,
                                  const BoundedUfpConfig& config = {});

}  // namespace tufp
