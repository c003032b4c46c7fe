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
  // The UfpInstance solve only: the residual-graph solve rolls its duals
  // back, and its caller never reads them.
  std::vector<double> y{};

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
  // only recomputes requests whose cached path touched updated edges,
  // and bounded_ufp's lazy scan only those of them that can still decide
  // a selection (DESIGN.md §4, §6).
  std::int64_t sp_computations = 0;

  // Dijkstra tree searches actually run: one per source shard with a
  // stale entry in a refresh, one per entry the lazy scan recomputes, so
  // sp_tree_runs <= sp_computations.
  std::int64_t sp_tree_runs = 0;

  // One record per selection, in selection order: every solve fills it
  // (kDualPrice reads each winner's alpha off it, kCritical its winners
  // in selection order); a replay never does.
  std::vector<IterationRecord> trace{};

  // The residual-graph solve only: one record per unselected request in
  // ascending request order, classified from the solver's own
  // deterministic exit state — cached entries, the live residual, the
  // epoch-start capacities — so records are identical across kernels and
  // thread counts (the engine-differential oracle's contract, DESIGN.md
  // §14). Cost: O(rejected × path length) once per solve.
  std::vector<RejectionRecord> rejections{};
};

// Preconditions: normalized instance (d_r <= 1), B >= 1, eps in (0,1],
// eps*B within safe double exponent range (util/math.hpp).
BoundedUfpResult bounded_ufp(const UfpInstance& instance,
                             const BoundedUfpConfig& config = {});

// The engine's entry point: solves the epoch over the persistent
// residual graph without compiling a per-epoch instance. Edge ids are
// base-graph ids; blocked edges are excluded from every search.
// Preconditions as above with B = the graph's min active residual and at
// least one active edge. The solve starts from the graph's epoch-start
// duals and writes through its SolveOverlay, which it rolls back before
// returning: the graph is unchanged on exit, no O(m) pass runs, and
// result.y stays empty while result.rejections is filled. `workspace`
// carries the shortest-path engines, shard plan and iteration stamps
// across calls; the solution, bounds and counters are bitwise identical
// to a cold solve of the compiled epoch instance.
BoundedUfpResult bounded_ufp(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace);

// Exact critical value of request r (Theorem 2.3's payment): the smallest
// positive double bid at which bounded_ufp(·, config) selects r, all
// other declarations fixed; kInf when no bid wins. For a winner it never
// exceeds the declared value.
//
// One replay of Algorithm 1 from line 4 with r shadowed
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
// mechanism/critical_payment.hpp, which stays the reference. This is the
// cold reference of the engine's pricing below: the same loop, resumed
// from line 4 instead of from r's selection. Preconditions as
// bounded_ufp's.
double bounded_ufp_critical_value(const UfpInstance& instance, int r,
                                  const BoundedUfpConfig& config = {});

// Algorithm 1, resumable (DESIGN.md §4). Checkpoint k of a run is the
// loop's state just after iteration k's refresh. The engine's kCritical
// epochs solve with bounded_ufp_checkpointed, then price each winner w
// with winner_critical_value; bounded_ufp_resume reruns the solve from
// any checkpoint.

// bounded_ufp over the residual graph, with the same result to the bit
// but for the sp counters, that also keeps its run in `workspace` as
// deltas: per iteration the cache entries its refresh recomputed and the
// y and residual of the edges its selection wrote, so O(sum of selected
// path lengths + recomputations × path length). It refreshes every stale
// entry every iteration, where bounded_ufp scans lazily, so that each
// checkpoint holds the eager entries a replay resumes from. It also
// readies one lane of `rgraph` and one replay worker per thread of
// config.num_threads.
BoundedUfpResult bounded_ufp_checkpointed(ResidualGraph& rgraph,
                                          std::span<const Request> requests,
                                          const BoundedUfpConfig& config,
                                          UfpWorkspace& workspace);

// bounded_ufp_critical_value of winner w of the last checkpointed solve,
// over the instance that solve saw, bit for bit, from a replay of only
// the run after w's selection iteration k_w. Before k_w the run without
// w is the logged run, and none of its thresholds can price w: at each
// t < k_w where w fit, w lost at its declared bid v, so its threshold
// there lies above v, while at k_w, where v wins, it lies at or below v.
// The minimum is therefore taken over t >= k_w alone: the replay resumes
// at checkpoint k_w with w shadowed, where the scan picks the runner-up.
// The replay scans lazily: it recomputes a stale shortest path only when
// its cached length, a lower bound, could still decide the scan or w's
// threshold, and picks the eager replay's winner at every iteration
// (DESIGN.md §4). It runs on lane `worker` of `rgraph` and on the
// workspace's replay worker `worker` (a one-thread cache and stamps, kept
// across epochs), so it builds no cache, runs no O(m) pass and refreshes
// nothing at its checkpoint; calls on distinct workers may run at once.
// A non-null `sp_computations` receives the shortest paths the replay
// recomputed, one search each. Requires the same graph state (no commit
// or open_epoch in between), batch and config as the checkpointed solve,
// and worker in [0, effective_num_threads(config.num_threads)).
double winner_critical_value(ResidualGraph& rgraph,
                             std::span<const Request> requests,
                             const BoundedUfpConfig& config,
                             UfpWorkspace& workspace, int w, int worker,
                             std::int64_t* sp_computations = nullptr);

// The last checkpointed solve resumed at checkpoint `iteration` (1 up to
// the iterations it refreshed) on replay worker `worker`: the
// checkpointed solve's result bit for bit — the solution, iterations,
// final_dual_sum, dual_upper_bound and counters — but for the trace,
// which it leaves empty, and the rejection records, which only the solve
// keeps. Same requirements as winner_critical_value.
BoundedUfpResult bounded_ufp_resume(ResidualGraph& rgraph,
                                    std::span<const Request> requests,
                                    const BoundedUfpConfig& config,
                                    UfpWorkspace& workspace, int iteration,
                                    int worker);

}  // namespace tufp
