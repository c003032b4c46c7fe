// Single-source shortest paths under per-edge weights, behind one
// ShortestPathEngine interface with two interchangeable kernels.
//
// This is the inner loop of every algorithm in the paper: Bounded-UFP
// computes, each iteration, the shortest s_r -> t_r path for every
// remaining request under the dual weights y_e (Alg. 1 line 7). Two
// kernels implement the search (DESIGN.md §6):
//
//   * kHeap    — 4-ary binary heap with lazy deletion; works for any
//                non-negative weights. The general-purpose fallback.
//   * kBucket  — monotone bucket queue (Dial's algorithm) with bucket
//                width Δ = the smallest positive weight. Eligible when
//                every weight is strictly positive and the key range
//                max_w/Δ fits in kMaxBuckets buckets — which is exactly
//                the regime of the exponential length function y_e =
//                e^{εB f_e/c_e}/c_e before saturation spreads the
//                weights. O(1) push/pop, no comparisons.
//
// Both kernels realize the same *canonical* search semantics, so results
// are byte-identical regardless of kernel (and of any processing order):
//   1. every vertex v with dist(v) <= D is settled and relaxed, where D
//      is the largest target distance (instead of breaking at the first
//      target pop, which would make the relaxation set depend on the
//      queue's tie order);
//   2. the parent of v is the lexicographically smallest (u, e) among
//      the shortest predecessors strictly closer to the source
//      (dist(u) + w_e == dist(v) > dist(u)). Relaxation order cannot
//      matter: min is commutative. "Strictly closer" is computed, not
//      inferred from w_e > 0: a positive weight far below dist(u)'s ulp
//      is absorbed (dist(u) + w_e == dist(u)), and two vertices at equal
//      distance would then adopt each other as parents. Comparing the
//      sums keeps every tie-break parent nearer the source, so the parent
//      forest stays acyclic; a vertex with no strictly closer shortest
//      predecessor (zero or absorbed weights) keeps its first-discovery
//      parent.
// The reconstructed path is therefore the lexicographically minimal
// shortest path read as a predecessor sequence from the target — the
// deterministic tie-break the solvers and the sharded refresh rely on.
//
// The engine owns its workspace and reuses it across queries with an
// epoch-versioned label array, so a query costs O(touched vertices) to
// set up instead of O(n). One engine per thread; the solvers keep a pool
// for the parallel per-source refresh (util/parallel.hpp).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"
#include "tufp/graph/path.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

// Which queue discipline shortest_path uses. kAuto picks the bucket
// queue whenever a supplied WeightProfile proves it eligible, the heap
// otherwise (in particular always when no profile is supplied). kBucket
// means "bucket whenever eligible": it scans the weights itself when no
// profile is supplied, but still degrades to the heap on ineligible
// weights (zero/negative entries or a key range past kMaxBuckets),
// because the bucket layout cannot represent them — check
// last_used_kernel() when the distinction matters. kHeap always heaps.
enum class SpKernel { kAuto, kHeap, kBucket };

// Cheap summary of a weight vector that decides bucket-queue
// eligibility. Callers that mutate weights monotonically (Bounded-UFP
// only ever inflates y) can keep a profile current with include()
// instead of rescanning: a stale-but-smaller min_positive and a
// stale-but-larger max_weight are conservative (they can only veto the
// bucket kernel or widen its bucket count, never break correctness).
struct WeightProfile {
  // Defaults are the neutral elements of include(), so a profile may be
  // built by folding weights into a default-constructed instance; it
  // must end up describing every weight the query will see.
  double min_positive = kInf;  // smallest strictly positive weight
  double max_weight = 0.0;     // largest weight
  bool all_positive = true;    // no zero/negative entries

  static WeightProfile scan(std::span<const double> weights);

  // Folds one (possibly updated) weight into the profile.
  void include(double w);
};

class ShortestPathEngine {
 public:
  // Bucket-queue eligibility cap: ceil(max_weight / min_positive) + slack
  // circular buckets must fit. Beyond this the dial layout stops paying
  // for itself and the engine falls back to the heap.
  static constexpr std::int64_t kMaxBuckets = 4096;

  explicit ShortestPathEngine(const Graph& graph,
                              SpKernel kernel = SpKernel::kAuto);

  // Shortest path s->t under `weights` (indexed by EdgeId, all >= 0).
  // Returns +inf and leaves *path untouched when t is unreachable.
  // When `blocked` is non-empty, edges with blocked[e] != 0 are skipped
  // (used by capacity-guarded and residual-feasible searches).
  // `profile`, when given, enables the bucket kernel under kAuto.
  double shortest_path(std::span<const double> weights, VertexId source,
                       VertexId target, Path* path = nullptr,
                       std::span<const std::uint8_t> blocked = {},
                       const WeightProfile* profile = nullptr);

  // One slot of a multi-target tree query: `vertex` in, `length`/`path`
  // out. Unreachable targets end with length == kInf and *path untouched.
  struct TreeTarget {
    VertexId vertex = kInvalidVertex;
    double length = 0.0;  // out
    Path* path = nullptr;  // out, filled when non-null and reachable
  };

  // Shortest paths from `source` to every target in one search — the
  // per-source tree the sharded cache refresh is built on. Costs one
  // Dijkstra run bounded by the farthest target instead of one run per
  // target. Duplicate target vertices are allowed.
  void shortest_tree(std::span<const double> weights, VertexId source,
                     std::span<TreeTarget> targets,
                     std::span<const std::uint8_t> blocked = {},
                     const WeightProfile* profile = nullptr);

  void set_kernel(SpKernel kernel) { kernel_ = kernel; }
  SpKernel kernel() const { return kernel_; }

  // Kernel the most recent query actually ran (kAuto resolved).
  SpKernel last_used_kernel() const { return last_used_; }

  const Graph& graph() const { return *graph_; }

 private:
  struct HeapItem {
    double dist;
    VertexId vertex;
  };

  void run(std::span<const double> weights, VertexId source,
           std::span<TreeTarget> targets,
           std::span<const std::uint8_t> blocked,
           const WeightProfile* profile);
  void run_heap(std::span<const double> weights, VertexId source, int pending,
                std::span<const std::uint8_t> blocked);
  void run_bucket(std::span<const double> weights, VertexId source,
                  int pending, std::span<const std::uint8_t> blocked,
                  double delta, std::int64_t num_buckets);

  void heap_push(HeapItem item);
  HeapItem heap_pop();

  bool touch(VertexId v);  // lazily reset labels for this query's epoch

  // Canonical relaxation (both kernels): strict improvement updates dist
  // and parent; an exact tie updates the parent only when u is strictly
  // closer (du + w > du) and (u, e) is lexicographically smaller. Returns
  // whether the vertex needs (re-)queueing.
  bool relax(VertexId u, double du, const Arc& arc, double w);

  const Graph* graph_;
  SpKernel kernel_;
  SpKernel last_used_ = SpKernel::kHeap;

  std::vector<double> dist_;
  std::vector<EdgeId> parent_edge_;
  std::vector<VertexId> parent_vertex_;
  std::vector<std::uint32_t> epoch_;
  std::vector<std::uint32_t> target_epoch_;  // target markers, same epochs
  std::uint32_t current_epoch_ = 0;

  std::vector<HeapItem> heap_;  // 4-ary, lazy deletion

  // Dial kernel state: circular buckets indexed by floor(dist/Δ) mod C,
  // live window provably spans < C buckets (DESIGN.md §6).
  std::vector<std::vector<HeapItem>> buckets_;
  std::vector<std::int32_t> dirty_slots_;
};

}  // namespace tufp
