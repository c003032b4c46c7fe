// Persistent residual graph: the engine's one residual store.
//
// Compiling a fresh value-copy subgraph per epoch — new CSR, new edge
// ids, new solver caches — is an O(n + m) rebuild that would dominate
// steady-state serving. This subsystem instead keeps ONE struct-of-arrays
// edge store per world, built once over the base graph's CSR, and
// updates it in place:
//
//   residual_[e]  live residual capacity, decremented by admissions
//                 (clamped at 0, the engine's commit rule) and restored by
//                 timer-wheel reclaims writing through mutable_residual();
//   blocked_[e]   per-epoch activity mask (residual < min_usable floor) —
//                 a compiled snapshot's edge filter (sim/snapshot.hpp), as
//                 a mask instead of a rebuild;
//   duals_[e]     Algorithm 1's line-4 duals y_e = 1/c_e over the
//                 epoch-start capacities (0 on blocked edges), built by
//                 the first solve and kept current from then on.
//
// One deduplicated dirty-edge list records every edge whose residual
// moved: commit_admission() and note_reclaimed() feed it, and open_epoch()
// walks only that list to bring the epoch-start state — frozen
// capacities, mask, duals, active count and the smallest and largest
// active capacity, which give B and the duals' weight profile — up to
// date (DESIGN.md §12). An epoch that changed nothing opens in O(1); any
// other opens in amortized O(dirty edges · log m), never O(m).
//
// The engine's solve writes its dual inflations and residual decrements
// into a SolveOverlay on the same arrays and rolls them back when it
// ends, so a solve also starts without an O(m) pass.
//
// The engine is the only writer. Its Algorithm 1 — bounded_ufp and
// bounded_ufp_critical_value over a ResidualGraph (ufp/bounded_ufp.hpp) —
// is the only solver that reads the store: no copies, no edge-id
// translation (base ids are solver ids). Every other solver takes a
// UfpInstance. Byte-identity with a cold per-epoch solve over a compiled
// snapshot holds because the snapshot's arc lists are subsequences of the
// base arc lists in the same order, so the canonical lexicographic
// tie-breaks (graph/dijkstra.hpp) coincide — the `engine-differential`
// sim oracle replays every world that way and enforces this
// byte-for-byte.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/graph.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

// The persistent per-world edge store. Owns the residual/blocked/dual
// arrays for the lifetime of a world; the engine opens an epoch, solves
// against it, commits winners, and lets the lease ledger write reclaims
// back through mutable_residual() + note_reclaimed(). Reads are
// epoch-consistent between open_epoch() calls.
class ResidualGraph {
 public:
  // `min_usable_capacity` is the activity floor: edges with residual
  // below it are blocked for the epoch (they cannot fit any normalized
  // demand d <= 1 <= floor). Opens the first epoch immediately.
  explicit ResidualGraph(std::shared_ptr<const Graph> base,
                         double min_usable_capacity = 1.0);

  const Graph& base() const { return *base_; }

  // Freezes the live residuals as the epoch-start capacities and derives
  // the mask, duals, active count, B and the dual profile from them, by
  // walking the dirty-edge list: amortized O(dirty · log m), O(1) when
  // nothing changed. Exact because both mutation paths
  // (commit_admission, note_reclaimed) list every edge they touch — the
  // mutable_residual() contract requires writers to follow up with
  // note_reclaimed().
  void open_epoch();

  // Atomically applies one admitted path: residual[e] = max(0, r - d)
  // (the engine's clamp rule), and lists the path's edges as dirty.
  void commit_admission(std::span<const EdgeId> path, double demand);

  // Records that `edges` changed by a reclaim (or any residual
  // *increase*) and lists them as dirty. Also closes the
  // mutable_residual() dirty window — even for an empty span, which is the
  // idiom for "the writer is done and touched nothing".
  void note_reclaimed(std::span<const EdgeId> edges);

  // Raw residual array for the lease ledger's reclaim write-back. Any
  // writer other than commit_admission must follow up with
  // note_reclaimed() on the touched edges (an empty span when none were).
  // The contract is enforced, not advisory: taking the span opens a
  // dirty window, and open_epoch() refuses to start a solve while it is
  // still open — a driver that forgot it would leave the edges off the
  // dirty list, and the next epoch would price them against the
  // capacities from before the reclaim (the admit → expire → re-admit
  // starvation of DESIGN.md §10).
  std::span<double> mutable_residual() {
    reclaim_window_open_ = true;
    return residual_;
  }

  // Live residuals, updated by commits and reclaims.
  std::span<const double> residual() const { return residual_; }
  // Epoch-start residuals: the capacities the current epoch's solve is
  // priced against (frozen by open_epoch, unaffected by commits).
  std::span<const double> epoch_capacities() const { return epoch_capacity_; }
  std::span<const std::uint8_t> blocked() const { return blocked_; }
  // The bucket-queue profile of the epoch-start duals (1/c_e over the
  // active edges), read off as 1/max and 1/min active capacity —
  // bitwise what folding every active dual gives, since 1/x rounds
  // monotonically.
  WeightProfile dual_profile() const;
  int num_active() const { return num_active_; }
  int num_saturated() const { return base_->num_edges() - num_active_; }
  // B = min residual over active edges; kInf when no edge is active.
  double min_residual() const { return min_residual_; }
  double min_usable_capacity() const { return floor_; }

  // Restores base capacities and re-opens a fresh epoch (one O(m) pass).
  void reset();

  // One solve's writable view of the epoch-start state: Algorithm 1
  // inflates duals() (line 4's y_e = 1/c_e on active edges, 0 on blocked
  // ones) and decrements residual() (a working copy of
  // epoch_capacities()) in place, and appends each edge to written() the
  // first time it writes it. The destructor rolls exactly those edges
  // back, so open and close cost O(edges written), and the epoch-start
  // state is exact again before anything else — payments, commits, the
  // next open_epoch() — reads the graph. The first overlay after
  // construction or reset() builds the two arrays in one O(m) pass; a
  // graph that never solves never allocates them. One overlay at a time;
  // open_epoch() and reset() refuse to run while one is live.
  class SolveOverlay {
   public:
    explicit SolveOverlay(ResidualGraph& graph);
    ~SolveOverlay();
    SolveOverlay(const SolveOverlay&) = delete;
    SolveOverlay& operator=(const SolveOverlay&) = delete;

    std::span<double> duals() { return graph_.duals_; }
    std::span<double> residual() { return graph_.solve_residual_; }
    std::vector<EdgeId>& written() { return graph_.written_; }

   private:
    ResidualGraph& graph_;
  };

 private:
  // An active edge's epoch capacity, as the extremes track it.
  struct Level {
    double capacity;
    EdgeId edge;
  };

  // Puts every residual back at its base capacity and derives the
  // epoch-start state from scratch in one O(m) pass (constructor, reset).
  void restore_base();
  void mark_dirty(EdgeId e);
  double epoch_dual(std::size_t e) const {
    return blocked_[e] ? 0.0 : 1.0 / epoch_capacity_[e];
  }
  // Edge e becomes active at epoch capacity c, or stops being so.
  void enter_level(EdgeId e, double c);
  void leave_level(EdgeId e);
  // Recomputes min_residual_/max_residual_ after the levels moved.
  void settle_extremes();

  std::shared_ptr<const Graph> base_;
  double floor_;

  std::vector<double> residual_;
  std::vector<double> epoch_capacity_;
  std::vector<std::uint8_t> blocked_;
  // The overlay's arrays: empty until the first solve, then the
  // epoch-start duals and a copy of epoch_capacity_ outside a solve.
  std::vector<double> duals_;
  std::vector<double> solve_residual_;
  // The extremes of the active epoch capacities. Edges still at their
  // base capacity are counted per distinct base value (one level on a
  // uniform world, so building it is O(1) map work); every other active
  // edge sits in two lazy-deletion heaps, an entry live while its edge is
  // active at exactly that capacity. Stale entries are dropped as they
  // surface, and by a compaction once they outnumber the live ones.
  std::map<double, int> base_levels_;
  std::vector<Level> lowest_;   // min-heap on capacity
  std::vector<Level> highest_;  // max-heap on capacity
  int off_base_ = 0;            // active edges off their base capacity
  int num_active_ = 0;
  double min_residual_ = kInf;
  double max_residual_ = 0.0;
  // Edges whose residual moved since the last open_epoch(), each once.
  std::vector<EdgeId> dirty_;
  std::vector<std::uint8_t> is_dirty_;
  // The live overlay's undo log.
  std::vector<EdgeId> written_;
  bool overlay_open_ = false;
  // Dirty window of the mutable_residual() contract: opened by handing
  // out the raw span, closed by note_reclaimed(). open_epoch() checks it.
  bool reclaim_window_open_ = false;
};

}  // namespace tufp
