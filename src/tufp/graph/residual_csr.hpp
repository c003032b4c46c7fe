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
//   blocked_[e]   per-epoch activity mask (residual < min_usable floor),
//                 recomputed by open_epoch() — a compiled snapshot's edge
//                 filter (sim/snapshot.hpp), as a mask instead of a
//                 rebuild.
//
// One stamp clock counts the store's mutations: every admission and every
// non-empty reclaim ticks it (DESIGN.md §10/§12), so "clock unchanged"
// certifies "every residual, hence the mask and the frozen epoch-start
// capacities, unchanged". open_epoch()'s clean-epoch fast path and the
// solver's epoch-start state (ufp/detail/workspace_access.hpp) key on it.
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
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

// The persistent per-world edge store. Owns the residual/blocked
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

  // Rescans the activity mask against the floor and freezes epoch-start
  // capacities. O(m) with no allocation — the whole per-epoch cost of
  // opening an epoch. Clean-epoch fast path: when the stamp clock has not
  // moved since the previous open (no admission, no reclaim), every
  // derived field is provably unchanged and the call is O(1). Sound
  // because both mutation paths (commit_admission, note_reclaimed) tick
  // the clock — the mutable_residual() contract requires writers to
  // follow up with note_reclaimed().
  void open_epoch();

  // Atomically applies one admitted path: residual[e] = max(0, r - d)
  // (the engine's clamp rule), and ticks the clock.
  void commit_admission(std::span<const EdgeId> path, double demand);

  // Records that `edges` changed by a reclaim (or any residual
  // *increase*) and ticks the clock when the span is non-empty. Also
  // closes the mutable_residual() dirty window — even for an empty span,
  // which is the idiom for "the writer is done and touched nothing".
  void note_reclaimed(std::span<const EdgeId> edges);

  // Raw residual array for the lease ledger's reclaim write-back. Any
  // writer other than commit_admission must follow up with
  // note_reclaimed() on the touched edges (an empty span when none were).
  // The contract is enforced, not advisory: taking the span opens a
  // dirty window, and open_epoch() refuses to start a solve while it is
  // still open — a driver that forgot it would leave the clock unmoved,
  // and the clean-epoch fast path would keep pricing the epoch against
  // the capacities from before the reclaim (the admit → expire →
  // re-admit starvation of DESIGN.md §10).
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
  int num_active() const { return num_active_; }
  int num_saturated() const { return base_->num_edges() - num_active_; }
  // B = min residual over active edges; kInf when no edge is active.
  double min_residual() const { return min_residual_; }
  double min_usable_capacity() const { return floor_; }
  std::int64_t clock() const { return clock_; }

  // Restores base capacities and re-opens a fresh epoch. State keyed on
  // this graph's clock must be cleared alongside (the clock restarts).
  void reset();

 private:
  std::shared_ptr<const Graph> base_;
  double floor_;

  std::vector<double> residual_;
  std::vector<double> epoch_capacity_;
  std::vector<std::uint8_t> blocked_;
  std::int64_t clock_ = 0;
  // Clock value at the last full open_epoch() rescan; -1 forces a rescan
  // (initial state, and reset() re-arms it because the clock restarts).
  std::int64_t opened_at_clock_ = -1;
  int num_active_ = 0;
  double min_residual_ = kInf;
  // Dirty window of the mutable_residual() contract: opened by handing
  // out the raw span, closed by note_reclaimed(). open_epoch() checks it.
  bool reclaim_window_open_ = false;
};

}  // namespace tufp
