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
//   stamp_[e]     the epoch-clock value of edge e's last change — admits
//                 AND reclaims both stamp (the direction-agnostic stamp
//                 invariant of DESIGN.md §10/§12), so "stamp unchanged"
//                 certifies "weight and blocked status unchanged";
//   blocked_[e]   per-epoch activity mask (residual < min_usable floor),
//                 recomputed by open_epoch() — a compiled snapshot's edge
//                 filter (sim/snapshot.hpp), as a mask instead of a
//                 rebuild.
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
//
// On top sits SourceTreeCache, the cross-epoch half of sp_cache: settled
// shortest-path trees keyed by source vertex survive epoch boundaries and
// are revalidated against base-edge stamps (the §12 argument: admissions
// only increase dual weights, so an unstamped stored path is still the
// canonical shortest path; any weight *decrease* — a reclaim — bumps
// last_decrease()). Reclaims are cache-cooperative: instead of dropping
// every tree, revalidate_after_reclaim() intersects each tree's settled
// set with the reclaimed edges' endpoints and keeps the trees the reclaim
// provably cannot touch (the §12 per-tree survival criterion). Tree
// records live in a BumpArena (util/arena.hpp) and are evicted by
// generation reset, never freed piecemeal.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/graph.hpp"
#include "tufp/util/arena.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

// The persistent per-world edge store. Owns the residual/stamp/blocked
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
  // opening an epoch. Clean-epoch fast path: when the
  // stamp clock has not moved since the previous open (no admission, no
  // reclaim), every derived field is provably unchanged and the call is
  // O(1). Sound because both mutation paths (commit_admission,
  // note_reclaimed) tick the clock — the mutable_residual() contract
  // requires writers to follow up with note_reclaimed().
  void open_epoch();

  // Atomically applies one admitted path: residual[e] = max(0, r - d)
  // (the engine's clamp rule) and stamps every path edge at a fresh
  // clock tick.
  void commit_admission(std::span<const EdgeId> path, double demand);

  // Records that `edges` changed by a reclaim (or any residual
  // *increase*): stamps them at a fresh tick and bumps last_decrease(),
  // since a residual increase is a dual-weight decrease — the one
  // direction a stamped-path check cannot certify against (§12). Also
  // closes the mutable_residual() dirty window — even for an empty span,
  // which is the idiom for "the writer is done and touched nothing".
  void note_reclaimed(std::span<const EdgeId> edges);

  // Raw residual array for the lease ledger's reclaim write-back. Any
  // writer other than commit_admission must follow up with
  // note_reclaimed() on the touched edges (an empty span when none were).
  // The contract is enforced, not advisory: taking the span opens a
  // dirty window, and open_epoch() refuses to start a solve while it is
  // still open — a driver that forgot the stamp would otherwise serve
  // stale negative fit verdicts (the admit → expire → re-admit
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
  std::span<const std::int64_t> stamps() const { return stamp_; }
  int num_active() const { return num_active_; }
  int num_saturated() const { return base_->num_edges() - num_active_; }
  // B = min residual over active edges; kInf when no edge is active.
  double min_residual() const { return min_residual_; }
  double min_usable_capacity() const { return floor_; }
  std::int64_t clock() const { return clock_; }
  std::int64_t last_decrease() const { return last_decrease_; }

  // Restores base capacities and re-opens a fresh epoch. Cross-epoch
  // tree caches over this graph must be cleared alongside (the clock
  // restarts).
  void reset();

 private:
  std::shared_ptr<const Graph> base_;
  double floor_;

  std::vector<double> residual_;
  std::vector<double> epoch_capacity_;
  std::vector<std::uint8_t> blocked_;
  std::vector<std::int64_t> stamp_;
  std::int64_t clock_ = 0;
  std::int64_t last_decrease_ = 0;
  // Clock value at the last full open_epoch() rescan; -1 forces a rescan
  // (initial state, and reset() re-arms it because the clock restarts).
  std::int64_t opened_at_clock_ = -1;
  int num_active_ = 0;
  double min_residual_ = kInf;
  // Dirty window of the mutable_residual() contract: opened by handing
  // out the raw span, closed by note_reclaimed(). open_epoch() checks it.
  bool reclaim_window_open_ = false;
};

// Cross-epoch settled-tree cache: the per-source shortest-path trees the
// sharded sp_cache refresh computes at each epoch's first refresh, kept
// across epoch boundaries and revalidated by base-edge stamps.
//
// Validity argument (DESIGN.md §12): a stored tree was computed under the
// epoch-start weights y_e = 1/residual_e at clock C. Serving target t
// from it is sound when (a) last_decrease() <= max(C, validated_clock) —
// no weight the tree can see has decreased since — and (b) every edge on
// the stored s->t path has stamp <= C. Then the stored path's edge
// weights are bitwise unchanged, every alternative path's length only
// grew, and the canonical tie sets can only have shrunk while still
// containing the stored parents — so a fresh search would reproduce the
// stored path, lengths and tie-breaks bitwise identical. An absent
// target in a radius-exhausted tree (radius == kInf) certifies
// unreachability under (a) alone, because unblocking an edge requires a
// residual increase.
//
// Reclaim survival (§12): a reclaim decreases weights only on its own
// edges. revalidate_after_reclaim() keeps a tree whose settled set is
// disjoint from the reclaimed edges' usable endpoints (tails for
// directed graphs, both endpoints for undirected — the two arcs share
// one EdgeId): any path from the tree's source that uses a reclaimed
// edge must first leave the settled set, and its prefix — over
// non-decreased edges — is already strictly longer than every stored
// distance, so neither stored paths nor stored unreachability verdicts
// can change. Survivors get validated_clock bumped to the post-reclaim
// clock so check (a) keeps passing.
//
// Storage: one record block per tree in a BumpArena, vertices sorted by
// id for binary-search lookup. Eviction is wholesale — when the tree
// count or arena high-water crosses its limit, enforce_limits() resets
// the arena and bumps its generation (the arena generation-reset rule);
// there is no per-tree free path. store() itself NEVER evicts: it runs
// on OpenMP refresh workers, and an eviction there would make the
// surviving tree set depend on thread schedule. enforce_limits() must be
// called from a serial point (sp_cache does, at each warm epoch start),
// which keeps the tree set — and the reclaim-survival counters over it —
// deterministic for every thread count.
//
// Thread contract: store() is internally locked and safe from the OpenMP
// refresh workers; lookup() is locked too, but the returned pointer is
// only stable until the next store() — callers consume it in the serial
// classification pass before any store of the same refresh.
// revalidate_after_reclaim() and enforce_limits() lock too, but callers
// invoke them only from serial points (between solves / at epoch start).
class SourceTreeCache {
 public:
  struct Limits {
    int max_trees = 4096;
    std::size_t max_bytes = std::size_t{96} << 20;
  };

  struct Tree {
    VertexId source = kInvalidVertex;
    std::int64_t computed_clock = 0;
    // Latest clock at which the tree was proven untouched by every
    // weight decrease so far (== computed_clock until a reclaim
    // revalidation keeps it). The serve condition checks
    // last_decrease() <= max(computed_clock, validated_clock).
    std::int64_t validated_clock = 0;
    double radius = 0.0;  // kInf when the tree exhausted the reachable set
    std::span<const VertexId> vertices;  // sorted ascending
    std::span<const double> dist;
    std::span<const VertexId> parent_vertex;
    std::span<const EdgeId> parent_edge;

    // Index of `v` in the sorted record block, -1 when absent.
    int index_of(VertexId v) const;
  };

  // Outcome of one reclaim revalidation pass, in trees.
  struct ReclaimRevalidation {
    std::int64_t kept = 0;
    std::int64_t dropped = 0;
  };

  SourceTreeCache();
  explicit SourceTreeCache(Limits limits);

  // Tree stored for `source`, or nullptr. Pointer stable until the next
  // store()/clear()/revalidate_after_reclaim()/enforce_limits().
  const Tree* lookup(VertexId source) const;

  // Snapshots the engine's most recent query (set_record_settled must
  // have been on) as the tree for `source`, replacing any previous one.
  // Vertices past the query radius are dropped so the stored set is
  // kernel-invariant. Thread-safe; never evicts (see header comment).
  void store(VertexId source, const ShortestPathEngine& engine,
             std::int64_t computed_clock);

  // Per-tree reclaim revalidation: drops every tree whose settled set
  // meets a reclaimed edge's usable endpoints and bumps the survivors'
  // validated_clock to `clock_after` (the residual graph's clock after
  // the reclaim stamps). Serial point only.
  ReclaimRevalidation revalidate_after_reclaim(
      const Graph& base, std::span<const EdgeId> reclaimed,
      std::int64_t clock_after);

  // Generation-reset eviction when the limits are crossed; call from a
  // serial point (the limits are soft within an epoch — store() defers
  // to this).
  void enforce_limits();

  // Drops every tree: arena reset + generation bump.
  void clear();

  std::int64_t generation() const;
  std::int64_t stores() const;
  std::int64_t evictions() const;
  std::size_t num_trees() const;

 private:
  void clear_locked();

  Limits limits_;
  mutable std::mutex mu_;
  BumpArena arena_;
  std::vector<Tree> trees_;
  std::unordered_map<VertexId, std::size_t> by_source_;
  std::vector<VertexId> scratch_;  // store()'s sort buffer, mutex-guarded
  std::int64_t generation_ = 0;
  std::int64_t stores_ = 0;
  std::int64_t evictions_ = 0;
};

}  // namespace tufp
