// Incremental shortest-path cache shared by Bounded-UFP, Bounded-UFP-
// Repeat and BKV (internal header).
//
// All three algorithms need, every iteration, the shortest s_r -> t_r
// path under the current dual weights y for every live request (Alg. 1
// lines 6-8, Alg. 3 lines 4-6). Two facts make caching sound:
//   1. y only ever increases, so path lengths only grow;
//   2. an update touches exactly the edges of one selected path.
// Hence a cached shortest path whose edges were not updated since it was
// computed is still shortest: its own length is unchanged while every
// competitor is at least as long as before. We track a per-edge update
// stamp and recompute only requests whose cached path intersects edges
// stamped after the cache entry.
//
// Capacity-guard invalidation rides the same stamps (DESIGN.md §6): the
// solvers decrement residual capacity on exactly the edges they stamp,
// so an entry's fit status ("does the path still clear the residual
// capacities at this request's demand?") can only change when the entry
// itself goes stale. refresh() therefore evaluates the guard once per
// recomputation and caches it in Entry::fits; the selection loops read a
// bool instead of rescanning the path every iteration.
//
// The invariant callers that pass `residual` must uphold is DIRECTION-
// AGNOSTIC: *every* residual change on an edge — decrement on admission
// AND increment on reclamation (temporal lease expiry, DESIGN.md §10) —
// must be accompanied by a stamp on that edge at the same iteration.
// A decrement without a stamp leaves stale positive verdicts (infeasible
// output); an increment without a stamp leaves stale NEGATIVE verdicts:
// Entry::fits == false outlives the shortage that caused it and the
// request is starved even though its path now fits — the admit → expire →
// re-admit bug class. The solvers below never increase residuals
// mid-run, and the engine reclaims only between epochs — but any future
// driver that reclaims capacity against a live cache must bump the edge
// stamps of every reclaimed edge (pinned by
// test_sp_cache.ReclaimedCapacityNeedsAStampToUnstickNegativeFits).
//
// Recomputation is sharded by source vertex: requests sharing a source
// are answered from one Dijkstra tree (ShortestPathEngine::shortest_tree)
// instead of one search per request. Shards are embarrassingly parallel:
// with num_threads != 1 they fan out through parallel_for
// (util/parallel.hpp), each worker driving its own engine and writing
// only the entries of its own sources. Every tree is canonical
// (dijkstra.hpp), so entries are bitwise identical for any thread count
// and any shard schedule; consumers then read them in arrival order. A
// shard that throws (a precondition of shortest_tree) reaches the caller
// of refresh() with the same exception at any thread count.
//
// The cache is built for reuse across epochs (ufp/workspace.hpp): it is
// bound to a graph once and rebind()s to each epoch's request batch,
// keeping the engine pool and — when the source sequence is unchanged —
// the source-shard plan. No path crosses an epoch boundary: per-entry
// state always resets, so each epoch's first refresh runs one tree
// search per source shard. The edge stamps need no reset: the engine's
// solves draw them from one generation that only grows (the workspace
// keeps it), each solve numbering its iterations past every stamp an
// earlier solve left, so an old stamp is older than any entry a later
// solve computes and never marks it stale.
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <span>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/util/arena.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/parallel.hpp"

namespace tufp::detail {

// Margin for "path fits residual capacity" checks under the guard; keeps
// accumulated floating point from rejecting exactly-full edges.
inline constexpr double kFitSlack = 1e-9;

inline bool path_fits(const Path& path, std::span<const double> residual,
                      double demand) {
  for (const EdgeId e : path) {
    if (residual[static_cast<std::size_t>(e)] + kFitSlack < demand) {
      return false;
    }
  }
  return true;
}

class SpCache {
 public:
  struct Entry {
    Path path;
    double length = kInf;
    std::int64_t computed_at = -1;  // stamp epoch of the computation
    bool reachable = true;
    // Capacity-guard status as of the last recomputation; stays valid
    // until the entry goes stale (see header comment). Always true when
    // refresh() runs without a residual vector.
    bool fits = true;
  };

  // Binds to a graph for the cache's lifetime and to an initial request
  // batch (rebind() repoints later). The request span must stay alive
  // through every refresh()/entry() call until the next rebind.
  // `num_threads` is the solver config's (1 = serial, 0 = runtime
  // default); one engine is built per thread.
  SpCache(const Graph& graph, std::span<const Request> requests,
          int num_threads, SpKernel kernel = SpKernel::kAuto) {
    const int pool = effective_num_threads(num_threads);
    engines_.reserve(static_cast<std::size_t>(pool));
    for (int i = 0; i < pool; ++i) {
      engines_.push_back(std::make_unique<ShortestPathEngine>(graph, kernel));
    }
    scratch_targets_.resize(static_cast<std::size_t>(pool));
    group_of_source_.reset(static_cast<std::size_t>(graph.num_vertices()), -1);
    rebind(requests);
  }

  SpCache(const UfpInstance& instance, int num_threads,
          SpKernel kernel = SpKernel::kAuto)
      : SpCache(instance.graph(), instance.requests(), num_threads, kernel) {}

  // Points the cache at a new request batch. Per-entry state always
  // resets (paths and fit verdicts were judged under another epoch's
  // duals, residuals and blocked mask). The
  // source-shard plan is reused when the new batch's source sequence is
  // identical to the previous one — the common steady-state case the
  // plan_reuses() counter pins — and rebuilt otherwise via a
  // generation-map over the vertex universe (O(batch), not O(V)).
  void rebind(std::span<const Request> requests) {
    requests_ = requests;
    if (entries_.size() != requests.size()) {
      entries_.resize(requests.size());
    }
    for (Entry& e : entries_) {
      e.path.clear();
      e.length = kInf;
      e.computed_at = -1;
      e.reachable = true;
      e.fits = true;
    }
    bool same_plan = requests.size() == plan_sources_.size();
    if (same_plan) {
      for (std::size_t r = 0; r < requests.size(); ++r) {
        if (requests[r].source != plan_sources_[r]) {
          same_plan = false;
          break;
        }
      }
    }
    if (same_plan) {
      ++plan_reuses_;
      return;
    }
    build_plan();
  }

  // Ensures entries for `active` are shortest paths under `y`, where
  // edge_stamp[e] is the iteration at which e's weight last changed and
  // `now` the current iteration (both on the solve's generation: every
  // stamp a solve did not write is below its first `now`). With lazy=false everything recomputes.
  // A non-empty `residual` additionally refreshes Entry::fits against the
  // per-request demand. `profile`, when given, lets per-shard engines use
  // the bucket kernel (kAuto); it must be current for `y`. A non-empty
  // `blocked` mask excludes edges from every search.
  void refresh(std::span<const double> y,
               std::span<const std::int64_t> edge_stamp, std::int64_t now,
               std::span<const int> active, bool lazy,
               std::span<const double> residual = {},
               const WeightProfile* profile = nullptr,
               std::span<const std::uint8_t> blocked = {}) {
    TUFP_SPAN("sp_refresh");
    stale_count_ = 0;
    tree_runs_last_refresh_ = 0;
    for (Group& g : groups_) g.stale.clear();
    touched_groups_.clear();
    for (const int r : active) {
      Entry& entry = entries_[static_cast<std::size_t>(r)];
      if (!entry.reachable) continue;  // blocked set is static within a solve
      if (lazy && entry.computed_at >= 0 && is_current(entry, edge_stamp)) {
        continue;
      }
      Group& g = groups_[static_cast<std::size_t>(
          group_of_request_[static_cast<std::size_t>(r)])];
      if (g.stale.empty()) {
        touched_groups_.push_back(
            group_of_request_[static_cast<std::size_t>(r)]);
      }
      g.stale.push_back(r);
      ++stale_count_;
    }
    if (touched_groups_.empty()) return;
    tree_runs_last_refresh_ =
        static_cast<std::int64_t>(touched_groups_.size());

    const auto work = [&](std::size_t idx, int engine_id) {
      const Group& g =
          groups_[static_cast<std::size_t>(touched_groups_[idx])];
      // Per-engine (= per-thread) scratch keeps the steady-state refresh
      // loop allocation-free.
      std::vector<ShortestPathEngine::TreeTarget>& targets =
          scratch_targets_[static_cast<std::size_t>(engine_id)];
      targets.clear();
      targets.resize(g.stale.size());
      for (std::size_t i = 0; i < g.stale.size(); ++i) {
        const int r = g.stale[i];
        targets[i].vertex = requests_[static_cast<std::size_t>(r)].target;
        targets[i].path = &entries_[static_cast<std::size_t>(r)].path;
      }
      ShortestPathEngine& engine =
          *engines_[static_cast<std::size_t>(engine_id)];
      engine.shortest_tree(y, g.source, targets, blocked, profile);
      for (std::size_t i = 0; i < g.stale.size(); ++i) {
        const int r = g.stale[i];
        Entry& entry = entries_[static_cast<std::size_t>(r)];
        entry.length = targets[i].length;
        entry.computed_at = now;
        if (entry.length >= kInf) {
          entry.reachable = false;
          entry.fits = false;
          entry.path.clear();
          entry.computed_at = std::numeric_limits<std::int64_t>::max();
          continue;
        }
        entry.fits = residual.empty() ||
                     path_fits(entry.path, residual,
                               requests_[static_cast<std::size_t>(r)].demand);
      }
    };

    // One worker per engine: the pool size, resolved once at construction.
    parallel_for(touched_groups_.size(), static_cast<int>(engines_.size()),
                 work);
  }

  const Entry& entry(int r) const {
    return entries_[static_cast<std::size_t>(r)];
  }

  // Entries recomputed by the last refresh (the algorithmic
  // shortest-path count the solvers report).
  std::size_t recomputed_last_refresh() const { return stale_count_; }

  // Dijkstra tree searches the last refresh ran — one per source shard
  // with at least one stale entry.
  std::int64_t tree_runs_last_refresh() const {
    return tree_runs_last_refresh_;
  }

  // Shard-plan bookkeeping (pinned by test_sp_cache): how often the
  // source-shard plan was rebuilt vs reused across rebind()s.
  std::int64_t plan_builds() const { return plan_builds_; }
  std::int64_t plan_reuses() const { return plan_reuses_; }

 private:
  struct Group {
    VertexId source;
    std::vector<int> stale;  // stale requests this refresh, arrival order
  };

  void build_plan() {
    groups_.clear();
    group_of_request_.resize(requests_.size());
    plan_sources_.resize(requests_.size());
    group_of_source_.advance();
    for (std::size_t r = 0; r < requests_.size(); ++r) {
      const VertexId s = requests_[r].source;
      plan_sources_[r] = s;
      int g = group_of_source_.get(static_cast<std::size_t>(s));
      if (g < 0) {
        g = static_cast<int>(groups_.size());
        group_of_source_.set(static_cast<std::size_t>(s), g);
        groups_.push_back({s, {}});
      }
      group_of_request_[r] = g;
    }
    ++plan_builds_;
  }

  static bool is_current(const Entry& entry,
                         std::span<const std::int64_t> edge_stamp) {
    for (EdgeId e : entry.path) {
      // An edge stamped *at* the entry's epoch was updated after that
      // refresh ran (refresh happens at the top of an iteration, the
      // selected path's update at its bottom), so >= — not > — is the
      // staleness condition.
      if (edge_stamp[static_cast<std::size_t>(e)] >= entry.computed_at) {
        return false;
      }
    }
    return true;
  }

  std::span<const Request> requests_;
  std::vector<Entry> entries_;
  std::vector<std::unique_ptr<ShortestPathEngine>> engines_;
  std::vector<std::vector<ShortestPathEngine::TreeTarget>> scratch_targets_;
  std::vector<Group> groups_;
  std::vector<int> group_of_request_;
  std::vector<VertexId> plan_sources_;  // source signature of the plan
  GenerationMap<int> group_of_source_;
  std::vector<int> touched_groups_;
  std::size_t stale_count_ = 0;
  std::int64_t tree_runs_last_refresh_ = 0;
  std::int64_t plan_builds_ = 0;
  std::int64_t plan_reuses_ = 0;
};

}  // namespace tufp::detail
