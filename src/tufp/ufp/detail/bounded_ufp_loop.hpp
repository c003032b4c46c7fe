// Algorithm 1's selection loop (internal header), written once and
// instantiated in four forms (LoopForm): the solve in bounded_ufp.cpp,
// and in critical_replay.cpp the checkpointed solve, the eager replay
// and the pricing replay. Keep the solve alone in its translation unit:
// with a second form in the same unit SpCache::refresh has two call
// sites there and the compiler stops inlining it into the solve, which
// measurably slows the dual-price serving path (DESIGN.md §4).
//
// Line 4's state reaches the loop as LoopArrays. Every cold caller — the
// UfpInstance solve, the cold critical-value replay — builds it in O(m)
// (init_duals); the engine's solves pass a lane of their residual graph's
// overlay, kept at the epoch-start values edge by edge, and get every
// written edge rolled back when the overlay's scope ends.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/detail/solve_log.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/detail/substrate.hpp"
#include "tufp/ufp/detail/workspace_access.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp::detail {

inline void validate_config(const Substrate& sub,
                            const BoundedUfpConfig& config) {
  TUFP_REQUIRE(config.epsilon > 0.0 && config.epsilon <= 1.0,
               "epsilon outside (0,1]");
  TUFP_REQUIRE(sub.num_active > 0, "Bounded-UFP needs at least one active edge");
  TUFP_REQUIRE(sub.B >= 1.0, "Bounded-UFP requires B = min capacity >= 1");
  TUFP_REQUIRE(config.epsilon * sub.B <= kMaxSafeExponent,
               "eps*B too large for double-range weights (see DESIGN.md §6)");
  TUFP_REQUIRE(!config.run_to_saturation || config.capacity_guard,
               "run_to_saturation requires the capacity guard");
}

// The loop's four forms.
enum class LoopForm {
  kSolve,         // Algorithm 1
  kCheckpointed,  // the same solve, logging its checkpoints (SolveLog)
  kReplay,        // from line 4 or resumed at a checkpoint, one request
                  // shadowed
  kPricing,       // kReplay resumed at the shadow's selection, with a lazy
                  // scan in place of the refresh (winner_critical_value)
};

// The request a replay tracks but never selects (-1: none, the run
// itself resumed), and the running minimum of the bids at which it would
// have been selected (bounded_ufp_critical_value).
struct Shadow {
  int request = -1;
  double critical = kInf;
};

// Whether the shadowed request (demand d, path length L) at bid v wins
// one selection scan against the best other candidate, of priority
// `alpha`; `wins_ties` is whether the shadow's id is the lower one. This
// is the scan's own comparison in the same floating point. d/v*L is
// non-increasing in v and non-decreasing in L.
inline bool shadow_wins(double demand, double length, double v, double alpha,
                        bool wins_ties) {
  const double priority = demand / v * length;
  return priority < alpha || (priority == alpha && wins_ties);
}

// lower_critical's first probe: whether the shadow wins at the running
// minimum `critical` (the largest double while that is infinite), that
// is, whether lower_critical lowers it at all.
inline bool can_lower_critical(double demand, double length, double alpha,
                               bool wins_ties, double critical) {
  return shadow_wins(demand, length,
                     std::min(critical, std::numeric_limits<double>::max()),
                     alpha, wins_ties);
}

// Lowers `*critical` to the smallest positive double bid v <= *critical
// at which the shadow wins the scan. shadow_wins is monotone in v, so
// bisecting the ordered bit patterns of the positive doubles finds the
// exact boundary in at most 64 probes.
inline void lower_critical(double demand, double length, double alpha,
                           bool wins_ties, double* critical) {
  if (!can_lower_critical(demand, length, alpha, wins_ties, *critical)) {
    return;
  }
  std::uint64_t lo = 0;  // +0.0: not a bid
  std::uint64_t hi = std::bit_cast<std::uint64_t>(
      std::min(*critical, std::numeric_limits<double>::max()));
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (shadow_wins(demand, length, std::bit_cast<double>(mid), alpha,
                    wins_ties)) {
      hi = mid;
    } else {
      lo = mid;
    }
  }
  *critical = std::bit_cast<double>(hi);
}

// Algorithm 1's working arrays at line 4: the duals y, the guard's
// residual working copy and the lazy cache's per-edge iteration stamps.
// A cold solve builds its own (init_duals, O(m)); the engine's solve
// borrows its residual graph's SolveOverlay, which holds y and the
// residual at their epoch-start values between solves
// (graph/residual_csr.hpp), plus its workspace's stamps, so it starts
// with no O(m) pass.
struct LoopArrays {
  std::span<double> y;
  std::span<double> residual;
  std::span<std::int64_t> edge_stamp;
  // Iteration stamps issued so far, every edge_stamp entry included: the
  // loop numbers its iterations on from here and leaves the last one.
  std::int64_t* generation = nullptr;
  WeightProfile profile;
  double dual_sum = 0.0;
  // The overlay's undo log: the loop appends each edge the first time it
  // writes it. Null for cold arrays, which are simply dropped.
  std::vector<EdgeId>* written = nullptr;
};

// An engine solve's line-4 arrays: a lane of the residual graph's
// overlay, holding y and the residual at their epoch-start values, with
// the given stamps and generation, and the epoch-start duals' profile and
// sum (D1(0) = |active|).
inline LoopArrays overlay_arrays(ResidualGraph::SolveOverlay& overlay,
                                 const ResidualGraph& rgraph,
                                 std::span<std::int64_t> edge_stamp,
                                 std::int64_t* generation) {
  LoopArrays arrays;
  arrays.y = overlay.duals();
  arrays.residual = overlay.residual();
  arrays.edge_stamp = edge_stamp;
  arrays.generation = generation;
  arrays.profile = rgraph.dual_profile();
  arrays.dual_sum = static_cast<double>(rgraph.num_active());
  arrays.written = &overlay.written();
  return arrays;
}

// A cold solve's own line-4 arrays: y_e = 1/c_e on active edges,
// D1(0) = sum c_e y_e = |active|, the residual copied from the
// capacities and all stamps at generation 0. The profile is kept current
// incrementally as y inflates: enables the bucket-queue kernel while the
// key range is bounded (§6).
struct ColdArrays {
  std::vector<double> y;
  std::vector<double> residual;
  std::vector<std::int64_t> edge_stamp;
  std::int64_t generation = 0;
  LoopArrays view;

  explicit ColdArrays(const Substrate& sub)
      : residual(sub.capacities.begin(), sub.capacities.end()),
        edge_stamp(sub.capacities.size(), 0) {
    init_duals(sub, &y, &view.dual_sum, &view.profile);
    view.y = y;
    view.residual = residual;
    view.edge_stamp = edge_stamp;
    view.generation = &generation;
  }
  ColdArrays(const ColdArrays&) = delete;  // view points into the vectors
  ColdArrays& operator=(const ColdArrays&) = delete;
};

// Where a replay resumes: checkpoint k of a logged solve, rebuilt on the
// replay's arrays (their y, residual, stamps, generation, profile and
// dual_sum hold the state just after iteration k's refresh) and cache
// (its entries as that refresh left them), plus what the run had
// produced by then. The loop enters iteration k at its scan.
struct ResumePoint {
  std::vector<int> remaining;  // ascending
  double primal_value = 0.0;
  BoundedUfpResult result;  // the solution, bounds and counters so far
  std::int64_t first_stamp = 0;  // the logged solve's first iteration
};

// Algorithm 1's loop, written once against the substrate. A non-null
// `arrays` is an engine solve over a lane of the persistent residual
// graph with its workspace; null builds cold arrays from the substrate.
// kCheckpointed also records the run in `log`. kReplay runs with
// `shadow->request` shadowed: it stays in `remaining`, so its entry is
// refreshed every iteration, but the scan skips it; after each scan its
// winning-bid threshold is folded into `shadow->critical`. A bid moves
// only its own priority, so this is the run without the shadow, which is
// also the real run for every bid at which the shadow keeps losing. A
// replay starts at line 4, or at `resume` when one is given. The two
// solves fill result.trace, one record per selection; the replays leave
// it empty.
//
// kPricing is kReplay resumed, with no refresh: each scan recomputes only
// the stale entries that can still decide it (Minoux's lazy greedy).
// y only grows, so a stale entry's cached priority is a lower bound on
// its eager one, and a current entry's is exact (sp_cache.hpp). The scan
// takes the (priority, id) minimum over the others, a stale entry at its
// cached length whatever its last fit verdict, a current one only if it
// fits; a stale minimum is recomputed and the scan runs again, until the
// minimum is current. That minimum is the eager scan's winner, at the
// same priority. The shadow is recomputed only when its cached length
// wins lower_critical's first probe, or when nothing else fits. The
// entries recomputed are counted in the result's sp counters, one search
// each. Winners, thresholds and the shadow's critical value equal
// kReplay's to the bit; dual_upper_bound is not tracked.
template <LoopForm kForm>
BoundedUfpResult run_bounded_ufp(const Substrate& sub,
                                 const BoundedUfpConfig& config,
                                 SpCache& cache,
                                 LoopArrays* arrays = nullptr,
                                 [[maybe_unused]] SolveLog* log = nullptr,
                                 [[maybe_unused]] Shadow* shadow = nullptr,
                                 [[maybe_unused]] ResumePoint* resume = nullptr) {
  constexpr bool kLogged = kForm == LoopForm::kCheckpointed;
  constexpr bool kLazy = kForm == LoopForm::kPricing;
  constexpr bool kShadow = kForm == LoopForm::kReplay || kLazy;
  const double B = sub.B;
  const double eps = config.epsilon;
  const int R = static_cast<int>(sub.requests.size());

  BoundedUfpResult result{UfpSolution(R)};
  result.dual_upper_bound = kInf;

  std::optional<ColdArrays> cold;
  if (arrays == nullptr) arrays = &cold.emplace(sub).view;
  const std::span<double> y = arrays->y;
  const std::span<double> residual = arrays->residual;
  const std::span<std::int64_t> edge_stamp = arrays->edge_stamp;
  std::vector<EdgeId>* const written = arrays->written;
  double dual_sum = arrays->dual_sum;
  WeightProfile profile = arrays->profile;
  std::int64_t& now = *arrays->generation;
  std::int64_t first_stamp = now + 1;
  const double threshold = std::exp(eps * (B - 1.0));

  std::vector<int> remaining;
  double primal_value = 0.0;
  // A resumed replay's first iteration was refreshed by the logged solve.
  [[maybe_unused]] bool at_scan = false;
  if constexpr (kShadow) {
    if (resume != nullptr) {
      remaining = std::move(resume->remaining);
      primal_value = resume->primal_value;
      result = std::move(resume->result);
      first_stamp = resume->first_stamp;
      at_scan = true;
    }
  }
  if (!at_scan) {
    remaining.resize(static_cast<std::size_t>(R));
    for (int r = 0; r < R; ++r) remaining[static_cast<std::size_t>(r)] = r;
  }

  const std::span<const double> guard_residual =
      config.capacity_guard ? std::span<const double>(residual)
                            : std::span<const double>();
  // kPricing's one-entry recomputation, through the refresh.
  [[maybe_unused]] const auto recompute = [&](int r) {
    cache.refresh(y, edge_stamp, now, std::span<const int>(&r, 1),
                  guard_residual, &profile, sub.blocked);
    ++result.sp_computations;
    ++result.sp_tree_runs;
  };

  // Line 5: while (L != empty and sum c_e y_e <= e^{eps(B-1)}).
  while (!remaining.empty()) {
    if (!kShadow || !std::exchange(at_scan, false)) {
      if (!config.run_to_saturation && dual_sum > threshold) {
        result.stopped_by_threshold = true;
        break;
      }
      ++now;
      if constexpr (!kLazy) {
        cache.refresh(y, edge_stamp, now, remaining, guard_residual, &profile,
                      sub.blocked);
        result.sp_computations +=
            static_cast<std::int64_t>(cache.recomputed_last_refresh());
        result.sp_tree_runs += cache.tree_runs_last_refresh();
      }
      if constexpr (kLogged) {
        SolveLog::Iteration& it = log->iterations.emplace_back();
        it.stamp = now;
        it.dual_sum = dual_sum;
        it.profile = profile;
        it.primal_value = primal_value;
        it.dual_upper_bound = result.dual_upper_bound;
        it.sp_computations = result.sp_computations;
        it.sp_tree_runs = result.sp_tree_runs;
        cache.for_each_recomputed([&](int r) {
          const auto& entry = cache.entry(r);
          const std::size_t begin = log->path_edges.size();
          log->path_edges.insert(log->path_edges.end(), entry.path.begin(),
                                 entry.path.end());
          log->recomputed.push_back({r, entry.length, entry.computed_at,
                                     entry.reachable, entry.fits, begin,
                                     log->path_edges.size()});
        });
        it.recomputed_end = log->recomputed.size();
        it.writes_end = log->writes.size();
      }
    }

    // Line 9: request minimizing (d_r/v_r)|p_r|; deterministic tie-break on
    // request id. alpha_cert tracks the minimum over *all* remaining
    // reachable requests (needed for the dual certificate regardless of
    // which requests the guard filters).
    int best = -1;
    double best_priority = kInf;
    if constexpr (kLazy) {
      for (;;) {
        for (int r : remaining) {
          if (r == shadow->request) continue;
          const auto& entry = cache.entry(r);
          if (!entry.reachable) continue;
          const Request& req = sub.requests[static_cast<std::size_t>(r)];
          const double priority = req.demand / req.value * entry.length;
          if (!(priority < best_priority)) continue;
          // A stale "does not fit" may fit on its recomputed path.
          if (config.capacity_guard && !entry.fits &&
              cache.current(r, edge_stamp)) {
            continue;
          }
          best_priority = priority;
          best = r;
        }
        if (best < 0 || cache.current(best, edge_stamp)) break;
        recompute(best);
        best = -1;
        best_priority = kInf;
      }
    } else {
      double alpha_cert = kInf;
      for (int r : remaining) {
        if constexpr (kShadow) {
          if (r == shadow->request) continue;
        }
        const auto& entry = cache.entry(r);
        if (!entry.reachable) continue;
        const Request& req = sub.requests[static_cast<std::size_t>(r)];
        const double priority = req.demand / req.value * entry.length;
        alpha_cert = std::min(alpha_cert, priority);
        // Guard status is cached in the entry (sp_cache.hpp): it can only
        // change when the entry itself goes stale, so no per-iteration
        // path rescan. Sound here because this loop's residual is
        // monotone non-increasing and every decrement stamps its edge; a
        // driver that ever *returns* capacity mid-run (lease reclaim)
        // must stamp the reclaimed edges too, or this read serves stale
        // negative verdicts.
        if (config.capacity_guard && !entry.fits) continue;
        if (priority < best_priority) {
          best_priority = priority;
          best = r;
        }
      }

      if (alpha_cert < kInf && alpha_cert > 0.0) {
        // Claim 3.6 machinery: (y/alpha, z) with z_r = v_r for selected
        // requests is dual feasible, so its value bounds the fractional
        // OPT.
        result.dual_upper_bound = std::min(
            result.dual_upper_bound, dual_sum / alpha_cert + primal_value);
      }
    }

    if constexpr (kLogged) log->iterations.back().best = best;
    if constexpr (kShadow) {
      const int w = shadow->request;
      if (w >= 0) {
        const double demand = sub.requests[static_cast<std::size_t>(w)].demand;
        const bool wins_ties = w < best;
        if constexpr (kLazy) {
          // A stale shadow that loses the first probe at its cached length
          // loses it at today's too: lower_critical would change nothing.
          const auto& cached = cache.entry(w);
          if (cached.reachable && !cache.current(w, edge_stamp) &&
              (best < 0 || can_lower_critical(demand, cached.length,
                                              best_priority, wins_ties,
                                              shadow->critical))) {
            recompute(w);
          }
        }
        const auto& entry = cache.entry(w);
        if (entry.reachable && (!config.capacity_guard || entry.fits)) {
          if (best < 0) {
            // Alone in fitting: selected here at any bid, so the
            // threshold is 0 (and the run without it ends anyway).
            shadow->critical = 0.0;
            break;
          }
          lower_critical(demand, entry.length, best_priority, wins_ties,
                         &shadow->critical);
        }
      }
    }

    if (best < 0) break;  // nothing reachable (or nothing fits under guard)

    // Lines 10-12: inflate weights along the chosen path, commit request.
    const Request& req = sub.requests[static_cast<std::size_t>(best)];
    const auto& entry = cache.entry(best);
    const double dual_before = dual_sum;
    for (EdgeId e : entry.path) {
      const auto ei = static_cast<std::size_t>(e);
      if (written != nullptr && edge_stamp[ei] < first_stamp) {
        written->push_back(e);  // first write of e in this solve
      }
      const double cap = sub.capacities[ei];
      const double old_y = y[ei];
      y[ei] = old_y * std::exp(eps * B * req.demand / cap);
      dual_sum += cap * (y[ei] - old_y);
      edge_stamp[ei] = now;
      residual[ei] -= req.demand;
      profile.include(y[ei]);
      if constexpr (kLogged) log->writes.push_back({e, y[ei], residual[ei]});
    }
    result.solution.assign(best, entry.path);
    primal_value += req.value;
    ++result.iterations;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));
    if constexpr (kLogged) {
      log->iterations.back().writes_end = log->writes.size();
      log->selected_at[static_cast<std::size_t>(best)] =
          static_cast<int>(log->iterations.size());
    }

    if constexpr (!kShadow) {
      result.trace.push_back({best, best_priority, dual_before, primal_value});
    }
  }

  // Everything routed: the solution is optimal, so its own value is a
  // valid (tight) upper bound. Summed in request order, as
  // UfpSolution::total_value and the engine's admitted_value are, so the
  // bound equals the reported value to the bit (Claim 3.6 checked
  // exactly); primal_value above is in selection order.
  if (remaining.empty()) {
    double total = 0.0;
    for (const Request& req : sub.requests) total += req.value;
    result.dual_upper_bound = std::min(result.dual_upper_bound, total);
  }

  result.final_dual_sum = dual_sum;
  // The entry point decides what leaves the loop: a replay its threshold
  // and its run, a cold solve its duals (a move), and the engine's solves
  // over the residual graph their rejection records (the overlay rolls
  // the duals back).
  if (kShadow) return result;
  if (cold) {
    result.y = std::move(cold->y);
    return result;
  }

  // Serial exit-state classification (DESIGN.md §14): every input here —
  // cached entries, the live residual, the epoch-start capacities — is a
  // deterministic function of the admission history, so the records are
  // byte-identical across kernels and thread counts.
  // Staleness is benign AND deterministic: in saturation mode the loop
  // exits right after a refresh (entries fresh); under the faithful
  // threshold any still-fitting request is lost_auction regardless of
  // whether a late winner touched its path.
  result.rejections.reserve(remaining.size());
  for (const int r : remaining) {  // ascending: erase() keeps the order
    const auto& entry = cache.entry(r);
    const Request& req = sub.requests[static_cast<std::size_t>(r)];
    RejectionRecord rec;
    rec.request = r;
    if (!entry.reachable) {
      rec.reason = RejectReason::kNoPath;
    } else if (entry.length >= kInf) {
      // Threshold crossed before the first refresh ever ran: nothing
      // was computed, the request simply never got an auction round.
      rec.reason = RejectReason::kLostAuction;
    } else {
      rec.density = req.demand / req.value * entry.length;
      rec.path = entry.path;
      if (path_fits(entry.path, residual, req.demand)) {
        rec.reason = RejectReason::kLostAuction;
      } else {
        const std::span<const double> at_start = sub.capacities;
        rec.reason = path_fits(entry.path, at_start, req.demand)
                         ? RejectReason::kCapacityRace
                         : RejectReason::kBlockedAtStart;
        const std::span<const double> judged =
            rec.reason == RejectReason::kCapacityRace
                ? std::span<const double>(residual)
                : at_start;
        for (const EdgeId e : entry.path) {
          if (judged[static_cast<std::size_t>(e)] + kFitSlack < req.demand) {
            rec.bottleneck = e;
            break;
          }
        }
      }
    }
    result.rejections.push_back(std::move(rec));
  }
  return result;
}

}  // namespace tufp::detail
