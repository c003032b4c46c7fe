// Algorithm 1's selection loop (internal header), written once and
// instantiated twice: the solve (bounded_ufp.cpp) and the shadowed
// critical-value replay (critical_replay.cpp). Keep the two forms in
// separate translation units: with both in one unit SpCache::refresh has
// two call sites there and the compiler stops inlining it into the
// solve, which measurably slows the dual-price serving path.
//
// Line 4's state reaches the loop as LoopArrays. Every cold caller — the
// UfpInstance solve, the critical-value replays — builds it in O(m)
// (init_duals); the engine's solve passes its residual graph's overlay,
// kept at the epoch-start values edge by edge, and gets every written
// edge rolled back when the solve's scope ends.
#pragma once

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/detail/sp_cache.hpp"
#include "tufp/ufp/detail/substrate.hpp"
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

// The request a shadowed replay tracks but never selects, and the
// running minimum of the bids at which it would have been selected
// (bounded_ufp_critical_value).
struct Shadow {
  int request = -1;
  double critical = kInf;
};

// Lowers `*critical` to the smallest positive double bid v <= *critical
// at which the shadowed request (demand d, current path length L) wins
// one selection scan against the best other candidate, of priority
// `alpha`; `wins_ties` is whether the shadow's id is the lower one. The
// predicate is the scan's own comparison in the same floating point, and
// d/v*L is non-increasing in v, so bisecting the ordered bit patterns of
// the positive doubles finds the exact boundary in at most 64 probes.
inline void lower_critical(double demand, double length, double alpha,
                           bool wins_ties, double* critical) {
  const auto wins = [&](double v) {
    const double priority = demand / v * length;
    return priority < alpha || (priority == alpha && wins_ties);
  };
  const double top =
      std::min(*critical, std::numeric_limits<double>::max());
  if (!wins(top)) return;
  std::uint64_t lo = 0;  // +0.0: not a bid
  std::uint64_t hi = std::bit_cast<std::uint64_t>(top);
  while (hi - lo > 1) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (wins(std::bit_cast<double>(mid))) {
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

// Algorithm 1's loop, written once against the substrate. A non-null
// `arrays` is the engine's solve over the persistent residual graph with
// its workspace; null builds cold arrays from the substrate.
// kShadow instantiates the critical-value replay: `shadow->request`
// stays in `remaining`, so its entry is refreshed every iteration, but
// the scan skips it; after each scan its winning-bid threshold is folded
// into `shadow->critical`. A bid moves only its own priority, so this is
// the run without the shadow, which is also the real run for every bid
// at which the shadow keeps losing.
template <bool kShadow>
BoundedUfpResult run_bounded_ufp(const Substrate& sub,
                                 const BoundedUfpConfig& config,
                                 SpCache& cache,
                                 LoopArrays* arrays = nullptr,
                                 [[maybe_unused]] Shadow* shadow = nullptr) {
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
  const std::int64_t first_stamp = now + 1;
  const double threshold = std::exp(eps * (B - 1.0));

  std::vector<int> remaining(static_cast<std::size_t>(R));
  for (int r = 0; r < R; ++r) remaining[static_cast<std::size_t>(r)] = r;

  const std::span<const double> guard_residual =
      config.capacity_guard ? std::span<const double>(residual)
                            : std::span<const double>();

  double primal_value = 0.0;

  // Line 5: while (L != empty and sum c_e y_e <= e^{eps(B-1)}).
  while (!remaining.empty()) {
    if (!config.run_to_saturation && dual_sum > threshold) {
      result.stopped_by_threshold = true;
      break;
    }
    ++now;
    cache.refresh(y, edge_stamp, now, remaining, config.lazy_shortest_paths,
                  guard_residual, &profile, sub.blocked);
    result.sp_computations +=
        static_cast<std::int64_t>(cache.recomputed_last_refresh());
    result.sp_tree_runs += cache.tree_runs_last_refresh();

    // Line 9: request minimizing (d_r/v_r)|p_r|; deterministic tie-break on
    // request id. alpha_cert tracks the minimum over *all* remaining
    // reachable requests (needed for the dual certificate regardless of
    // which requests the guard filters).
    int best = -1;
    double best_priority = kInf;
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
      // path rescan. Sound here because this loop's residual is monotone
      // non-increasing and every decrement stamps its edge; a driver that
      // ever *returns* capacity mid-run (lease reclaim) must stamp the
      // reclaimed edges too, or this read serves stale negative verdicts.
      if (config.capacity_guard && !entry.fits) continue;
      if (priority < best_priority) {
        best_priority = priority;
        best = r;
      }
    }

    if (alpha_cert < kInf && alpha_cert > 0.0) {
      // Claim 3.6 machinery: (y/alpha, z) with z_r = v_r for selected
      // requests is dual feasible, so its value bounds the fractional OPT.
      result.dual_upper_bound = std::min(result.dual_upper_bound,
                                         dual_sum / alpha_cert + primal_value);
    }

    if constexpr (kShadow) {
      const int w = shadow->request;
      const auto& entry = cache.entry(w);
      if (entry.reachable && (!config.capacity_guard || entry.fits)) {
        if (best < 0) {
          // Alone in fitting: selected here at any bid, so the
          // threshold is 0 (and the run without it ends anyway).
          shadow->critical = 0.0;
          break;
        }
        lower_critical(sub.requests[static_cast<std::size_t>(w)].demand,
                       entry.length, best_priority, w < best,
                       &shadow->critical);
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
    }
    result.solution.assign(best, entry.path);
    primal_value += req.value;
    ++result.iterations;
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));

    if (config.record_trace) {
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

  if (config.classify_rejections) {
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
            if (judged[static_cast<std::size_t>(e)] + kFitSlack <
                req.demand) {
              rec.bottleneck = e;
              break;
            }
          }
        }
      }
      result.rejections.push_back(std::move(rec));
    }
  }

  result.final_dual_sum = dual_sum;
  if (config.export_duals) {
    if (cold) {
      result.y = std::move(cold->y);
    } else {
      result.y.assign(y.begin(), y.end());  // the overlay rolls its own back
    }
  }
  return result;
}

}  // namespace tufp::detail
