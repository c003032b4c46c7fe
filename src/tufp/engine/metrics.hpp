// Engine observability: counters plus latency/throughput distributions.
//
// Two kinds of numbers come out of the engine and they must not be mixed:
//   * deterministic load metrics (request/admission counters, revenue,
//     virtual-clock queueing delay) — identical across runs and thread
//     counts, safe to assert on in tests and to diff across machines;
//   * wall-clock performance metrics (epoch solve time, throughput) —
//     machine-dependent, reported separately.
// EngineMetrics keeps both but the report printers only put the first kind
// on the deterministic channel (see tools/tufp_engine.cpp).
//
// The histogram is fixed-bucket geometric: cheap O(1) record, mergeable,
// and percentile queries that never allocate on the hot path — the shape
// hdrhistogram-style serving systems use, sized down to what the bench
// actually reads out.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "tufp/util/stats.hpp"

namespace tufp {

// Geometric-bucket histogram over positive values. Bucket i covers
// [min_value * growth^i, min_value * growth^(i+1)); underflow clamps to
// bucket 0, overflow to the last bucket.
class GeometricHistogram {
 public:
  GeometricHistogram(double min_value = 1e-6, double growth = 2.0,
                     int num_buckets = 40);

  void record(double value);
  void merge(const GeometricHistogram& other);

  std::int64_t count() const { return total_; }
  // Percentile estimate (upper edge of the bucket holding rank q*count).
  // q in [0,1]; 0 on an empty histogram.
  double percentile(double q) const;
  const RunningStats& stats() const { return stats_; }

  // JSON snapshot for the telemetry layer (DESIGN.md §11): total count
  // plus the occupied buckets as [lower edge, upper edge, count] triples
  // in bucket order. Rendered through util/json.hpp's canonical %.17g
  // formatter, so two histograms with identical contents serialize
  // byte-identically — across thread counts, kernels and machines (no
  // printf-formatting drift; the unit tests pin t1 == t4).
  std::string to_json() const;

 private:
  double min_value_;
  double log_growth_;
  std::vector<std::int64_t> buckets_;
  std::int64_t total_ = 0;
  RunningStats stats_;
};

// Monotone counters aggregated over the engine's lifetime. All values are
// deterministic functions of the request stream and engine config.
struct EngineCounters {
  std::int64_t epochs = 0;
  std::int64_t requests_seen = 0;    // pulled from the stream
  std::int64_t queue_dropped = 0;    // shed by the bounded queue
  std::int64_t admitted = 0;
  std::int64_t rejected = 0;         // offered to an auction, not allocated
  std::int64_t invalid_rejected = 0; // malformed bids shed before any auction

  // Per-outcome split of `rejected` (DESIGN.md §14): every valid-but-
  // rejected request is classified at the solver's serial exit into
  // exactly one bucket, so no_path + capacity_blocked + lost_auction +
  // shard_conflict == rejected. Deterministic across kernels and thread
  // counts; pinned byte for byte by the telemetry goldens.
  std::int64_t no_path = 0;
  std::int64_t capacity_blocked = 0;
  std::int64_t lost_auction = 0;
  // Fit the epoch-start residual, lost the capacity race within the epoch.
  std::int64_t shard_conflict = 0;
  double offered_value = 0.0;        // sum of bids offered to auctions
  double admitted_value = 0.0;       // sum of winning bids
  double revenue = 0.0;              // sum of payments charged
  std::int64_t solver_iterations = 0;
  std::int64_t sp_computations = 0;
  std::int64_t sp_tree_runs = 0;  // Dijkstra trees behind sp_computations
  // The kCritical winner replays' recomputed shortest paths
  // (AdmissionReport::payment_sp_computations); not in summary().
  std::int64_t payment_sp_computations = 0;

  // Temporal lease churn (DESIGN.md §10). finite_leases counts admissions
  // with a finite duration; leases_expired counts reclamations. Both stay
  // zero on an all-infinite workload, which is what keeps the summary
  // output of pre-temporal runs byte-identical.
  std::int64_t finite_leases = 0;
  std::int64_t leases_expired = 0;

  // Always 0: perfbench/driver.cpp still reads them; the next benchmark
  // change deletes them together with the ufp.trees_* metrics.
  std::int64_t trees_kept_on_reclaim = 0;
  std::int64_t trees_dropped_on_reclaim = 0;
};

class EngineMetrics {
 public:
  EngineCounters& counters() { return counters_; }
  const EngineCounters& counters() const { return counters_; }

  // Virtual-clock time from a request's arrival to the close of the epoch
  // that decided it (deterministic).
  GeometricHistogram& admission_delay() { return admission_delay_; }
  const GeometricHistogram& admission_delay() const { return admission_delay_; }

  // Wall-clock seconds per epoch solve (machine-dependent).
  GeometricHistogram& solve_seconds() { return solve_seconds_; }
  const GeometricHistogram& solve_seconds() const { return solve_seconds_; }

  // Wall-clock seconds per epoch-boundary lease reclaim (machine-
  // dependent). The steady-state bench reads this to show expiry
  // processing stays amortized O(1) as the horizon grows.
  GeometricHistogram& reclaim_seconds() { return reclaim_seconds_; }
  const GeometricHistogram& reclaim_seconds() const {
    return reclaim_seconds_;
  }

  RunningStats& batch_sizes() { return batch_sizes_; }
  const RunningStats& batch_sizes() const { return batch_sizes_; }

  double admitted_fraction() const;

  // Lease gauges, refreshed by the engine after every reclaim/admission
  // round: currently active leases and occupancy = leased capacity /
  // total base capacity. Deterministic.
  void set_lease_gauges(std::int64_t active_leases, double occupancy) {
    active_leases_ = active_leases;
    occupancy_ = occupancy;
  }
  std::int64_t active_leases() const { return active_leases_; }
  double occupancy() const { return occupancy_; }

  // Multi-line human-readable dump. Deterministic block only unless
  // `include_wall_clock`.
  std::string summary(bool include_wall_clock) const;

 private:
  EngineCounters counters_;
  GeometricHistogram admission_delay_;
  GeometricHistogram solve_seconds_;
  GeometricHistogram reclaim_seconds_;
  RunningStats batch_sizes_;
  std::int64_t active_leases_ = 0;
  double occupancy_ = 0.0;
};

}  // namespace tufp
