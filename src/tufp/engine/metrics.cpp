#include "tufp/engine/metrics.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tufp/util/assert.hpp"
#include "tufp/util/json.hpp"
#include "tufp/util/table.hpp"

namespace tufp {

GeometricHistogram::GeometricHistogram(double min_value, double growth,
                                       int num_buckets)
    : min_value_(min_value),
      log_growth_(std::log(growth)),
      buckets_(static_cast<std::size_t>(num_buckets), 0) {
  TUFP_REQUIRE(min_value > 0.0, "histogram min_value must be positive");
  TUFP_REQUIRE(growth > 1.0, "histogram growth must exceed 1");
  TUFP_REQUIRE(num_buckets >= 1, "histogram needs at least one bucket");
}

void GeometricHistogram::record(double value) {
  TUFP_REQUIRE(value >= 0.0, "histogram values must be non-negative");
  std::size_t index = 0;
  if (value > min_value_) {
    const double raw = std::log(value / min_value_) / log_growth_;
    index = std::min(buckets_.size() - 1,
                     static_cast<std::size_t>(std::max(0.0, raw)));
  }
  ++buckets_[index];
  ++total_;
  stats_.add(value);
}

void GeometricHistogram::merge(const GeometricHistogram& other) {
  TUFP_REQUIRE(buckets_.size() == other.buckets_.size() &&
                   min_value_ == other.min_value_ &&
                   log_growth_ == other.log_growth_,
               "histogram merge requires identical bucket layouts");
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  total_ += other.total_;
  stats_.merge(other.stats_);
}

double GeometricHistogram::percentile(double q) const {
  TUFP_REQUIRE(q >= 0.0 && q <= 1.0, "percentile q outside [0,1]");
  if (total_ == 0) return 0.0;
  const auto rank = static_cast<std::int64_t>(
      std::ceil(q * static_cast<double>(total_)));
  std::int64_t seen = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    seen += buckets_[i];
    if (seen >= rank) {
      return min_value_ * std::exp(log_growth_ * static_cast<double>(i + 1));
    }
  }
  return min_value_ *
         std::exp(log_growth_ * static_cast<double>(buckets_.size()));
}

std::string GeometricHistogram::to_json() const {
  // Empty histograms short-circuit to a pinned literal: no bucket-edge
  // arithmetic, no RunningStats reads — nothing that could push a nan or
  // inf through the %.17g formatter into a det event
  // (GeometricHistogram.EmptyHistogramSerializesCleanly).
  if (total_ == 0) {
    JsonObject empty;
    empty.field("count", std::int64_t{0}).raw("buckets", "[]");
    return empty.str();
  }
  std::ostringstream buckets;
  buckets << '[';
  bool first = true;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    // Edges recomputed exactly as percentile() does: min * growth^i.
    const double lo =
        min_value_ * std::exp(log_growth_ * static_cast<double>(i));
    const double hi =
        min_value_ * std::exp(log_growth_ * static_cast<double>(i + 1));
    if (!first) buckets << ',';
    first = false;
    buckets << '[' << json_double(lo) << ',' << json_double(hi) << ','
            << buckets_[i] << ']';
  }
  buckets << ']';
  JsonObject obj;
  obj.field("count", total_).raw("buckets", buckets.str());
  return obj.str();
}

double EngineMetrics::admitted_fraction() const {
  const std::int64_t offered = counters_.admitted + counters_.rejected;
  return offered > 0
             ? static_cast<double>(counters_.admitted) / static_cast<double>(offered)
             : 0.0;
}

std::string EngineMetrics::summary(bool include_wall_clock) const {
  std::ostringstream os;
  const EngineCounters& c = counters_;
  os << "epochs=" << c.epochs << " requests=" << c.requests_seen
     << " queue_dropped=" << c.queue_dropped << " admitted=" << c.admitted
     << " rejected=" << c.rejected << " invalid=" << c.invalid_rejected
     << "\n"
     << "rejects: no_path=" << c.no_path
     << " capacity_blocked=" << c.capacity_blocked
     << " lost_auction=" << c.lost_auction
     << " shard_conflict=" << c.shard_conflict << "\n"
     << "admitted_fraction=" << Table::format_double(admitted_fraction(), 4)
     << " offered_value=" << Table::format_double(c.offered_value, 2)
     << " admitted_value=" << Table::format_double(c.admitted_value, 2)
     << " revenue=" << Table::format_double(c.revenue, 2) << "\n"
     << "solver_iterations=" << c.solver_iterations
     << " sp_computations=" << c.sp_computations
     << " sp_tree_runs=" << c.sp_tree_runs << " admission_delay_p50="
     << Table::format_double(admission_delay_.percentile(0.5), 4)
     << " p99=" << Table::format_double(admission_delay_.percentile(0.99), 4)
     << "\n";
  // Lease line only when the run actually used finite durations: an
  // all-infinite workload prints exactly the pre-temporal summary (the
  // committed golden traces rely on this).
  if (c.finite_leases > 0 || c.leases_expired > 0) {
    os << "leases_finite=" << c.finite_leases
       << " leases_expired=" << c.leases_expired
       << " active_leases=" << active_leases_
       << " occupancy=" << Table::format_double(occupancy_, 4) << "\n";
  }
  if (include_wall_clock && solve_seconds_.count() > 0) {
    os << "solve_seconds_mean="
       << Table::format_double(solve_seconds_.stats().mean(), 6)
       << " p99=" << Table::format_double(solve_seconds_.percentile(0.99), 6)
       << " max=" << Table::format_double(solve_seconds_.stats().max(), 6)
       << "\n";
  }
  return os.str();
}

}  // namespace tufp
