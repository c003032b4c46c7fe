#include "tufp/obs/telemetry.hpp"

#include <ostream>

#include "tufp/util/assert.hpp"
#include "tufp/util/json.hpp"

namespace tufp::obs {

const char* channel_name(Channel channel) {
  return channel == Channel::kDeterministic ? "det" : "wall";
}

void StreamSink::emit(Channel channel, std::string_view json_line) {
  std::ostream* os =
      channel == Channel::kDeterministic ? det_ : wall_;
  if (os == nullptr) return;
  *os << json_line << '\n';
}

EpochTelemetry::EpochTelemetry(TelemetrySink* sink, TelemetryConfig config)
    : sink_(sink), config_(config) {
  TUFP_REQUIRE(sink_ != nullptr, "telemetry requires a sink");
  TUFP_REQUIRE(config_.histogram_every >= 0,
               "histogram cadence must be non-negative");
}

void EpochTelemetry::emit(Channel channel, std::string_view line) {
  if (channel == Channel::kWallClock && !config_.wall_events) return;
  sink_->emit(channel, line);
  ++events_;
}

void EpochTelemetry::emit_histogram(const EngineMetrics& metrics) {
  JsonObject hist;
  hist.field("event", "hist")
      .field("chan", "det")
      .field("epoch", epochs_seen_ - 1)
      .field("name", "admission_delay")
      .raw("hist", metrics.admission_delay().to_json());
  emit(Channel::kDeterministic, hist.str());
}

void EpochTelemetry::on_epoch(const AdmissionReport& report,
                              const EngineMetrics& metrics) {
  ++epochs_seen_;
  JsonObject det;
  det.field("event", "epoch")
      .field("chan", "det")
      .field("epoch", report.epoch)
      .field("close", report.close_time)
      .field("batch", report.batch_size)
      .field("admitted", report.admitted)
      .field("invalid", report.invalid_rejected)
      .field("no_path", report.no_path)
      .field("capacity_blocked", report.capacity_blocked)
      .field("lost_auction", report.lost_auction)
      .field("shard_conflict", report.shard_conflict)
      .field("offered_value", report.offered_value)
      .field("admitted_value", report.admitted_value)
      .field("revenue", report.revenue)
      .field("dual_ub", report.dual_upper_bound)
      .field("active_edges", report.active_edges)
      .field("saturated", report.saturated_edges)
      .field("min_residual", report.min_residual)
      .field("iterations", report.solver_iterations)
      .field("sp", report.sp_computations)
      .field("expired", report.expired_leases)
      .field("active_leases", report.active_leases)
      .field("occupancy", report.occupancy)
      .field("queue_depth", report.queue_depth)
      .field("max_delay", report.max_admission_delay);
  emit(Channel::kDeterministic, det.str());

  JsonObject wall;
  wall.field("event", "epoch_wall")
      .field("chan", "wall")
      .field("epoch", report.epoch)
      .field("solve_seconds", report.solve_seconds)
      .field("reclaim_seconds", report.reclaim_seconds);
  emit(Channel::kWallClock, wall.str());

  if (config_.histogram_every > 0 &&
      epochs_seen_ % config_.histogram_every == 0) {
    emit_histogram(metrics);
  }
}

void EpochTelemetry::on_sanity(std::int64_t epoch, int checks_run,
                               int violations) {
  JsonObject obj;
  obj.field("event", "sanity")
      .field("chan", "det")
      .field("epoch", epoch)
      .field("checks", checks_run)
      .field("violations", violations);
  emit(Channel::kDeterministic, obj.str());
}

void EpochTelemetry::on_invalid(std::int64_t epoch, std::string_view reason,
                                std::int64_t total_invalid) {
  JsonObject obj;
  obj.field("event", "invalid")
      .field("chan", "det")
      .field("epoch", epoch)
      .field("reason", reason)
      .field("invalid", total_invalid);
  emit(Channel::kDeterministic, obj.str());
}

void EpochTelemetry::finish(const EngineMetrics& metrics,
                            std::int64_t active_leases, double occupancy,
                            double wall_seconds,
                            double requests_per_second) {
  {
    JsonObject hist;
    hist.field("event", "hist")
        .field("chan", "det")
        .field("epoch", epochs_seen_ - 1)
        .field("name", "admission_delay")
        .raw("hist", metrics.admission_delay().to_json());
    emit(Channel::kDeterministic, hist.str());
  }

  const EngineCounters& c = metrics.counters();
  JsonObject det;
  det.field("event", "summary")
      .field("chan", "det")
      .field("epochs", c.epochs)
      .field("requests", c.requests_seen)
      .field("queue_dropped", c.queue_dropped)
      .field("admitted", c.admitted)
      .field("rejected", c.rejected)
      .field("invalid", c.invalid_rejected)
      .field("no_path", c.no_path)
      .field("capacity_blocked", c.capacity_blocked)
      .field("lost_auction", c.lost_auction)
      .field("shard_conflict", c.shard_conflict)
      .field("admitted_fraction", metrics.admitted_fraction())
      .field("offered_value", c.offered_value)
      .field("admitted_value", c.admitted_value)
      .field("revenue", c.revenue)
      .field("solver_iterations", c.solver_iterations)
      .field("sp_computations", c.sp_computations)
      .field("sp_tree_runs", c.sp_tree_runs)
      .field("finite_leases", c.finite_leases)
      .field("leases_expired", c.leases_expired)
      .field("active_leases", active_leases)
      .field("occupancy", occupancy)
      .field("delay_p50", metrics.admission_delay().percentile(0.5))
      .field("delay_p99", metrics.admission_delay().percentile(0.99));
  emit(Channel::kDeterministic, det.str());

  JsonObject wall;
  wall.field("event", "summary_wall")
      .field("chan", "wall")
      .field("wall_seconds", wall_seconds)
      .field("requests_per_second", requests_per_second)
      .field("solve_p50", metrics.solve_seconds().percentile(0.5))
      .field("solve_p99", metrics.solve_seconds().percentile(0.99))
      .field("reclaim_p99", metrics.reclaim_seconds().percentile(0.99));
  emit(Channel::kWallClock, wall.str());
}

}  // namespace tufp::obs
