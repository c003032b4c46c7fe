// Live telemetry for the admission engine (DESIGN.md §11).
//
// One JSONL event per epoch, streamed while the engine runs — the
// trajectory view (occupancy, churn, admitted value over time) that a
// batch summary cannot give, and that the committed serve goldens pin
// byte for byte, so a *shape* regression fails as surely as an endpoint
// one.
//
// Channel separation is the load-bearing rule, inherited from
// engine/metrics.hpp and enforced structurally here: every event carries
// exactly one channel and sinks route on it.
//   * kDeterministic ("det")  — counters, admitted value, revenue,
//     occupancy, lease churn, queue depth, admission-delay histograms.
//     Byte-identical across thread counts, SP kernels and machines; safe
//     to golden-test and to gate CI on exactly.
//   * kWallClock ("wall")     — solve/reclaim seconds, throughput.
//     Machine-dependent; compared only with tolerance, never byte-exact.
// A det event must never contain a wall-clock field and vice versa: one
// leaked timing field would poison every byte-exact consumer downstream.
//
// EpochTelemetry is the adapter between the existing EpochEngine on_epoch
// hook and a sink: it renders AdmissionReports into `epoch`/`epoch_wall`
// event pairs, emits periodic `hist` snapshots (geometric-bucket dumps of
// the admission-delay histogram, via GeometricHistogram::to_json) and a
// final `summary`/`summary_wall` pair. tufp_engine --json/--telemetry and
// the tufp_serve daemon both speak this one schema.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "tufp/engine/epoch_engine.hpp"

namespace tufp::obs {

enum class Channel { kDeterministic, kWallClock };

// "det" / "wall" — the `chan` field value of every event.
const char* channel_name(Channel channel);

// Receives rendered events. Implementations decide where each channel
// lands (file, stdout/stderr split, nowhere); the line is a complete JSON
// object without trailing newline.
class TelemetrySink {
 public:
  virtual ~TelemetrySink() = default;
  virtual void emit(Channel channel, std::string_view json_line) = 0;
};

// Routes each channel to an ostream; either may be null (events on that
// channel are dropped). The stdout/stderr split of the CLI tools is
// StreamSink(&std::cout, &std::cerr); a det-only JSONL artifact is
// StreamSink(&file, nullptr).
class StreamSink final : public TelemetrySink {
 public:
  StreamSink(std::ostream* deterministic, std::ostream* wall_clock)
      : det_(deterministic), wall_(wall_clock) {}

  void emit(Channel channel, std::string_view json_line) override;

 private:
  std::ostream* det_;
  std::ostream* wall_;
};

struct TelemetryConfig {
  // Epochs between `hist` snapshot events (admission-delay geometric
  // buckets). 0 = no periodic snapshots; finish() always emits a final
  // one either way.
  int histogram_every = 0;
  // Suppress the wall channel entirely (det-only artifacts).
  bool wall_events = true;
};

class EpochTelemetry {
 public:
  // `sink` must outlive this object.
  EpochTelemetry(TelemetrySink* sink, TelemetryConfig config = {});

  // Renders one epoch report as an `epoch` (det) + `epoch_wall` (wall)
  // event pair; every histogram_every epochs also emits a `hist`
  // snapshot. Wire as: engine.run(stream, [&](const AdmissionReport& r) {
  // telemetry.on_epoch(r, engine.metrics()); }).
  void on_epoch(const AdmissionReport& report, const EngineMetrics& metrics);

  // Emits `sanity` (det) — one line per in-service oracle sweep, so a
  // telemetry stream records *that* the checks ran and found nothing, not
  // just silence (the mod_virgule sanity_check idiom: the check is part
  // of the serving loop's observable behavior).
  void on_sanity(std::int64_t epoch, int checks_run, int violations);

  // Emits `invalid` (det) — one wire-level framing shed (oversized or
  // truncated line) in a serving session, with the driver's running
  // invalid total. Deterministic: a pure function of the input bytes.
  void on_invalid(std::int64_t epoch, std::string_view reason,
                  std::int64_t total_invalid);

  // Emits `drain` (det) — one explicit reclaim at virtual time t (a
  // daemon `drain`, a --horizon), with the lease gauges after it.
  void on_drain(double t, int reclaimed, std::int64_t active_leases,
                double occupancy);

  // Final `hist` + `summary` (det) and `summary_wall` (wall) events.
  // Wall-clock figures are passed explicitly (EngineMetrics keeps them,
  // but the engine summary owns the lifetime totals).
  void finish(const EngineMetrics& metrics, std::int64_t active_leases,
              double occupancy, double wall_seconds,
              double requests_per_second);

  std::int64_t events_emitted() const { return events_; }

 private:
  void emit(Channel channel, std::string_view line);
  void emit_histogram(const EngineMetrics& metrics);

  TelemetrySink* sink_;
  TelemetryConfig config_;
  std::int64_t epochs_seen_ = 0;
  std::int64_t events_ = 0;
};

}  // namespace tufp::obs
