// Per-request decision provenance + phase-span profiling (DESIGN.md §14).
//
// Two channels, same discipline as telemetry.hpp:
//
//   * Decision records (det) — every request offered to the engine
//     terminates in exactly ONE canonical `DecisionRecord`: admitted,
//     no_path, capacity_blocked (with the bottleneck base-edge id),
//     lost_auction (with the request's exit density), shard_conflict
//     (fit the epoch-start residual but lost the capacity race within the
//     epoch; with the bottleneck base-edge id), invalid, or — for the
//     reclaim path — lease_expired. Records are rendered through
//     util/json.hpp and are byte-identical across SP kernels and thread
//     counts: the classification runs in the engine's serial exit path
//     over deterministic solver state, never inside the parallel region
//     (the engine-differential sim oracle enforces this).
//
//   * Spans (wall) — nested `TUFP_SPAN("phase")` scopes over the epoch
//     phases (reclaim/validate/snapshot/solve/payments/commit),
//     aggregated per phase into geometric histograms and per call stack
//     into a collapsed-stack (flamegraph-format) dump. Machine-dependent
//     by construction; never emitted on the det channel.
//
// The span hook is a thread-local profiler pointer: TUFP_SPAN is a no-op
// (one TLS load) on threads with no profiler installed, which is exactly
// what makes it safe to leave in code reachable from OpenMP worker
// threads — only the serial driver thread installs a profiler, so the
// parallel region never touches shared span state.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "tufp/engine/metrics.hpp"
#include "tufp/util/timer.hpp"

namespace tufp::obs {

class TelemetrySink;  // telemetry.hpp; forward-declared so trace.hpp can
                      // be included from ufp/ without dragging in the
                      // engine headers telemetry.hpp depends on.

// --------------------------------------------------------------- records

enum class DecisionOutcome {
  kAdmitted,
  kNoPath,           // base topology does not connect source to target
  kCapacityBlocked,  // a base route exists, but saturation cut every one:
                     // bottleneck_edge names the first edge on the
                     // canonical base-BFS route held below the floor
  kLostAuction,      // path feasible at exit; density never won an iteration
  kShardConflict,    // fit at epoch start, lost the intra-epoch capacity race
  kInvalid,          // malformed bid, shed before any auction
  kLeaseExpired,     // reclaim event closing an admitted request's lease
};

// Canonical wire name ("admitted", "no_path", ...).
const char* decision_name(DecisionOutcome outcome);

// One terminal decision for one request (or one lease reclaim). Edge ids
// are plain integers — base-graph edge ids — keeping this header
// decoupled from the graph types.
struct DecisionRecord {
  std::int64_t sequence = -1;  // global request id (lease owner for expiry)
  std::int64_t epoch = -1;
  DecisionOutcome outcome = DecisionOutcome::kInvalid;
  double close_time = 0.0;  // virtual clock at the deciding boundary
  double value = 0.0;       // declared bid
  double demand = 0.0;
  // Routed path in base-edge ids: the admitted path, or the cached
  // candidate path the classification inspected; empty when unreachable.
  std::vector<std::int64_t> path;
  double payment = 0.0;       // winners only; zero otherwise
  double density = 0.0;       // (d/v)·|p|_y at solver exit (lost_auction)
  std::int64_t bottleneck_edge = -1;  // capacity_blocked / shard_conflict
  double admitted_at = 0.0;   // lease grant time (admitted / lease_expired)
  double expires_at = 0.0;    // lease expiry (inf = holds forever)

  // `{"event":"decision","chan":"det",...}` through the canonical
  // formatter; field order is part of the byte-exact contract.
  std::string to_json() const;
};

// Renders decision records onto a telemetry sink's det channel and keeps
// the last `ring_capacity` rendered lines in a bounded ring so a serving
// daemon can dump recent history on a sanity violation (tufp_serve
// --trace). Sink may be null: ring-only capture.
class DecisionTrace {
 public:
  struct Config {
    std::size_t ring_capacity = 256;
  };

  // Two overloads instead of a `Config config = {}` default argument:
  // GCC rejects brace-init defaults naming a nested aggregate before the
  // enclosing class is complete.
  explicit DecisionTrace(TelemetrySink* sink)
      : DecisionTrace(sink, Config{}) {}
  DecisionTrace(TelemetrySink* sink, Config config);

  void record(const DecisionRecord& record);

  std::int64_t records_emitted() const { return records_; }
  // Oldest-first snapshot of the retained rendered lines.
  std::vector<std::string> ring_snapshot() const;

 private:
  TelemetrySink* sink_;
  Config config_;
  std::deque<std::string> ring_;
  std::int64_t records_ = 0;
};

// ----------------------------------------------------------------- spans

// Aggregating span profiler for one driver thread. enter()/exit() are
// called by SpanScope; consumers read per-phase totals, percentile
// histograms, and the collapsed-stack dump after the run.
class SpanProfiler {
 public:
  struct PhaseStat {
    std::int64_t count = 0;
    double total_seconds = 0.0;
  };

  void enter(const char* name);
  void exit();

  // Leaf-name aggregation in lexicographic phase order.
  std::vector<std::pair<std::string, PhaseStat>> phases() const;
  double phase_seconds(std::string_view name) const;
  std::int64_t phase_count(std::string_view name) const;
  // Null when the phase never ran.
  const GeometricHistogram* phase_histogram(std::string_view name) const;

  // flamegraph.pl collapsed format: "root;child;leaf <microseconds>\n"
  // per distinct stack, self time (children subtracted), sorted by stack.
  std::string collapsed_stacks() const;

  // `{"event":"spans","chan":"wall","phases":[...]}` — wall channel only.
  std::string to_json() const;

 private:
  struct Frame {
    const char* name;
    WallTimer timer;
    double child_seconds = 0.0;
  };
  struct PhaseAgg {
    PhaseStat stat;
    GeometricHistogram hist{1e-9, 4.0, 32};
  };

  std::vector<Frame> stack_;
  std::map<std::string, PhaseAgg, std::less<>> by_phase_;
  std::map<std::string, double> self_by_stack_;
};

// Installs `profiler` as the calling thread's active span profiler and
// returns the previous one (null to uninstall). TUFP_SPAN consults this
// thread-local: threads that never install — OpenMP workers — pay one
// TLS load per span site and nothing else.
SpanProfiler* install_span_profiler(SpanProfiler* profiler);
SpanProfiler* current_span_profiler();

class SpanScope {
 public:
  explicit SpanScope(const char* name) : profiler_(current_span_profiler()) {
    if (profiler_ != nullptr) profiler_->enter(name);
  }
  ~SpanScope() {
    if (profiler_ != nullptr) profiler_->exit();
  }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

 private:
  SpanProfiler* profiler_;
};

#define TUFP_SPAN_CONCAT_INNER(a, b) a##b
#define TUFP_SPAN_CONCAT(a, b) TUFP_SPAN_CONCAT_INNER(a, b)
#define TUFP_SPAN(name) \
  ::tufp::obs::SpanScope TUFP_SPAN_CONCAT(tufp_span_scope_, __LINE__)(name)

}  // namespace tufp::obs
