#include "tufp/obs/trace.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "tufp/obs/telemetry.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/json.hpp"

namespace tufp::obs {

const char* decision_name(DecisionOutcome outcome) {
  switch (outcome) {
    case DecisionOutcome::kAdmitted: return "admitted";
    case DecisionOutcome::kNoPath: return "no_path";
    case DecisionOutcome::kCapacityBlocked: return "capacity_blocked";
    case DecisionOutcome::kLostAuction: return "lost_auction";
    case DecisionOutcome::kShardConflict: return "shard_conflict";
    case DecisionOutcome::kInvalid: return "invalid";
    case DecisionOutcome::kLeaseExpired: return "lease_expired";
  }
  return "unknown";
}

std::string DecisionRecord::to_json() const {
  std::ostringstream edges;
  edges << '[';
  for (std::size_t i = 0; i < path.size(); ++i) {
    if (i != 0) edges << ',';
    edges << path[i];
  }
  edges << ']';
  JsonObject obj;
  obj.field("event", "decision")
      .field("chan", "det")
      .field("seq", sequence)
      .field("epoch", epoch)
      .field("outcome", decision_name(outcome))
      .field("close_time", close_time)
      .field("value", value)
      .field("demand", demand)
      .raw("path", edges.str())
      .field("payment", payment)
      .field("density", density)
      .field("bottleneck_edge", bottleneck_edge)
      .field("admitted_at", admitted_at)
      .field("expires_at", expires_at);
  return obj.str();
}

void DecisionTrace::record(const DecisionRecord& record) {
  std::string line = record.to_json();
  if (sink_ != nullptr) sink_->emit(Channel::kDeterministic, line);
  ring_.push_back(std::move(line));
  if (ring_.size() > kRingLines) ring_.pop_front();
  ++records_;
}

std::vector<std::string> DecisionTrace::ring_snapshot() const {
  return {ring_.begin(), ring_.end()};
}

// ----------------------------------------------------------------- spans

namespace {
thread_local SpanProfiler* tls_profiler = nullptr;
}  // namespace

SpanProfiler* install_span_profiler(SpanProfiler* profiler) {
  SpanProfiler* previous = tls_profiler;
  tls_profiler = profiler;
  return previous;
}

SpanProfiler* current_span_profiler() { return tls_profiler; }

void SpanProfiler::enter(const char* name) {
  stack_.push_back(Frame{name, WallTimer(), 0.0});
}

void SpanProfiler::exit() {
  TUFP_REQUIRE(!stack_.empty(), "span exit without a matching enter");
  const Frame frame = stack_.back();
  stack_.pop_back();
  const double elapsed = frame.timer.elapsed_seconds();

  PhaseAgg& agg = by_phase_[frame.name];
  ++agg.stat.count;
  agg.stat.total_seconds += elapsed;
  agg.hist.record(std::max(0.0, elapsed));

  // Collapsed stack key: enclosing frames joined with ';', charged with
  // the frame's SELF time so a flamegraph's column widths sum correctly.
  std::string key;
  for (const Frame& f : stack_) {
    key += f.name;
    key += ';';
  }
  key += frame.name;
  self_by_stack_[key] += std::max(0.0, elapsed - frame.child_seconds);
  if (!stack_.empty()) stack_.back().child_seconds += elapsed;
}

std::vector<std::pair<std::string, SpanProfiler::PhaseStat>>
SpanProfiler::phases() const {
  std::vector<std::pair<std::string, PhaseStat>> out;
  out.reserve(by_phase_.size());
  for (const auto& [name, agg] : by_phase_) out.emplace_back(name, agg.stat);
  return out;
}

double SpanProfiler::phase_seconds(std::string_view name) const {
  const auto it = by_phase_.find(name);
  return it == by_phase_.end() ? 0.0 : it->second.stat.total_seconds;
}

std::int64_t SpanProfiler::phase_count(std::string_view name) const {
  const auto it = by_phase_.find(name);
  return it == by_phase_.end() ? 0 : it->second.stat.count;
}

const GeometricHistogram* SpanProfiler::phase_histogram(
    std::string_view name) const {
  const auto it = by_phase_.find(name);
  return it == by_phase_.end() ? nullptr : &it->second.hist;
}

std::string SpanProfiler::collapsed_stacks() const {
  std::ostringstream os;
  for (const auto& [stack, seconds] : self_by_stack_) {
    os << stack << ' '
       << static_cast<std::int64_t>(std::llround(seconds * 1e6)) << '\n';
  }
  return os.str();
}

std::string SpanProfiler::to_json() const {
  std::ostringstream rows;
  rows << '[';
  bool first = true;
  for (const auto& [name, agg] : by_phase_) {
    if (!first) rows << ',';
    first = false;
    JsonObject row;
    row.field("name", name)
        .field("count", agg.stat.count)
        .field("total_seconds", agg.stat.total_seconds)
        .field("p50", agg.hist.percentile(0.5))
        .field("p99", agg.hist.percentile(0.99));
    rows << row.str();
  }
  rows << ']';
  JsonObject obj;
  obj.field("event", "spans").field("chan", "wall").raw("phases", rows.str());
  return obj.str();
}

}  // namespace tufp::obs
