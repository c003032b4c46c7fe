// EpochEngine::reset() vs persistent state (DESIGN.md §12): after a full
// churn replay — reclaims fired, the residual graph's dirty list and
// overlay lanes, the workspace's stamp generation, solve log and replay
// workers and the ledger clocks advanced — reset() must return the engine
// to a state byte-indistinguishable from freshly constructed, under dual
// prices and under critical payments.
// Pinned by replaying the same churn world twice through one engine
// (reset between) and comparing every deterministic report field, the
// final residual and the lifetime counters against a fresh engine's
// replay with exact ==.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/sim/world.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/temporal/duration.hpp"

namespace tufp {
namespace {

// Every deterministic field of one epoch's report (wall-clock seconds
// excluded — they are the only nondeterministic fields by contract).
struct ReportDigest {
  int epoch;
  int batch_size;
  int admitted;
  int invalid_rejected;
  double close_time;
  double offered_value;
  double admitted_value;
  double revenue;
  double dual_upper_bound;
  int active_edges;
  int saturated_edges;
  double min_residual;
  int solver_iterations;
  std::int64_t sp_computations;
  std::int64_t sp_tree_runs;
  int expired_leases;
  std::int64_t active_leases;
  double occupancy;
  double max_admission_delay;

  bool operator==(const ReportDigest&) const = default;
};

ReportDigest digest(const AdmissionReport& r) {
  return {r.epoch,          r.batch_size,       r.admitted,
          r.invalid_rejected, r.close_time,     r.offered_value,
          r.admitted_value, r.revenue,          r.dual_upper_bound,
          r.active_edges,   r.saturated_edges,  r.min_residual,
          r.solver_iterations, r.sp_computations, r.sp_tree_runs,
          r.expired_leases, r.active_leases,    r.occupancy,
          r.max_admission_delay};
}

// One full replay of the world's stream (the engine drivers' batching
// rule), returning the per-epoch digests.
std::vector<ReportDigest> replay(const sim::SimWorld& world,
                                 EpochEngine& engine) {
  std::vector<ReportDigest> out;
  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = world.arrivals[i];
    t.sequence = static_cast<std::int64_t>(i);
    t.duration = i < world.durations.size() ? world.durations[i] : kInf;
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    out.push_back(digest(engine.run_epoch(batch)));
    batch.clear();
  }
  return out;
}

void expect_same_run(const std::vector<ReportDigest>& expected,
                     const std::vector<ReportDigest>& actual,
                     const char* label) {
  ASSERT_EQ(expected.size(), actual.size()) << label;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    EXPECT_TRUE(expected[i] == actual[i])
        << label << ": epoch digest " << i << " diverged";
  }
}

void expect_reset_matches_fresh(const sim::SimWorld& world,
                                const EpochEngineConfig& config) {
  EpochEngine warm(world.instance.shared_graph(), config);
  const std::vector<ReportDigest> first = replay(world, warm);
  ASSERT_FALSE(first.empty());
  EXPECT_GT(warm.metrics().counters().leases_expired, 0)
      << "world must churn or the reset audit is vacuous";

  warm.reset();
  EXPECT_EQ(warm.epochs_run(), 0);
  EXPECT_EQ(warm.metrics().counters().requests_seen, 0);
  const std::vector<ReportDigest> after_reset = replay(world, warm);

  EpochEngine fresh(world.instance.shared_graph(), config);
  const std::vector<ReportDigest> baseline = replay(world, fresh);

  expect_same_run(baseline, after_reset, "reset engine vs fresh engine");
  expect_same_run(baseline, first, "first run vs fresh engine");

  // Final state, not just the report stream: residual and the lifetime
  // counters agree exactly.
  const auto warm_res = warm.residual();
  const auto fresh_res = fresh.residual();
  ASSERT_EQ(warm_res.size(), fresh_res.size());
  for (std::size_t e = 0; e < warm_res.size(); ++e) {
    EXPECT_EQ(warm_res[e], fresh_res[e]) << "edge " << e;
  }
  EXPECT_EQ(warm.metrics().counters().admitted,
            fresh.metrics().counters().admitted);
  EXPECT_EQ(warm.metrics().counters().leases_expired,
            fresh.metrics().counters().leases_expired);
  EXPECT_EQ(warm.metrics().counters().sp_tree_runs,
            fresh.metrics().counters().sp_tree_runs);
  EXPECT_EQ(warm.metrics().counters().revenue,
            fresh.metrics().counters().revenue);
}

TEST(EngineReset, ResetThenReplayIsByteIdenticalToAFreshEngine) {
  // A churn world: finite leases expire mid-replay, so the state a stale
  // reset would leak — the dirty list, the epoch-start duals and counts,
  // the ledger's pending leases and clock — is all genuinely exercised.
  sim::ScaleChurnSpec spec;
  spec.rows = 24;
  spec.cols = 24;
  spec.num_requests = 600;
  spec.source_pool = 10;
  spec.target_radius = 5;
  spec.seed = 29;
  // Under critical payments the same world at capacity 2 and ten times
  // the arrival rate, so the auction binds (half the bids win) and the
  // winner replays price something.
  sim::ScaleChurnSpec binding = spec;
  binding.capacity = 2.0;
  binding.arrival_rate = 4000.0;

  for (const PaymentPolicy payments :
       {PaymentPolicy::kDualPrice, PaymentPolicy::kCritical}) {
    const bool critical = payments == PaymentPolicy::kCritical;
    SCOPED_TRACE(critical ? "critical" : "dual");
    const sim::SimWorld world =
        sim::make_scale_churn_world(critical ? binding : spec);
    ASSERT_FALSE(world.durations.empty());
    EpochEngineConfig config;
    config.max_batch = world.max_batch;
    config.payments = payments;
    config.solver = world.solver;
    config.solver.capacity_guard = true;
    expect_reset_matches_fresh(world, config);
  }
}

}  // namespace
}  // namespace tufp
