// Temporal lease integration in EpochEngine (DESIGN.md §10): the
// admit → expire → re-admit regression, exact no-leak churn at 10k
// requests, byte-identical ∞-duration equivalence across all six sim
// world families, thread-count determinism under churn, and the
// occupancy/expiry metrics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/sim/oracles.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/temporal/duration.hpp"
#include "tufp/util/math.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

TimedRequest make_timed(double arrival, std::int64_t sequence, double demand,
                        double value, double duration, VertexId s,
                        VertexId t) {
  TimedRequest req;
  req.arrival_time = arrival;
  req.sequence = sequence;
  req.duration = duration;
  req.request = {s, t, demand, value};
  return req;
}

TEST(EngineLeases, AdmitExpireReadmitIdenticalRequest) {
  // The sp_cache satellite pinned end-to-end: a request that failed
  // because an earlier admission held the capacity must succeed again
  // once that lease expires — reclamation increases residuals, and
  // nothing (residual view, cache, guard verdict) may keep serving the
  // stale "does not fit". The engine guarantees this by draining expiries
  // (and stamping the edges they free) before opening each epoch.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));

  EpochEngineConfig config;
  config.max_batch = 1;
  config.record_allocations = true;
  EpochEngine engine(base, config);

  // Epoch 0: admitted, holds the only edge for 0.3 virtual seconds.
  AdmissionReport first =
      engine.run_epoch({make_timed(0.0, 0, 1.0, 1.0, 0.3, 0, 1)});
  EXPECT_EQ(first.admitted, 1);
  EXPECT_EQ(engine.residual()[0], 0.0);

  // Epoch 1 (t = 0.1, lease still active): the identical request fails.
  AdmissionReport second =
      engine.run_epoch({make_timed(0.1, 1, 1.0, 1.0, 0.3, 0, 1)});
  EXPECT_EQ(second.admitted, 0);
  EXPECT_EQ(second.expired_leases, 0);
  EXPECT_EQ(second.active_edges, 0);  // saturated below the floor

  // Epoch 2 (t = 0.5, lease expired): reclaimed before the epoch opens,
  // the identical request is admitted again.
  AdmissionReport third =
      engine.run_epoch({make_timed(0.5, 2, 1.0, 1.0, 0.3, 0, 1)});
  EXPECT_EQ(third.expired_leases, 1);
  EXPECT_EQ(third.admitted, 1);
  EXPECT_EQ(engine.metrics().counters().leases_expired, 1);

  // And the cycle repeats: the re-admitted lease expires too.
  EXPECT_EQ(engine.reclaim_expired(2.0), 1);
  EXPECT_EQ(engine.residual()[0], 1.0);  // exact baseline
}

TEST(EngineLeases, NoCapacityLeakAfterHeavyTailedChurn10k) {
  // Acceptance: a 10k-request heavy-tailed churn run whose final residual
  // equals the empty-network baseline exactly (==, not a tolerance).
  const StreamingScenario scenario =
      make_streaming_grid_scenario(6, 6, 12.0, ValueModel::kUniform);
  DurationConfig durations;
  durations.profile = DurationProfile::kHeavyTailed;
  durations.mean = 0.1;
  PoissonStream stream(scenario.graph, scenario.request_config,
                       /*rate=*/10000.0, /*limit=*/10000, /*seed=*/21,
                       durations);

  std::vector<TimedRequest> all;
  TimedRequest t;
  double max_expiry = 0.0;
  while (stream.next(&t)) {
    max_expiry = std::max(max_expiry, t.arrival_time + t.duration);
    all.push_back(t);
  }
  ASSERT_EQ(all.size(), 10000u);

  EpochEngineConfig config;
  config.max_batch = 500;
  EpochEngine engine(scenario.graph, config);
  for (std::size_t lo = 0; lo < all.size(); lo += 500) {
    const std::vector<TimedRequest> batch(
        all.begin() + static_cast<std::ptrdiff_t>(lo),
        all.begin() + static_cast<std::ptrdiff_t>(
                          std::min(lo + 500, all.size())));
    engine.run_epoch(batch);
  }
  const EngineCounters& c = engine.metrics().counters();
  ASSERT_GT(c.admitted, 1000);          // real churn, not a vacuous pass
  ASSERT_GT(c.leases_expired, 500);     // expiries actually flowed mid-run

  engine.reclaim_expired(max_expiry + 1.0);
  EXPECT_EQ(engine.lease_ledger().active_count(), 0);
  const Graph& base = *scenario.graph;
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    // Bitwise equality — the ledger's snap rule, not floating-point luck.
    EXPECT_EQ(engine.residual()[static_cast<std::size_t>(e)],
              base.capacity(e))
        << "edge " << e << " leaked capacity";
  }
}

TEST(EngineLeases, TemporalOraclesPassOnChurningWorlds) {
  // The conservation and no-leak oracles across the family matrix with
  // every finite profile forced in turn.
  for (const DurationProfile profile :
       {DurationProfile::kFixed, DurationProfile::kExponential,
        DurationProfile::kHeavyTailed, DurationProfile::kDiurnal,
        DurationProfile::kFlashCrowd}) {
    sim::WorldSpec spec;
    spec.family = sim::WorldFamily::kGrid;
    spec.seed = 99 + static_cast<std::uint64_t>(profile);
    spec.durations = profile;
    const sim::SimWorld world = sim::generate_world(spec);
    ASSERT_EQ(world.duration_profile, profile);
    ASSERT_FALSE(world.durations.empty());
    const std::vector<std::string> only{"temporal-conserve",
                                        "temporal-no-leak"};
    const auto violations =
        sim::run_oracle_suite(world, sim::OracleOptions{}, only);
    EXPECT_TRUE(violations.empty())
        << duration_profile_name(profile) << ": "
        << (violations.empty() ? "" : violations.front().detail);
  }
}

TEST(EngineLeases, PersistentResidualByteIdenticalUnderChurnOnAllFamilies) {
  // Acceptance (DESIGN.md §12): the persistent ResidualGraph engine must
  // replay admit → expire → re-admit churn byte-for-byte against the cold
  // per-epoch reference replay (sim/oracles.cpp). The engine-differential
  // oracle runs the plain and the churn replay at 1 and 4 threads and
  // diffs every per-epoch field against the reference exactly (==, no
  // tolerance), including the solver iteration / shortest-path counters.
  for (const sim::WorldFamily family : sim::kAllFamilies) {
    for (const DurationProfile profile :
         {DurationProfile::kExponential, DurationProfile::kHeavyTailed}) {
      sim::WorldSpec spec;
      spec.family = family;
      spec.seed = 41 + static_cast<std::uint64_t>(profile);
      spec.durations = profile;
      const sim::SimWorld world = sim::generate_world(spec);
      ASSERT_FALSE(world.durations.empty());
      const std::vector<std::string> only{"engine-differential"};
      const auto violations =
          sim::run_oracle_suite(world, sim::OracleOptions{}, only);
      EXPECT_TRUE(violations.empty())
          << sim::family_name(family) << "/"
          << duration_profile_name(profile) << ": "
          << (violations.empty() ? "" : violations.front().detail);
    }
  }
}

TEST(EngineLeases, ScaleChurnWorldByteIdenticalUnderReclaims) {
  // The non-saturating churn tier at test scale (the bench runs the same
  // shape at 10^6 requests): a 60x60 grid under hub-local traffic with
  // exponential lease churn. The engine-differential oracle diffs the
  // engine against the cold reference replay on every report field at
  // auto/heap/bucket x 1/4 threads — and the legs' det streams against
  // each other — and a direct persistent run must show reclaims actually
  // firing, or the differential would be vacuous for the reclaim path.
  sim::ScaleChurnSpec spec;
  spec.num_requests = 1200;
  spec.seed = 3;
  const sim::SimWorld world = sim::make_scale_churn_world(spec);
  ASSERT_FALSE(world.durations.empty());

  const std::vector<std::string> only{"engine-differential"};
  const auto violations =
      sim::run_oracle_suite(world, sim::OracleOptions{}, only);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().detail);

  // Direct persistent churn replay: reclaims fire.
  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.solver = world.solver;
  config.solver.capacity_guard = true;
  EpochEngine engine(world.instance.shared_graph(), config);
  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = world.arrivals[i];
    t.sequence = static_cast<std::int64_t>(i);
    t.duration = world.durations[i];
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    engine.run_epoch(batch);
    batch.clear();
  }
  const EngineCounters& c = engine.metrics().counters();
  EXPECT_GT(c.leases_expired, 0);
}

TEST(EngineLeases, ScaleChurnFlashCrowdMatchesReferenceReplay) {
  // Flash-crowd durations release whole cohorts at once — the stress
  // case for batched reclaim revalidation (many reclaimed edges in one
  // epoch boundary). Smaller grid keeps the six-leg differential cheap.
  sim::ScaleChurnSpec spec;
  spec.rows = 30;
  spec.cols = 30;
  spec.num_requests = 800;
  spec.source_pool = 12;
  spec.target_radius = 5;
  spec.durations = DurationProfile::kFlashCrowd;
  spec.duration_mean = 0.04;
  spec.duration_period = 0.3;
  spec.seed = 11;
  const sim::SimWorld world = sim::make_scale_churn_world(spec);
  ASSERT_FALSE(world.durations.empty());
  const std::vector<std::string> only{"engine-differential"};
  const auto violations =
      sim::run_oracle_suite(world, sim::OracleOptions{}, only);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations.front().detail);
}

TEST(EngineLeases, LeakInjectionIsCaughtByTheConservationOracle) {
  // Harness-bites check, temporal edition: the sim-side lease replay with
  // the 5% leak must be flagged on a world where expiries occur mid-run.
  sim::WorldSpec spec;
  spec.family = sim::WorldFamily::kGrid;
  spec.seed = 17911839290282890590ULL;  // committed repro's world
  spec.durations = DurationProfile::kFixed;
  const sim::SimWorld world = sim::generate_world(spec);
  sim::OracleOptions options;
  options.fault = sim::FaultInjection::kLeakExpiredCapacity;
  const std::vector<std::string> only{"temporal-conserve"};
  const auto violations = sim::run_oracle_suite(world, options, only);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().oracle, "temporal-conserve");
}

TEST(EngineLeases, DeterministicAcrossThreadCountsUnderChurn) {
  const auto run = [](int threads) {
    const StreamingScenario scenario =
        make_streaming_grid_scenario(5, 5, 8.0, ValueModel::kUniform);
    DurationConfig durations;
    durations.profile = DurationProfile::kExponential;
    durations.mean = 0.05;
    EpochEngineConfig config;
    config.max_batch = 100;
    config.record_allocations = true;
    config.solver.num_threads = threads;
    EpochEngine engine(scenario.graph, config);
    PoissonStream stream(scenario.graph, scenario.request_config, 2000.0,
                         2000, 31, durations);
    std::vector<AdmissionReport> reports;
    engine.run(stream,
               [&](const AdmissionReport& r) { reports.push_back(r); });
    return std::make_pair(std::move(reports),
                          std::vector<double>(engine.residual().begin(),
                                              engine.residual().end()));
  };
  const auto [one, residual1] = run(1);
  const auto [four, residual4] = run(4);
  ASSERT_EQ(one.size(), four.size());
  std::int64_t expired_total = 0;
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].admitted, four[i].admitted);
    EXPECT_EQ(one[i].expired_leases, four[i].expired_leases);
    EXPECT_EQ(one[i].active_leases, four[i].active_leases);
    EXPECT_EQ(one[i].occupancy, four[i].occupancy);  // bitwise
    EXPECT_EQ(one[i].revenue, four[i].revenue);
    expired_total += one[i].expired_leases;
  }
  EXPECT_EQ(residual1, residual4);
  EXPECT_GT(expired_total, 0);  // churn actually happened
}

TEST(EngineLeases, OccupancyAndChurnMetricsReported) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 6.0, ValueModel::kUniform);
  DurationConfig durations;
  durations.profile = DurationProfile::kFixed;
  durations.mean = 0.1;
  EpochEngineConfig config;
  config.max_batch = 50;
  EpochEngine engine(scenario.graph, config);
  PoissonStream stream(scenario.graph, scenario.request_config, 1000.0, 600,
                       5, durations);
  const EngineSummary summary = engine.run(stream);

  EXPECT_GT(summary.counters.finite_leases, 0);
  EXPECT_GT(summary.counters.leases_expired, 0);
  EXPECT_GE(summary.occupancy, 0.0);
  EXPECT_LE(summary.occupancy, 1.0 + 1e-12);
  EXPECT_EQ(summary.active_leases, engine.lease_ledger().active_count());
  // The deterministic summary block carries the lease line on churning
  // runs (and only on churning runs — golden traces pin the absence).
  const std::string text = engine.metrics().summary(false);
  EXPECT_NE(text.find("leases_finite="), std::string::npos);
  EXPECT_NE(text.find("occupancy="), std::string::npos);
}

TEST(EngineLeases, ResetClearsTheLedgerAndReplaysIdentically) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 5.0, ValueModel::kUniform);
  DurationConfig durations;
  durations.profile = DurationProfile::kExponential;
  durations.mean = 0.05;
  EpochEngineConfig config;
  config.max_batch = 50;
  EpochEngine engine(scenario.graph, config);

  const auto drive = [&] {
    PoissonStream stream(scenario.graph, scenario.request_config, 1000.0,
                         500, 13, durations);
    return engine.run(stream);
  };
  const EngineSummary a = drive();
  engine.reset();
  EXPECT_EQ(engine.lease_ledger().active_count(), 0);
  for (EdgeId e = 0; e < scenario.graph->num_edges(); ++e) {
    EXPECT_EQ(engine.residual()[static_cast<std::size_t>(e)],
              scenario.graph->capacity(e));
  }
  const EngineSummary b = drive();
  EXPECT_EQ(a.counters.admitted, b.counters.admitted);
  EXPECT_EQ(a.counters.leases_expired, b.counters.leases_expired);
  EXPECT_EQ(a.occupancy, b.occupancy);
}

TEST(EngineLeases, AdmissionBehindTheReclaimClockExpiresImmediately) {
  // reclaim_expired() may push the ledger clock past a later run_epoch()
  // batch's close time (both are public API). A finite lease admitted
  // from such a stale batch is not an error: it is due at the frontier
  // and drains on the next reclaim.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 2.0);
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));
  EpochEngineConfig config;
  config.max_batch = 1;
  EpochEngine engine(base, config);

  EXPECT_EQ(engine.reclaim_expired(100.0), 0);  // clock now at 100
  const AdmissionReport report =
      engine.run_epoch({make_timed(1.0, 0, 1.0, 1.0, 5.0, 0, 1)});
  EXPECT_EQ(report.admitted, 1);  // no abort: lease scheduled at frontier
  EXPECT_EQ(engine.reclaim_expired(100.5), 1);
  EXPECT_EQ(engine.residual()[0], 2.0);
}

TEST(EngineLeases, MalformedDurationIsShedAsInvalid) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 4.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 4;
  EpochEngine engine(scenario.graph, config);
  std::vector<TimedRequest> batch = {
      make_timed(0.0, 0, 0.5, 1.0, kInf, 0, 1),   // permanent: fine
      make_timed(0.0, 1, 0.5, 1.0, 0.0, 0, 2),    // zero duration: invalid
      make_timed(0.0, 2, 0.5, 1.0, -1.0, 0, 3),   // negative: invalid
      make_timed(0.0, 3, 0.5, 1.0,
                 std::numeric_limits<double>::quiet_NaN(), 1, 2),
  };
  const AdmissionReport report = engine.run_epoch(batch);
  EXPECT_EQ(report.invalid_rejected, 3);
  EXPECT_EQ(report.admitted, 1);
}

// At t = 4.3, 8.1, 8.6 and 9.1 with a 0.1 window, t/0.1 rounds to just
// below an integer m and m * 0.1 rounds back to t: the window boundary
// "after" the arrival was the arrival itself, a zero duration the engine
// sheds as invalid. Each must expire at the first boundary strictly
// later, one window on.
TEST(EngineLeases, FlashCrowdExpiresStrictlyAfterTheArrival) {
  DurationSampler sampler({DurationProfile::kFlashCrowd, 1.0, 0.1}, 1);
  for (const double t : {4.3, 8.1, 8.6, 9.1}) {
    const double duration = sampler.sample(t);
    EXPECT_GT(duration, 0.0) << "t=" << t;
    EXPECT_GT(t + duration, t) << "t=" << t;
    EXPECT_NEAR(t + duration, t + 0.1, 1e-9) << "t=" << t;
  }
}

}  // namespace
}  // namespace tufp
