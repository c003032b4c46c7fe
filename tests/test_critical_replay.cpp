// Exact critical payments read off a shadowed replay of Algorithm 1: the
// cold bounded_ufp_critical_value from line 4, which refreshes every
// stale entry each iteration, and the engine's pricing, which replays
// each winner's run from the checkpointed solve's checkpoint at its
// selection and scans lazily. Every payment is checked against the
// allocation rule itself (the two-probe ulp check: the rule admits at p
// and rejects one double below), against the rule-agnostic bisection of
// mechanism/critical_payment (p <= b <= p + tol * max(1, b)), and the
// engine's lazy pricing against the eager cold one bit for bit. Resuming
// the solve from every checkpoint must reproduce the run.
//
// Mutations of the engine's pricing these tests catch: resuming a winner
// at checkpoint k_w + 1; reversing the replay fold's id tie-break;
// rebuilding a checkpoint without iteration k's recomputations; running a
// refresh at the resumed checkpoint; in the lazy scan, taking a
// recomputed candidate as the winner without scanning again, or skipping
// a stale entry whose last verdict was "does not fit"; dropping the id
// tie from the shadow's win predicate (ShadowWinPredicateAtExactTies).
#include "tufp/ufp/bounded_ufp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/mechanism/critical_payment.hpp"
#include "tufp/sim/snapshot.hpp"
#include "tufp/temporal/duration.hpp"
#include "tufp/ufp/detail/bounded_ufp_loop.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

// p is the rule's exact winning threshold for r: admitted at p, rejected
// one double below. Only meaningful for p > 0 (a bid must be positive).
void expect_exact_threshold(const UfpInstance& instance, const UfpRule& rule,
                            int r, double p) {
  ASSERT_GT(p, 0.0);
  EXPECT_TRUE(ufp_wins_at(instance, rule, r, p)) << "request " << r;
  EXPECT_FALSE(ufp_wins_at(instance, rule, r, std::nextafter(p, 0.0)))
      << "request " << r;
}

struct Shape {
  int rows;
  int cols;
  double capacity;
  int requests;
};

// Five undirected grids, dense enough in requests that the auction binds.
constexpr Shape kShapes[] = {
    {3, 3, 2.0, 10}, {4, 4, 2.0, 14}, {3, 5, 2.5, 12},
    {4, 5, 3.0, 16}, {2, 6, 1.5, 10},
};
constexpr int kSeeds = 25;

struct Leg {
  const char* name;
  BoundedUfpConfig config;
  // Faithful leg: capacities lifted so e^{eps(B-1)} clears the initial
  // dual sum m and the threshold, not the guard, ends most runs; more
  // requests keep the auction binding at the higher capacity.
  bool faithful;
};

std::vector<Leg> legs() {
  BoundedUfpConfig saturation;  // the engine's default solver config
  saturation.run_to_saturation = true;
  BoundedUfpConfig faithful;  // paper threshold at eps = 1
  faithful.epsilon = 1.0;
  return {{"saturation", saturation, false}, {"faithful", faithful, true}};
}

struct Tally {
  int positive = 0;
  int zero = 0;
  int losers_priced = 0;
};

// One world: a grid with a few edges pushed below the residual floor, so
// the residual graph carries a blocked mask and the instance is the
// compiled epoch snapshot — the engine's lowering and the cold
// reference's.
struct World {
  std::vector<Request> requests;
  std::unique_ptr<ResidualGraph> rg;
  std::optional<UfpInstance> instance;
};

World make_world(const Shape& shape, const Leg& leg, std::uint64_t seed) {
  const int m = shape.rows * (shape.cols - 1) + shape.cols * (shape.rows - 1);
  const double capacity =
      leg.faithful ? std::ceil(1.5 + std::log(static_cast<double>(m)))
                   : shape.capacity;
  auto base = std::make_shared<const Graph>(
      grid_graph(shape.rows, shape.cols, capacity, /*directed=*/false));
  Rng rng(seed);
  RequestGenConfig gen;
  gen.num_requests = leg.faithful ? 2 * shape.requests : shape.requests;
  World world;
  world.requests = generate_requests(*base, gen, rng);
  world.rg = std::make_unique<ResidualGraph>(base);
  for (EdgeId e = static_cast<EdgeId>(seed % 3); e < base->num_edges();
       e += 11) {
    const std::vector<EdgeId> edge{e};
    world.rg->commit_admission(edge, capacity - 0.5);
  }
  world.rg->open_epoch();
  const GraphSnapshot snapshot =
      GraphSnapshot::compile(base, world.rg->residual());
  world.instance.emplace(snapshot.graph(), world.requests);
  return world;
}

void check_world(const Shape& shape, const Leg& leg, std::uint64_t seed,
                 Tally* tally) {
  const World world = make_world(shape, leg, seed);
  ASSERT_GT(world.rg->num_active(), 0);
  const UfpInstance& instance = *world.instance;

  const BoundedUfpConfig& cfg = leg.config;
  const UfpRule rule = make_bounded_ufp_rule(cfg);
  const UfpSolution allocation = rule(instance);
  // The engine's lowering: one checkpointed solve prices every winner.
  UfpWorkspace workspace;
  const BoundedUfpResult logged =
      bounded_ufp_checkpointed(*world.rg, world.requests, cfg, workspace);
  const PaymentOptions reference;
  for (int r = 0; r < instance.num_requests(); ++r) {
    SCOPED_TRACE(::testing::Message()
                 << leg.name << " " << shape.rows << "x" << shape.cols
                 << " seed " << seed << " request " << r);
    const double bid = instance.request(r).value;
    const double p = bounded_ufp_critical_value(instance, r, cfg);
    ASSERT_EQ(logged.solution.is_selected(r), allocation.is_selected(r));
    if (!allocation.is_selected(r)) {
      EXPECT_GT(p, bid);
      if (r % 4 == 0 && p < kInf) {
        expect_exact_threshold(instance, rule, r, p);
        ++tally->losers_priced;
      }
      continue;
    }
    EXPECT_EQ(bits(winner_critical_value(*world.rg, world.requests, cfg,
                                         workspace, r, /*worker=*/0)),
              bits(p));
    EXPECT_GE(p, 0.0);
    EXPECT_LE(p, bid);
    if (seed % 5 == 1) {  // the ~23-solve reference, on a fifth of worlds
      const double b = ufp_critical_value(instance, rule, r, reference);
      EXPECT_LE(p, b);
      EXPECT_LE(b, p + reference.tolerance * std::max(1.0, b));
    }
    if (p > 0.0) {
      ++tally->positive;
      expect_exact_threshold(instance, rule, r, p);
    } else {
      ++tally->zero;
    }
  }
}

TEST(CriticalReplay, ExactAcrossShapesSeedsAndEntryPoints) {
  for (const Leg& leg : legs()) {
    Tally tally;
    for (const Shape& shape : kShapes) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        check_world(shape, leg, static_cast<std::uint64_t>(seed), &tally);
      }
    }
    // Both branches of the payment are exercised in every leg.
    EXPECT_GT(tally.positive, 0) << leg.name;
    EXPECT_GT(tally.zero, 0) << leg.name;
    EXPECT_GT(tally.losers_priced, 0) << leg.name;
  }
}

void expect_same_run(const BoundedUfpResult& expected,
                     const BoundedUfpResult& actual) {
  ASSERT_EQ(actual.solution.num_requests(), expected.solution.num_requests());
  for (int r = 0; r < expected.solution.num_requests(); ++r) {
    ASSERT_EQ(actual.solution.is_selected(r), expected.solution.is_selected(r))
        << "request " << r;
    if (expected.solution.is_selected(r)) {
      EXPECT_EQ(*actual.solution.path_of(r), *expected.solution.path_of(r))
          << "request " << r;
    }
  }
  EXPECT_EQ(actual.iterations, expected.iterations);
  EXPECT_EQ(bits(actual.final_dual_sum), bits(expected.final_dual_sum));
  EXPECT_EQ(bits(actual.dual_upper_bound), bits(expected.dual_upper_bound));
  EXPECT_EQ(actual.stopped_by_threshold, expected.stopped_by_threshold);
  // Equal counters mean the rebuilt stamps and entries went stale exactly
  // where the solve's did, not only that they led to the same paths.
  EXPECT_EQ(actual.sp_computations, expected.sp_computations);
  EXPECT_EQ(actual.sp_tree_runs, expected.sp_tree_runs);
}

TEST(CriticalReplay, ResumingFromEveryCheckpointReproducesTheRun) {
  for (const Leg& leg : legs()) {
    int resumed = 0;
    for (const Shape& shape : kShapes) {
      for (int seed = 1; seed <= kSeeds; ++seed) {
        SCOPED_TRACE(::testing::Message() << leg.name << " " << shape.rows
                                          << "x" << shape.cols << " seed "
                                          << seed);
        const World world =
            make_world(shape, leg, static_cast<std::uint64_t>(seed));
        UfpWorkspace plain;
        UfpWorkspace workspace;
        const BoundedUfpResult solve =
            bounded_ufp(*world.rg, world.requests, leg.config, plain);
        const BoundedUfpResult logged = bounded_ufp_checkpointed(
            *world.rg, world.requests, leg.config, workspace);
        expect_same_run(solve, logged);
        ASSERT_EQ(logged.rejections.size(), solve.rejections.size());
        for (std::size_t i = 0; i < solve.rejections.size(); ++i) {
          const RejectionRecord& a = logged.rejections[i];
          const RejectionRecord& b = solve.rejections[i];
          EXPECT_EQ(a.request, b.request);
          EXPECT_EQ(a.reason, b.reason);
          EXPECT_EQ(bits(a.density), bits(b.density));
          EXPECT_EQ(a.bottleneck, b.bottleneck);
          EXPECT_EQ(a.path, b.path);
        }
        // Both solves fill the trace, one record per selection in
        // selection order; a resumed run never does.
        ASSERT_EQ(static_cast<int>(solve.trace.size()), solve.iterations);
        ASSERT_EQ(logged.trace.size(), solve.trace.size());
        for (std::size_t i = 0; i < solve.trace.size(); ++i) {
          EXPECT_EQ(logged.trace[i].request, solve.trace[i].request);
          EXPECT_EQ(bits(logged.trace[i].alpha), bits(solve.trace[i].alpha));
        }
        // Latest checkpoint first, with a winner's replay in between, so
        // each resume starts from whatever the last replay left behind.
        for (int k = solve.iterations; k >= 1; --k) {
          SCOPED_TRACE(::testing::Message() << "checkpoint " << k);
          const BoundedUfpResult run = bounded_ufp_resume(
              *world.rg, world.requests, leg.config, workspace, k, 0);
          expect_same_run(solve, run);
          EXPECT_TRUE(run.trace.empty());
          ++resumed;
          const int winner = (k * 7) % static_cast<int>(world.requests.size());
          if (solve.solution.is_selected(winner)) {
            winner_critical_value(*world.rg, world.requests, leg.config,
                                  workspace, winner, 0);
          }
        }
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    EXPECT_GT(resumed, 0) << leg.name;
  }
}

// Two bids duel for one edge: equal demands, so priorities tie exactly
// when the values do, and the request-id tie-break decides the duel.
UfpInstance duel(double first_value, double second_value) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  return UfpInstance(std::move(g), {{0, 1, 0.8, first_value},
                                    {0, 1, 0.8, second_value}});
}

BoundedUfpConfig saturating() {
  BoundedUfpConfig cfg;
  cfg.run_to_saturation = true;
  return cfg;
}

TEST(CriticalReplay, TieBreakFollowsRequestIds) {
  const BoundedUfpConfig cfg = saturating();
  const UfpRule rule = make_bounded_ufp_rule(cfg);

  // Winner at the lower id: at bid 3.0 the priorities tie and the lower
  // id wins it, so the threshold is at or below the rival's value.
  const UfpInstance low = duel(7.0, 3.0);
  ASSERT_TRUE(rule(low).is_selected(0));
  const double p_low = bounded_ufp_critical_value(low, 0, cfg);
  EXPECT_LE(p_low, 3.0);
  EXPECT_TRUE(ufp_wins_at(low, rule, 0, 3.0));
  expect_exact_threshold(low, rule, 0, p_low);

  // Winner at the higher id: the tie now goes to the rival, so the
  // winner must beat 3.0 strictly.
  const UfpInstance high = duel(3.0, 7.0);
  ASSERT_TRUE(rule(high).is_selected(1));
  const double p_high = bounded_ufp_critical_value(high, 1, cfg);
  EXPECT_GT(p_high, 3.0);
  EXPECT_FALSE(ufp_wins_at(high, rule, 1, 3.0));
  expect_exact_threshold(high, rule, 1, p_high);

  // The rival loses at its declared value, so its threshold lies above it.
  EXPECT_GT(bounded_ufp_critical_value(low, 1, cfg), 3.0);
}

TEST(CriticalReplay, UncontestedWinnerPaysExactlyZero) {
  const BoundedUfpConfig cfg = saturating();
  Graph lone = Graph::directed(2);
  lone.add_edge(0, 1, 10.0);
  lone.finalize();
  const UfpInstance alone(std::move(lone), {{0, 1, 1.0, 5.0}});
  EXPECT_EQ(bits(bounded_ufp_critical_value(alone, 0, cfg)), bits(0.0));

  // Room for both: whoever is selected second is alone in fitting at its
  // own iteration, and so is the other in the run without the first.
  Graph roomy = Graph::directed(2);
  roomy.add_edge(0, 1, 2.0);
  roomy.finalize();
  const UfpInstance both(std::move(roomy),
                         {{0, 1, 1.0, 5.0}, {0, 1, 1.0, 2.0}});
  EXPECT_EQ(bits(bounded_ufp_critical_value(both, 0, cfg)), bits(0.0));
  EXPECT_EQ(bits(bounded_ufp_critical_value(both, 1, cfg)), bits(0.0));
}

TEST(CriticalReplay, ShadowWinPredicateAtExactTies) {
  // d/v*L == alpha exactly: 0.5 / 0.25 * 3.0 == 6.0. The tie goes to the
  // lower id, whichever side it is on, and the lazy scan's skip test
  // (can_lower_critical) reads the same predicate at the running minimum.
  using detail::can_lower_critical;
  using detail::shadow_wins;
  EXPECT_TRUE(shadow_wins(0.5, 3.0, 0.25, 6.0, /*wins_ties=*/true));
  EXPECT_FALSE(shadow_wins(0.5, 3.0, 0.25, 6.0, /*wins_ties=*/false));
  EXPECT_TRUE(shadow_wins(0.5, 3.0, 0.25, std::nextafter(6.0, kInf), false));
  EXPECT_FALSE(shadow_wins(0.5, 3.0, 0.25, std::nextafter(6.0, 0.0), true));
  EXPECT_TRUE(can_lower_critical(0.5, 3.0, 6.0, true, 0.25));
  EXPECT_FALSE(can_lower_critical(0.5, 3.0, 6.0, false, 0.25));
  EXPECT_TRUE(can_lower_critical(0.5, 3.0, 6.0, false, kInf));

  // The bisection lands on the tie when the shadow wins it, one double
  // above it when it does not.
  double with_tie = kInf;
  detail::lower_critical(0.5, 3.0, 6.0, true, &with_tie);
  EXPECT_EQ(bits(with_tie), bits(0.25));
  double without_tie = kInf;
  detail::lower_critical(0.5, 3.0, 6.0, false, &without_tie);
  EXPECT_EQ(bits(without_tie), bits(std::nextafter(0.25, kInf)));
  // At a running minimum the shadow cannot beat, nothing moves.
  double floor = 0.25;
  detail::lower_critical(0.5, 3.0, 6.0, false, &floor);
  EXPECT_EQ(bits(floor), bits(0.25));
}

// Engine kCritical payments on binding multi-epoch grids, per sequence:
// the 5x5 grid with permanent leases, and the benchmark's 12x12 shape at
// capacity 8 with exponential leases churning between epochs.
struct EngineStream {
  const char* name;
  int rows;
  int cols;
  double capacity;
  double rate;
  int requests;
  int max_batch;
  DurationConfig durations;
};

const EngineStream kEngineStreams[] = {
    {"grid5-permanent", 5, 5, 4.0, 200.0, 160, 40, {}},
    {"grid12-exponential", 12, 12, 8.0, 9000.0, 640, 32,
     {.profile = DurationProfile::kExponential, .mean = 0.08}},
};

EpochEngineConfig critical_engine_config(const EngineStream& s) {
  EpochEngineConfig config;
  config.max_batch = s.max_batch;
  config.payments = PaymentPolicy::kCritical;
  config.record_allocations = true;
  return config;
}

struct EngineWorld {
  StreamingScenario scenario;
  PoissonStream stream;
};

EngineWorld engine_world(const EngineStream& s) {
  StreamingScenario scenario = make_streaming_grid_scenario(
      s.rows, s.cols, s.capacity, ValueModel::kUniform);
  PoissonStream stream(scenario.graph, scenario.request_config, s.rate,
                       s.requests, 3, s.durations);
  return {std::move(scenario), std::move(stream)};
}

// One run of an engine stream: each allocation's sequence and payment
// bits, and per epoch the shortest paths the winner replays recomputed.
struct EngineRun {
  std::vector<std::uint64_t> payments;
  std::vector<std::int64_t> searches;
};

EngineRun run_engine(const EngineStream& s, PaymentPolicy payments,
                     int num_threads) {
  EngineWorld world = engine_world(s);
  EpochEngineConfig config = critical_engine_config(s);
  config.payments = payments;
  config.solver.num_threads = num_threads;
  EpochEngine engine(world.scenario.graph, config);
  EngineRun out;
  std::int64_t searches = 0;
  engine.run(world.stream, [&](const AdmissionReport& report) {
    for (const AdmissionRecord& a : report.allocations) {
      out.payments.push_back(static_cast<std::uint64_t>(a.sequence));
      out.payments.push_back(bits(a.payment));
    }
    out.searches.push_back(report.payment_sp_computations);
    searches += report.payment_sp_computations;
  });
  EXPECT_EQ(engine.metrics().counters().payment_sp_computations, searches);
  return out;
}

TEST(CriticalReplay, EnginePaymentsAreBitwiseStableAcrossThreads) {
  // Payments and the replays' search counts alike.
  for (const EngineStream& s : kEngineStreams) {
    SCOPED_TRACE(s.name);
    const EngineRun reference = run_engine(s, PaymentPolicy::kCritical, 1);
    ASSERT_FALSE(reference.payments.empty());
    int paying = 0;
    for (std::size_t i = 1; i < reference.payments.size(); i += 2) {
      if (std::bit_cast<double>(reference.payments[i]) > 0.0) ++paying;
    }
    EXPECT_GT(paying, 0);
    std::int64_t searches = 0;
    for (const std::int64_t n : reference.searches) searches += n;
    EXPECT_GT(searches, 0);
    for (const int threads : {2, 4}) {
      const EngineRun run = run_engine(s, PaymentPolicy::kCritical, threads);
      EXPECT_EQ(run.payments, reference.payments) << threads << " threads";
      EXPECT_EQ(run.searches, reference.searches) << threads << " threads";
    }
  }
}

TEST(CriticalReplay, OnlyCriticalPaymentsCountReplaySearches) {
  for (const EngineStream& s : kEngineStreams) {
    SCOPED_TRACE(s.name);
    for (const PaymentPolicy policy :
         {PaymentPolicy::kDualPrice, PaymentPolicy::kNone}) {
      for (const std::int64_t n : run_engine(s, policy, 1).searches) {
        EXPECT_EQ(n, 0);
      }
    }
  }
}

TEST(CriticalReplay, EnginePaymentsEqualAColdPerEpochReplay) {
  // The streams above, cleared epoch by epoch. Before each epoch the
  // engine drains the leases expired by its close, then its residual is
  // compiled into a fresh GraphSnapshot and every winner is re-priced
  // through the instance overload under the engine's epoch config: the
  // persistent store, its blocked mask, the warm workspace and the
  // checkpoints must not move a payment by one bit.
  for (const EngineStream& s : kEngineStreams) {
    SCOPED_TRACE(s.name);
    EngineWorld world = engine_world(s);
    const EpochEngineConfig config = critical_engine_config(s);
    EpochEngine engine(world.scenario.graph, config);
    int epochs = 0;
    int winners = 0;
    int paying = 0;
    std::vector<TimedRequest> batch;
    TimedRequest t;
    bool more = true;
    while (more) {
      batch.clear();
      while (static_cast<int>(batch.size()) < config.max_batch &&
             (more = world.stream.next(&t))) {
        batch.push_back(t);
      }
      if (batch.empty()) break;
      engine.reclaim_expired(batch.back().arrival_time);
      const GraphSnapshot snapshot =
          GraphSnapshot::compile(world.scenario.graph, engine.residual());
      const AdmissionReport report = engine.run_epoch(batch);
      ++epochs;
      if (snapshot.num_active_edges() == 0) {
        EXPECT_EQ(report.admitted, 0);
        continue;
      }
      std::vector<Request> requests;
      for (const TimedRequest& timed : batch) {
        requests.push_back(timed.request);
      }
      const UfpInstance instance(snapshot.graph(), std::move(requests));
      BoundedUfpConfig cfg = config.solver;
      cfg.epsilon =
          std::min(cfg.epsilon, kMaxSafeExponent / snapshot.min_residual());
      cfg.num_threads = 1;
      for (const AdmissionRecord& a : report.allocations) {
        EXPECT_EQ(bits(a.payment),
                  bits(bounded_ufp_critical_value(instance, a.request, cfg)))
            << "epoch " << report.epoch << " sequence " << a.sequence;
        ++winners;
        if (a.payment > 0.0) ++paying;
      }
    }
    EXPECT_EQ(epochs, s.requests / s.max_batch);
    EXPECT_GT(winners, 0);
    EXPECT_GT(paying, 0);
  }
}

}  // namespace
}  // namespace tufp
