// bounded_ufp_critical_value: exact critical payments read off one
// shadowed replay of Algorithm 1. Every payment is checked against the
// allocation rule itself (the two-probe ulp check: the rule admits at p
// and rejects one double below) and against the rule-agnostic bisection
// of mechanism/critical_payment (p <= b <= p + tol * max(1, b)).
#include "tufp/ufp/bounded_ufp.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/mechanism/critical_payment.hpp"
#include "tufp/sim/snapshot.hpp"
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
void check_world(const Shape& shape, const Leg& leg, std::uint64_t seed,
                 Tally* tally) {
  const int m = shape.rows * (shape.cols - 1) + shape.cols * (shape.rows - 1);
  const double capacity =
      leg.faithful ? std::ceil(1.5 + std::log(static_cast<double>(m)))
                   : shape.capacity;
  auto base = std::make_shared<const Graph>(
      grid_graph(shape.rows, shape.cols, capacity, /*directed=*/false));
  Rng rng(seed);
  RequestGenConfig gen;
  gen.num_requests = leg.faithful ? 2 * shape.requests : shape.requests;
  const std::vector<Request> requests = generate_requests(*base, gen, rng);

  ResidualGraph rg(base, 1.0);
  for (EdgeId e = static_cast<EdgeId>(seed % 3); e < base->num_edges();
       e += 11) {
    const std::vector<EdgeId> edge{e};
    rg.commit_admission(edge, capacity - 0.5);
  }
  rg.open_epoch();
  ASSERT_GT(rg.num_active(), 0);
  const GraphSnapshot snapshot =
      GraphSnapshot::compile(base, rg.residual(), 1.0);
  const UfpInstance instance(snapshot.graph(), requests);

  const BoundedUfpConfig& cfg = leg.config;
  const UfpRule rule = make_bounded_ufp_rule(cfg);
  const UfpSolution allocation = rule(instance);
  const PaymentOptions reference;
  for (int r = 0; r < instance.num_requests(); ++r) {
    SCOPED_TRACE(::testing::Message()
                 << leg.name << " " << shape.rows << "x" << shape.cols
                 << " seed " << seed << " request " << r);
    const double bid = instance.request(r).value;
    const double p = bounded_ufp_critical_value(instance, r, cfg);
    EXPECT_EQ(bits(bounded_ufp_critical_value(rg, requests, r, cfg)),
              bits(p));
    if (!allocation.is_selected(r)) {
      EXPECT_GT(p, bid);
      if (r % 4 == 0 && p < kInf) {
        expect_exact_threshold(instance, rule, r, p);
        ++tally->losers_priced;
      }
      continue;
    }
    for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
      BoundedUfpConfig forced = cfg;
      forced.sp_kernel = kernel;
      EXPECT_EQ(bits(bounded_ufp_critical_value(instance, r, forced)),
                bits(p));
    }
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

TEST(CriticalReplay, ExactAcrossShapesSeedsKernelsAndEntryPoints) {
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

// Engine kCritical payments on a binding multi-epoch grid, per sequence.
EpochEngineConfig critical_engine_config() {
  EpochEngineConfig config;
  config.max_batch = 40;
  config.payments = PaymentPolicy::kCritical;
  config.record_allocations = true;
  return config;
}

std::vector<std::uint64_t> engine_payment_bits(SpKernel kernel,
                                               int num_threads) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(5, 5, 4.0, ValueModel::kUniform);
  EpochEngineConfig config = critical_engine_config();
  config.solver.sp_kernel = kernel;
  config.solver.num_threads = num_threads;
  EpochEngine engine(scenario.graph, config);
  PoissonStream stream(scenario.graph, scenario.request_config, 200.0, 160,
                       3);
  std::vector<std::uint64_t> out;
  engine.run(stream, [&](const AdmissionReport& report) {
    for (const AdmissionRecord& a : report.allocations) {
      out.push_back(static_cast<std::uint64_t>(a.sequence));
      out.push_back(bits(a.payment));
    }
  });
  return out;
}

TEST(CriticalReplay, EnginePaymentsAreBitwiseStableAcrossKernelsAndThreads) {
  const std::vector<std::uint64_t> reference =
      engine_payment_bits(SpKernel::kHeap, 1);
  ASSERT_FALSE(reference.empty());
  int paying = 0;
  for (std::size_t i = 1; i < reference.size(); i += 2) {
    if (std::bit_cast<double>(reference[i]) > 0.0) ++paying;
  }
  EXPECT_GT(paying, 0);
  for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
    for (const int threads : {1, 4}) {
      EXPECT_EQ(engine_payment_bits(kernel, threads), reference)
          << "kernel " << static_cast<int>(kernel) << " threads " << threads;
    }
  }
}

TEST(CriticalReplay, EnginePaymentsEqualAColdPerEpochReplay) {
  // Same stream as above, cleared epoch by epoch. Before each epoch the
  // engine's residual is compiled into a fresh GraphSnapshot and every
  // winner is re-priced through the instance overload under the engine's
  // epoch config: the persistent store, its blocked mask and the warm
  // workspace must not move a payment by one bit.
  const StreamingScenario scenario =
      make_streaming_grid_scenario(5, 5, 4.0, ValueModel::kUniform);
  const EpochEngineConfig config = critical_engine_config();
  EpochEngine engine(scenario.graph, config);
  PoissonStream stream(scenario.graph, scenario.request_config, 200.0, 160,
                       3);
  int epochs = 0;
  int winners = 0;
  int paying = 0;
  std::vector<TimedRequest> batch;
  TimedRequest t;
  bool more = true;
  while (more) {
    batch.clear();
    while (static_cast<int>(batch.size()) < config.max_batch &&
           (more = stream.next(&t))) {
      batch.push_back(t);
    }
    if (batch.empty()) break;
    const GraphSnapshot snapshot = GraphSnapshot::compile(
        scenario.graph, engine.residual(), config.min_usable_capacity);
    const AdmissionReport report = engine.run_epoch(batch);
    ++epochs;
    if (snapshot.num_active_edges() == 0) {
      EXPECT_EQ(report.admitted, 0);
      continue;
    }
    std::vector<Request> requests;
    for (const TimedRequest& timed : batch) requests.push_back(timed.request);
    const UfpInstance instance(snapshot.graph(), std::move(requests));
    BoundedUfpConfig cfg = config.solver;
    cfg.epsilon =
        std::min(cfg.epsilon, kMaxSafeExponent / snapshot.min_residual());
    cfg.export_duals = false;
    cfg.num_threads = 1;
    for (const AdmissionRecord& a : report.allocations) {
      EXPECT_EQ(bits(a.payment),
                bits(bounded_ufp_critical_value(instance, a.request, cfg)))
          << "epoch " << report.epoch << " sequence " << a.sequence;
      ++winners;
      if (a.payment > 0.0) ++paying;
    }
  }
  EXPECT_EQ(epochs, 4);
  EXPECT_GT(winners, 0);
  EXPECT_GT(paying, 0);
}

}  // namespace
}  // namespace tufp
