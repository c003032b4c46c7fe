#include "tufp/engine/epoch_engine.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "tufp/engine/request_stream.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/mechanism/critical_payment.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp {
namespace {

struct EpochDigest {
  int epoch;
  int batch_size;
  int admitted;
  double revenue;
  double admitted_value;
  double dual_upper_bound;
  int active_edges;
  std::vector<AdmissionRecord> allocations;
};

std::vector<EpochDigest> run_engine(int num_threads, PaymentPolicy payments,
                                    std::vector<double>* final_residual,
                                    int requests = 600, double capacity = 8.0) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(5, 5, capacity, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 100;
  config.payments = payments;
  config.record_allocations = true;
  config.solver.num_threads = num_threads;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, /*rate=*/200.0,
                       requests, /*seed=*/17);
  std::vector<EpochDigest> digests;
  engine.run(stream, [&](const AdmissionReport& r) {
    digests.push_back({r.epoch, r.batch_size, r.admitted, r.revenue,
                       r.admitted_value, r.dual_upper_bound, r.active_edges,
                       r.allocations});
  });
  if (final_residual) {
    final_residual->assign(engine.residual().begin(), engine.residual().end());
  }
  return digests;
}

TEST(EpochEngine, DeterministicAcrossThreadCounts) {
  std::vector<double> residual1, residual4;
  const auto one = run_engine(1, PaymentPolicy::kDualPrice, &residual1);
  const auto four = run_engine(4, PaymentPolicy::kDualPrice, &residual4);

  ASSERT_EQ(one.size(), four.size());
  ASSERT_GE(one.size(), 3u);
  for (std::size_t i = 0; i < one.size(); ++i) {
    EXPECT_EQ(one[i].epoch, four[i].epoch);
    EXPECT_EQ(one[i].batch_size, four[i].batch_size);
    EXPECT_EQ(one[i].admitted, four[i].admitted);
    // Bitwise equality, not approximate: the epoch solves must take the
    // same decisions in the same order for any thread count.
    EXPECT_EQ(one[i].revenue, four[i].revenue);
    EXPECT_EQ(one[i].admitted_value, four[i].admitted_value);
    EXPECT_EQ(one[i].dual_upper_bound, four[i].dual_upper_bound);
    EXPECT_EQ(one[i].active_edges, four[i].active_edges);
    ASSERT_EQ(one[i].allocations.size(), four[i].allocations.size());
    for (std::size_t j = 0; j < one[i].allocations.size(); ++j) {
      EXPECT_EQ(one[i].allocations[j].sequence, four[i].allocations[j].sequence);
      EXPECT_EQ(one[i].allocations[j].payment, four[i].allocations[j].payment);
    }
  }
  EXPECT_EQ(residual1, residual4);
}

TEST(EpochEngine, ResidualFeasibilityInvariantAfterEveryEpoch) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(5, 5, 6.0, ValueModel::kUniform);
  const Graph& base = *scenario.graph;

  EpochEngineConfig config;
  config.max_batch = 80;
  config.record_allocations = true;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0,
                       /*limit=*/800, /*seed=*/5);
  TimedRequest t;
  std::vector<TimedRequest> batch;
  int epochs = 0;
  while (stream.next(&t)) {
    batch.push_back(t);
    if (batch.size() < 80) continue;
    const AdmissionReport report = engine.run_epoch(batch);
    ++epochs;

    for (const AdmissionRecord& a : report.allocations) {
      const Request& req = batch[static_cast<std::size_t>(a.request)].request;
      EXPECT_GT(req.value, 0.0);
      EXPECT_EQ(a.bid, req.value);
    }

    // Invariant 1: residual never negative, never above base capacity.
    const auto residual = engine.residual();
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      EXPECT_GE(residual[static_cast<std::size_t>(e)], 0.0);
      EXPECT_LE(residual[static_cast<std::size_t>(e)],
                base.capacity(e) + 1e-9);
    }
    batch.clear();
  }
  ASSERT_GE(epochs, 5);
  // The run must actually exercise admission for the invariant to mean
  // anything.
  EXPECT_GT(engine.metrics().counters().admitted, 0);
}

TEST(EpochEngine, CumulativeLoadNeverExceedsBaseCapacity) {
  // Drive the network to saturation and reconstruct the total load per base
  // edge from every admitted path; feasibility must hold globally across
  // epochs, not just within one.
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 4.0, ValueModel::kUniform);
  const Graph& base = *scenario.graph;

  EpochEngineConfig config;
  config.max_batch = 50;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 700, 9);
  engine.run(stream);

  const auto residual = engine.residual();
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    const double used = base.capacity(e) - residual[static_cast<std::size_t>(e)];
    EXPECT_GE(used, -1e-9);
    EXPECT_LE(used, base.capacity(e) + 1e-9);
  }
  // Saturation actually reached somewhere: the invariant test is not
  // vacuous.
  EXPECT_GT(engine.metrics().counters().rejected, 0);
}

void expect_individually_rational(PaymentPolicy policy) {
  std::vector<double> residual;
  const auto digests = run_engine(1, policy, &residual,
                                  /*requests=*/200, /*capacity=*/5.0);
  std::int64_t winners = 0;
  for (const EpochDigest& d : digests) {
    double revenue = 0.0;
    for (const AdmissionRecord& a : d.allocations) {
      ++winners;
      EXPECT_GE(a.payment, 0.0);
      EXPECT_LE(a.payment, a.bid + 1e-9);  // individual rationality
      revenue += a.payment;
    }
    EXPECT_NEAR(revenue, d.revenue, 1e-9);
    EXPECT_LE(d.revenue, d.admitted_value + 1e-9);
  }
  EXPECT_GT(winners, 0);
}

TEST(EpochEngine, CriticalPaymentsAreIndividuallyRational) {
  expect_individually_rational(PaymentPolicy::kCritical);
}

TEST(EpochEngine, DualPricePaymentsAreIndividuallyRational) {
  expect_individually_rational(PaymentPolicy::kDualPrice);
}

TEST(EpochEngine, NonePolicyChargesNothing) {
  std::vector<double> residual;
  const auto digests =
      run_engine(1, PaymentPolicy::kNone, &residual, 200, 5.0);
  for (const EpochDigest& d : digests) {
    EXPECT_EQ(d.revenue, 0.0);
    for (const AdmissionRecord& a : d.allocations) {
      EXPECT_EQ(a.payment, 0.0);
    }
  }
}

TEST(EpochEngine, CriticalPaymentsMatchTheOfflineMechanism) {
  // A single epoch over a fresh network is exactly the paper's one-shot
  // auction: the engine's exact critical payments must sit inside the
  // bracket run_ufp_mechanism's bisection reports on the same instance
  // and solver config, and be the rule's winning threshold to the ulp.
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 3.0, ValueModel::kUniform);

  EpochEngineConfig config;
  config.max_batch = 40;
  config.payments = PaymentPolicy::kCritical;
  config.record_allocations = true;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 40, 23);
  std::vector<TimedRequest> batch;
  TimedRequest t;
  while (stream.next(&t)) batch.push_back(t);
  ASSERT_EQ(batch.size(), 40u);

  const AdmissionReport report = engine.run_epoch(batch);
  ASSERT_GT(report.admitted, 0);

  std::vector<Request> requests;
  for (const TimedRequest& tr : batch) requests.push_back(tr.request);
  const UfpInstance instance(scenario.graph, std::move(requests));

  BoundedUfpConfig solver = config.solver;
  solver.num_threads = 1;
  const UfpRule rule = make_bounded_ufp_rule(solver);
  const PaymentOptions reference;
  const UfpMechanismResult offline =
      run_ufp_mechanism(instance, rule, reference);

  ASSERT_EQ(offline.allocation.num_selected(), report.admitted);
  int positive = 0;
  for (const AdmissionRecord& a : report.allocations) {
    EXPECT_TRUE(offline.allocation.is_selected(a.request));
    const double p = a.payment;
    const double b = offline.payments[static_cast<std::size_t>(a.request)];
    EXPECT_LE(p, b);
    EXPECT_LE(b, p + reference.tolerance * std::max(1.0, b));
    if (p > 0.0) {
      ++positive;
      EXPECT_TRUE(ufp_wins_at(instance, rule, a.request, p));
      EXPECT_FALSE(
          ufp_wins_at(instance, rule, a.request, std::nextafter(p, 0.0)));
    }
  }
  EXPECT_GT(positive, 0);  // the grid binds: some winners pay
}

TEST(EpochEngine, SaturatedNetworkRejectsWithoutAnAuction) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 1.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 10;
  EpochEngine engine(scenario.graph, config);

  // First epoch eats the capacity-1 network down; once every edge drops
  // below the floor no edge is active and later epochs reject
  // everything outright.
  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 120, 2);
  std::vector<AdmissionReport> reports;
  engine.run(stream,
             [&](const AdmissionReport& r) { reports.push_back(r); });
  ASSERT_GE(reports.size(), 3u);
  const AdmissionReport& last = reports.back();
  EXPECT_EQ(last.admitted, 0);
  EXPECT_EQ(last.active_edges, 0);
  EXPECT_EQ(last.saturated_edges,
            static_cast<int>(engine.residual().size()));
}

TEST(EpochEngine, ResetRestoresBaseCapacities) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 4.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 50;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 150, 3);
  engine.run(stream);
  ASSERT_GT(engine.metrics().counters().admitted, 0);

  engine.reset();
  EXPECT_EQ(engine.epochs_run(), 0);
  EXPECT_EQ(engine.metrics().counters().requests_seen, 0);
  for (EdgeId e = 0; e < scenario.graph->num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(engine.residual()[static_cast<std::size_t>(e)],
                     scenario.graph->capacity(e));
  }

  // A replayed identical stream reproduces the exact same outcome.
  PoissonStream replay(scenario.graph, scenario.request_config, 100.0, 150, 3);
  const auto before = engine.metrics().counters().admitted;
  engine.run(replay);
  EXPECT_GT(engine.metrics().counters().admitted, before);
}

TEST(EpochEngine, RequiresCapacityGuard) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 2.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.solver.capacity_guard = false;
  config.solver.run_to_saturation = false;
  EXPECT_THROW(EpochEngine(scenario.graph, config), std::invalid_argument);
}

TEST(EpochEngine, RequiresFloorCoveringTheMaximumDemand) {
  // A floor below 1 would let epoch bounds drop under bounded_ufp's B >= 1
  // precondition mid-run; the constructor rejects it up front.
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 2.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.min_usable_capacity = 0.5;
  EXPECT_THROW(EpochEngine(scenario.graph, config), std::invalid_argument);
}

TEST(EpochEngine, CountBasedModeNeverShedsToAQueueSmallerThanABatch) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 5.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 200;
  config.queue_capacity = 16;  // far below one batch
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0,
                       /*limit=*/500, /*seed=*/13);
  engine.run(stream);
  EXPECT_EQ(engine.metrics().counters().queue_dropped, 0);
  EXPECT_EQ(engine.metrics().counters().admitted +
                engine.metrics().counters().rejected,
            500);
}

TEST(EpochEngine, EmptyEpochIsANoOp) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 4.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 10;
  EpochEngine engine(scenario.graph, config);

  const AdmissionReport report = engine.run_epoch({});
  EXPECT_EQ(report.batch_size, 0);
  EXPECT_EQ(report.admitted, 0);
  EXPECT_EQ(report.invalid_rejected, 0);
  EXPECT_EQ(report.offered_value, 0.0);
  EXPECT_EQ(engine.epochs_run(), 1);
  for (EdgeId e = 0; e < scenario.graph->num_edges(); ++e) {
    EXPECT_DOUBLE_EQ(engine.residual()[static_cast<std::size_t>(e)],
                     scenario.graph->capacity(e));
  }

  // The engine stays fully usable after an empty epoch.
  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 60, 11);
  engine.run(stream);
  EXPECT_GT(engine.metrics().counters().admitted, 0);
}

TEST(EpochEngine, QueueOverflowDroppingEveryRequestStillTerminates) {
  // Time-based windows with a queue far smaller than each burst: almost
  // everything is shed at the queue, and the run must terminate with the
  // books balanced (seen == admitted + rejected + dropped).
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 6.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 400;
  config.epoch_duration = 0.5;
  config.queue_capacity = 1;
  EpochEngine engine(scenario.graph, config);

  BurstStream stream(scenario.graph, scenario.request_config, /*period=*/0.5,
                     /*burst_size=*/40, /*limit=*/200, /*seed=*/7);
  engine.run(stream);

  const EngineCounters& c = engine.metrics().counters();
  EXPECT_EQ(c.requests_seen, 200);
  EXPECT_GT(c.queue_dropped, 0);
  EXPECT_EQ(c.requests_seen,
            c.admitted + c.rejected + c.queue_dropped + c.invalid_rejected);
}

TEST(EpochEngine, MalformedBidsAreShedNotFatal) {
  // A zero-value bid used to blow up the whole epoch inside the instance
  // constructor; now every malformed bid is counted and shed while the
  // valid remainder still clears.
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 6.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 10;
  config.record_allocations = true;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 6, 3);
  std::vector<TimedRequest> batch;
  TimedRequest t;
  while (stream.next(&t)) batch.push_back(t);
  ASSERT_EQ(batch.size(), 6u);

  batch[1].request.value = 0.0;            // zero-value bid
  batch[2].request.demand = 1.5;           // un-normalized demand
  batch[4].request.target = batch[4].request.source;  // degenerate pair

  const AdmissionReport report = engine.run_epoch(batch);
  EXPECT_EQ(report.batch_size, 6);
  EXPECT_EQ(report.invalid_rejected, 3);
  EXPECT_EQ(engine.metrics().counters().invalid_rejected, 3);
  EXPECT_GT(report.admitted, 0);  // the valid bids still cleared
  for (const AdmissionRecord& a : report.allocations) {
    // Winners reference their batch slot and never a malformed bid.
    EXPECT_TRUE(a.request != 1 && a.request != 2 && a.request != 4);
    EXPECT_EQ(a.sequence, batch[static_cast<std::size_t>(a.request)].sequence);
    EXPECT_EQ(a.bid, batch[static_cast<std::size_t>(a.request)].request.value);
  }
}

TEST(EpochEngine, AllBidsMalformedRejectsWithoutAnAuction) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(3, 3, 6.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 4;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config, 100.0, 4, 3);
  std::vector<TimedRequest> batch;
  TimedRequest t;
  while (stream.next(&t)) batch.push_back(t);
  for (TimedRequest& tr : batch) tr.request.value = -1.0;

  const AdmissionReport report = engine.run_epoch(batch);
  EXPECT_EQ(report.invalid_rejected, 4);
  EXPECT_EQ(report.admitted, 0);
  EXPECT_EQ(report.offered_value, 0.0);
  EXPECT_EQ(engine.metrics().counters().rejected, 0);
}

TEST(EpochEngine, TimeBasedEpochsRespectWindows) {
  const StreamingScenario scenario =
      make_streaming_grid_scenario(4, 4, 10.0, ValueModel::kUniform);
  EpochEngineConfig config;
  config.max_batch = 1000;
  config.epoch_duration = 0.25;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config,
                       /*rate=*/100.0, /*limit=*/100, /*seed=*/31);
  std::vector<AdmissionReport> reports;
  engine.run(stream,
             [&](const AdmissionReport& r) { reports.push_back(r); });

  ASSERT_GE(reports.size(), 2u);
  for (const AdmissionReport& r : reports) {
    // Window close times are multiples of the epoch duration, and nobody
    // waits longer than one full window at rate*duration << max_batch.
    const double ratio = r.close_time / 0.25;
    EXPECT_NEAR(ratio, std::round(ratio), 1e-9);
    EXPECT_LE(r.max_admission_delay, 0.25 + 1e-9);
  }
}

}  // namespace
}  // namespace tufp
