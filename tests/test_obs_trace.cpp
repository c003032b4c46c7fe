// Decision provenance traces + span profiler (DESIGN.md §14): the
// byte-exact DecisionRecord wire format, the bounded trace ring, the
// nested span profiler, and — on a live engine — one pinned record per
// outcome class plus byte-identity of the full decision stream across SP
// kernels and thread counts (the engine-differential sim oracle, here run
// on one world of every family).
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/graph/graph.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/sim/oracles.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/util/math.hpp"

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

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) lines.push_back(line);
  return lines;
}

// Engine wired to a det-only capture; returns the det lines after `run`.
template <typename Fn>
std::vector<std::string> traced_run(std::shared_ptr<const Graph> graph,
                                    EpochEngineConfig config, Fn&& run) {
  std::ostringstream det;
  obs::StreamSink sink(&det, nullptr);
  obs::DecisionTrace trace(&sink);
  EpochEngine engine(std::move(graph), std::move(config));
  engine.set_decision_trace(&trace);
  run(engine);
  return split_lines(det.str());
}

// ---------------------------------------------------------- wire format

TEST(DecisionRecord, JsonIsByteExact) {
  obs::DecisionRecord rec;
  rec.sequence = 7;
  rec.epoch = 2;
  rec.outcome = obs::DecisionOutcome::kAdmitted;
  rec.close_time = 1.5;
  rec.value = 4.0;
  rec.demand = 0.5;
  rec.path = {3, 5};
  rec.payment = 0.25;
  rec.admitted_at = 1.5;
  rec.expires_at = kInf;
  // Field order and rendering are part of the byte-exact contract: every
  // determinism gate (engine-differential, tufp_trace diff) diffs these
  // strings verbatim.
  EXPECT_EQ(rec.to_json(),
            "{\"event\":\"decision\",\"chan\":\"det\",\"seq\":7,\"epoch\":2,"
            "\"outcome\":\"admitted\",\"close_time\":1.5,\"value\":4,"
            "\"demand\":0.5,\"path\":[3,5],\"payment\":0.25,"
            "\"density\":0,\"bottleneck_edge\":-1,"
            "\"admitted_at\":1.5,\"expires_at\":\"inf\"}");
}

TEST(DecisionTrace, RingIsBoundedOldestFirst) {
  obs::DecisionTrace trace(nullptr, obs::DecisionTrace::Config{3});
  for (int i = 0; i < 5; ++i) {
    obs::DecisionRecord rec;
    rec.sequence = i;
    trace.record(rec);
  }
  EXPECT_EQ(trace.records_emitted(), 5);
  const std::vector<std::string> ring = trace.ring_snapshot();
  ASSERT_EQ(ring.size(), 3u);
  EXPECT_NE(ring[0].find("\"seq\":2"), std::string::npos);
  EXPECT_NE(ring[2].find("\"seq\":4"), std::string::npos);
}

TEST(DecisionTrace, SinkReceivesEveryRecordOnDetChannel) {
  std::ostringstream det;
  std::ostringstream wall;
  obs::StreamSink sink(&det, &wall);
  obs::DecisionTrace trace(&sink);
  obs::DecisionRecord rec;
  rec.sequence = 11;
  trace.record(rec);
  EXPECT_NE(det.str().find("\"seq\":11"), std::string::npos);
  EXPECT_TRUE(wall.str().empty());  // decisions never leak to wall
}

// ----------------------------------------------------------------- spans

TEST(SpanProfiler, AggregatesNestedScopes) {
  obs::SpanProfiler profiler;
  obs::SpanProfiler* previous = obs::install_span_profiler(&profiler);
  {
    TUFP_SPAN("outer");
    for (int i = 0; i < 2; ++i) {
      TUFP_SPAN("inner");
    }
  }
  obs::install_span_profiler(previous);
  EXPECT_EQ(profiler.phase_count("outer"), 1);
  EXPECT_EQ(profiler.phase_count("inner"), 2);
  EXPECT_GE(profiler.phase_seconds("outer"), profiler.phase_seconds("inner"));
  EXPECT_NE(profiler.phase_histogram("inner"), nullptr);
  EXPECT_EQ(profiler.phase_histogram("absent"), nullptr);
  EXPECT_NE(profiler.collapsed_stacks().find("outer;inner "),
            std::string::npos);
  EXPECT_EQ(profiler.to_json().rfind(
                "{\"event\":\"spans\",\"chan\":\"wall\"", 0),
            0u);
}

TEST(SpanProfiler, SpanIsNoOpWithoutInstalledProfiler) {
  ASSERT_EQ(obs::current_span_profiler(), nullptr);
  TUFP_SPAN("orphan");  // must not crash or allocate profiler state
  EXPECT_EQ(obs::current_span_profiler(), nullptr);
}

// -------------------------------------------------- outcome-class pins

// Funnel: 0->2, 1->2 feed the shared edge 2->3 which fans out 3->4,
// 3->5. Edge e2 holds one winner; the loser fit at epoch start but lost
// the intra-epoch race -> shard_conflict naming e2.
TEST(DecisionTraceEngine, ShardConflictNamesFunnelEdge) {
  Graph g = Graph::directed(6);
  g.add_edge(0, 2, 10.0);  // e0
  g.add_edge(1, 2, 10.0);  // e1
  g.add_edge(2, 3, 1.6);   // e2 — room for exactly one unit demand
  g.add_edge(3, 4, 10.0);  // e3
  g.add_edge(3, 5, 10.0);  // e4
  g.finalize();
  EpochEngineConfig config;
  config.max_batch = 2;
  const std::vector<std::string> lines = traced_run(
      std::make_shared<const Graph>(std::move(g)), config,
      [](EpochEngine& engine) {
        engine.run_epoch({make_timed(0.0, 0, 1.0, 2.0, kInf, 0, 4),
                          make_timed(0.0, 1, 1.0, 1.0, kInf, 1, 5)});
      });
  ASSERT_EQ(lines.size(), 2u);
  int admitted = 0;
  int conflicts = 0;
  for (const std::string& line : lines) {
    if (line.find("\"outcome\":\"admitted\"") != std::string::npos) {
      ++admitted;
      continue;
    }
    ++conflicts;
    EXPECT_NE(line.find("\"outcome\":\"shard_conflict\""), std::string::npos)
        << line;
    EXPECT_NE(line.find("\"bottleneck_edge\":2"), std::string::npos) << line;
  }
  EXPECT_EQ(admitted, 1);
  EXPECT_EQ(conflicts, 1);
}

// Chain 0->1->2->3 with a narrow middle edge. Epoch 1 admits a permanent
// lease that drains e1 below the usable floor; epoch 2's request is then
// cut by saturation, NOT topology -> capacity_blocked with e1 as the
// bottleneck. A request against the chain's direction has no base route
// at any capacity -> no_path.
TEST(DecisionTraceEngine, CapacityBlockedNamesBottleneckNoPathIsTopological) {
  Graph g = Graph::directed(4);
  g.add_edge(0, 1, 10.0);  // e0
  g.add_edge(1, 2, 1.5);   // e1 — below floor once one unit is leased
  g.add_edge(2, 3, 10.0);  // e2
  g.finalize();
  EpochEngineConfig config;
  config.max_batch = 2;
  const std::vector<std::string> lines = traced_run(
      std::make_shared<const Graph>(std::move(g)), config,
      [](EpochEngine& engine) {
        engine.run_epoch({make_timed(0.0, 0, 1.0, 2.0, kInf, 0, 3)});
        engine.run_epoch({make_timed(1.0, 1, 0.5, 1.0, kInf, 0, 3),
                          make_timed(1.0, 2, 0.5, 1.0, kInf, 3, 0)});
      });
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"outcome\":\"admitted\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"outcome\":\"capacity_blocked\""),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"bottleneck_edge\":1"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"outcome\":\"no_path\""), std::string::npos)
      << lines[2];
  EXPECT_NE(lines[2].find("\"bottleneck_edge\":-1"), std::string::npos)
      << lines[2];
}

// A saturated epoch (no edge at or above the floor) runs no auction,
// yet its records read like any other epoch's: a bid the base topology
// connects is capacity_blocked at the first below-floor edge of its base
// route, and one it never connects is a true no_path.
TEST(DecisionTraceEngine, SaturatedEpochRecordsNameTheBottleneck) {
  Graph g = Graph::directed(3);
  g.add_edge(0, 1, 1.5);  // e0
  g.add_edge(1, 2, 1.5);  // e1
  g.finalize();
  EpochEngineConfig config;
  config.max_batch = 3;
  AdmissionReport saturated;
  const std::vector<std::string> lines = traced_run(
      std::make_shared<const Graph>(std::move(g)), config,
      [&saturated](EpochEngine& engine) {
        // Admitting 0->2 leaves both edges at 0.5, below the floor.
        engine.run_epoch({make_timed(0.0, 0, 1.0, 2.0, kInf, 0, 2)});
        saturated = engine.run_epoch({make_timed(1.0, 1, 0.5, 1.0, kInf, 0, 2),
                                      make_timed(1.0, 2, 0.5, 1.0, kInf, 2, 0),
                                      make_timed(1.0, 3, 0.5, 1.0, kInf, 1, 2)});
      });
  EXPECT_EQ(saturated.active_edges, 0);
  EXPECT_EQ(saturated.capacity_blocked, 2);
  EXPECT_EQ(saturated.no_path, 1);
  ASSERT_EQ(lines.size(), 4u);
  EXPECT_NE(lines[0].find("\"outcome\":\"admitted\""), std::string::npos);
  EXPECT_NE(lines[1].find("\"seq\":1,"), std::string::npos) << lines[1];
  EXPECT_NE(lines[1].find("\"outcome\":\"capacity_blocked\""),
            std::string::npos)
      << lines[1];
  EXPECT_NE(lines[1].find("\"bottleneck_edge\":0"), std::string::npos)
      << lines[1];
  EXPECT_NE(lines[2].find("\"seq\":2,"), std::string::npos) << lines[2];
  EXPECT_NE(lines[2].find("\"outcome\":\"no_path\""), std::string::npos)
      << lines[2];
  EXPECT_NE(lines[2].find("\"bottleneck_edge\":-1"), std::string::npos)
      << lines[2];
  EXPECT_NE(lines[3].find("\"seq\":3,"), std::string::npos) << lines[3];
  EXPECT_NE(lines[3].find("\"outcome\":\"capacity_blocked\""),
            std::string::npos)
      << lines[3];
  EXPECT_NE(lines[3].find("\"bottleneck_edge\":1"), std::string::npos)
      << lines[3];
}

// Invalid sheds and lease expiries terminate in records too: every
// request offered to the engine closes in exactly one decision.
TEST(DecisionTraceEngine, InvalidAndLeaseExpiryEmitRecords) {
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);  // e0
  g.finalize();
  EpochEngineConfig config;
  config.max_batch = 2;
  const std::vector<std::string> lines = traced_run(
      std::make_shared<const Graph>(std::move(g)), config,
      [](EpochEngine& engine) {
        engine.run_epoch({make_timed(0.0, 0, 1.0, 2.0, /*duration=*/2.0, 0, 1),
                          make_timed(0.0, 1, 1.0, 0.0, kInf, 0, 1)});
        engine.reclaim_expired(10.0);  // --horizon style external drain
      });
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_NE(lines[0].find("\"outcome\":\"invalid\""), std::string::npos)
      << lines[0];  // sheds are emitted before the auction's decisions
  EXPECT_NE(lines[1].find("\"outcome\":\"admitted\""), std::string::npos);
  EXPECT_NE(lines[2].find("\"outcome\":\"lease_expired\""), std::string::npos)
      << lines[2];
  EXPECT_NE(lines[2].find("\"seq\":0"), std::string::npos);
  EXPECT_NE(lines[2].find("\"path\":[0]"), std::string::npos);
}

// ------------------------------------------------------- byte identity

// The same batch replayed across {heap,bucket} x {1,4 threads} engines
// must produce byte-identical decision streams.
TEST(DecisionTraceEngine, StreamIsByteIdenticalAcrossKernelsAndThreads) {
  const auto build = [] {
    Graph g = Graph::directed(6);
    g.add_edge(0, 2, 10.0);
    g.add_edge(1, 2, 10.0);
    g.add_edge(2, 3, 1.6);
    g.add_edge(3, 4, 10.0);
    g.add_edge(3, 5, 10.0);
    g.finalize();
    return std::make_shared<const Graph>(std::move(g));
  };
  const std::vector<TimedRequest> epoch1{
      make_timed(0.0, 0, 1.0, 2.0, 1.5, 0, 4),
      make_timed(0.0, 1, 1.0, 1.0, kInf, 1, 5)};
  const std::vector<TimedRequest> epoch2{
      make_timed(2.0, 2, 0.5, 3.0, kInf, 0, 5),
      make_timed(2.0, 3, 0.25, -1.0, kInf, 1, 4)};
  std::vector<std::vector<std::string>> legs;
  for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
    for (const int threads : {1, 4}) {
      EpochEngineConfig config;
      config.max_batch = 2;
      config.solver.sp_kernel = kernel;
      config.solver.num_threads = threads;
      legs.push_back(traced_run(build(), config, [&](EpochEngine& engine) {
        engine.run_epoch(epoch1);
        engine.run_epoch(epoch2, 2.0);
        engine.reclaim_expired(10.0);
      }));
    }
  }
  ASSERT_EQ(legs.size(), 4u);
  EXPECT_GE(legs[0].size(), 5u);  // 4 requests + >= 1 reclaim
  for (std::size_t i = 1; i < legs.size(); ++i) {
    EXPECT_EQ(legs[i], legs[0]) << "leg " << i;
  }
}

// The engine-differential oracle on one world of every family: the full
// kernel x thread x {plain, churn} matrix, plus the exactly-one-
// decision-per-request audit, on generated worlds.
TEST(DecisionTraceEngine, TraceDifferentialHoldsOnEveryWorldFamily) {
  const std::vector<std::string> only{"engine-differential"};
  for (const sim::WorldFamily family : sim::kAllFamilies) {
    const sim::SimWorld world = sim::generate_world({family, 17});
    const std::vector<sim::Violation> violations =
        sim::run_oracle_suite(world, sim::OracleOptions{}, only);
    for (const sim::Violation& v : violations) {
      ADD_FAILURE() << sim::family_name(family) << ": " << v.oracle << ": "
                    << v.detail;
    }
  }
}

}  // namespace
}  // namespace tufp
