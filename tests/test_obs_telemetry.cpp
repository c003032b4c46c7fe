// Observability layer (DESIGN.md §11): the canonical JSON formatter, the
// two-channel telemetry discipline (det events byte-identical across
// thread counts, wall events strictly segregated), histogram JSON
// stability across --threads, the in-service sanity oracles on healthy
// and fault-injected engines, and the engine-side reclaim-leak injection
// knob the oracle-bite tests depend on.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/metrics.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/obs/sanity.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/util/json.hpp"
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

// ------------------------------------------------------------- util/json

TEST(JsonUtil, DoubleRoundTripsShortestForm) {
  // %.17g is the shortest format guaranteed to round-trip any double;
  // every telemetry stream funnels through this one formatter, so
  // byte-identity of events reduces to bit-identity of the doubles.
  EXPECT_EQ(json_double(0.0), "0");
  EXPECT_EQ(json_double(1.5), "1.5");
  EXPECT_EQ(json_double(0.1), "0.10000000000000001");
  EXPECT_EQ(json_double(-3.0), "-3");
}

TEST(JsonUtil, ObjectPreservesInsertionOrderAndEscapes) {
  JsonObject obj;
  obj.field("b", 1).field("a", std::string_view("x\"y\n")).field("flag", true);
  EXPECT_EQ(obj.str(), "{\"b\":1,\"a\":\"x\\\"y\\n\",\"flag\":true}");
}

TEST(JsonUtil, NonFiniteDoublesQuotedInObjects) {
  // JSON has no inf/nan literals: as object fields they are emitted as
  // strings so every line stays parseable by a strict reader.
  JsonObject obj;
  obj.field("inf", kInf).field("ninf", -kInf);
  EXPECT_EQ(obj.str(), "{\"inf\":\"inf\",\"ninf\":\"-inf\"}");
}

// ------------------------------------------------- channel segregation

TEST(Telemetry, ChannelsAreStrictlySeparated) {
  std::ostringstream det;
  std::ostringstream wall;
  obs::StreamSink sink(&det, &wall);
  sink.emit(obs::Channel::kDeterministic, "{\"chan\":\"det\"}");
  sink.emit(obs::Channel::kWallClock, "{\"chan\":\"wall\"}");
  EXPECT_EQ(det.str(), "{\"chan\":\"det\"}\n");
  EXPECT_EQ(wall.str(), "{\"chan\":\"wall\"}\n");
}

TEST(Telemetry, NullChannelDropsSilently) {
  std::ostringstream det;
  obs::StreamSink sink(&det, nullptr);  // det-only sink (tufp_engine --json)
  sink.emit(obs::Channel::kWallClock, "{\"chan\":\"wall\"}");
  sink.emit(obs::Channel::kDeterministic, "{\"chan\":\"det\"}");
  EXPECT_EQ(det.str(), "{\"chan\":\"det\"}\n");
}

TEST(Telemetry, EveryEventCarriesItsChannelTag) {
  // The chan field is the contract readers split streams by: a
  // full epoch + sanity + finish cycle must tag every single line.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 10.0);
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));
  EpochEngine engine(base, {});

  std::ostringstream det;
  std::ostringstream wall;
  obs::StreamSink sink(&det, &wall);
  obs::EpochTelemetry telemetry(&sink, {/*histogram_every=*/1,
                                        /*wall_events=*/true});
  const AdmissionReport report =
      engine.run_epoch({make_timed(0.0, 0, 0.5, 1.0, kInf, 0, 1)});
  telemetry.on_epoch(report, engine.metrics());
  telemetry.on_sanity(1, 3, 0);
  telemetry.finish(engine.metrics(), 1, 0.05, 0.1, 10.0);

  std::istringstream det_lines(det.str());
  std::string line;
  int det_count = 0;
  while (std::getline(det_lines, line)) {
    EXPECT_NE(line.find("\"chan\":\"det\""), std::string::npos) << line;
    ++det_count;
  }
  // epoch + hist (cadence 1) + sanity + final hist + summary.
  EXPECT_EQ(det_count, 5);

  std::istringstream wall_lines(wall.str());
  int wall_count = 0;
  while (std::getline(wall_lines, line)) {
    EXPECT_NE(line.find("\"chan\":\"wall\""), std::string::npos) << line;
    ++wall_count;
  }
  EXPECT_EQ(wall_count, 2);  // epoch_wall + summary_wall
  EXPECT_EQ(telemetry.events_emitted(), 7);
}

// --------------------------------------- histogram JSON thread-identity

std::string run_world_histogram_json(int num_threads) {
  sim::WorldSpec spec;
  spec.family = sim::WorldFamily::kGrid;
  spec.seed = 11;
  const sim::SimWorld world = sim::generate_world(spec);

  EpochEngineConfig config;
  config.max_batch = 32;
  config.solver.num_threads = num_threads;
  EpochEngine engine(world.instance.shared_graph(), config);

  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < world.instance.requests().size(); ++i) {
    TimedRequest timed;
    timed.request = world.instance.requests()[i];
    timed.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    timed.duration = i < world.durations.size() ? world.durations[i] : kInf;
    timed.sequence = static_cast<std::int64_t>(i);
    batch.push_back(timed);
    if (batch.size() == 32) {
      engine.run_epoch(batch);
      batch.clear();
    }
  }
  if (!batch.empty()) engine.run_epoch(batch);
  return engine.metrics().admission_delay().to_json();
}

TEST(HistogramJson, ByteIdenticalAcrossThreadCounts) {
  // The satellite pin: GeometricHistogram::to_json() feeds the det
  // channel, so its serialization must be byte-identical for any OpenMP
  // thread count — bucket membership is a pure function of the recorded
  // (deterministic) delays, and the formatter is canonical.
  const std::string t1 = run_world_histogram_json(1);
  EXPECT_FALSE(t1.empty());
  EXPECT_NE(t1.find("\"count\":"), std::string::npos);
  EXPECT_NE(t1.find("\"buckets\":"), std::string::npos);
  const std::string t4 = run_world_histogram_json(4);
  EXPECT_EQ(t1, t4);
}

TEST(HistogramJson, BucketsAreGeometricEdges) {
  GeometricHistogram hist(1.0, 2.0, 8);
  hist.record(1.5);   // [1, 2)
  hist.record(3.0);   // [2, 4)
  hist.record(3.9);   // [2, 4)
  // Edges come from the same min*growth^i formula percentile() uses,
  // through the canonical formatter — build the expectation identically
  // rather than assuming exp(log(2)*i) rounds to an integer.
  const auto edge = [](int i) {
    return json_double(std::exp(std::log(2.0) * static_cast<double>(i)));
  };
  const std::string expected = "{\"count\":3,\"buckets\":[[" + edge(0) + "," +
                               edge(1) + ",1],[" + edge(1) + "," + edge(2) +
                               ",2]]}";
  EXPECT_EQ(hist.to_json(), expected);
}

// --------------------------------------------------- in-service oracles

TEST(SanityOracles, HealthyEngineUnderChurnIsClean) {
  sim::WorldSpec spec;
  spec.family = sim::WorldFamily::kGrid;
  spec.seed = 3;
  spec.durations = DurationProfile::kExponential;
  const sim::SimWorld world = sim::generate_world(spec);

  EpochEngineConfig config;
  config.max_batch = 16;
  EpochEngine engine(world.instance.shared_graph(), config);
  EXPECT_EQ(obs::sanity_check_count(engine), 3);

  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < world.instance.requests().size(); ++i) {
    TimedRequest timed;
    timed.request = world.instance.requests()[i];
    timed.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    timed.duration = i < world.durations.size() ? world.durations[i] : kInf;
    timed.sequence = static_cast<std::int64_t>(i);
    batch.push_back(timed);
    if (batch.size() == 16) {
      engine.run_epoch(batch);
      batch.clear();
      // The in-service cadence: oracles between epochs, on live state.
      EXPECT_TRUE(obs::run_sanity_checks(engine).empty());
    }
  }
  if (!batch.empty()) engine.run_epoch(batch);
  engine.reclaim_expired(1e9);  // full drain: no-leak must hold exactly
  EXPECT_TRUE(obs::run_sanity_checks(engine).empty());
}

TEST(SanityOracles, InjectedReclaimLeakIsCaught) {
  // The oracle-bite proof at unit level (the ctest proves it through the
  // daemon): leak 5% of expired capacity in the engine's own reclaim
  // path and both lease-conservation oracles must name the edge.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 1.0);
  g.finalize();
  auto base = std::make_shared<const Graph>(std::move(g));

  EpochEngineConfig config;
  config.max_batch = 1;
  config.inject_reclaim_leak = 0.05;
  EpochEngine engine(base, config);

  engine.run_epoch({make_timed(0.0, 0, 1.0, 1.0, 0.3, 0, 1)});
  EXPECT_TRUE(obs::run_sanity_checks(engine).empty());  // not expired yet

  engine.reclaim_expired(1.0);  // expiry leaks 0.05 of the edge
  const std::vector<obs::SanityViolation> violations =
      obs::run_sanity_checks(engine);
  ASSERT_EQ(violations.size(), 2u);
  EXPECT_EQ(violations[0].check, "temporal-conserve");
  EXPECT_EQ(violations[1].check, "temporal-no-leak");
  EXPECT_NE(violations[0].detail.find("edge 0"), std::string::npos);
}

// ---------------------------------------------- det-event thread-identity

std::string run_world_telemetry(int num_threads) {
  sim::WorldSpec spec;
  spec.family = sim::WorldFamily::kRandomSparse;
  spec.seed = 5;
  spec.durations = DurationProfile::kExponential;
  const sim::SimWorld world = sim::generate_world(spec);

  EpochEngineConfig config;
  config.max_batch = 16;
  config.solver.num_threads = num_threads;
  EpochEngine engine(world.instance.shared_graph(), config);

  std::ostringstream det;
  obs::StreamSink sink(&det, nullptr);
  obs::EpochTelemetry telemetry(&sink, {/*histogram_every=*/2,
                                        /*wall_events=*/false});
  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < world.instance.requests().size(); ++i) {
    TimedRequest timed;
    timed.request = world.instance.requests()[i];
    timed.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    timed.duration = i < world.durations.size() ? world.durations[i] : kInf;
    timed.sequence = static_cast<std::int64_t>(i);
    batch.push_back(timed);
    if (batch.size() == 16) {
      telemetry.on_epoch(engine.run_epoch(batch), engine.metrics());
      batch.clear();
    }
  }
  if (!batch.empty()) {
    telemetry.on_epoch(engine.run_epoch(batch), engine.metrics());
  }
  telemetry.finish(engine.metrics(), engine.lease_ledger().active_count(),
                   engine.metrics().occupancy(), /*wall_seconds=*/0.0,
                   /*requests_per_second=*/0.0);
  return det.str();
}

TEST(Telemetry, DetStreamByteIdenticalAcrossThreadCounts) {
  // The acceptance criterion at unit level: the full det-channel JSONL
  // stream of a lease-churning world is byte-identical across thread
  // counts (the serve golden ctest re-proves it through the daemon).
  const std::string t1 = run_world_telemetry(1);
  EXPECT_NE(t1.find("\"event\":\"epoch\""), std::string::npos);
  EXPECT_NE(t1.find("\"event\":\"summary\""), std::string::npos);
  EXPECT_EQ(t1, run_world_telemetry(4));
}

}  // namespace
}  // namespace tufp
