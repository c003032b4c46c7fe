#include "tufp/engine/request_stream.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "tufp/graph/generators.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {
namespace {

std::shared_ptr<const Graph> test_graph() {
  return std::make_shared<const Graph>(
      grid_graph(4, 4, 10.0, /*directed=*/false));
}

std::vector<TimedRequest> drain(RequestStream& stream) {
  std::vector<TimedRequest> all;
  TimedRequest t;
  while (stream.next(&t)) all.push_back(t);
  return all;
}

TEST(PoissonStream, EmitsLimitInArrivalOrderWithUniqueSequences) {
  const auto graph = test_graph();
  PoissonStream stream(graph, RequestGenConfig{}, /*rate=*/100.0,
                       /*limit=*/250, /*seed=*/7);
  const auto all = drain(stream);
  ASSERT_EQ(all.size(), 250u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    EXPECT_EQ(all[i].sequence, static_cast<std::int64_t>(i));
    EXPECT_GT(all[i].request.demand, 0.0);
    EXPECT_LE(all[i].request.demand, 1.0);
    EXPECT_GT(all[i].request.value, 0.0);
    EXPECT_NE(all[i].request.source, all[i].request.target);
    if (i > 0) EXPECT_GE(all[i].arrival_time, all[i - 1].arrival_time);
  }
  // Mean inter-arrival ~ 1/rate: 250 arrivals at rate 100 land near t=2.5.
  EXPECT_GT(all.back().arrival_time, 1.0);
  EXPECT_LT(all.back().arrival_time, 6.0);
}

TEST(PoissonStream, DeterministicPerSeed) {
  const auto graph = test_graph();
  PoissonStream a(graph, RequestGenConfig{}, 50.0, 100, 42);
  PoissonStream b(graph, RequestGenConfig{}, 50.0, 100, 42);
  PoissonStream c(graph, RequestGenConfig{}, 50.0, 100, 43);
  const auto xs = drain(a);
  const auto ys = drain(b);
  const auto zs = drain(c);
  ASSERT_EQ(xs.size(), ys.size());
  bool any_difference_from_c = false;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    EXPECT_EQ(xs[i].arrival_time, ys[i].arrival_time);
    EXPECT_EQ(xs[i].request.source, ys[i].request.source);
    EXPECT_EQ(xs[i].request.target, ys[i].request.target);
    EXPECT_EQ(xs[i].request.demand, ys[i].request.demand);
    EXPECT_EQ(xs[i].request.value, ys[i].request.value);
    any_difference_from_c |= xs[i].arrival_time != zs[i].arrival_time;
  }
  EXPECT_TRUE(any_difference_from_c);
}

TEST(PoissonStream, OffersTheBatchGeneratorsWorkloadSeedForSeed) {
  // The arrival clock has its own RNG stream, so the request bodies must
  // be exactly what generate_requests() yields for the same seed.
  const auto graph = test_graph();
  RequestGenConfig config;
  config.num_requests = 60;
  Rng batch_rng(77);
  const std::vector<Request> batch =
      generate_requests(*graph, config, batch_rng);

  PoissonStream stream(graph, config, /*rate=*/100.0, /*limit=*/60,
                       /*seed=*/77);
  const auto streamed = drain(stream);
  ASSERT_EQ(streamed.size(), batch.size());
  for (std::size_t i = 0; i < batch.size(); ++i) {
    EXPECT_EQ(streamed[i].request.source, batch[i].source);
    EXPECT_EQ(streamed[i].request.target, batch[i].target);
    EXPECT_EQ(streamed[i].request.demand, batch[i].demand);
    EXPECT_EQ(streamed[i].request.value, batch[i].value);
  }
}

TEST(BurstStream, GroupsArrivalsIntoSimultaneousBursts) {
  const auto graph = test_graph();
  BurstStream stream(graph, RequestGenConfig{}, /*period=*/0.5,
                     /*burst_size=*/10, /*limit=*/35, /*seed=*/3);
  const auto all = drain(stream);
  ASSERT_EQ(all.size(), 35u);
  for (std::size_t i = 0; i < all.size(); ++i) {
    const double expected = 0.5 * static_cast<double>(i / 10);
    EXPECT_DOUBLE_EQ(all[i].arrival_time, expected);
  }
}

TEST(RequestSampler, StreamingMatchesBatchGeneration) {
  // k sample() calls consume the RNG exactly like one generate_requests()
  // call with num_requests = k, so streaming workloads reproduce batch
  // workloads seed for seed.
  const auto graph = test_graph();
  RequestGenConfig config;
  config.num_requests = 40;
  Rng batch_rng(11);
  const std::vector<Request> batch =
      generate_requests(*graph, config, batch_rng);

  Rng stream_rng(11);
  RequestSampler sampler(*graph, config);
  for (const Request& expected : batch) {
    const Request got = sampler.sample(stream_rng);
    EXPECT_EQ(got.source, expected.source);
    EXPECT_EQ(got.target, expected.target);
    EXPECT_EQ(got.demand, expected.demand);
    EXPECT_EQ(got.value, expected.value);
  }
}

TEST(BoundedRequestQueue, FifoWithTailDrop) {
  BoundedRequestQueue queue(3);
  for (int i = 0; i < 5; ++i) {
    TimedRequest t;
    t.sequence = i;
    const bool accepted = queue.push(t);
    EXPECT_EQ(accepted, i < 3);
  }
  EXPECT_EQ(queue.size(), 3u);

  TimedRequest out;
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out.sequence, 0);  // FIFO: oldest first, newcomers were shed
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out.sequence, 1);
  ASSERT_TRUE(queue.pop(&out));
  EXPECT_EQ(out.sequence, 2);
  EXPECT_FALSE(queue.pop(&out));
  EXPECT_TRUE(queue.empty());

  // Capacity freed: accepts again.
  EXPECT_TRUE(queue.push(TimedRequest{}));
}

TEST(BoundedRequestQueue, RejectsZeroCapacity) {
  EXPECT_THROW(BoundedRequestQueue(0), std::invalid_argument);
}

}  // namespace
}  // namespace tufp
