// E10 — runtime claims and engineering ablations (google-benchmark).
//
// Theorem 3.1: at most |R| iterations, each costing at most |R| shortest
// path computations. Theorem 5.1: the repeat variant's time is polynomial
// in m and c_max/d_min. On top of the paper claims this suite measures the
// implementation levers DESIGN.md §6 calls out: the bucket-queue vs heap
// Dijkstra kernels and the OpenMP-parallel per-source tree refresh.
//
// Usage: bench_perf_runtime [--json PATH] [google-benchmark flags]
//   --json PATH is shorthand for --benchmark_out=PATH
//   --benchmark_out_format=json — the format tools/check_bench_regression.py
//   and the committed bench/baseline.json use for the CI regression gate.
#include <benchmark/benchmark.h>

#include <cstring>
#include <string>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/bounded_ufp_repeat.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"
#include "tufp/workload/scenarios.hpp"

namespace {

using namespace tufp;

UfpInstance grid_workload(int side, int requests, double capacity,
                          std::uint64_t seed) {
  Rng rng(seed);
  Graph g = grid_graph(side, side, capacity, false);
  RequestGenConfig cfg;
  cfg.num_requests = requests;
  std::vector<Request> reqs = generate_requests(g, cfg, rng);
  return UfpInstance(std::move(g), std::move(reqs));
}

void BM_DijkstraGrid(benchmark::State& state) {
  const int side = static_cast<int>(state.range(0));
  Rng rng(11);
  const Graph g = grid_graph(side, side, 4.0, false);
  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.next_double(0.1, 2.0);
  ShortestPathEngine engine(g);
  const auto s = static_cast<VertexId>(0);
  const auto t = static_cast<VertexId>(g.num_vertices() - 1);
  Path path;
  for (auto _ : state) {
    benchmark::DoNotOptimize(engine.shortest_path(weights, s, t, &path));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DijkstraGrid)->Arg(8)->Arg(16)->Arg(32)->Arg(64);

void BM_DijkstraGridKernel(benchmark::State& state) {
  // Heap vs bucket queue on the bounded key range the solver's dual
  // weights live in early on (ratio ~20 here -> a handful of buckets):
  // a query with no profile runs the heap, one with the scanned profile
  // the bucket queue.
  const int side = static_cast<int>(state.range(0));
  const bool bucket = state.range(1) != 0;
  Rng rng(11);
  const Graph g = grid_graph(side, side, 4.0, false);
  std::vector<double> weights(static_cast<std::size_t>(g.num_edges()));
  for (auto& w : weights) w = rng.next_double(0.1, 2.0);
  const WeightProfile scanned = WeightProfile::scan(weights);
  const WeightProfile* profile = bucket ? &scanned : nullptr;
  ShortestPathEngine engine(g);
  const auto s = static_cast<VertexId>(0);
  const auto t = static_cast<VertexId>(g.num_vertices() - 1);
  Path path;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        engine.shortest_path(weights, s, t, &path, {}, profile));
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(bucket ? "bucket" : "heap");
}
BENCHMARK(BM_DijkstraGridKernel)
    ->Args({16, 0})
    ->Args({16, 1})
    ->Args({64, 0})
    ->Args({64, 1});

void BM_BoundedUfp(benchmark::State& state) {
  const int requests = static_cast<int>(state.range(0));
  const UfpInstance inst = grid_workload(4, requests, 8.0, 23);
  BoundedUfpConfig cfg;
  cfg.epsilon = 0.7;
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounded_ufp(inst, cfg).iterations);
  }
}
BENCHMARK(BM_BoundedUfp)->Arg(32)->Arg(128)->Arg(512);

void BM_BoundedUfpParallel(benchmark::State& state) {
  const bool parallel = state.range(0) != 0;
  const UfpInstance inst = grid_workload(6, 600, 12.0, 29);
  BoundedUfpConfig cfg;
  cfg.epsilon = 0.7;
  cfg.num_threads = parallel ? 0 : 1;  // runtime default vs serial
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounded_ufp(inst, cfg).iterations);
  }
  state.SetLabel(parallel ? "openmp" : "serial");
}
BENCHMARK(BM_BoundedUfpParallel)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_Repeat(benchmark::State& state) {
  const UfpInstance inst = grid_workload(3, 8, 12.0, 31);
  BoundedUfpRepeatConfig cfg;
  cfg.epsilon = 0.7;
  cfg.num_threads = 0;  // runtime default: every core
  for (auto _ : state) {
    benchmark::DoNotOptimize(bounded_ufp_repeat(inst, cfg).iterations);
  }
}
BENCHMARK(BM_Repeat);

void BM_IterationsScaleLinearlyInRequests(benchmark::State& state) {
  // Theorem 3.1's counting argument: iterations <= |R|. The benchmark
  // reports iterations per request as a counter (should stay <= 1).
  const int requests = static_cast<int>(state.range(0));
  const UfpInstance inst = grid_workload(4, requests, 40.0, 37);
  BoundedUfpConfig cfg;
  cfg.epsilon = 0.4;
  cfg.num_threads = 0;  // runtime default: every core
  int iterations = 0;
  for (auto _ : state) {
    iterations = bounded_ufp(inst, cfg).iterations;
    benchmark::DoNotOptimize(iterations);
  }
  state.counters["iters_per_request"] =
      static_cast<double>(iterations) / requests;
}
BENCHMARK(BM_IterationsScaleLinearlyInRequests)->Arg(64)->Arg(256)->Arg(1024);

}  // namespace

int main(int argc, char** argv) {
  // Translate --json PATH into google-benchmark's output flags so the CI
  // regression gate and callers share one spelling with the other benches.
  std::vector<std::string> storage;
  storage.reserve(static_cast<std::size_t>(argc) + 1);
  for (int i = 0; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      storage.push_back(std::string("--benchmark_out=") + argv[i + 1]);
      storage.push_back("--benchmark_out_format=json");
      ++i;
      continue;
    }
    storage.push_back(argv[i]);
  }
  std::vector<char*> args;
  args.reserve(storage.size());
  for (std::string& s : storage) args.push_back(s.data());
  int n = static_cast<int>(args.size());
  benchmark::Initialize(&n, args.data());
  if (benchmark::ReportUnrecognizedArguments(n, args.data())) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
