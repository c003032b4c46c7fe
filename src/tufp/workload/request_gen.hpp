// Random request workloads over arbitrary graphs.
#pragma once

#include <cstdint>
#include <unordered_map>
#include <vector>

#include "tufp/graph/dijkstra.hpp"
#include "tufp/graph/graph.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/util/rng.hpp"

namespace tufp {

enum class ValueModel {
  kUniform,        // v ~ U[value_min, value_max]
  kZipf,           // v = value_max / rank^s, rank ~ Zipf — few hot requests
  kProportional,   // v proportional to demand * hop distance (+- 20% noise)
};

struct RequestGenConfig {
  int num_requests = 50;
  double demand_min = 0.2;
  double demand_max = 1.0;  // normalized formulation: <= 1
  ValueModel value_model = ValueModel::kUniform;
  double value_min = 1.0;
  double value_max = 10.0;
  double zipf_exponent = 1.1;
  // Resample terminal pairs until the target is reachable from the source
  // (bounded retries; throws if the graph is too disconnected).
  int max_pair_retries = 200;
  // Skip the per-request reachability probe entirely. Required at the
  // scale tier (10^6 requests over 10^5-vertex worlds), where one unit
  // Dijkstra per sample would dominate the benchmark it feeds; legal
  // only on worlds known strongly connected (grids, telecom meshes).
  // Incompatible with kProportional, whose value needs the hop distance.
  bool assume_connected = false;
  // When > 0, sources are drawn from vertices [0, source_pool) instead
  // of the whole vertex set — the hub-locality workload whose repeated
  // sources let one source-shard tree answer many requests per refresh.
  // Targets still range over all vertices.
  int source_pool = 0;
  // When > 1, the pooled sources are spread across the vertex set
  // instead of clustered at its low end: source = stride * draw, draw in
  // [0, source_pool). The churn tier uses this to place its hubs in
  // distant graph regions, so one hub's traffic and reclaims stay away
  // from another hub's routes. Requires a source pool, with
  // stride * (pool - 1) < num_vertices.
  int source_stride = 1;
  // When > 0, targets are drawn uniformly from the hop-limited BFS ball
  // around the sampled source (excluding the source) instead of from the
  // whole vertex set — local traffic, the knob that keeps each search
  // and each lease's footprint small. Balls are computed lazily
  // once per source over the base adjacency (deterministic, sorted by
  // vertex id), so a source pool is required; reachability holds by
  // construction, making assume_connected unnecessary. Incompatible with
  // kProportional (no hop distance is probed).
  int target_radius = 0;
};

// Incremental form of generate_requests(): owns the reachability engine
// and Zipf table so the streaming adapters (engine/request_stream.hpp) can
// draw one request at a time without per-call setup. Sampling k requests
// through sample() consumes the RNG exactly like one
// generate_requests() call with num_requests = k, so batch and streaming
// workloads with the same seed are identical.
class RequestSampler {
 public:
  RequestSampler(const Graph& graph, const RequestGenConfig& config);

  Request sample(Rng& rng);

  const RequestGenConfig& config() const { return config_; }

 private:
  // Hop-limited BFS ball around `source` (sorted, source excluded),
  // computed on first use and memoized. target_radius > 0 only.
  const std::vector<VertexId>& ball_of(VertexId source);

  const Graph* graph_;
  RequestGenConfig config_;
  ShortestPathEngine engine_;
  std::vector<double> unit_weights_;
  ZipfSampler zipf_;
  std::unordered_map<VertexId, std::vector<VertexId>> balls_;
  std::vector<std::uint8_t> visited_;  // ball_of scratch, zero between calls
};

std::vector<Request> generate_requests(const Graph& graph,
                                       const RequestGenConfig& config, Rng& rng);

}  // namespace tufp
