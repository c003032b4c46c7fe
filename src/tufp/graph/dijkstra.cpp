#include "tufp/graph/dijkstra.hpp"

#include <algorithm>
#include <cmath>

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {
constexpr int kHeapArity = 4;
}

WeightProfile WeightProfile::scan(std::span<const double> weights) {
  WeightProfile p;  // defaults are include()'s neutral elements
  for (const double w : weights) p.include(w);
  return p;
}

void WeightProfile::include(double w) {
  if (!(w > 0.0)) {
    all_positive = false;
    return;
  }
  min_positive = std::min(min_positive, w);
  max_weight = std::max(max_weight, w);
}

ShortestPathEngine::ShortestPathEngine(const Graph& graph) : graph_(&graph) {
  TUFP_REQUIRE(graph.finalized(), "graph must be finalized");
  const auto n = static_cast<std::size_t>(graph.num_vertices());
  dist_.assign(n, kInf);
  parent_edge_.assign(n, kInvalidEdge);
  parent_vertex_.assign(n, kInvalidVertex);
  epoch_.assign(n, 0);
  target_epoch_.assign(n, 0);
}

bool ShortestPathEngine::touch(VertexId v) {
  auto& ep = epoch_[static_cast<std::size_t>(v)];
  if (ep == current_epoch_) return false;
  ep = current_epoch_;
  dist_[static_cast<std::size_t>(v)] = kInf;
  parent_edge_[static_cast<std::size_t>(v)] = kInvalidEdge;
  parent_vertex_[static_cast<std::size_t>(v)] = kInvalidVertex;
  return true;
}

bool ShortestPathEngine::relax(VertexId u, double du, const Arc& arc,
                               double w) {
  const double cand = du + w;
  const auto to = static_cast<std::size_t>(arc.to);
  touch(arc.to);
  double& dv = dist_[to];
  if (cand < dv) {
    dv = cand;
    parent_vertex_[to] = u;
    parent_edge_[to] = arc.edge;
    return true;
  }
  if (cand == dv && cand < kInf && cand > du) {
    // Canonical tie-break: the lexicographically smallest (u, e) among
    // strictly closer shortest predecessors wins, independent of the
    // order relaxations arrive in. Strictly closer — not merely positive
    // weight, which floating point can absorb (du + w == du) — keeps the
    // parent forest acyclic: every tie-break parent is nearer the source.
    if (u < parent_vertex_[to] ||
        (u == parent_vertex_[to] && arc.edge < parent_edge_[to])) {
      parent_vertex_[to] = u;
      parent_edge_[to] = arc.edge;
    }
  }
  return false;
}

void ShortestPathEngine::heap_push(HeapItem item) {
  heap_.push_back(item);
  std::size_t i = heap_.size() - 1;
  while (i > 0) {
    const std::size_t parent = (i - 1) / kHeapArity;
    if (heap_[parent].dist <= heap_[i].dist) break;
    std::swap(heap_[parent], heap_[i]);
    i = parent;
  }
}

ShortestPathEngine::HeapItem ShortestPathEngine::heap_pop() {
  const HeapItem top = heap_.front();
  heap_.front() = heap_.back();
  heap_.pop_back();
  std::size_t i = 0;
  const std::size_t n = heap_.size();
  for (;;) {
    std::size_t best = i;
    const std::size_t first_child = i * kHeapArity + 1;
    const std::size_t last_child = std::min(first_child + kHeapArity, n);
    for (std::size_t c = first_child; c < last_child; ++c) {
      if (heap_[c].dist < heap_[best].dist) best = c;
    }
    if (best == i) break;
    std::swap(heap_[i], heap_[best]);
    i = best;
  }
  return top;
}

void ShortestPathEngine::run_heap(std::span<const double> weights,
                                  VertexId source, int pending,
                                  std::span<const std::uint8_t> blocked) {
  heap_.clear();
  heap_push({0.0, source});
  // Once every target is settled this becomes D = the largest target
  // distance; the loop then keeps draining equal keys (canonical settled
  // set {v : dist(v) <= D}) and stops at the first strictly larger one.
  double stop_dist = kInf;
  while (!heap_.empty()) {
    const HeapItem item = heap_pop();
    if (item.dist > stop_dist) break;
    const auto u = static_cast<std::size_t>(item.vertex);
    if (item.dist > dist_[u]) continue;  // stale heap entry
    if (target_epoch_[u] == current_epoch_) {
      target_epoch_[u] = current_epoch_ - 1;  // settled
      if (--pending == 0) stop_dist = item.dist;
    }
    for (const Arc& arc : graph_->arcs_from(item.vertex)) {
      const auto e = static_cast<std::size_t>(arc.edge);
      if (!blocked.empty() && blocked[e]) continue;
      const double w = weights[e];
      TUFP_REQUIRE(w >= 0.0, "Dijkstra requires non-negative weights");
      if (relax(item.vertex, item.dist, arc, w)) {
        heap_push({dist_[static_cast<std::size_t>(arc.to)], arc.to});
      }
    }
  }
}

void ShortestPathEngine::run_bucket(std::span<const double> weights,
                                    VertexId source, int pending,
                                    std::span<const std::uint8_t> blocked,
                                    double delta, std::int64_t num_buckets) {
  const double inv_delta = 1.0 / delta;
  const std::int64_t C = num_buckets;
  if (buckets_.size() < static_cast<std::size_t>(C)) {
    buckets_.resize(static_cast<std::size_t>(C));
  }
  dirty_slots_.clear();

  std::int64_t cur = 0;  // absolute bucket id currently draining
  std::size_t live = 0;

  const auto push_item = [&](double key, VertexId v) {
    const auto id = static_cast<std::int64_t>(key * inv_delta);
    // All live keys sit in [current key, current key + max_weight], so
    // the id lands inside the circular window of C slots; the check
    // guards the floating-point slack argument.
    TUFP_CHECK(id >= cur && id < cur + C, "bucket window overflow");
    auto& bucket = buckets_[static_cast<std::size_t>(id % C)];
    if (bucket.empty()) {
      dirty_slots_.push_back(static_cast<std::int32_t>(id % C));
    }
    bucket.push_back({key, v});
    ++live;
  };

  push_item(0.0, source);
  while (live > 0) {
    auto& bucket = buckets_[static_cast<std::size_t>(cur % C)];
    while (!bucket.empty()) {
      const HeapItem item = bucket.back();
      bucket.pop_back();
      --live;
      const auto u = static_cast<std::size_t>(item.vertex);
      if (item.dist > dist_[u]) continue;  // stale entry
      if (target_epoch_[u] == current_epoch_) {
        target_epoch_[u] = current_epoch_ - 1;  // settled
        --pending;
      }
      for (const Arc& arc : graph_->arcs_from(item.vertex)) {
        const auto e = static_cast<std::size_t>(arc.edge);
        if (!blocked.empty() && blocked[e]) continue;
        const double w = weights[e];
        TUFP_REQUIRE(w >= 0.0, "Dijkstra requires non-negative weights");
        if (relax(item.vertex, item.dist, arc, w)) {
          push_item(dist_[static_cast<std::size_t>(arc.to)], arc.to);
        }
      }
    }
    // The bucket holding the last target must drain fully — its keys are
    // all <= the bucket's upper edge, covering the canonical settled set
    // — but nothing later can matter (later keys cannot improve, nor
    // tie-update, anything at distance <= D).
    if (pending == 0) break;
    if (live == 0) break;  // remaining targets unreachable
    std::int64_t steps = 0;
    do {
      ++cur;
      ++steps;
      TUFP_CHECK(steps <= C, "no live bucket inside the circular window");
    } while (buckets_[static_cast<std::size_t>(cur % C)].empty());
  }

  for (const std::int32_t slot : dirty_slots_) {
    buckets_[static_cast<std::size_t>(slot)].clear();
  }
}

void ShortestPathEngine::run(std::span<const double> weights, VertexId source,
                             std::span<TreeTarget> targets,
                             std::span<const std::uint8_t> blocked,
                             const WeightProfile* profile) {
  TUFP_REQUIRE(weights.size() == static_cast<std::size_t>(graph_->num_edges()),
               "weight vector size must equal edge count");
  TUFP_REQUIRE(blocked.empty() ||
                   blocked.size() == static_cast<std::size_t>(graph_->num_edges()),
               "blocked mask size must equal edge count");
  TUFP_REQUIRE(source >= 0 && source < graph_->num_vertices(), "bad source");
  if (targets.empty()) return;  // nothing to settle toward

  ++current_epoch_;
  if (current_epoch_ == 0) {
    // Epoch counter wrapped: hard-reset all labels once per 2^32 queries.
    std::fill(epoch_.begin(), epoch_.end(), 0);
    std::fill(target_epoch_.begin(), target_epoch_.end(), 0);
    current_epoch_ = 1;
  }

  int pending = 0;
  for (const TreeTarget& t : targets) {
    TUFP_REQUIRE(t.vertex >= 0 && t.vertex < graph_->num_vertices(),
                 "bad target");
    TUFP_REQUIRE(t.vertex != source,
                 "source == target: S_r holds simple paths only");
    auto& mark = target_epoch_[static_cast<std::size_t>(t.vertex)];
    if (mark != current_epoch_) {
      mark = current_epoch_;
      ++pending;
    }
  }

  touch(source);
  dist_[static_cast<std::size_t>(source)] = 0.0;

  // Resolve the kernel: the bucket queue needs a profile proving every
  // weight positive with a key range that fits the bucket cap.
  SpKernel use = SpKernel::kHeap;
  double delta = 0.0;
  std::int64_t num_buckets = 0;
  if (profile != nullptr && profile->all_positive &&
      profile->min_positive > 0.0 && profile->min_positive < kInf &&
      profile->max_weight < kInf) {
    delta = profile->min_positive;
    // Compare the key range in double before any integer cast: the dual
    // weights can spread to e^700-ish ratios, far past int64.
    const double ratio = profile->max_weight / delta;
    if (ratio <= static_cast<double>(kMaxBuckets - 4)) {
      num_buckets = static_cast<std::int64_t>(ratio) + 4;
      use = SpKernel::kBucket;
    }
  }
  last_used_ = use;

  if (use == SpKernel::kBucket) {
    run_bucket(weights, source, pending, blocked, delta, num_buckets);
  } else {
    run_heap(weights, source, pending, blocked);
  }

  for (TreeTarget& t : targets) {
    const auto v = static_cast<std::size_t>(t.vertex);
    if (epoch_[v] != current_epoch_ || dist_[v] >= kInf) {
      t.length = kInf;
      continue;  // unreachable: path stays untouched
    }
    t.length = dist_[v];
    if (t.path == nullptr) continue;
    t.path->clear();
    int steps = 0;
    for (VertexId walk = t.vertex; walk != source;
         walk = parent_vertex_[static_cast<std::size_t>(walk)]) {
      t.path->push_back(parent_edge_[static_cast<std::size_t>(walk)]);
      TUFP_CHECK(++steps <= graph_->num_vertices(),
                 "parent chain cycle in shortest-path extraction");
    }
    std::reverse(t.path->begin(), t.path->end());
  }
}

double ShortestPathEngine::shortest_path(std::span<const double> weights,
                                         VertexId source, VertexId target,
                                         Path* path,
                                         std::span<const std::uint8_t> blocked,
                                         const WeightProfile* profile) {
  TreeTarget t;
  t.vertex = target;
  t.path = path;  // run() touches it only when the target is reachable
  run(weights, source, {&t, 1}, blocked, profile);
  return t.length;
}

void ShortestPathEngine::shortest_tree(std::span<const double> weights,
                                       VertexId source,
                                       std::span<TreeTarget> targets,
                                       std::span<const std::uint8_t> blocked,
                                       const WeightProfile* profile) {
  run(weights, source, targets, blocked, profile);
}

}  // namespace tufp
