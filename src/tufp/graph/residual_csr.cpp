#include "tufp/graph/residual_csr.hpp"

#include <algorithm>

#include "tufp/util/assert.hpp"

namespace tufp {

ResidualGraph::ResidualGraph(std::shared_ptr<const Graph> base,
                             double min_usable_capacity)
    : base_(std::move(base)), floor_(min_usable_capacity) {
  TUFP_REQUIRE(base_ != nullptr, "residual graph needs a base graph");
  TUFP_REQUIRE(base_->finalized(), "base graph must be finalized");
  TUFP_REQUIRE(floor_ > 0.0, "min usable capacity must be positive");
  const auto m = static_cast<std::size_t>(base_->num_edges());
  residual_.assign(base_->capacities().begin(), base_->capacities().end());
  epoch_capacity_.assign(m, 0.0);
  blocked_.assign(m, 0);
  stamp_.assign(m, 0);
  open_epoch();
}

void ResidualGraph::open_epoch() {
  // The mutable_residual() contract (DESIGN.md §10): a solve must never
  // start while reclaimed-but-unstamped writes are pending, or cached
  // fit verdicts silently outlive the capacity change they were judged
  // under. The check is cheap enough to keep in every build.
  TUFP_CHECK(!reclaim_window_open_,
             "open_epoch() while a mutable_residual() write-back is pending: "
             "the writer must call note_reclaimed() on the touched edges "
             "(an empty span when none were) before the next solve");
  // Clean epoch: no stamp tick since the last rescan means no residual
  // moved, so the mask, frozen capacities, count and min are all exact.
  if (opened_at_clock_ == clock_) return;
  const auto m = static_cast<std::size_t>(base_->num_edges());
  num_active_ = 0;
  min_residual_ = kInf;
  for (std::size_t e = 0; e < m; ++e) {
    const double r = residual_[e];
    epoch_capacity_[e] = r;
    if (r >= floor_) {
      blocked_[e] = 0;
      ++num_active_;
      min_residual_ = std::min(min_residual_, r);
    } else {
      blocked_[e] = 1;
    }
  }
  opened_at_clock_ = clock_;
}

void ResidualGraph::commit_admission(std::span<const EdgeId> path,
                                     double demand) {
  TUFP_REQUIRE(demand > 0.0, "admitted demand must be positive");
  ++clock_;
  for (const EdgeId e : path) {
    const auto idx = static_cast<std::size_t>(e);
    TUFP_REQUIRE(idx < residual_.size(), "path edge out of range");
    residual_[idx] = std::max(0.0, residual_[idx] - demand);
    stamp_[idx] = clock_;
  }
}

void ResidualGraph::note_reclaimed(std::span<const EdgeId> edges) {
  // Closing the dirty window happens even for an empty span — that is
  // how a writer that drained nothing reports "done, touched nothing".
  reclaim_window_open_ = false;
  if (edges.empty()) return;
  ++clock_;
  for (const EdgeId e : edges) {
    const auto idx = static_cast<std::size_t>(e);
    TUFP_REQUIRE(idx < residual_.size(), "reclaimed edge out of range");
    stamp_[idx] = clock_;
  }
  last_decrease_ = clock_;
}

void ResidualGraph::reset() {
  std::copy(base_->capacities().begin(), base_->capacities().end(),
            residual_.begin());
  std::fill(stamp_.begin(), stamp_.end(), 0);
  clock_ = 0;
  last_decrease_ = 0;
  reclaim_window_open_ = false;
  opened_at_clock_ = -1;  // the clock restarted; the fast path must not fire
  open_epoch();
}

int SourceTreeCache::Tree::index_of(VertexId v) const {
  const auto it = std::lower_bound(vertices.begin(), vertices.end(), v);
  if (it == vertices.end() || *it != v) return -1;
  return static_cast<int>(it - vertices.begin());
}

SourceTreeCache::SourceTreeCache() : SourceTreeCache(Limits()) {}

SourceTreeCache::SourceTreeCache(Limits limits) : limits_(limits) {
  TUFP_REQUIRE(limits_.max_trees > 0, "tree cache needs room for a tree");
}

const SourceTreeCache::Tree* SourceTreeCache::lookup(VertexId source) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = by_source_.find(source);
  if (it == by_source_.end()) return nullptr;
  return &trees_[it->second];
}

void SourceTreeCache::store(VertexId source, const ShortestPathEngine& engine,
                            std::int64_t computed_clock) {
  std::lock_guard<std::mutex> lock(mu_);
  const double radius = engine.settled_radius();
  // The bucket kernel drains its final bucket past the last target;
  // filtering at the radius keeps the stored set kernel-invariant.
  scratch_.clear();
  for (const VertexId v : engine.settled_vertices()) {
    if (engine.settled_dist(v) <= radius) scratch_.push_back(v);
  }
  std::sort(scratch_.begin(), scratch_.end());

  // No eviction here: store() runs on OpenMP refresh workers, and an
  // eviction would make the surviving tree set a function of the thread
  // schedule. The limits are enforced at the serial enforce_limits()
  // point instead (sp_cache calls it at every warm epoch start), so the
  // caps are soft within one refresh but the tree set stays
  // deterministic for every thread count.
  const std::size_t k = scratch_.size();
  auto vertices = arena_.allocate<VertexId>(k);
  auto dist = arena_.allocate<double>(k);
  auto parent_vertex = arena_.allocate<VertexId>(k);
  auto parent_edge = arena_.allocate<EdgeId>(k);
  for (std::size_t i = 0; i < k; ++i) {
    const VertexId v = scratch_[i];
    vertices[i] = v;
    dist[i] = engine.settled_dist(v);
    parent_vertex[i] = engine.settled_parent_vertex(v);
    parent_edge[i] = engine.settled_parent_edge(v);
  }

  Tree tree;
  tree.source = source;
  tree.computed_clock = computed_clock;
  tree.validated_clock = computed_clock;
  tree.radius = radius;
  tree.vertices = vertices;
  tree.dist = dist;
  tree.parent_vertex = parent_vertex;
  tree.parent_edge = parent_edge;

  const auto it = by_source_.find(source);
  if (it != by_source_.end()) {
    // Replace in place; the old record block stays allocated in the
    // arena until the next generation reset (bounded by max_bytes).
    trees_[it->second] = tree;
  } else {
    by_source_.emplace(source, trees_.size());
    trees_.push_back(tree);
  }
  ++stores_;
}

SourceTreeCache::ReclaimRevalidation SourceTreeCache::revalidate_after_reclaim(
    const Graph& base, std::span<const EdgeId> reclaimed,
    std::int64_t clock_after) {
  std::lock_guard<std::mutex> lock(mu_);
  ReclaimRevalidation out;
  if (trees_.empty() || reclaimed.empty()) return out;

  // The usable endpoints of the reclaimed edges: the vertices from which
  // a search could enter a decreased edge. Tails only for directed
  // graphs; both endpoints for undirected ones, where the two arc
  // orientations share one EdgeId.
  scratch_.clear();
  const bool directed = base.is_directed();
  for (const EdgeId e : reclaimed) {
    const auto [tail, head] = base.endpoints(e);
    scratch_.push_back(tail);
    if (!directed) scratch_.push_back(head);
  }
  std::sort(scratch_.begin(), scratch_.end());
  scratch_.erase(std::unique(scratch_.begin(), scratch_.end()),
                 scratch_.end());

  // Keep a tree iff its settled set avoids every usable endpoint (the
  // §12 survival criterion — see the class comment). Intersection test
  // walks the smaller side, binary-searching the larger.
  std::size_t write = 0;
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    Tree& tree = trees_[i];
    bool touched = false;
    if (tree.vertices.size() <= scratch_.size()) {
      for (const VertexId v : tree.vertices) {
        if (std::binary_search(scratch_.begin(), scratch_.end(), v)) {
          touched = true;
          break;
        }
      }
    } else {
      for (const VertexId v : scratch_) {
        if (tree.index_of(v) >= 0) {
          touched = true;
          break;
        }
      }
    }
    if (touched) {
      // Drop: compact over the record (the arena block stays allocated
      // until the next generation reset, like a store() replacement).
      by_source_.erase(tree.source);
      ++out.dropped;
      continue;
    }
    tree.validated_clock = clock_after;
    ++out.kept;
    if (write != i) {
      trees_[write] = tree;
      by_source_[tree.source] = write;
    }
    ++write;
  }
  trees_.resize(write);
  return out;
}

void SourceTreeCache::enforce_limits() {
  std::lock_guard<std::mutex> lock(mu_);
  if (trees_.size() > static_cast<std::size_t>(limits_.max_trees) ||
      arena_.bytes_allocated() > limits_.max_bytes) {
    // Wholesale generation-reset eviction: rewind the arena, drop every
    // tree, and start a new generation (no per-tree free path exists).
    clear_locked();
    ++evictions_;
  }
}

void SourceTreeCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  clear_locked();
}

void SourceTreeCache::clear_locked() {
  trees_.clear();
  by_source_.clear();
  arena_.reset();
  ++generation_;
}

std::int64_t SourceTreeCache::generation() const {
  std::lock_guard<std::mutex> lock(mu_);
  return generation_;
}

std::int64_t SourceTreeCache::stores() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stores_;
}

std::int64_t SourceTreeCache::evictions() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evictions_;
}

std::size_t SourceTreeCache::num_trees() const {
  std::lock_guard<std::mutex> lock(mu_);
  return trees_.size();
}

}  // namespace tufp
