#include "tufp/graph/residual_csr.hpp"

#include <algorithm>
#include <map>
#include <vector>

#include "tufp/util/assert.hpp"

namespace tufp {

namespace {

// Heap orders over ResidualGraph::Level (std heaps keep the "largest" on
// top): the smallest capacity first, the largest first.
constexpr auto kLowestOnTop = [](const auto& a, const auto& b) {
  return a.capacity > b.capacity;
};
constexpr auto kHighestOnTop = [](const auto& a, const auto& b) {
  return a.capacity < b.capacity;
};

// Stale heap entries tolerated beyond twice the live ones before a
// compaction: keeps small worlds from compacting every epoch.
constexpr std::size_t kStaleSlack = 1024;

}  // namespace

ResidualGraph::ResidualGraph(std::shared_ptr<const Graph> base,
                             double min_usable_capacity)
    : base_(std::move(base)), floor_(min_usable_capacity) {
  TUFP_REQUIRE(base_ != nullptr, "residual graph needs a base graph");
  TUFP_REQUIRE(base_->finalized(), "base graph must be finalized");
  TUFP_REQUIRE(floor_ > 0.0, "min usable capacity must be positive");
  const auto m = static_cast<std::size_t>(base_->num_edges());
  epoch_capacity_.resize(m);
  blocked_.resize(m);
  is_dirty_.assign(m, 0);
  restore_base();
}

void ResidualGraph::restore_base() {
  const std::span<const double> base = base_->capacities();
  residual_.assign(base.begin(), base.end());
  base_levels_.clear();
  lowest_.clear();
  highest_.clear();
  off_base_ = 0;
  num_active_ = 0;
  // Every edge sits at its base capacity, and a run of equal capacities
  // is one count update: a uniform world costs one map insert, not m.
  double run_level = 0.0;
  int run = 0;
  for (std::size_t e = 0; e < base.size(); ++e) {
    const double r = base[e];
    epoch_capacity_[e] = r;
    blocked_[e] = r >= floor_ ? 0 : 1;
    if (blocked_[e]) continue;
    if (run > 0 && r != run_level) {
      base_levels_[run_level] += run;
      run = 0;
    }
    run_level = r;
    ++run;
    ++num_active_;
  }
  if (run > 0) base_levels_[run_level] += run;
  for (const EdgeId e : dirty_) is_dirty_[static_cast<std::size_t>(e)] = 0;
  dirty_.clear();
  settle_extremes();
}

void ResidualGraph::open_epoch() {
  // The mutable_residual() contract (DESIGN.md §10): a solve must never
  // start while reclaimed-but-undeclared writes are pending, or those
  // edges miss the dirty list and the epoch-start state silently
  // outlives the capacity change. The check is cheap enough to keep in
  // every build.
  TUFP_CHECK(!reclaim_window_open_,
             "open_epoch() while a mutable_residual() write-back is pending: "
             "the writer must call note_reclaimed() on the touched edges "
             "(an empty span when none were) before the next solve");
  TUFP_CHECK(!overlay_open_, "open_epoch() while a solve overlay is live");
  // Every other edge's residual is what it was at the last open, so its
  // epoch-start state is already exact.
  if (dirty_.empty()) return;
  const bool overlay_built = !duals_.empty();
  for (const EdgeId e : dirty_) {
    const auto i = static_cast<std::size_t>(e);
    is_dirty_[i] = 0;
    const double r = residual_[i];
    if (r == epoch_capacity_[i]) continue;  // moved and came back
    if (!blocked_[i]) leave_level(e);
    epoch_capacity_[i] = r;
    blocked_[i] = r >= floor_ ? 0 : 1;
    if (!blocked_[i]) enter_level(e, r);
    if (overlay_built) {
      duals_[i] = epoch_dual(i);
      solve_residual_[i] = r;
    }
  }
  dirty_.clear();
  settle_extremes();
}

void ResidualGraph::enter_level(EdgeId e, double c) {
  ++num_active_;
  if (c == base_->capacities()[static_cast<std::size_t>(e)]) {
    ++base_levels_[c];
    return;
  }
  ++off_base_;
  lowest_.push_back({c, e});
  std::push_heap(lowest_.begin(), lowest_.end(), kLowestOnTop);
  highest_.push_back({c, e});
  std::push_heap(highest_.begin(), highest_.end(), kHighestOnTop);
}

void ResidualGraph::leave_level(EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  --num_active_;
  const double c = epoch_capacity_[i];
  if (c != base_->capacities()[i]) {
    --off_base_;  // its heap entries are stale from here on
    return;
  }
  const auto level = base_levels_.find(c);
  TUFP_CHECK(level != base_levels_.end(),
             "active edge missing from its base-capacity count");
  if (--level->second == 0) base_levels_.erase(level);
}

void ResidualGraph::settle_extremes() {
  const auto live = [this](const Level& level) {
    const auto i = static_cast<std::size_t>(level.edge);
    return !blocked_[i] && epoch_capacity_[i] == level.capacity;
  };
  const auto bound = 2 * static_cast<std::size_t>(off_base_) + kStaleSlack;
  if (lowest_.size() > bound || highest_.size() > bound) {
    // Every live edge keeps an entry at its capacity in both heaps (each
    // entry into a level pushes one), so one deduplicated list of the
    // live entries rebuilds both.
    std::erase_if(lowest_, [&](const Level& level) { return !live(level); });
    std::sort(lowest_.begin(), lowest_.end(),
              [](const Level& a, const Level& b) { return a.edge < b.edge; });
    lowest_.erase(std::unique(lowest_.begin(), lowest_.end(),
                              [](const Level& a, const Level& b) {
                                return a.edge == b.edge;
                              }),
                  lowest_.end());
    highest_ = lowest_;
    std::make_heap(lowest_.begin(), lowest_.end(), kLowestOnTop);
    std::make_heap(highest_.begin(), highest_.end(), kHighestOnTop);
  }
  while (!lowest_.empty() && !live(lowest_.front())) {
    std::pop_heap(lowest_.begin(), lowest_.end(), kLowestOnTop);
    lowest_.pop_back();
  }
  while (!highest_.empty() && !live(highest_.front())) {
    std::pop_heap(highest_.begin(), highest_.end(), kHighestOnTop);
    highest_.pop_back();
  }
  min_residual_ = base_levels_.empty() ? kInf : base_levels_.begin()->first;
  max_residual_ = base_levels_.empty() ? 0.0 : base_levels_.rbegin()->first;
  if (!lowest_.empty()) {
    min_residual_ = std::min(min_residual_, lowest_.front().capacity);
  }
  if (!highest_.empty()) {
    max_residual_ = std::max(max_residual_, highest_.front().capacity);
  }
}

WeightProfile ResidualGraph::dual_profile() const {
  WeightProfile profile;
  if (num_active_ > 0) {
    profile.include(1.0 / max_residual_);
    profile.include(1.0 / min_residual_);
  }
  return profile;
}

void ResidualGraph::mark_dirty(EdgeId e) {
  const auto i = static_cast<std::size_t>(e);
  if (is_dirty_[i]) return;
  is_dirty_[i] = 1;
  dirty_.push_back(e);
}

void ResidualGraph::commit_admission(std::span<const EdgeId> path,
                                     double demand) {
  TUFP_REQUIRE(demand > 0.0, "admitted demand must be positive");
  for (const EdgeId e : path) {
    const auto idx = static_cast<std::size_t>(e);
    TUFP_REQUIRE(idx < residual_.size(), "path edge out of range");
    residual_[idx] = std::max(0.0, residual_[idx] - demand);
    mark_dirty(e);
  }
}

void ResidualGraph::note_reclaimed(std::span<const EdgeId> edges) {
  // Closing the dirty window happens even for an empty span — that is
  // how a writer that drained nothing reports "done, touched nothing".
  reclaim_window_open_ = false;
  for (const EdgeId e : edges) {
    TUFP_REQUIRE(static_cast<std::size_t>(e) < residual_.size(),
                 "reclaimed edge out of range");
    mark_dirty(e);
  }
}

void ResidualGraph::reset() {
  TUFP_CHECK(!overlay_open_, "reset() while a solve overlay is live");
  reclaim_window_open_ = false;
  restore_base();
  duals_.clear();  // the next overlay rebuilds them, in their old storage
  solve_residual_.clear();
}

ResidualGraph::SolveOverlay::SolveOverlay(ResidualGraph& graph)
    : graph_(graph) {
  TUFP_CHECK(!graph_.overlay_open_, "one solve overlay at a time");
  graph_.overlay_open_ = true;
  if (graph_.duals_.size() == graph_.epoch_capacity_.size()) return;
  const std::size_t m = graph_.epoch_capacity_.size();
  graph_.duals_.resize(m);
  for (std::size_t e = 0; e < m; ++e) graph_.duals_[e] = graph_.epoch_dual(e);
  graph_.solve_residual_.assign(graph_.epoch_capacity_.begin(),
                                graph_.epoch_capacity_.end());
}

ResidualGraph::SolveOverlay::~SolveOverlay() {
  for (const EdgeId e : graph_.written_) {
    const auto i = static_cast<std::size_t>(e);
    graph_.solve_residual_[i] = graph_.epoch_capacity_[i];
    graph_.duals_[i] = graph_.epoch_dual(i);
  }
  graph_.written_.clear();
  graph_.overlay_open_ = false;
}

}  // namespace tufp
