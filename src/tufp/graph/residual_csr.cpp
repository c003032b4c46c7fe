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
  open_epoch();
}

void ResidualGraph::open_epoch() {
  // The mutable_residual() contract (DESIGN.md §10): a solve must never
  // start while reclaimed-but-undeclared writes are pending, or the
  // clean-epoch fast path below and the solver's clock-keyed epoch-start
  // state silently outlive the capacity change. The check is cheap
  // enough to keep in every build.
  TUFP_CHECK(!reclaim_window_open_,
             "open_epoch() while a mutable_residual() write-back is pending: "
             "the writer must call note_reclaimed() on the touched edges "
             "(an empty span when none were) before the next solve");
  // Clean epoch: no clock tick since the last rescan means no residual
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
  }
}

void ResidualGraph::note_reclaimed(std::span<const EdgeId> edges) {
  // Closing the dirty window happens even for an empty span — that is
  // how a writer that drained nothing reports "done, touched nothing".
  reclaim_window_open_ = false;
  if (edges.empty()) return;
  for (const EdgeId e : edges) {
    TUFP_REQUIRE(static_cast<std::size_t>(e) < residual_.size(),
                 "reclaimed edge out of range");
  }
  ++clock_;
}

void ResidualGraph::reset() {
  std::copy(base_->capacities().begin(), base_->capacities().end(),
            residual_.begin());
  clock_ = 0;
  reclaim_window_open_ = false;
  opened_at_clock_ = -1;  // the clock restarted; the fast path must not fire
  open_epoch();
}

}  // namespace tufp
