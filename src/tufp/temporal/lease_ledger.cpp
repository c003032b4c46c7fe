#include "tufp/temporal/lease_ledger.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp::temporal {

namespace {

// Heap order: `a` drains after `b`. std::push_heap/pop_heap keep the
// greatest element in front, so "after" puts the earliest (due, id) there.
constexpr auto drains_after = [](const auto& a, const auto& b) {
  return a.due != b.due ? a.due > b.due : a.lease.id > b.lease.id;
};

}  // namespace

LeaseLedger::LeaseLedger(int num_edges)
    : leased_demand_(static_cast<std::size_t>(num_edges), 0.0),
      active_on_edge_(static_cast<std::size_t>(num_edges), 0) {
  TUFP_REQUIRE(num_edges >= 1, "lease ledger needs a non-empty edge space");
}

LeaseId LeaseLedger::admit(std::int64_t sequence, double demand,
                           std::vector<EdgeId> edges, double now,
                           double expires_at) {
  TUFP_REQUIRE(demand > 0.0 && std::isfinite(demand),
               "lease demand must be positive and finite");
  TUFP_REQUIRE(!edges.empty(), "a lease must hold at least one edge");
  TUFP_REQUIRE(expires_at >= now, "a lease cannot expire before it starts");
  const LeaseId id = next_id_++;
  for (const EdgeId e : edges) {
    const auto ei = static_cast<std::size_t>(e);
    leased_demand_[ei] += demand;
    ++active_on_edge_[ei];
  }
  leased_capacity_ += demand * static_cast<double>(edges.size());
  if (expires_at == kInf) {
    ++permanent_;
    return id;
  }
  // The clock may already sit past this expiry: reclaim_until() advances
  // it to the frontier, and a driver may legally admit from an older
  // batch afterwards (EpochEngine::run_epoch). Such a lease is due at the
  // frontier and drains on the next reclaim.
  pending_.push_back({std::max(expires_at, clock_),
                      Lease{id, sequence, demand, now, expires_at,
                            std::move(edges)}});
  std::push_heap(pending_.begin(), pending_.end(), drains_after);
  ++finite_admitted_;
  return id;
}

int LeaseLedger::reclaim_until(double now, std::span<const double> capacities,
                               std::span<double> residual,
                               std::vector<Lease>* expired) {
  TUFP_REQUIRE(capacities.size() == leased_demand_.size() &&
                   residual.size() == leased_demand_.size(),
               "reclaim_until spans must cover the base edge space");
  TUFP_REQUIRE(std::isfinite(now) && now >= clock_,
               "lease ledger clock must be finite and nondecreasing");
  clock_ = now;
  int drained = 0;
  while (!pending_.empty() && pending_.front().due <= now) {
    std::pop_heap(pending_.begin(), pending_.end(), drains_after);
    Lease& lease = pending_.back().lease;
    for (const EdgeId e : lease.edges) {
      const auto ei = static_cast<std::size_t>(e);
      leased_demand_[ei] -= lease.demand;
      if (--active_on_edge_[ei] == 0) {
        // Last lease off this edge: snap both gauges to their exact
        // baseline. Incremental +/- demand is not associative, and the
        // no-leak guarantee is an == guarantee, not a tolerance.
        leased_demand_[ei] = 0.0;
        residual[ei] = capacities[ei];
      } else {
        residual[ei] = std::min(capacities[ei], residual[ei] + lease.demand);
      }
    }
    leased_capacity_ -=
        lease.demand * static_cast<double>(lease.edges.size());
    ++expired_total_;
    ++drained;
    if (expired != nullptr) expired->push_back(std::move(lease));
    pending_.pop_back();
  }
  if (active_count() == 0) leased_capacity_ = 0.0;  // same snap, global gauge
  return drained;
}

void LeaseLedger::clear() {
  pending_.clear();
  permanent_ = 0;
  std::fill(leased_demand_.begin(), leased_demand_.end(), 0.0);
  std::fill(active_on_edge_.begin(), active_on_edge_.end(), 0);
  leased_capacity_ = 0.0;
  clock_ = 0.0;
  next_id_ = 0;
  finite_admitted_ = 0;
  expired_total_ = 0;
}

}  // namespace tufp::temporal
