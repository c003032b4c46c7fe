// LeaseLedger — finite-duration capacity bookkeeping for the admission
// engine (DESIGN.md §10).
//
// Every admission becomes a *lease*: the demand it holds on each edge of
// its admitted path, the virtual time it was granted, and the time it
// expires (kInf = permanent, which reproduces the engine's historical
// hold-forever semantics exactly: a permanent lease is only counted —
// its demand stays in the per-edge gauges — and is never stored, never
// drained, and costs nothing on the reclaim path). Finite leases wait in
// one binary min-heap keyed by (due time, lease id); reclaim_until()
// pops everything due by the epoch's close time and returns the capacity
// to the caller's residual vector.
//
// Deterministic drain order. Lease ids are unique, so (due, id) is a
// total order on the pending leases and the heap's pop sequence is the
// sorted sequence, whatever layout the insertion history gave the heap.
//
// Exact capacity return. Residuals are maintained incrementally by the
// engine (subtract on admit), and floating-point addition is not
// associative, so naively adding demands back on expiry would leave the
// residual within an ulp of — but not equal to — the empty-network
// baseline after full churn. The ledger therefore tracks, per edge, the
// number of active leases: when an expiry drops an edge's count to zero
// the residual is *snapped* to the base capacity bit-for-bit (and clamped
// to it otherwise). Hence "all finite leases expired" implies "residual
// == base capacity exactly", the property the temporal-no-leak oracle
// asserts with == and not a tolerance.
//
// Single-threaded: admissions and drains happen on the epoch loop's
// thread, so ledger state is a pure function of the admission history
// and byte-identical across OpenMP thread counts.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "tufp/graph/graph.hpp"

namespace tufp::temporal {

using LeaseId = std::int64_t;

struct Lease {
  LeaseId id = -1;
  std::int64_t sequence = -1;   // stream sequence of the admitted request
  double demand = 0.0;          // per-edge capacity held
  double admitted_at = 0.0;     // epoch close time of the admission
  double expires_at = 0.0;      // declared expiry; kInf = permanent
  std::vector<EdgeId> edges;    // base edge ids of the admitted path
};

class LeaseLedger {
 public:
  explicit LeaseLedger(int num_edges);

  // Records an admission. `expires_at` is an absolute virtual time >= now
  // (kInf for a permanent lease). Returns the lease id — a monotonically
  // increasing admission counter, which is what makes the drain order's
  // id tie-break deterministic.
  LeaseId admit(std::int64_t sequence, double demand,
                std::vector<EdgeId> edges, double now, double expires_at);

  // Drains every lease due by `now` in (due, id) order, returning each
  // lease's demand to `residual` (indexed by base edge, clamped to
  // `capacities` and snapped exactly when an edge's last active lease
  // leaves). A lease is due at its expires_at, or at the clock if it was
  // admitted behind it. `now` must be finite and nondecreasing across
  // calls. Returns the number of leases reclaimed. `expired`, when
  // non-null, receives the drained leases in drain order (consumed by
  // tests and the churn metrics).
  int reclaim_until(double now, std::span<const double> capacities,
                    std::span<double> residual,
                    std::vector<Lease>* expired = nullptr);

  // Active = admitted and not yet reclaimed (permanent leases included).
  std::int64_t active_count() const {
    return static_cast<std::int64_t>(pending_.size()) + permanent_;
  }
  // Σ over active leases of demand * |edges| — the capacity currently
  // promised out, the numerator of the engine's occupancy gauge.
  double leased_capacity() const { return leased_capacity_; }
  // Σ demand of active leases crossing edge e / their count.
  double leased_demand(EdgeId e) const {
    return leased_demand_[static_cast<std::size_t>(e)];
  }
  int active_on_edge(EdgeId e) const {
    return active_on_edge_[static_cast<std::size_t>(e)];
  }

  std::int64_t finite_admitted() const { return finite_admitted_; }
  std::int64_t expired_total() const { return expired_total_; }
  // The last reclaim's `now` (0 before the first).
  double now() const { return clock_; }
  int num_edges() const { return static_cast<int>(leased_demand_.size()); }

  // Forgets everything (engine reset): counters, gauges, leases and clock.
  void clear();

 private:
  struct Pending {
    double due = 0.0;  // max(expires_at, clock) at admission
    Lease lease;
  };

  std::vector<Pending> pending_;       // finite leases, min-heap on (due, id)
  std::int64_t permanent_ = 0;         // active permanent leases
  std::vector<double> leased_demand_;  // per base edge
  std::vector<int> active_on_edge_;    // per base edge
  double leased_capacity_ = 0.0;
  double clock_ = 0.0;
  LeaseId next_id_ = 0;
  std::int64_t finite_admitted_ = 0;
  std::int64_t expired_total_ = 0;
};

}  // namespace tufp::temporal
