// LeaseLedger (temporal/lease_ledger.hpp): exact capacity return (the
// snap-on-last-expiry rule), per-edge accounting, permanent leases, the
// deterministic (expiry, id) drain order for any admission order, exact
// `<=` expiry comparisons, the clock's preconditions and reset.
#include "tufp/temporal/lease_ledger.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <stdexcept>
#include <vector>

#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"

namespace tufp::temporal {
namespace {

// One roomy edge: enough capacity that the drain order, not the residual
// arithmetic, is what a test observes.
struct OneEdge {
  std::vector<double> capacities{1e9};
  std::vector<double> residual = capacities;
  LeaseLedger ledger{1};

  void admit(std::int64_t sequence, double expires_at) {
    residual[0] -= 0.5;
    ledger.admit(sequence, 0.5, {0}, 0.0, expires_at);
  }
  std::vector<Lease> drain(double now) {
    std::vector<Lease> out;
    ledger.reclaim_until(now, capacities, residual, &out);
    return out;
  }
};

// Strictly increasing (expires_at, id) over the whole sequence.
void expect_drain_order(const std::vector<Lease>& drained) {
  for (std::size_t i = 1; i < drained.size(); ++i) {
    const Lease& prev = drained[i - 1];
    const Lease& cur = drained[i];
    EXPECT_TRUE(prev.expires_at < cur.expires_at ||
                (prev.expires_at == cur.expires_at && prev.id < cur.id))
        << "position " << i;
  }
}

TEST(LeaseLedger, ReclaimRestoresResidualExactly) {
  // Demands like 0.1 are not exactly representable: an incremental
  // subtract-then-add walk ends an ulp off. The ledger must return the
  // residual to the base capacity bit-for-bit anyway (snap rule).
  const std::vector<double> capacities{1.0, 3.7};
  std::vector<double> residual = capacities;
  LeaseLedger ledger(2);
  for (int i = 0; i < 7; ++i) {
    const double demand = 0.1 + 0.01 * i;
    residual[0] -= demand;
    residual[1] -= demand;
    ledger.admit(i, demand, {0, 1}, 0.0, 1.0 + 0.25 * i);
  }
  ASSERT_NE(residual[0], capacities[0]);
  EXPECT_EQ(ledger.active_count(), 7);
  EXPECT_EQ(ledger.active_on_edge(0), 7);

  const int expired = ledger.reclaim_until(10.0, capacities, residual);
  EXPECT_EQ(expired, 7);
  EXPECT_EQ(ledger.active_count(), 0);
  EXPECT_EQ(ledger.leased_capacity(), 0.0);
  // Exact, not approximate: the no-leak oracle depends on ==.
  EXPECT_EQ(residual[0], capacities[0]);
  EXPECT_EQ(residual[1], capacities[1]);
}

TEST(LeaseLedger, PartialExpiryKeepsConservationWithinTolerance) {
  const std::vector<double> capacities{5.0};
  std::vector<double> residual = capacities;
  LeaseLedger ledger(1);
  residual[0] -= 0.3;
  ledger.admit(0, 0.3, {0}, 0.0, 1.0);
  residual[0] -= 0.4;
  ledger.admit(1, 0.4, {0}, 0.0, 2.0);

  ledger.reclaim_until(1.5, capacities, residual);
  EXPECT_EQ(ledger.active_count(), 1);
  EXPECT_EQ(ledger.active_on_edge(0), 1);
  EXPECT_NEAR(ledger.leased_demand(0), 0.4, 1e-12);
  EXPECT_NEAR(residual[0] + ledger.leased_demand(0), capacities[0], 1e-12);
}

TEST(LeaseLedger, PermanentLeasesNeverExpire) {
  const std::vector<double> capacities{2.0};
  std::vector<double> residual = capacities;
  LeaseLedger ledger(1);
  residual[0] -= 1.0;
  ledger.admit(0, 1.0, {0}, 0.0, kInf);
  residual[0] -= 0.5;
  ledger.admit(1, 0.5, {0}, 0.0, 3.0);
  EXPECT_EQ(ledger.finite_admitted(), 1);

  const int expired = ledger.reclaim_until(1e9, capacities, residual);
  EXPECT_EQ(expired, 1);
  EXPECT_EQ(ledger.active_count(), 1);
  EXPECT_EQ(ledger.expired_total(), 1);
  EXPECT_NEAR(residual[0], 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(ledger.leased_demand(0), 1.0);
  EXPECT_DOUBLE_EQ(ledger.leased_capacity(), 1.0);
}

TEST(LeaseLedger, DrainOrderIsExpiryTimeThenLeaseId) {
  const std::vector<double> capacities{100.0};
  std::vector<double> residual = capacities;
  LeaseLedger ledger(1);
  // Same expiry time for ids 0/2, earlier time for id 1.
  ledger.admit(10, 0.1, {0}, 0.0, 2.0);  // id 0
  ledger.admit(11, 0.1, {0}, 0.0, 1.0);  // id 1
  ledger.admit(12, 0.1, {0}, 0.0, 2.0);  // id 2
  std::vector<Lease> drained;
  ledger.reclaim_until(5.0, capacities, residual, &drained);
  ASSERT_EQ(drained.size(), 3u);
  EXPECT_EQ(drained[0].id, 1);
  EXPECT_EQ(drained[1].id, 0);
  EXPECT_EQ(drained[2].id, 2);
  EXPECT_EQ(drained[0].sequence, 11);
}

TEST(LeaseLedger, DrainOrderHoldsForAnyAdmissionOrder) {
  // The same expiries under three admission orders: each drains every
  // lease exactly once, in strictly increasing (expires_at, id) order,
  // with the same expiry sequence whatever layout the heap took.
  const std::vector<double> expiries = {0.30, 0.10, 0.30, 0.02,
                                        1.70, 0.10, 0.95, 0.30};
  std::vector<std::vector<double>> drained_times;
  for (int variant = 0; variant < 3; ++variant) {
    std::vector<std::int64_t> order(expiries.size());
    for (std::size_t i = 0; i < order.size(); ++i) {
      order[i] = static_cast<std::int64_t>(i);
    }
    Rng rng(77 + static_cast<std::uint64_t>(variant));
    for (std::size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_below(i)]);
    }
    OneEdge fx;
    for (const std::int64_t seq : order) {
      fx.admit(seq, expiries[static_cast<std::size_t>(seq)]);
    }
    const std::vector<Lease> drained = fx.drain(2.0);
    ASSERT_EQ(drained.size(), expiries.size());
    expect_drain_order(drained);
    std::map<std::int64_t, int> seen;
    std::vector<double> times;
    for (const Lease& lease : drained) {
      ++seen[lease.sequence];
      EXPECT_EQ(lease.expires_at,
                expiries[static_cast<std::size_t>(lease.sequence)]);
      times.push_back(lease.expires_at);
    }
    EXPECT_EQ(seen.size(), expiries.size());
    for (const auto& [seq, count] : seen) EXPECT_EQ(count, 1) << seq;
    drained_times.push_back(times);
  }
  EXPECT_EQ(drained_times[0], drained_times[1]);
  EXPECT_EQ(drained_times[0], drained_times[2]);
}

TEST(LeaseLedger, ExpiryAtNowIsDueAndALaterOneIsNot) {
  // Comparisons are exact: an expiry equal to `now` drains (<=), one a
  // ten-thousandth later waits for a later reclaim.
  OneEdge fx;
  fx.admit(1, 0.1200);
  fx.admit(2, 0.1201);
  std::vector<Lease> due = fx.drain(0.1200);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].sequence, 1);
  EXPECT_EQ(fx.ledger.active_count(), 1);
  due = fx.drain(0.1201);
  ASSERT_EQ(due.size(), 1u);
  EXPECT_EQ(due[0].sequence, 2);
  EXPECT_EQ(fx.ledger.active_count(), 0);
}

TEST(LeaseLedger, FarApartExpiriesDrainOnceInOrder) {
  // Expiries 0.02 * 2.7^k for k < 40 span fourteen orders of magnitude;
  // drained in two stages, every lease comes out once, in order.
  OneEdge fx;
  std::vector<double> times;
  for (double t = 0.02; times.size() < 40; t *= 2.7) times.push_back(t);
  for (std::size_t i = 0; i < times.size(); ++i) {
    fx.admit(static_cast<std::int64_t>(i), times[i]);
  }
  std::vector<Lease> drained = fx.drain(times[20]);
  EXPECT_EQ(drained.size(), 21u);
  for (Lease& lease : fx.drain(times.back() + 1.0)) {
    drained.push_back(std::move(lease));
  }
  ASSERT_EQ(drained.size(), times.size());
  for (std::size_t i = 0; i < drained.size(); ++i) {
    EXPECT_EQ(drained[i].sequence, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(fx.ledger.active_count(), 0);
  EXPECT_EQ(fx.residual[0], fx.capacities[0]);
}

TEST(LeaseLedger, RejectsBackwardAndNonFiniteClocks) {
  OneEdge fx;
  fx.drain(1.0);
  EXPECT_EQ(fx.ledger.now(), 1.0);
  EXPECT_THROW(fx.drain(0.5), std::invalid_argument);
  EXPECT_THROW(fx.drain(kInf), std::invalid_argument);
  EXPECT_THROW(fx.drain(std::nan("")), std::invalid_argument);
  EXPECT_EQ(fx.ledger.now(), 1.0);
}

TEST(LeaseLedger, ManyExpiriesAcrossManyReclaimsDrainOnceInOrder) {
  // 5000 random expiries drained in 7.3-unit steps: nothing lost, nothing
  // duplicated, the order monotone across reclaim boundaries too.
  OneEdge fx;
  Rng rng(11);
  const int kLeases = 5000;
  for (int i = 0; i < kLeases; ++i) fx.admit(i, rng.next_double(0.0, 400.0));
  std::vector<Lease> drained;
  for (double now = 7.3; now < 410.0; now += 7.3) {
    const double until = std::min(now, 401.0);
    for (Lease& lease : fx.drain(until)) {
      EXPECT_LE(lease.expires_at, until);
      drained.push_back(std::move(lease));
    }
  }
  ASSERT_EQ(drained.size(), static_cast<std::size_t>(kLeases));
  expect_drain_order(drained);
  std::vector<bool> seen(static_cast<std::size_t>(kLeases), false);
  for (const Lease& lease : drained) {
    const auto s = static_cast<std::size_t>(lease.sequence);
    EXPECT_FALSE(seen[s]) << "sequence " << s << " drained twice";
    seen[s] = true;
  }
  EXPECT_EQ(fx.ledger.active_count(), 0);
  EXPECT_EQ(fx.ledger.expired_total(), kLeases);
}

TEST(LeaseLedger, OccupancyTracksDemandTimesPathLength) {
  LeaseLedger ledger(4);
  const std::vector<double> capacities{1.0, 1.0, 1.0, 1.0};
  std::vector<double> residual = capacities;
  ledger.admit(0, 0.25, {0, 1, 2}, 0.0, 1.0);
  EXPECT_DOUBLE_EQ(ledger.leased_capacity(), 0.75);
  ledger.admit(1, 0.5, {3}, 0.0, kInf);
  EXPECT_DOUBLE_EQ(ledger.leased_capacity(), 1.25);
  ledger.reclaim_until(2.0, capacities, residual);
  EXPECT_DOUBLE_EQ(ledger.leased_capacity(), 0.5);
}

TEST(LeaseLedger, ClearForgetsEverything) {
  LeaseLedger ledger(2);
  const std::vector<double> capacities{1.0, 1.0};
  std::vector<double> residual = capacities;
  ledger.admit(0, 0.5, {0}, 0.0, 1.0);
  ledger.reclaim_until(2.0, capacities, residual);
  ledger.admit(1, 0.5, {1}, 2.0, 3.0);
  ledger.clear();
  EXPECT_EQ(ledger.active_count(), 0);
  EXPECT_EQ(ledger.finite_admitted(), 0);
  EXPECT_EQ(ledger.expired_total(), 0);
  EXPECT_EQ(ledger.leased_capacity(), 0.0);
  EXPECT_EQ(ledger.active_on_edge(1), 0);
  // The clock restarts too: reclaiming and admitting at t = 0 is legal
  // again.
  EXPECT_EQ(ledger.now(), 0.0);
  ledger.reclaim_until(0.0, capacities, residual);
  ledger.admit(2, 0.5, {0}, 0.0, 0.5);
  EXPECT_EQ(ledger.active_count(), 1);
}

TEST(LeaseLedger, ChurnStressReturnsToBaselineExactly) {
  // 5000 leases with irrational-ish demands over interleaved expiry
  // cycles: whatever the arithmetic path, the final state must be the
  // empty-network baseline, exactly.
  const int kEdges = 16;
  std::vector<double> capacities(kEdges, 10.0);
  std::vector<double> residual = capacities;
  LeaseLedger ledger(kEdges);
  Rng rng(99);
  double now = 0.0;
  std::int64_t seq = 0;
  std::vector<Lease> drained;
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 50; ++i) {
      const double demand = rng.next_double(0.01, 0.4);
      std::vector<EdgeId> edges;
      const int len = 1 + static_cast<int>(rng.next_below(4));
      for (int k = 0; k < len; ++k) {
        const auto e = static_cast<EdgeId>(rng.next_below(kEdges));
        // Parallel lease edges are fine; duplicates within one path are
        // not part of the engine contract, so avoid them here.
        if (std::find(edges.begin(), edges.end(), e) == edges.end()) {
          edges.push_back(e);
        }
      }
      if (edges.empty()) edges.push_back(0);
      for (const EdgeId e : edges) {
        residual[static_cast<std::size_t>(e)] -= demand;
      }
      ledger.admit(seq++, demand, std::move(edges), now,
                   now + rng.next_double(0.01, 3.0));
    }
    now += 0.25;
    ledger.reclaim_until(now, capacities, residual, &drained);
  }
  ledger.reclaim_until(now + 10.0, capacities, residual, &drained);
  EXPECT_EQ(ledger.active_count(), 0);
  // Admissions interleave with reclaims, yet every lease drains once and
  // the (expires_at, id) order runs on across reclaim boundaries.
  EXPECT_EQ(drained.size(), static_cast<std::size_t>(seq));
  expect_drain_order(drained);
  for (int e = 0; e < kEdges; ++e) {
    EXPECT_EQ(residual[static_cast<std::size_t>(e)],
              capacities[static_cast<std::size_t>(e)])
        << "edge " << e;
  }
}

}  // namespace
}  // namespace tufp::temporal
