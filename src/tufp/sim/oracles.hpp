// The oracle catalogue: machine-checkable statements every world must
// satisfy, in three groups.
//
// Differential oracles re-run the same world through two implementations
// that are promised to agree and diff the outcomes exactly:
//   * kernel-diff    — bucket-queue vs heap shortest-path kernel
//   * thread-diff    — solver with 1 vs 4 OpenMP threads
//   * engine-offline — one engine epoch over a fresh network vs the
//                      paper's one-shot mechanism (allocation + critical
//                      payments)
//   * payment-policy — allocation identical under kNone/kDualPrice/
//                      kCritical (payments must not steer allocation)
//   * engine-differential — one table of engine legs, {auto, heap,
//                      bucket} kernels x {1, 4} threads x {plain, churn}
//                      replays, each diffed byte-for-byte against a cold
//                      per-epoch reference replay (a fresh GraphSnapshot
//                      solved as a UfpInstance each epoch, no state
//                      carried but a residual vector and a lease ledger;
//                      DESIGN.md §12) and against the first leg of its
//                      replay, the det stream of DecisionRecords and
//                      det telemetry included; the first leg's stream
//                      must hold exactly one terminal decision per
//                      offered request (DESIGN.md §14).
//
// Metamorphic oracles perturb the world in a direction with a provable
// consequence and check the consequence:
//   * bid-scaling     — scaling every value by λ > 0 leaves the
//                       allocation unchanged (selection minimizes
//                       (d/v)·|p|; a uniform λ cancels)
//   * winner-monotone — a winner raising its bid still wins; a loser
//                       lowering its bid still loses (Lemma 3.4)
//   * loser-removal   — deleting a loser changes nothing (a loser is
//                       never the per-iteration argmin, so the selection
//                       sequence is untouched)
//   * capacity-monotone — on a capacity-scaled copy the original
//                       solution stays feasible and the original value
//                       stays below the scaled copy's dual upper bound
//                       (OPT is monotone in capacity; Claim 3.6)
//
// Invariant oracles check single-run properties:
//   * feasible          — output exact + capacity-feasible (Lemma 3.3)
//   * dual-bound        — admitted value <= dual upper bound (Claim 3.6),
//                       exactly, in the one-shot solve and in every epoch
//                       of the engine's plain leg
//   * residual-feasible — per-epoch residual in [0, base capacity] and
//                       cumulative load reconstructed from admitted paths
//                       matching base - residual
//   * payments-ir       — 0 <= payment <= bid for winners, losers pay
//                       zero (individual rationality + no positive
//                       transfers). This oracle prices through the sim
//                       payment rule, which is where fault injection
//                       plugs in.
//   * temporal-conserve — per epoch and per edge, active leased demand +
//                       residual == capacity, cross-checked against a
//                       sim-side lease replay reconstructed from the
//                       admission records (where kLeakExpiredCapacity
//                       injects).
//   * temporal-no-leak  — after the clock passes every finite expiry,
//                       each edge with no remaining lease holds its base
//                       capacity EXACTLY (==, not a tolerance: the
//                       ledger's snap-on-last-expiry rule).
//
// Fault injection exists to prove the harness catches bugs: the sim
// payment rule can be deliberately broken (seeded from the fuzz config,
// never by default) and the suite must flag and shrink the violation —
// the ctest acceptance check for the whole subsystem.
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "tufp/sim/world.hpp"

namespace tufp::sim {

enum class FaultInjection {
  kNone,
  kOverchargeWinners,  // winners pay 1.05x their bid — breaks IR
  kChargeLosers,       // losers pay a token amount — breaks loser-pays-zero
  // The temporal-conserve oracle's sim-side lease replay "loses" 5% of
  // every expired lease's capacity — breaks lease conservation, proving
  // the temporal oracle suite bites (the temporal analogue of
  // kOverchargeWinners for payments).
  kLeakExpiredCapacity,
};

const char* fault_name(FaultInjection fault);
FaultInjection fault_from_name(const std::string& name);

struct OracleOptions {
  FaultInjection fault = FaultInjection::kNone;
  // Bisection-based checks (critical payments) cost O(winners · log 1/tol)
  // full re-solves; worlds with more requests than this skip them and rely
  // on the cheap dual-price pricing path instead.
  int critical_cap = 24;
};

struct Violation {
  std::string oracle;
  std::string detail;  // deterministic human-readable witness
};

// Handed to every oracle: the world, the options, and lazily-memoized
// shared computations — the base solver run and the engine replays,
// keyed by leg, that several oracles read. Lazy so a restricted suite
// (e.g. the shrinker probing one oracle up to 600 times) only pays for
// what the selected oracles actually read. Definition is internal to
// oracles.cpp.
struct OracleContext;

using OracleFn = std::vector<Violation> (*)(OracleContext&);

struct OracleEntry {
  const char* name;
  const char* summary;
  OracleFn fn;
};

// The full catalogue, in a fixed canonical order.
std::span<const OracleEntry> oracle_catalogue();

// The catalogue entry a name selects; nullptr when no entry answers to it.
const OracleEntry* find_oracle(std::string_view name);

// Detail prefix of the violation an oracle that threw is reported as.
inline constexpr std::string_view kThrewPrefix = "threw: ";

// Runs `only` (all when empty) against the world, concatenating violations
// in catalogue order; names resolve through find_oracle and each selected
// entry runs once. An oracle that throws a std::exception reports one
// violation under its own name whose detail is kThrewPrefix + what().
// Throws std::invalid_argument on an unknown oracle name.
std::vector<Violation> run_oracle_suite(
    const SimWorld& world, const OracleOptions& options,
    std::span<const std::string> only = {});

// Wraps a bare instance (e.g. a loaded repro file) into a SimWorld with
// one-shot arrivals, so repros replay through exactly the same suite. The
// two-argument form restores the failing world's sampled solver config and
// epoch batching (a violation that only manifests under, say,
// run_to_saturation=false must replay under it); the bare form uses
// defaults (guard on, saturation mode).
SimWorld wrap_instance(UfpInstance instance);
SimWorld wrap_instance(UfpInstance instance, const BoundedUfpConfig& solver,
                       int max_batch);

// The sim payment rule: solver allocation plus per-request payments
// (critical-value when num_requests <= critical_cap, dual-price otherwise),
// with the configured fault applied. Exposed so tests can pin the fault
// semantics directly.
struct SimPricing {
  UfpSolution allocation;
  std::vector<double> payments;
};
SimPricing sim_price(const UfpInstance& instance,
                     const BoundedUfpConfig& solver,
                     const OracleOptions& options);

}  // namespace tufp::sim
