// EpochEngine — epoch-batched online UFP auctions over a persistent
// residual network.
//
// The serving layer on top of the paper's one-shot mechanism. Bids arrive
// continuously (engine/request_stream.hpp); the engine batches them into
// epochs and clears each epoch as a Bounded-UFP auction on the *residual*
// network: the base topology minus the capacity held by every currently
// *leased* request, kept in one in-place ResidualGraph for the life of the
// world (graph/residual_csr.hpp, DESIGN.md §12). An epoch's auction runs
// over the edges whose residual is at least kResidualFloor, the largest
// normalized demand, so every epoch keeps Algorithm 1's B >= 1. Every
// admission is a lease in the engine's ledger
// (temporal/lease_ledger.hpp): requests carry a duration, infinite by
// default — hold-forever semantics — and finite otherwise, in which case
// the lease's capacity returns to the residual when it expires. Expiries are drained at every epoch boundary, before
// the epoch's residual view is opened, in deterministic (expiry time,
// lease id) order off the ledger's expiry heap, so the per-epoch reclaim
// cost is O(log n) per expiry and the admission history stays
// byte-identical across thread counts. Each epoch remains a
// per-auction application of the paper's mechanism over the residual
// left by expired *and* active leases, so the monotonicity/exactness
// guarantees are untouched (§5's repeated-auction view, now with the
// good genuinely recurring).
//
// Each epoch is deterministic: Bounded-UFP with the capacity guard is
// deterministic for any OpenMP thread count (detail/sp_cache.hpp), the
// stream adapters are seed-deterministic, and the engine adds no other
// randomness — so the full admission history is byte-identical across
// thread counts and runs (the determinism tests pin this).
//
// Payments per epoch (DESIGN.md §7):
//   * kCritical — the paper's critical-value payment, exact: the
//     smallest double bid at which the winner would still have been
//     selected (bounded_ufp_critical_value). Truthful (Thm 2.3). The
//     epoch solve keeps its checkpoints (bounded_ufp_checkpointed), and
//     each winner costs one serial replay of the run without it after its
//     own selection (winner_critical_value), fanned out across winners.
//   * kDualPrice — posted congestion price frozen at admission time:
//     pay_r = v_r * min(1, alpha_r) where alpha_r = (d_r/v_r)*|p_r|_y is
//     the normalized dual length of the winning path at selection. Cheap
//     (read off the solver trace), individually rational by the cap, but
//     only an approximation of the critical value — the throughput
//     setting's trade-off.
//   * kNone — allocation only, all payments zero.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "tufp/engine/metrics.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/graph/residual_csr.hpp"
#include "tufp/temporal/lease_ledger.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/workspace.hpp"

namespace tufp {

namespace obs {
class DecisionTrace;  // obs/trace.hpp
}

enum class PaymentPolicy { kNone, kDualPrice, kCritical };

struct EpochEngineConfig {
  // The epoch triggers (EpochEngine::offer/advance_clock/flush). An epoch
  // admits at most max_batch requests, and a queue that reaches max_batch
  // clears one batch at once. With epoch_duration > 0 every boundary of a
  // window of that many virtual seconds (its multiples) also clears
  // everything queued; with epoch_duration == 0 epochs close by count
  // alone.
  int max_batch = 4096;
  double epoch_duration = 0.0;
  // Bounded queue ahead of the triggers; an arrival that finds it full is
  // shed into queue_dropped. The occupancy trigger keeps at most max_batch
  // queued, so only a smaller capacity sheds, and count-based mode raises
  // it to max_batch (nothing is shed when there is no time pressure).
  std::size_t queue_capacity = 1 << 16;

  PaymentPolicy payments = PaymentPolicy::kDualPrice;

  // Per-epoch solver settings. The engine forces capacity_guard on
  // (residual carry-over is meaningless without feasible epochs) and
  // lowers epsilon to kMaxSafeExponent / B when an epoch's residual bound
  // B would overflow the weight exponent. run_to_saturation defaults on:
  // epochs run far outside the Omega(ln m) regime once the network fills,
  // and the faithful threshold would stop admitting long before capacity
  // is actually exhausted.
  BoundedUfpConfig solver = [] {
    BoundedUfpConfig cfg;
    cfg.capacity_guard = true;
    cfg.run_to_saturation = true;
    return cfg;
  }();

  // Keep per-request AdmissionRecords in each report (tests, small runs).
  bool record_allocations = false;

  // FAULT INJECTION — never set outside oracle-bite tests. Fraction of
  // each expired lease's per-edge demand that the reclaim path "loses"
  // instead of returning to the residual: the engine-side twin of the sim
  // suite's kLeakExpiredCapacity (sim/oracles.hpp), breaking lease
  // conservation so the in-service sanity checks (obs/sanity.hpp) and
  // tufp_serve --sanity can prove they catch a real reclaim bug.
  double inject_reclaim_leak = 0.0;
};

// One admitted request, reported with its clearing price.
struct AdmissionRecord {
  std::int64_t sequence = -1;  // stream sequence number
  int request = -1;            // index within the epoch batch
  double bid = 0.0;
  double payment = 0.0;
  int path_edges = 0;
};

// Outcome of one epoch's auction. Every field except solve_seconds is a
// deterministic function of stream seed + engine config.
struct AdmissionReport {
  int epoch = -1;
  int batch_size = 0;
  int admitted = 0;
  // Malformed bids in this batch (non-positive value/demand, demand > 1,
  // bad endpoints): shed before the auction instead of poisoning it.
  int invalid_rejected = 0;
  // Per-outcome rejection split (DESIGN.md §14): every rejected valid
  // request lands in exactly one bucket, classified at the solver's
  // serial exit (bounded_ufp.hpp RejectReason) — deterministic across
  // kernels and thread counts, so telemetry gates on them exactly.
  // no_path + capacity_blocked + lost_auction + shard_conflict
  // == batch_size - invalid_rejected - admitted.
  int no_path = 0;
  int capacity_blocked = 0;
  int lost_auction = 0;
  // Fit the epoch-start residual but lost the capacity race to earlier
  // winners within the epoch (RejectReason::kCapacityRace).
  int shard_conflict = 0;
  double close_time = 0.0;       // virtual clock at which the epoch cleared
  double offered_value = 0.0;
  double admitted_value = 0.0;
  double revenue = 0.0;
  double dual_upper_bound = 0.0;  // Claim 3.6 bound for the epoch instance
  int active_edges = 0;           // edges at or above the floor
  int saturated_edges = 0;
  double min_residual = 0.0;      // epoch bound B (over active edges)
  int solver_iterations = 0;
  std::int64_t sp_computations = 0;
  std::int64_t sp_tree_runs = 0;  // Dijkstra tree searches (source shards)
  // kCritical: shortest paths the winner replays recomputed, one search
  // each, summed in selection order (0 under the other policies). Kept
  // off the det telemetry and the text summary.
  std::int64_t payment_sp_computations = 0;
  // Lease churn at this epoch boundary (deterministic): expiries drained
  // before the epoch's residual view opened, the active lease count and the
  // occupancy (leased capacity / total base capacity) after the clear.
  int expired_leases = 0;
  std::int64_t active_leases = 0;
  double occupancy = 0.0;
  // Requests still queued when the triggers drew this epoch's batch (0
  // from run_epoch). Deterministic: the queue is a pure function of the
  // offered requests, the clock readings and the config.
  std::int64_t queue_depth = 0;
  double max_admission_delay = 0.0;  // virtual seconds, deterministic
  double solve_seconds = 0.0;        // wall clock — NOT deterministic
  double reclaim_seconds = 0.0;      // wall clock — NOT deterministic
  std::vector<AdmissionRecord> allocations;  // when record_allocations
};

// Lifetime aggregate returned by run().
struct EngineSummary {
  EngineCounters counters;
  double admitted_fraction = 0.0;
  // Final lease gauges (deterministic).
  std::int64_t active_leases = 0;
  double occupancy = 0.0;
  double wall_seconds = 0.0;          // NOT deterministic
  double requests_per_second = 0.0;   // NOT deterministic
};

class EpochEngine {
 public:
  EpochEngine(std::shared_ptr<const Graph> base_graph,
              EpochEngineConfig config);

  // Offers `stream` to exhaustion through offer(). The stream's end is no
  // clock reading, so the last open window then closes at its own
  // boundary, and flush() clears what count-based mode left queued.
  // `on_epoch` (optional) observes every report as it is produced.
  EngineSummary run(
      RequestStream& stream,
      const std::function<void(const AdmissionReport&)>& on_epoch = {});

  // Observer of the epochs the triggers below clear, called with each
  // report in turn. Returning false stops the clearing (tufp_serve stops
  // on a sanity violation): the trigger returns false at once and leaves
  // the rest queued.
  using EpochObserver = std::function<bool(const AdmissionReport&)>;

  // The epoch triggers, over the engine's bounded queue and virtual clock
  // (the clock starts at 0; reset() empties the queue and rewinds the
  // clock). run() drives them from a stream, tufp_serve from the wire.
  // Each returns false when the observer stopped the clearing.
  //
  // offer(): advance_clock() to the request's arrival, which is clamped up
  // to the clock (arrivals are nondecreasing), then queue the request, or
  // shed it into queue_dropped when the queue is full. Counts it as seen.
  // A queue that reaches max_batch clears that batch at once, at the clock.
  bool offer(TimedRequest request, const EpochObserver& on_epoch = {});
  // Moves the clock forward to t (a t at or behind the clock, or a NaN,
  // does nothing). With epoch_duration > 0, every window boundary in
  // (clock, t] clears everything queued, at that boundary; windows that
  // close on an empty queue are skipped.
  bool advance_clock(double t, const EpochObserver& on_epoch = {});
  // Clears everything queued, in batches of at most max_batch, at the
  // clock.
  bool flush(const EpochObserver& on_epoch = {});
  double clock() const { return clock_; }

  // Clears one epoch over an explicit batch against the current residual
  // state, outside the triggers' queue and clock; for tests and drivers
  // that batch their own stream. The single-argument form closes at the
  // last arrival in the batch; the two-argument form closes at an
  // explicit virtual time >= every arrival.
  AdmissionReport run_epoch(const std::vector<TimedRequest>& batch);
  AdmissionReport run_epoch(const std::vector<TimedRequest>& batch,
                            double close_time);

  // Current residual capacity per base EdgeId.
  std::span<const double> residual() const { return rgraph_->residual(); }
  const Graph& base_graph() const { return *base_; }
  const EngineMetrics& metrics() const { return metrics_; }
  const EpochEngineConfig& config() const { return config_; }
  int epochs_run() const { return epoch_; }

  // Drains every lease expired by virtual time `now` (clamped to the
  // ledger clock, which never runs backwards), returning their capacity
  // to the residual. Epoch boundaries call this automatically; exposed
  // for drivers that advance the clock past the last arrival (the
  // `--horizon` flag, the temporal-no-leak oracle). Returns the number of
  // leases reclaimed.
  int reclaim_expired(double now);

  // The lease ledger: every admission, permanent or finite, is a lease.
  const temporal::LeaseLedger& lease_ledger() const { return *ledger_; }

  // The persistent residual store (tests, telemetry). Never null.
  const ResidualGraph* residual_graph() const { return rgraph_.get(); }

  // Wire-level malformed input shed by a driver before it could become a
  // request (framing errors: oversized or truncated lines). Counted as
  // seen, and folded into the same invalid_rejected counter the per-epoch
  // bid validation feeds — invalid is invalid, whichever layer catches it.
  void record_invalid(std::int64_t n) {
    metrics_.counters().requests_seen += n;
    metrics_.counters().invalid_rejected += n;
  }

  // Attaches a decision-provenance trace (obs/trace.hpp; nullptr to
  // detach, not owned). Every request offered to the engine then
  // terminates in exactly one DecisionRecord, emitted on the serial
  // commit path in canonical order: reclaim drains first, then invalid
  // sheds in batch order, then per-request outcomes in ascending request
  // order. Per-outcome counters fill with or without a trace attached.
  void set_decision_trace(obs::DecisionTrace* trace) { trace_ = trace; }

  // Forgets all admissions: residual back to base capacities, metrics,
  // leases and epoch counter to zero, the triggers' queue emptied and
  // their clock back to 0.
  void reset();

 private:
  // Triggers: clear everything queued / one batch of it at close_time.
  bool clear_queued(double close_time, const EpochObserver& on_epoch);
  bool clear_batch(double close_time, const EpochObserver& on_epoch);
  AdmissionReport clear_epoch(const std::vector<TimedRequest>& batch,
                              double close_time);
  // Fills `payments` per the policy: kDualPrice reads the solve's trace,
  // kCritical replays each winner from the checkpointed solve. Returns
  // the shortest paths those replays recomputed.
  std::int64_t apply_payments(std::span<const Request> requests,
                              const BoundedUfpResult& run,
                              const BoundedUfpConfig& solver_cfg,
                              std::vector<double>* payments);
  void refresh_lease_gauges();

  // no_path -> capacity_blocked refinement (DESIGN.md §14). The solver's
  // "no path" verdict means no route over edges above the residual floor;
  // whether the terminals are connected AT ALL is a property of the base
  // topology. probe_base_route() answers both: reachable == false is a
  // true no_path (the terminals are disconnected however empty the
  // network is), reachable == true reclassifies the rejection as
  // capacity_blocked with the first edge on the canonical base-BFS route
  // the live residual holds below the floor as its bottleneck.
  struct BaseBfsTree {
    VertexId source = kInvalidVertex;
    std::int64_t last_use = 0;  // base_bfs_uses_ at the last lookup
    // Per vertex, the tree edge it was discovered by (kInvalidEdge:
    // unreached, or the source); the parent is that edge's other end.
    std::vector<EdgeId> parent_edge;
  };
  struct BaseRouteProbe {
    bool reachable = false;        // in the base topology
    std::int64_t bottleneck = -1;  // first edge below the usable floor
  };
  const BaseBfsTree& base_bfs(VertexId source);
  BaseRouteProbe probe_base_route(VertexId source, VertexId target);

  std::shared_ptr<const Graph> base_;
  EpochEngineConfig config_;
  std::unique_ptr<ResidualGraph> rgraph_;
  std::unique_ptr<UfpWorkspace> workspace_;
  std::unique_ptr<temporal::LeaseLedger> ledger_;
  double total_capacity_ = 0.0;
  EngineMetrics metrics_;
  obs::DecisionTrace* trace_ = nullptr;
  // Memoized base-topology BFS parent trees of the most recently
  // rejected sources, at most kBaseBfsTrees of them: a miss past the cap
  // rebuilds the least recently used tree in place. The base graph is
  // immutable, so trees never invalidate, and eviction only costs a BFS;
  // only the bottleneck scan reads live residual state.
  static constexpr std::size_t kBaseBfsTrees = 64;
  std::vector<BaseBfsTree> base_bfs_trees_;
  std::int64_t base_bfs_uses_ = 0;
  std::vector<VertexId> bfs_queue_;  // base_bfs scratch
  // Epoch id decision records are attributed to while clear_epoch is on
  // the stack; -1 between epochs (an external reclaim_expired drain —
  // the --horizon path — then attributes to the next epoch id).
  std::int64_t trace_epoch_ = -1;
  int epoch_ = 0;
  // The triggers' queue, virtual clock and next window boundary (kInf in
  // count-based mode).
  BoundedRequestQueue queue_;
  double clock_ = 0.0;
  double window_end_ = kInf;
};

}  // namespace tufp
