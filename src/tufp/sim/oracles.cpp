#include "tufp/sim/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>
#include <utility>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/mechanism/critical_payment.hpp"
#include "tufp/ufp/dual_certificate.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp::sim {

namespace {

std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

void add(std::vector<Violation>* out, const char* oracle, std::string detail) {
  out->push_back({oracle, std::move(detail)});
}

// ---------------------------------------------------------------- solver

BoundedUfpResult solve(const SimWorld& world, const BoundedUfpConfig& cfg) {
  return bounded_ufp(world.instance, cfg);
}

bool same_paths(const Path* a, const Path* b) {
  if ((a == nullptr) != (b == nullptr)) return false;
  return a == nullptr || *a == *b;
}

// Exact allocation equality: same selected set, same path per winner.
// Returns a witness string for the first difference, empty when equal.
std::string selection_diff(const UfpSolution& a, const UfpSolution& b) {
  if (a.num_requests() != b.num_requests()) {
    return "request-count mismatch " + std::to_string(a.num_requests()) +
           " vs " + std::to_string(b.num_requests());
  }
  for (int r = 0; r < a.num_requests(); ++r) {
    if (a.is_selected(r) != b.is_selected(r)) {
      return "request " + std::to_string(r) + " selected=" +
             (a.is_selected(r) ? "yes" : "no") + " vs " +
             (b.is_selected(r) ? "yes" : "no");
    }
    if (!same_paths(a.path_of(r), b.path_of(r))) {
      return "request " + std::to_string(r) + " routed along different paths";
    }
  }
  return {};
}

// ----------------------------------------------------------- engine runs

struct EpochDigest {
  int epoch = 0;
  int batch_size = 0;
  int admitted = 0;
  double revenue = 0.0;
  double admitted_value = 0.0;
  // Solver effort counters: the persistent-vs-snapshot differential pins
  // these too (the cross-epoch warm path must not change what the
  // reports print — golden counter parity, sp_cache.hpp).
  int solver_iterations = 0;
  std::int64_t sp_computations = 0;
  std::int64_t sp_tree_runs = 0;
  // (global request id, bid, payment, path_edges) per winner, epoch order.
  std::vector<AdmissionRecord> allocations;
};

struct EngineRun {
  std::vector<EpochDigest> epochs;
  std::vector<double> residual;          // final
  std::vector<Violation> residual_violations;  // bounds breached mid-run
};

// Replays the world's request list through the epoch engine in max_batch
// chunks. AdmissionRecord::sequence carries the global request index so
// digests are comparable across runs and against offline solves.
// `temporal_path` selects the lease-ledger code path with every duration
// left infinite — the same workload through the temporal machinery, which
// the temporal-infinite oracle diffs byte-for-byte against the default
// lease-free path. `persistent` selects the ResidualGraph hot path
// (the engine default); the residual-differential oracle runs both and
// diffs them, every other oracle exercises the default.
EngineRun run_world_engine(const SimWorld& world, PaymentPolicy payments,
                           int num_threads, bool temporal_path = false,
                           bool persistent = true) {
  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.payments = payments;
  config.record_allocations = true;
  config.persistent_residual = persistent;
  // The pre-temporal oracle suite replays every world under hold-forever
  // semantics: leases off keeps this the frozen legacy baseline.
  config.track_leases = temporal_path;
  config.solver = world.solver;
  config.solver.capacity_guard = true;  // engine precondition
  config.solver.num_threads = num_threads;
  EpochEngine engine(world.instance.shared_graph(), config);

  EngineRun run;
  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  const Graph& base = *world.instance.shared_graph();
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    t.sequence = static_cast<std::int64_t>(i);
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    const AdmissionReport report = engine.run_epoch(batch);
    run.epochs.push_back({report.epoch, report.batch_size, report.admitted,
                          report.revenue, report.admitted_value,
                          report.solver_iterations, report.sp_computations,
                          report.sp_tree_runs, report.allocations});
    const auto residual = engine.residual();
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      const double res = residual[static_cast<std::size_t>(e)];
      if (res < -1e-9 || res > base.capacity(e) + 1e-9) {
        add(&run.residual_violations, "residual-feasible",
            "epoch " + std::to_string(report.epoch) + " edge " +
                std::to_string(e) + " residual " + fmt(res) +
                " outside [0, " + fmt(base.capacity(e)) + "]");
      }
    }
    batch.clear();
  }
  run.residual.assign(engine.residual().begin(), engine.residual().end());
  return run;
}

// ------------------------------------------------------- temporal replay

// One epoch of the temporal replay: the engine's report plus the per-edge
// ledger view right after the boundary cleared.
struct TemporalEpoch {
  AdmissionReport report;
  std::vector<double> residual;
  std::vector<double> leased;  // ledger's active leased demand per edge
};

struct TemporalRun {
  std::vector<TemporalEpoch> epochs;
  double last_close = 0.0;
  // State after the post-run horizon drain: the clock advanced past every
  // finite expiry and everything reclaimable reclaimed.
  int reclaimed_at_horizon = 0;
  std::vector<double> final_residual;
  std::vector<double> final_leased;
  std::vector<int> final_active_on_edge;
  std::int64_t final_active = 0;
  // Warm-tree reclaim revalidation counters (persistent path only; the
  // snapshot engine has no tree cache and reports zeros). Deterministic
  // per world: the residual-differential oracle pins them equal across
  // kernels and thread counts.
  std::int64_t trees_kept_on_reclaim = 0;
  std::int64_t trees_dropped_on_reclaim = 0;
};

// Replays the world through the lease-tracking engine with its sampled
// durations, recording the ledger view each epoch, then drains to a
// horizon beyond the last possible expiry (admissions happen at epoch
// close <= last_close, so last_close + max finite duration bounds every
// expiry).
TemporalRun run_world_engine_temporal(const SimWorld& world, int num_threads,
                                      bool persistent = true) {
  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.payments = PaymentPolicy::kNone;
  config.record_allocations = true;
  config.track_leases = true;
  config.persistent_residual = persistent;
  config.solver = world.solver;
  config.solver.capacity_guard = true;
  config.solver.num_threads = num_threads;
  EpochEngine engine(world.instance.shared_graph(), config);
  const temporal::LeaseLedger& ledger = *engine.lease_ledger();
  const Graph& base = world.instance.graph();
  const auto edges = static_cast<std::size_t>(base.num_edges());

  TemporalRun run;
  double max_finite_duration = 0.0;
  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    t.sequence = static_cast<std::int64_t>(i);
    t.duration = i < world.durations.size() ? world.durations[i] : kInf;
    if (t.duration < kInf) {
      max_finite_duration = std::max(max_finite_duration, t.duration);
    }
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    TemporalEpoch epoch;
    epoch.report = engine.run_epoch(batch);
    run.last_close = std::max(run.last_close, epoch.report.close_time);
    epoch.residual.assign(engine.residual().begin(),
                          engine.residual().end());
    epoch.leased.resize(edges);
    for (EdgeId e = 0; e < base.num_edges(); ++e) {
      epoch.leased[static_cast<std::size_t>(e)] = ledger.leased_demand(e);
    }
    run.epochs.push_back(std::move(epoch));
    batch.clear();
  }

  const double horizon = run.last_close + max_finite_duration + 1.0;
  run.reclaimed_at_horizon = engine.reclaim_expired(horizon);
  run.final_residual.assign(engine.residual().begin(),
                            engine.residual().end());
  run.final_leased.resize(edges);
  run.final_active_on_edge.resize(edges);
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    run.final_leased[static_cast<std::size_t>(e)] = ledger.leased_demand(e);
    run.final_active_on_edge[static_cast<std::size_t>(e)] =
        ledger.active_on_edge(e);
  }
  run.final_active = ledger.active_count();
  run.trees_kept_on_reclaim =
      engine.metrics().counters().trees_kept_on_reclaim;
  run.trees_dropped_on_reclaim =
      engine.metrics().counters().trees_dropped_on_reclaim;
  return run;
}

std::string engine_run_diff(const EngineRun& a, const EngineRun& b) {
  if (a.epochs.size() != b.epochs.size()) {
    return "epoch-count mismatch " + std::to_string(a.epochs.size()) + " vs " +
           std::to_string(b.epochs.size());
  }
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const EpochDigest& x = a.epochs[i];
    const EpochDigest& y = b.epochs[i];
    if (x.batch_size != y.batch_size || x.admitted != y.admitted ||
        x.revenue != y.revenue || x.admitted_value != y.admitted_value ||
        x.allocations.size() != y.allocations.size()) {
      return "epoch " + std::to_string(x.epoch) + " digest mismatch";
    }
    if (x.solver_iterations != y.solver_iterations ||
        x.sp_computations != y.sp_computations ||
        x.sp_tree_runs != y.sp_tree_runs) {
      return "epoch " + std::to_string(x.epoch) + " solver counter mismatch";
    }
    for (std::size_t j = 0; j < x.allocations.size(); ++j) {
      if (x.allocations[j].sequence != y.allocations[j].sequence ||
          x.allocations[j].payment != y.allocations[j].payment) {
        return "epoch " + std::to_string(x.epoch) + " winner " +
               std::to_string(j) + " mismatch";
      }
    }
  }
  if (a.residual != b.residual) return "final residual mismatch";
  return {};
}

// Byte-exact diff of two temporal replays: per-epoch reports, residual
// and ledger views, and the drained-horizon final state. The operator==
// here are deliberate — the persistent and snapshot paths promise
// bitwise-identical histories, not merely close ones.
std::string temporal_run_diff(const TemporalRun& a, const TemporalRun& b) {
  if (a.epochs.size() != b.epochs.size()) {
    return "epoch-count mismatch " + std::to_string(a.epochs.size()) +
           " vs " + std::to_string(b.epochs.size());
  }
  for (std::size_t i = 0; i < a.epochs.size(); ++i) {
    const AdmissionReport& x = a.epochs[i].report;
    const AdmissionReport& y = b.epochs[i].report;
    if (x.batch_size != y.batch_size || x.admitted != y.admitted ||
        x.admitted_value != y.admitted_value || x.revenue != y.revenue ||
        x.close_time != y.close_time ||
        x.expired_leases != y.expired_leases ||
        x.active_leases != y.active_leases || x.occupancy != y.occupancy) {
      return "epoch " + std::to_string(x.epoch) + " report mismatch";
    }
    if (x.solver_iterations != y.solver_iterations ||
        x.sp_computations != y.sp_computations ||
        x.sp_tree_runs != y.sp_tree_runs) {
      return "epoch " + std::to_string(x.epoch) + " solver counter mismatch";
    }
    if (x.allocations.size() != y.allocations.size()) {
      return "epoch " + std::to_string(x.epoch) + " winner-count mismatch";
    }
    for (std::size_t j = 0; j < x.allocations.size(); ++j) {
      if (x.allocations[j].sequence != y.allocations[j].sequence ||
          x.allocations[j].payment != y.allocations[j].payment ||
          x.allocations[j].path_edges != y.allocations[j].path_edges) {
        return "epoch " + std::to_string(x.epoch) + " winner " +
               std::to_string(j) + " mismatch";
      }
    }
    if (a.epochs[i].residual != b.epochs[i].residual) {
      return "epoch " + std::to_string(x.epoch) + " residual mismatch";
    }
    if (a.epochs[i].leased != b.epochs[i].leased) {
      return "epoch " + std::to_string(x.epoch) + " leased-demand mismatch";
    }
  }
  if (a.reclaimed_at_horizon != b.reclaimed_at_horizon) {
    return "horizon reclaim-count mismatch";
  }
  if (a.final_residual != b.final_residual) {
    return "final residual mismatch";
  }
  if (a.final_leased != b.final_leased) return "final leased mismatch";
  if (a.final_active_on_edge != b.final_active_on_edge) {
    return "final per-edge lease-count mismatch";
  }
  if (a.final_active != b.final_active) return "final active-count mismatch";
  return {};
}

}  // namespace

// Lazy shared computations. Several oracles diff against the unperturbed
// base solve or the same engine replay; memoizing them here means a full
// sweep pays for each at most once, and a restricted suite (the shrinker
// probes a single oracle hundreds of times) pays only for what that
// oracle reads.
struct OracleContext {
  const SimWorld& world;
  const OracleOptions& options;

  OracleContext(const SimWorld& w, const OracleOptions& o)
      : world(w), options(o) {}

  const BoundedUfpResult& base() {
    if (!base_) base_.emplace(bounded_ufp(world.instance, world.solver));
    return *base_;
  }
  const EngineRun& engine_none() {
    if (!none_) none_.emplace(run_world_engine(world, PaymentPolicy::kNone, 1));
    return *none_;
  }
  const EngineRun& engine_dual() {
    if (!dual_) {
      dual_.emplace(run_world_engine(world, PaymentPolicy::kDualPrice, 1));
    }
    return *dual_;
  }
  const TemporalRun& temporal() {
    if (!temporal_) temporal_.emplace(run_world_engine_temporal(world, 1));
    return *temporal_;
  }

 private:
  std::optional<BoundedUfpResult> base_;
  std::optional<EngineRun> none_;
  std::optional<EngineRun> dual_;
  std::optional<TemporalRun> temporal_;
};

namespace {

// --------------------------------------------------------------- oracles

std::vector<Violation> oracle_feasible(OracleContext& ctx) {
  std::vector<Violation> out;
  const FeasibilityReport report =
      ctx.base().solution.check_feasibility(ctx.world.instance);
  if (!report.feasible) add(&out, "feasible", report.message);
  return out;
}

std::vector<Violation> oracle_dual_bound(OracleContext& ctx) {
  std::vector<Violation> out;
  const double value = ctx.base().solution.total_value(ctx.world.instance);
  if (!approx_le(value, ctx.base().dual_upper_bound, 1e-9, 1e-9)) {
    add(&out, "dual-bound",
        "admitted value " + fmt(value) + " exceeds dual upper bound " +
            fmt(ctx.base().dual_upper_bound));
  }
  return out;
}

std::vector<Violation> oracle_kernel_diff(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  BoundedUfpConfig heap = world.solver;
  heap.sp_kernel = SpKernel::kHeap;
  BoundedUfpConfig bucket = world.solver;
  bucket.sp_kernel = SpKernel::kBucket;
  const BoundedUfpResult a = solve(world, heap);
  const BoundedUfpResult b = solve(world, bucket);
  const std::string diff = selection_diff(a.solution, b.solution);
  if (!diff.empty()) {
    add(&out, "kernel-diff", "heap vs bucket: " + diff);
  } else if (a.final_dual_sum != b.final_dual_sum ||
             a.iterations != b.iterations) {
    add(&out, "kernel-diff",
        "heap vs bucket agree on allocation but not on dual state");
  }
  return out;
}

std::vector<Violation> oracle_thread_diff(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  BoundedUfpConfig one = world.solver;
  one.parallel = true;
  one.num_threads = 1;
  BoundedUfpConfig four = world.solver;
  four.parallel = true;
  four.num_threads = 4;
  const BoundedUfpResult a = solve(world, one);
  const BoundedUfpResult b = solve(world, four);
  const std::string diff = selection_diff(a.solution, b.solution);
  if (!diff.empty()) {
    add(&out, "thread-diff", "threads 1 vs 4: " + diff);
  } else if (a.final_dual_sum != b.final_dual_sum ||
             a.dual_upper_bound != b.dual_upper_bound) {
    add(&out, "thread-diff",
        "threads 1 vs 4 agree on allocation but not on dual state");
  }
  return out;
}

std::vector<Violation> oracle_bid_scaling(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  // Powers of two: the scaled priorities (d/λv)·|p| are exact binary
  // rescalings, so even floating-point ties are preserved and the
  // allocation must be byte-identical.
  for (const double lambda : {0.5, 4.0}) {
    std::vector<Request> scaled = world.instance.requests();
    for (Request& r : scaled) r.value *= lambda;
    const UfpInstance instance(world.instance.shared_graph(),
                               std::move(scaled));
    const BoundedUfpResult run = bounded_ufp(instance, world.solver);
    const std::string diff = selection_diff(base.solution, run.solution);
    if (!diff.empty()) {
      add(&out, "bid-scaling",
          "allocation changed under uniform bid scaling x" + fmt(lambda) +
              ": " + diff);
    }
  }
  return out;
}

std::vector<Violation> oracle_winner_monotone(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  int winner = -1, loser = -1;
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    if (base.solution.is_selected(r) && winner < 0) winner = r;
    if (!base.solution.is_selected(r) && loser < 0) loser = r;
  }
  if (winner >= 0) {
    Request up = world.instance.request(winner);
    up.value *= 2.0;
    const BoundedUfpResult run =
        bounded_ufp(world.instance.with_request(winner, up), world.solver);
    if (!run.solution.is_selected(winner)) {
      add(&out, "winner-monotone",
          "winner " + std::to_string(winner) + " lost after raising its bid");
    }
    Request lighter = world.instance.request(winner);
    lighter.demand *= 0.5;
    const BoundedUfpResult run2 = bounded_ufp(
        world.instance.with_request(winner, lighter), world.solver);
    if (!run2.solution.is_selected(winner)) {
      add(&out, "winner-monotone",
          "winner " + std::to_string(winner) +
              " lost after halving its demand");
    }
  }
  if (loser >= 0) {
    Request down = world.instance.request(loser);
    down.value *= 0.5;
    const BoundedUfpResult run =
        bounded_ufp(world.instance.with_request(loser, down), world.solver);
    if (run.solution.is_selected(loser)) {
      add(&out, "winner-monotone",
          "loser " + std::to_string(loser) + " won after lowering its bid");
    }
  }
  return out;
}

std::vector<Violation> oracle_loser_removal(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  int loser = -1;
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    if (!base.solution.is_selected(r)) {
      loser = r;
      break;
    }
  }
  if (loser < 0 || world.instance.num_requests() < 2) return out;

  std::vector<Request> reduced = world.instance.requests();
  reduced.erase(reduced.begin() + loser);
  const UfpInstance instance(world.instance.shared_graph(), std::move(reduced));
  const BoundedUfpResult run = bounded_ufp(instance, world.solver);
  // Identity map: request r of the reduced instance is request r (+1 past
  // the removed slot) of the original.
  for (int r = 0; r < instance.num_requests(); ++r) {
    const int orig = r < loser ? r : r + 1;
    if (run.solution.is_selected(r) != base.solution.is_selected(orig) ||
        !same_paths(run.solution.path_of(r), base.solution.path_of(orig))) {
      add(&out, "loser-removal",
          "removing losing request " + std::to_string(loser) +
              " changed the outcome of request " + std::to_string(orig));
      break;
    }
  }
  return out;
}

std::vector<Violation> oracle_capacity_monotone(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const BoundedUfpResult& base = ctx.base();
  const double value = base.solution.total_value(world.instance);

  const Graph& g = world.instance.graph();
  Graph scaled =
      g.is_directed() ? Graph::directed(g.num_vertices())
                      : Graph::undirected(g.num_vertices());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.endpoints(e);
    scaled.add_edge(u, v, g.capacity(e) * 2.0);
  }
  scaled.finalize();
  const UfpInstance bigger(std::move(scaled), world.instance.requests());

  // The old allocation fits a fortiori in the wider network.
  const FeasibilityReport feas = base.solution.check_feasibility(bigger);
  if (!feas.feasible) {
    add(&out, "capacity-monotone",
        "solution infeasible after doubling capacities: " + feas.message);
  }
  // OPT is monotone in capacity, and Claim 3.6 upper-bounds the wider
  // optimum: value(c) <= OPT(c) <= OPT(2c) <= dual_ub(2c). The bound is
  // the shared certified implementation (ufp/dual_certificate.hpp) the
  // evaluation lab also builds on, so the fuzzer and the lab can never
  // disagree on it.
  const double wide_bound = claim36_upper_bound(bigger, world.solver);
  if (!approx_le(value, wide_bound, 1e-9, 1e-9)) {
    add(&out, "capacity-monotone",
        "value " + fmt(value) + " at base capacity exceeds the dual bound " +
            fmt(wide_bound) + " of the doubled network");
  }
  return out;
}

std::vector<Violation> oracle_engine_offline(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const OracleOptions& options = ctx.options;
  std::vector<Violation> out;
  const int R = world.instance.num_requests();
  if (R > options.critical_cap) return out;  // bisection cost cap

  // One epoch over the fresh network == the paper's one-shot auction.
  SimWorld single = world;
  single.max_batch = std::max(1, R);
  const EngineRun engine =
      run_world_engine(single, PaymentPolicy::kCritical, /*num_threads=*/1);

  BoundedUfpConfig cfg = world.solver;
  cfg.capacity_guard = true;
  const UfpRule rule = make_bounded_ufp_rule(cfg);
  const PaymentOptions reference;
  const UfpMechanismResult offline =
      run_ufp_mechanism(world.instance, rule, reference);

  std::vector<double> engine_payment(static_cast<std::size_t>(R), 0.0);
  std::vector<bool> engine_won(static_cast<std::size_t>(R), false);
  for (const EpochDigest& epoch : engine.epochs) {
    for (const AdmissionRecord& a : epoch.allocations) {
      const auto i = static_cast<std::size_t>(a.sequence);
      engine_won[i] = true;
      engine_payment[i] = a.payment;
    }
  }
  for (int r = 0; r < R; ++r) {
    const auto i = static_cast<std::size_t>(r);
    if (engine_won[i] != offline.allocation.is_selected(r)) {
      add(&out, "engine-offline",
          "request " + std::to_string(r) + " admitted by " +
              (engine_won[i] ? "engine only" : "offline mechanism only"));
      continue;
    }
    // The engine's payment is exact; the offline bisection is the upper
    // end of a bracket around the same threshold, so it may sit above the
    // engine by at most the bracket width and never below it.
    const double p = engine_payment[i];
    const double b = offline.payments[i];
    if (!(p <= b && b <= p + reference.tolerance * std::max(1.0, b))) {
      add(&out, "engine-offline",
          "request " + std::to_string(r) + " engine payment " + fmt(p) +
              " outside the offline critical bracket " + fmt(b));
    }
    // Exact to the ulp: the rule admits at p and rejects one double below.
    if (p > 0.0 && (!ufp_wins_at(world.instance, rule, r, p) ||
                    ufp_wins_at(world.instance, rule, r,
                                std::nextafter(p, 0.0)))) {
      add(&out, "engine-offline",
          "request " + std::to_string(r) + " engine payment " + fmt(p) +
              " is not the rule's winning threshold");
    }
  }
  return out;
}

std::vector<Violation> oracle_payment_policy(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const OracleOptions& options = ctx.options;
  std::vector<Violation> out;
  const EngineRun& none = ctx.engine_none();
  const EngineRun& dual = ctx.engine_dual();

  const auto admitted_sequences = [](const EngineRun& run) {
    std::vector<std::int64_t> seq;
    for (const EpochDigest& e : run.epochs) {
      for (const AdmissionRecord& a : e.allocations) seq.push_back(a.sequence);
    }
    return seq;
  };
  // IR + no-positive-transfer on the engine's *actual* charged payments
  // (the payments-ir oracle prices through the sim rule; this leg keeps
  // EpochEngine::apply_payments itself under the same invariant).
  const auto check_engine_ir = [&](const EngineRun& run, const char* policy) {
    for (const EpochDigest& e : run.epochs) {
      double revenue = 0.0;
      for (const AdmissionRecord& a : e.allocations) {
        revenue += a.payment;
        if (a.payment < -1e-12 || a.payment > a.bid + 1e-9) {
          add(&out, "payment-policy",
              std::string(policy) + " epoch " + std::to_string(e.epoch) +
                  " charged " + fmt(a.payment) + " against bid " +
                  fmt(a.bid));
        }
      }
      if (!approx_eq(revenue, e.revenue, 1e-9, 1e-12)) {
        add(&out, "payment-policy",
            std::string(policy) + " epoch " + std::to_string(e.epoch) +
                " revenue " + fmt(e.revenue) +
                " does not match the sum of its payments " + fmt(revenue));
      }
    }
  };

  const std::vector<std::int64_t> base_seq = admitted_sequences(none);
  if (admitted_sequences(dual) != base_seq) {
    add(&out, "payment-policy",
        "dual-price pricing changed the admitted set vs kNone");
  }
  check_engine_ir(dual, "dual-price");
  for (const EpochDigest& e : none.epochs) {
    if (e.revenue != 0.0) {
      add(&out, "payment-policy",
          "kNone epoch " + std::to_string(e.epoch) + " charged revenue " +
              fmt(e.revenue));
    }
  }
  if (world.instance.num_requests() <= options.critical_cap) {
    const EngineRun critical =
        run_world_engine(world, PaymentPolicy::kCritical, 1);
    if (admitted_sequences(critical) != base_seq) {
      add(&out, "payment-policy",
          "critical pricing changed the admitted set vs kNone");
    }
    check_engine_ir(critical, "critical");
  }
  return out;
}

std::vector<Violation> oracle_engine_thread(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const EngineRun& one = ctx.engine_dual();
  const EngineRun four = run_world_engine(world, PaymentPolicy::kDualPrice, 4);
  const std::string diff = engine_run_diff(one, four);
  if (!diff.empty()) add(&out, "engine-thread", "threads 1 vs 4: " + diff);
  return out;
}

std::vector<Violation> oracle_residual_feasible(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const EngineRun& run = ctx.engine_none();
  std::vector<Violation> out = run.residual_violations;

  // Global conservation: total capacity consumed across the base network
  // equals the sum over winners of demand x path length.
  const Graph& g = world.instance.graph();
  double consumed = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    consumed += g.capacity(e) - run.residual[static_cast<std::size_t>(e)];
  }
  double expected = 0.0;
  for (const EpochDigest& epoch : run.epochs) {
    for (const AdmissionRecord& a : epoch.allocations) {
      const Request& req =
          world.instance.request(static_cast<int>(a.sequence));
      expected += req.demand * a.path_edges;
    }
  }
  if (!approx_eq(consumed, expected, 1e-6, 1e-6)) {
    add(&out, "residual-feasible",
        "consumed capacity " + fmt(consumed) +
            " does not match admitted load " + fmt(expected));
  }
  return out;
}

std::vector<Violation> oracle_payments_ir(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const OracleOptions& options = ctx.options;
  std::vector<Violation> out;
  const SimPricing pricing = sim_price(world.instance, world.solver, options);
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double pay = pricing.payments[i];
    const double bid = world.instance.request(r).value;
    if (!pricing.allocation.is_selected(r)) {
      if (pay != 0.0) {
        add(&out, "payments-ir",
            "loser " + std::to_string(r) + " charged " + fmt(pay));
      }
      continue;
    }
    if (pay < -1e-12) {
      add(&out, "payments-ir",
          "winner " + std::to_string(r) + " paid negative amount " + fmt(pay));
    }
    if (pay > bid + 1e-9) {
      add(&out, "payments-ir",
          "winner " + std::to_string(r) + " charged " + fmt(pay) +
              " above its bid " + fmt(bid));
    }
  }
  return out;
}

// ------------------------------------------------------ temporal oracles

std::vector<Violation> oracle_temporal_infinite(OracleContext& ctx) {
  // The temporal code path with every duration infinite must be
  // indistinguishable — byte-for-byte, residuals included — from the
  // lease-free legacy path: the ledger is pure bookkeeping until
  // something actually expires.
  std::vector<Violation> out;
  const EngineRun& legacy = ctx.engine_dual();
  const EngineRun temporal = run_world_engine(
      ctx.world, PaymentPolicy::kDualPrice, 1, /*temporal_path=*/true);
  const std::string diff = engine_run_diff(legacy, temporal);
  if (!diff.empty()) {
    add(&out, "temporal-infinite",
        "lease-free vs infinite-lease engine: " + diff);
  }
  return out;
}

std::vector<Violation> oracle_temporal_conserve(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const Graph& g = world.instance.graph();
  std::vector<Violation> out;
  const TemporalRun& run = ctx.temporal();

  // Leg 1 — ledger vs residual, per epoch, per edge: what the ledger says
  // is promised out plus what the engine says is free must reconstruct
  // the base capacity. (Tolerance, not ==: admission clamps at zero may
  // discard up to the guard slack per admission.)
  for (const TemporalEpoch& epoch : run.epochs) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const auto ei = static_cast<std::size_t>(e);
      const double residual = epoch.residual[ei];
      const double leased = epoch.leased[ei];
      if (residual < -1e-9 || residual > g.capacity(e) + 1e-9 ||
          !approx_eq(residual + leased, g.capacity(e), 1e-9, 1e-6)) {
        add(&out, "temporal-conserve",
            "epoch " + std::to_string(epoch.report.epoch) + " edge " +
                std::to_string(e) + " residual " + fmt(residual) +
                " + leased " + fmt(leased) + " != capacity " +
                fmt(g.capacity(e)));
      }
    }
  }

  // Leg 2 — sim-side lease replay: rebuild the lease book from nothing
  // but the admission records (demand, path length, duration) and demand
  // the engine's total consumed capacity match it every epoch. This is
  // the leg kLeakExpiredCapacity corrupts (the replay "loses" 5% of each
  // expired lease), proving the conservation check bites.
  const double reclaim_factor =
      ctx.options.fault == FaultInjection::kLeakExpiredCapacity ? 0.95 : 1.0;
  struct BookedLease {
    double expires = 0.0;
    double units = 0.0;  // demand * path edges
  };
  std::vector<BookedLease> book;
  double booked = 0.0;
  for (const TemporalEpoch& epoch : run.epochs) {
    const double close = epoch.report.close_time;
    // Expiries drain before the auction, mirroring the engine.
    for (BookedLease& lease : book) {
      if (lease.units > 0.0 && lease.expires <= close) {
        booked -= lease.units * reclaim_factor;
        lease.units = 0.0;
      }
    }
    for (const AdmissionRecord& a : epoch.report.allocations) {
      const auto seq = static_cast<std::size_t>(a.sequence);
      const Request& req = world.instance.request(static_cast<int>(seq));
      const double duration =
          seq < world.durations.size() ? world.durations[seq] : kInf;
      const double units = req.demand * a.path_edges;
      booked += units;
      if (duration < kInf) book.push_back({close + duration, units});
    }
    double consumed = 0.0;
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      consumed += g.capacity(e) - epoch.residual[static_cast<std::size_t>(e)];
    }
    if (!approx_eq(consumed, booked, 1e-6, 1e-6)) {
      add(&out, "temporal-conserve",
          "epoch " + std::to_string(epoch.report.epoch) +
              " consumed capacity " + fmt(consumed) +
              " does not match the replayed lease book " + fmt(booked));
      break;  // the books only diverge further; one witness is enough
    }
  }
  return out;
}

std::vector<Violation> oracle_temporal_no_leak(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const Graph& g = world.instance.graph();
  std::vector<Violation> out;
  const TemporalRun& run = ctx.temporal();

  // Every finite lease has expired by the drained horizon: an edge with
  // no remaining (permanent) lease must hold its base capacity EXACTLY —
  // the ledger's snap rule makes this an ==, not a tolerance.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto ei = static_cast<std::size_t>(e);
    if (run.final_active_on_edge[ei] == 0) {
      if (run.final_residual[ei] != g.capacity(e)) {
        add(&out, "temporal-no-leak",
            "edge " + std::to_string(e) + " residual " +
                fmt(run.final_residual[ei]) + " != base capacity " +
                fmt(g.capacity(e)) + " after every lease expired");
      }
    } else if (!approx_eq(run.final_residual[ei] + run.final_leased[ei],
                          g.capacity(e), 1e-9, 1e-6)) {
      add(&out, "temporal-no-leak",
          "edge " + std::to_string(e) + " residual " +
              fmt(run.final_residual[ei]) + " + permanent leases " +
              fmt(run.final_leased[ei]) + " != capacity " +
              fmt(g.capacity(e)));
    }
  }

  // Only permanent admissions may survive the horizon.
  std::int64_t permanent = 0;
  for (const TemporalEpoch& epoch : run.epochs) {
    for (const AdmissionRecord& a : epoch.report.allocations) {
      const auto seq = static_cast<std::size_t>(a.sequence);
      const double duration =
          seq < world.durations.size() ? world.durations[seq] : kInf;
      if (duration >= kInf) ++permanent;
    }
  }
  if (run.final_active != permanent) {
    add(&out, "temporal-no-leak",
        "ledger holds " + std::to_string(run.final_active) +
            " leases past the horizon, expected the " +
            std::to_string(permanent) + " permanent admissions");
  }
  return out;
}

// The tentpole differential of the persistent-residual PR: the engine
// with the in-place ResidualGraph + cross-epoch workspace against the
// legacy snapshot-per-epoch engine, byte-for-byte — admissions,
// payments, residuals, ledger views, solver counters — across both
// shortest-path kernels and OpenMP thread counts, on the plain replay
// AND the full admit->expire->re-admit churn replay. This is the oracle
// that licenses shipping the persistent path as the default.
std::vector<Violation> oracle_residual_differential(OracleContext& ctx) {
  std::vector<Violation> out;
  // Warm-tree reclaim revalidation verdicts of each persistent temporal
  // leg: the surviving tree set is a pure function of the epoch history,
  // so (kept, dropped) must agree across kernels and thread counts.
  std::vector<std::pair<std::int64_t, std::int64_t>> reclaim_legs;
  std::vector<std::string> leg_names;
  for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
    SimWorld world = ctx.world;
    world.solver.sp_kernel = kernel;
    const char* kname = kernel == SpKernel::kHeap ? "heap" : "bucket";
    for (const int threads : {1, 4}) {
      const std::string leg =
          std::string(kname) + " t" + std::to_string(threads) + ": ";
      const EngineRun persistent = run_world_engine(
          world, PaymentPolicy::kDualPrice, threads,
          /*temporal_path=*/false, /*persistent=*/true);
      const EngineRun snapshot = run_world_engine(
          world, PaymentPolicy::kDualPrice, threads,
          /*temporal_path=*/false, /*persistent=*/false);
      const std::string diff = engine_run_diff(persistent, snapshot);
      if (!diff.empty()) {
        add(&out, "residual-differential",
            leg + "persistent vs snapshot engine: " + diff);
      }
      // Churn leg: finite durations live, expiries reclaim mid-run —
      // the regime where the stamp/warm-tree machinery actually bites.
      const TemporalRun tp =
          run_world_engine_temporal(world, threads, /*persistent=*/true);
      const TemporalRun ts =
          run_world_engine_temporal(world, threads, /*persistent=*/false);
      const std::string tdiff = temporal_run_diff(tp, ts);
      if (!tdiff.empty()) {
        add(&out, "residual-differential",
            leg + "persistent vs snapshot temporal replay: " + tdiff);
      }
      reclaim_legs.emplace_back(tp.trees_kept_on_reclaim,
                                tp.trees_dropped_on_reclaim);
      leg_names.push_back(std::string(kname) + " t" +
                          std::to_string(threads));
    }
  }
  for (std::size_t i = 1; i < reclaim_legs.size(); ++i) {
    if (reclaim_legs[i] != reclaim_legs[0]) {
      add(&out, "residual-differential",
          "warm-tree reclaim counters diverge across legs: " + leg_names[0] +
              " kept/dropped " + std::to_string(reclaim_legs[0].first) + "/" +
              std::to_string(reclaim_legs[0].second) + " vs " + leg_names[i] +
              " " + std::to_string(reclaim_legs[i].first) + "/" +
              std::to_string(reclaim_legs[i].second));
    }
  }
  return out;
}

// --------------------------------------------------- decision trace legs

// Captures the decision channel into memory: the trace-differential
// oracle diffs raw rendered lines, so it must see exactly the bytes a
// file sink would.
class CapturingSink final : public obs::TelemetrySink {
 public:
  void emit(obs::Channel channel, std::string_view line) override {
    if (channel == obs::Channel::kDeterministic) lines.emplace_back(line);
  }
  std::vector<std::string> lines;
};

// Replays the world with a DecisionTrace attached and returns the
// rendered decision lines. `temporal_path` replays with the sampled
// durations and drains to the post-run horizon, so lease_expired records
// are part of the diffed history too.
std::vector<std::string> run_world_trace(const SimWorld& world,
                                         int num_threads, bool temporal_path) {
  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.payments = PaymentPolicy::kDualPrice;
  config.record_allocations = true;
  config.persistent_residual = true;
  config.track_leases = temporal_path;
  config.solver = world.solver;
  config.solver.capacity_guard = true;
  config.solver.num_threads = num_threads;

  CapturingSink sink;
  obs::DecisionTrace trace(&sink);
  EpochEngine engine(world.instance.shared_graph(), config);
  engine.set_decision_trace(&trace);

  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  double last_close = 0.0;
  double max_finite_duration = 0.0;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    t.sequence = static_cast<std::int64_t>(i);
    if (temporal_path) {
      t.duration = i < world.durations.size() ? world.durations[i] : kInf;
      if (t.duration < kInf) {
        max_finite_duration = std::max(max_finite_duration, t.duration);
      }
    }
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    const AdmissionReport report = engine.run_epoch(batch);
    last_close = std::max(last_close, report.close_time);
    batch.clear();
  }
  if (temporal_path) {
    (void)engine.reclaim_expired(last_close + max_finite_duration + 1.0);
  }
  engine.set_decision_trace(nullptr);
  return std::move(sink.lines);
}

// The tentpole differential of the provenance PR: the rendered decision
// stream — every outcome, density, bottleneck edge, payment and
// warm/fresh provenance bit, as bytes — must be identical across SP
// kernels and thread counts, on both the plain and the churn replay. On top, the stream must satisfy the terminal-
// decision contract: exactly one non-expiry record per offered request,
// in ascending sequence order within each epoch.
std::vector<Violation> oracle_trace_differential(OracleContext& ctx) {
  std::vector<Violation> out;
  for (const bool temporal_path : {false, true}) {
    const char* mode = temporal_path ? "churn" : "plain";
    std::vector<std::string> reference;
    std::string reference_leg;
    for (const SpKernel kernel : {SpKernel::kHeap, SpKernel::kBucket}) {
      SimWorld world = ctx.world;
      world.solver.sp_kernel = kernel;
      const char* kname = kernel == SpKernel::kHeap ? "heap" : "bucket";
      for (const int threads : {1, 4}) {
        const std::string leg = std::string(mode) + " " + kname + " t" +
                                std::to_string(threads);
        std::vector<std::string> lines =
            run_world_trace(world, threads, temporal_path);
        if (reference_leg.empty()) {
          // One-decision-per-request audit on the reference leg only
          // (equality transports it to every other leg).
          std::int64_t decisions = 0;
          for (const std::string& line : lines) {
            if (line.find("\"outcome\":\"lease_expired\"") ==
                std::string::npos) {
              ++decisions;
            }
          }
          const auto offered =
              static_cast<std::int64_t>(world.instance.requests().size());
          if (decisions != offered) {
            add(&out, "trace-differential",
                leg + ": " + std::to_string(decisions) +
                    " terminal decisions for " + std::to_string(offered) +
                    " offered requests");
          }
          reference = std::move(lines);
          reference_leg = leg;
          continue;
        }
        if (lines == reference) continue;
        const std::size_t n = std::min(lines.size(), reference.size());
        std::size_t k = 0;
        while (k < n && lines[k] == reference[k]) ++k;
        add(&out, "trace-differential",
            leg + " diverges from " + reference_leg + " at record " +
                std::to_string(k) + ": " +
                (k < reference.size() ? reference[k] : "<end>") + " vs " +
                (k < lines.size() ? lines[k] : "<end>"));
      }
    }
  }
  return out;
}

constexpr OracleEntry kCatalogue[] = {
    {"feasible", "solver output exact and capacity-feasible", oracle_feasible},
    {"dual-bound", "admitted value within the Claim 3.6 dual bound",
     oracle_dual_bound},
    {"kernel-diff", "bucket vs heap shortest-path kernels agree",
     oracle_kernel_diff},
    {"thread-diff", "solver identical across OpenMP thread counts",
     oracle_thread_diff},
    {"bid-scaling", "allocation invariant under uniform bid scaling",
     oracle_bid_scaling},
    {"winner-monotone", "better declarations keep winning (Lemma 3.4)",
     oracle_winner_monotone},
    {"loser-removal", "removing a loser changes nothing",
     oracle_loser_removal},
    {"capacity-monotone", "value bounded by the wider network's dual bound",
     oracle_capacity_monotone},
    {"payments-ir", "payments individually rational, no positive transfers",
     oracle_payments_ir},
    {"residual-feasible", "engine residual bounded, load conserved",
     oracle_residual_feasible},
    {"engine-thread", "engine history identical across thread counts",
     oracle_engine_thread},
    {"payment-policy", "pricing policy never steers allocation",
     oracle_payment_policy},
    {"engine-offline", "single engine epoch equals the one-shot mechanism",
     oracle_engine_offline},
    {"temporal-infinite",
     "infinite-duration lease runs match the lease-free engine exactly",
     oracle_temporal_infinite},
    {"temporal-conserve",
     "active lease demand + residual reconstructs capacity every epoch",
     oracle_temporal_conserve},
    {"temporal-no-leak",
     "residual returns to the empty-network baseline after expiry",
     oracle_temporal_no_leak},
    {"residual-differential",
     "persistent residual engine byte-identical to the snapshot engine",
     oracle_residual_differential},
    {"trace-differential",
     "decision provenance stream byte-identical across kernels and threads",
     oracle_trace_differential},
};

}  // namespace

const char* fault_name(FaultInjection fault) {
  switch (fault) {
    case FaultInjection::kNone: return "none";
    case FaultInjection::kOverchargeWinners: return "overcharge-winners";
    case FaultInjection::kChargeLosers: return "charge-losers";
    case FaultInjection::kLeakExpiredCapacity:
      return "leak-expired-capacity";
  }
  return "unknown";
}

FaultInjection fault_from_name(const std::string& name) {
  for (FaultInjection f :
       {FaultInjection::kNone, FaultInjection::kOverchargeWinners,
        FaultInjection::kChargeLosers,
        FaultInjection::kLeakExpiredCapacity}) {
    if (name == fault_name(f)) return f;
  }
  throw std::invalid_argument("unknown fault injection: " + name);
}

std::span<const OracleEntry> oracle_catalogue() { return kCatalogue; }

std::vector<Violation> run_oracle_suite(const SimWorld& world,
                                        const OracleOptions& options,
                                        std::span<const std::string> only) {
  for (const std::string& name : only) {
    const auto known = std::any_of(
        std::begin(kCatalogue), std::end(kCatalogue),
        [&](const OracleEntry& e) { return name == e.name; });
    if (!known) throw std::invalid_argument("unknown oracle: " + name);
  }
  OracleContext ctx(world, options);
  std::vector<Violation> out;
  for (const OracleEntry& entry : kCatalogue) {
    if (!only.empty() &&
        std::find(only.begin(), only.end(), entry.name) == only.end()) {
      continue;
    }
    std::vector<Violation> found = entry.fn(ctx);
    out.insert(out.end(), std::make_move_iterator(found.begin()),
               std::make_move_iterator(found.end()));
  }
  return out;
}

SimWorld wrap_instance(UfpInstance instance) {
  BoundedUfpConfig solver;
  solver.capacity_guard = true;
  solver.run_to_saturation = true;
  const int R = instance.num_requests();
  return wrap_instance(std::move(instance), solver, std::max(2, R / 3));
}

SimWorld wrap_instance(UfpInstance instance, const BoundedUfpConfig& solver,
                       int max_batch) {
  const int R = instance.num_requests();
  SimWorld world{WorldSpec{WorldFamily::kGrid, 0},
                 std::move(instance),
                 std::vector<double>(static_cast<std::size_t>(R), 0.0),
                 {},
                 DurationProfile::kInfinite,
                 std::max(1, max_batch),
                 solver};
  return world;
}

SimPricing sim_price(const UfpInstance& instance,
                     const BoundedUfpConfig& solver,
                     const OracleOptions& options) {
  BoundedUfpConfig cfg = solver;
  cfg.record_trace = true;
  const BoundedUfpResult run = bounded_ufp(instance, cfg);

  SimPricing pricing{run.solution,
                     std::vector<double>(
                         static_cast<std::size_t>(instance.num_requests()),
                         0.0)};
  if (instance.num_requests() <= options.critical_cap) {
    BoundedUfpConfig probe = cfg;
    probe.parallel = false;
    probe.record_trace = false;
    const UfpRule rule = make_bounded_ufp_rule(probe);
    for (int r = 0; r < instance.num_requests(); ++r) {
      if (!run.solution.is_selected(r)) continue;
      const double critical = ufp_critical_value(instance, rule, r);
      pricing.payments[static_cast<std::size_t>(r)] =
          std::min(critical, instance.request(r).value);
    }
  } else {
    for (const IterationRecord& it : run.trace) {
      const double bid = instance.request(it.request).value;
      pricing.payments[static_cast<std::size_t>(it.request)] =
          bid * std::min(1.0, it.alpha);
    }
  }

  // Deliberate breakage for harness-catches-bugs demonstrations. Never on
  // by default; seeded explicitly from the fuzz config.
  switch (options.fault) {
    case FaultInjection::kNone:
    case FaultInjection::kLeakExpiredCapacity:  // temporal-side fault:
      break;  // payments untouched (see oracle_temporal_conserve)
    case FaultInjection::kOverchargeWinners:
      for (int r = 0; r < instance.num_requests(); ++r) {
        if (run.solution.is_selected(r)) {
          pricing.payments[static_cast<std::size_t>(r)] =
              instance.request(r).value * 1.05;
        }
      }
      break;
    case FaultInjection::kChargeLosers:
      for (int r = 0; r < instance.num_requests(); ++r) {
        if (!run.solution.is_selected(r)) {
          pricing.payments[static_cast<std::size_t>(r)] = 0.01;
        }
      }
      break;
  }
  return pricing;
}

}  // namespace tufp::sim
