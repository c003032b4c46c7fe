#include "tufp/sim/oracles.hpp"

#include <algorithm>
#include <cmath>
#include <compare>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <sstream>
#include <string_view>
#include <utility>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/graph/dijkstra.hpp"
#include "tufp/mechanism/allocation_rule.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/mechanism/critical_payment.hpp"
#include "tufp/sim/snapshot.hpp"
#include "tufp/temporal/lease_ledger.hpp"
#include "tufp/ufp/dual_certificate.hpp"
#include "tufp/util/math.hpp"

namespace tufp::sim {

namespace {

// Bisection-based checks (critical payments) cost O(winners · log 1/tol)
// full re-solves; worlds with more requests than this skip them and rely
// on the cheap dual-price pricing path instead.
constexpr int kCriticalCap = 24;

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

// How run_engine replays a world: the pricing rule, the OpenMP thread
// count, and whether the world's sampled lease durations are replayed
// (churn) or every lease is permanent (plain).
struct Leg {
  PaymentPolicy payments = PaymentPolicy::kDualPrice;
  int threads = 1;
  bool churn = false;

  friend auto operator<=>(const Leg&, const Leg&) = default;

  std::string name() const {
    return std::string(churn ? "churn" : "plain") + " t" +
           std::to_string(threads);
  }
};

// One epoch of a run: the report plus the per-edge residual and ledger
// views right after the epoch cleared.
struct TemporalEpoch {
  AdmissionReport report;
  std::vector<double> residual;
  std::vector<double> leased;  // ledger's active leased demand per edge
};

// One replay of a world, by the engine or by the reference.
struct TemporalRun {
  std::vector<TemporalEpoch> epochs;
  // State after the post-run horizon drain: the clock advanced past every
  // finite expiry and everything reclaimable reclaimed.
  int reclaimed_at_horizon = 0;
  std::vector<double> final_residual;
  std::vector<double> final_leased;
  std::vector<int> final_active_on_edge;
  std::int64_t final_active = 0;
  // The engine's det stream: every DecisionRecord, one `epoch` telemetry
  // event per epoch, then the closing `hist` and `summary` events. The
  // reference replay renders none and leaves it empty; an engine run
  // always ends with the summary, so its stream never is.
  std::vector<std::string> stream;
};

double duration_of(const SimWorld& world, bool churn, std::size_t i) {
  return churn && i < world.durations.size() ? world.durations[i] : kInf;
}

// Admissions happen at epoch close <= last_close, so last_close plus the
// longest finite duration bounds every expiry.
double drain_horizon(const SimWorld& world, bool churn, double last_close) {
  double longest = 0.0;
  for (std::size_t i = 0; i < world.instance.requests().size(); ++i) {
    const double duration = duration_of(world, churn, i);
    if (duration < kInf) longest = std::max(longest, duration);
  }
  return last_close + longest + 1.0;
}

std::vector<double> leased_view(const temporal::LeaseLedger& ledger,
                                int num_edges) {
  std::vector<double> leased(static_cast<std::size_t>(num_edges));
  for (EdgeId e = 0; e < num_edges; ++e) {
    leased[static_cast<std::size_t>(e)] = ledger.leased_demand(e);
  }
  return leased;
}

void record_final_state(const temporal::LeaseLedger& ledger,
                        std::span<const double> residual, TemporalRun* run) {
  const auto edges = static_cast<int>(residual.size());
  run->final_residual.assign(residual.begin(), residual.end());
  run->final_leased = leased_view(ledger, edges);
  run->final_active_on_edge.resize(residual.size());
  for (EdgeId e = 0; e < edges; ++e) {
    run->final_active_on_edge[static_cast<std::size_t>(e)] =
        ledger.active_on_edge(e);
  }
  run->final_active = ledger.active_count();
}

// Captures the det channel into memory: the differential diffs raw
// rendered lines, so it must see exactly the bytes a file sink would.
class CapturingSink final : public obs::TelemetrySink {
 public:
  void emit(obs::Channel channel, std::string_view line) override {
    if (channel == obs::Channel::kDeterministic) lines.emplace_back(line);
  }
  std::vector<std::string> lines;
};

// Replays the world's request list through the epoch engine in max_batch
// chunks with a DecisionTrace and det-only epoch telemetry rendering into
// one captured stream, then drains to a horizon past every finite expiry
// (a plain leg's drain reclaims nothing). AdmissionRecord::sequence
// carries the global request index, so runs compare across legs and
// against offline solves.
TemporalRun run_engine(const SimWorld& world, const Leg& leg) {
  EpochEngineConfig config;
  config.max_batch = world.max_batch;
  config.payments = leg.payments;
  config.record_allocations = true;
  config.solver = world.solver;
  config.solver.capacity_guard = true;  // engine precondition
  config.solver.num_threads = leg.threads;
  CapturingSink sink;
  obs::DecisionTrace trace(&sink);
  obs::EpochTelemetry telemetry(&sink, {/*histogram_every=*/0,
                                        /*wall_events=*/false});
  EpochEngine engine(world.instance.shared_graph(), config);
  engine.set_decision_trace(&trace);
  const int edges = world.instance.graph().num_edges();

  TemporalRun run;
  double last_close = 0.0;
  const auto& requests = world.instance.requests();
  std::vector<TimedRequest> batch;
  for (std::size_t i = 0; i < requests.size(); ++i) {
    TimedRequest t;
    t.arrival_time = i < world.arrivals.size() ? world.arrivals[i] : 0.0;
    t.sequence = static_cast<std::int64_t>(i);
    t.duration = duration_of(world, leg.churn, i);
    t.request = requests[i];
    batch.push_back(t);
    if (static_cast<int>(batch.size()) < world.max_batch &&
        i + 1 < requests.size()) {
      continue;
    }
    TemporalEpoch epoch;
    epoch.report = engine.run_epoch(batch);
    telemetry.on_epoch(epoch.report, engine.metrics());
    last_close = std::max(last_close, epoch.report.close_time);
    epoch.residual.assign(engine.residual().begin(), engine.residual().end());
    epoch.leased = leased_view(engine.lease_ledger(), edges);
    run.epochs.push_back(std::move(epoch));
    batch.clear();
  }

  run.reclaimed_at_horizon =
      engine.reclaim_expired(drain_horizon(world, leg.churn, last_close));
  record_final_state(engine.lease_ledger(), engine.residual(), &run);
  telemetry.finish(engine.metrics(), engine.lease_ledger().active_count(),
                   engine.metrics().occupancy(), /*wall_seconds=*/0.0,
                   /*requests_per_second=*/0.0);
  run.stream = std::move(sink.lines);
  return run;
}

// ------------------------------------------------------ reference replay

// The engine-differential oracle's reference: the engine's epoch
// semantics replayed cold. Nothing crosses an epoch but a plain residual
// vector and a plain lease ledger — no EpochEngine, ResidualGraph or
// UfpWorkspace, and its solver derives line 4 from scratch every epoch
// (init_duals) — so a missed dirty edge, a wrong reclaim or an overlay
// edge the engine failed to roll back shows up as a byte difference
// against it. Per batch: reclaim expired leases, compile a
// fresh GraphSnapshot of the residual, solve it as a UfpInstance under
// the engine's epoch config (serially: outputs are thread-invariant),
// price at the dual price, and commit winners in request order. `churn`
// replays the world's sampled lease durations; without it every lease is
// permanent, the plain legs' hold-forever semantics.
TemporalRun run_world_reference(const SimWorld& world, bool churn) {
  const std::shared_ptr<const Graph>& base = world.instance.shared_graph();
  const Graph& g = *base;
  std::vector<double> residual(g.capacities().begin(), g.capacities().end());
  temporal::LeaseLedger ledger(g.num_edges());
  double total_capacity = 0.0;
  for (const double c : g.capacities()) total_capacity += c;
  const auto& requests = world.instance.requests();

  TemporalRun run;
  double last_close = 0.0;
  const auto batch = static_cast<std::size_t>(world.max_batch);
  for (std::size_t begin = 0; begin < requests.size(); begin += batch) {
    const std::size_t end = std::min(requests.size(), begin + batch);
    TemporalEpoch epoch;
    AdmissionReport& report = epoch.report;
    report.epoch = static_cast<int>(run.epochs.size());
    report.batch_size = static_cast<int>(end - begin);
    report.close_time = end - 1 < world.arrivals.size()
                            ? world.arrivals[end - 1]
                            : 0.0;
    report.expired_leases = ledger.reclaim_until(
        std::max(report.close_time, ledger.now()), g.capacities(), residual);

    // The engine's shed rule, on what UfpInstance does not already
    // guarantee: a normalized finite demand, a finite value and a
    // positive duration.
    std::vector<Request> offered;
    std::vector<std::size_t> sequence;
    for (std::size_t i = begin; i < end; ++i) {
      const Request& req = requests[i];
      if (std::isfinite(req.demand) && std::isfinite(req.value) &&
          req.demand <= 1.0 && duration_of(world, churn, i) > 0.0) {
        offered.push_back(req);
        sequence.push_back(i);
      }
    }
    const GraphSnapshot snap = GraphSnapshot::compile(base, residual);
    if (!offered.empty() && snap.num_active_edges() > 0) {
      const UfpInstance instance(snap.graph(), std::move(offered));
      BoundedUfpConfig cfg = world.solver;
      cfg.capacity_guard = true;
      cfg.epsilon =
          std::min(cfg.epsilon, kMaxSafeExponent / snap.min_residual());
      const BoundedUfpResult solved = bounded_ufp(instance, cfg);
      report.solver_iterations = solved.iterations;
      report.sp_computations = solved.sp_computations;
      report.sp_tree_runs = solved.sp_tree_runs;
      std::vector<double> pay(sequence.size(), 0.0);
      for (const IterationRecord& it : solved.trace) {
        pay[static_cast<std::size_t>(it.request)] =
            instance.request(it.request).value * std::min(1.0, it.alpha);
      }
      for (int r = 0; r < instance.num_requests(); ++r) {
        if (!solved.solution.is_selected(r)) continue;
        const Request& req = instance.request(r);
        const std::size_t i = sequence[static_cast<std::size_t>(r)];
        std::vector<EdgeId> path;
        for (const EdgeId e : *solved.solution.path_of(r)) {
          const EdgeId b = snap.base_edge(e);
          double& res = residual[static_cast<std::size_t>(b)];
          res = std::max(0.0, res - req.demand);
          path.push_back(b);
        }
        const double duration = duration_of(world, churn, i);
        const int path_edges = static_cast<int>(path.size());
        ledger.admit(static_cast<std::int64_t>(i), req.demand, std::move(path),
                     report.close_time,
                     duration < kInf ? report.close_time + duration : kInf);
        ++report.admitted;
        report.admitted_value += req.value;
        report.revenue += pay[static_cast<std::size_t>(r)];
        report.allocations.push_back({static_cast<std::int64_t>(i),
                                      static_cast<int>(i - begin), req.value,
                                      pay[static_cast<std::size_t>(r)],
                                      path_edges});
      }
    }
    report.active_leases = ledger.active_count();
    report.occupancy = ledger.leased_capacity() / total_capacity;
    epoch.residual = residual;
    epoch.leased = leased_view(ledger, g.num_edges());
    last_close = std::max(last_close, report.close_time);
    run.epochs.push_back(std::move(epoch));
  }

  run.reclaimed_at_horizon = ledger.reclaim_until(
      std::max(drain_horizon(world, churn, last_close), ledger.now()),
      g.capacities(), residual);
  record_final_state(ledger, residual, &run);
  return run;
}

// Byte-exact diff of two runs: per-epoch reports, residual and ledger
// views, the drained-horizon final state, and the det streams when both
// sides rendered one. The operator== here are deliberate — every leg and
// the reference promise bitwise-identical histories, not merely close
// ones.
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
  if (!a.stream.empty() && !b.stream.empty() && a.stream != b.stream) {
    const std::size_t n = std::min(a.stream.size(), b.stream.size());
    std::size_t k = 0;
    while (k < n && a.stream[k] == b.stream[k]) ++k;
    return "det stream diverges at record " + std::to_string(k) + ": " +
           (k < a.stream.size() ? a.stream[k] : "<end>") + " vs " +
           (k < b.stream.size() ? b.stream[k] : "<end>");
  }
  return {};
}

// The terminal-decision contract (DESIGN.md §14): each offered request
// ends in exactly one non-expiry `decision` record. Returns a witness for
// the first request that breaks it, empty when the stream keeps it.
std::string terminal_decision_audit(const std::vector<std::string>& stream,
                                    std::size_t offered) {
  constexpr std::string_view kDecision = "{\"event\":\"decision\"";
  constexpr std::string_view kSeq = "\"seq\":";
  std::vector<int> decisions(offered, 0);
  for (const std::string& line : stream) {
    if (!line.starts_with(kDecision) ||
        line.find("\"outcome\":\"lease_expired\"") != std::string::npos) {
      continue;
    }
    const std::size_t at = line.find(kSeq);
    const long long seq =
        at == std::string::npos
            ? -1
            : std::strtoll(line.c_str() + at + kSeq.size(), nullptr, 10);
    if (seq < 0 || static_cast<std::size_t>(seq) >= offered) {
      return "decision record for no offered request: " + line;
    }
    ++decisions[static_cast<std::size_t>(seq)];
  }
  for (std::size_t i = 0; i < offered; ++i) {
    if (decisions[i] != 1) {
      return "request " + std::to_string(i) + " has " +
             std::to_string(decisions[i]) + " terminal decisions";
    }
  }
  return {};
}

}  // namespace

// Lazy shared computations. Several oracles diff against the unperturbed
// base solve or read the same engine leg; memoizing them here means a
// full sweep pays for each at most once, and a restricted suite (the
// shrinker probes a single oracle hundreds of times) pays only for what
// that oracle reads.
struct OracleContext {
  const SimWorld& world;
  const OracleOptions& options;

  OracleContext(const SimWorld& w, const OracleOptions& o)
      : world(w), options(o) {}

  const BoundedUfpResult& base() {
    if (!base_) base_.emplace(bounded_ufp(world.instance, world.solver));
    return *base_;
  }
  const TemporalRun& run(const Leg& leg) {
    auto it = runs_.find(leg);
    if (it == runs_.end()) {
      it = runs_.emplace(leg, run_engine(world, leg)).first;
    }
    return it->second;
  }

 private:
  std::optional<BoundedUfpResult> base_;
  std::map<Leg, TemporalRun> runs_;
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

// Claim 3.6, exactly: the solver's bound and the admitted value are both
// summed in request order, so an all-admitted run reads equal to the bit
// and no tolerance is needed — in the one-shot solve and in every epoch of
// the engine's plain leg alike.
std::vector<Violation> oracle_dual_bound(OracleContext& ctx) {
  std::vector<Violation> out;
  const double value = ctx.base().solution.total_value(ctx.world.instance);
  if (!(value <= ctx.base().dual_upper_bound)) {
    add(&out, "dual-bound",
        "admitted value " + fmt(value) + " exceeds dual upper bound " +
            fmt(ctx.base().dual_upper_bound));
  }
  for (const TemporalEpoch& epoch : ctx.run({}).epochs) {
    const AdmissionReport& report = epoch.report;
    if (!(report.admitted_value <= report.dual_upper_bound)) {
      add(&out, "dual-bound",
          "engine epoch " + std::to_string(report.epoch) + ": admitted value " +
              fmt(report.admitted_value) + " exceeds dual upper bound " +
              fmt(report.dual_upper_bound));
    }
  }
  return out;
}

// The two shortest-path kernels on the world's graph, under the duals
// Algorithm 1 walks through: y_e = 1/c_e (line 4), then, request by
// request, y_e *= e^{eps*B*d_r/c_e} along the request's shortest path
// (lines 10-12). At each step every source's tree to its requests'
// targets runs twice, with no profile (the heap) and with the running
// profile (the bucket queue while the profile allows it); lengths and
// paths must be equal (lengths are positive or inf, where == is bitwise).
// Stops once the profile rules the bucket out: both runs are the heap
// from there on.
std::vector<Violation> oracle_kernel_diff(OracleContext& ctx) {
  const UfpInstance& instance = ctx.world.instance;
  const Graph& g = instance.graph();
  const std::vector<Request>& requests = instance.requests();
  const double eps = ctx.world.solver.epsilon;
  const double B = instance.bound_B();
  std::vector<Violation> out;

  std::vector<double> y(static_cast<std::size_t>(g.num_edges()));
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    y[static_cast<std::size_t>(e)] = 1.0 / g.capacity(e);
  }
  WeightProfile profile = WeightProfile::scan(y);
  std::map<VertexId, std::vector<std::size_t>> by_source;
  for (std::size_t r = 0; r < requests.size(); ++r) {
    by_source[requests[r].source].push_back(r);
  }
  ShortestPathEngine engine(g);
  std::vector<ShortestPathEngine::TreeTarget> heap;
  std::vector<ShortestPathEngine::TreeTarget> bucket;
  std::vector<Path> heap_paths(requests.size());
  std::vector<Path> bucket_paths(requests.size());
  for (std::size_t step = 0; step < requests.size(); ++step) {
    for (const auto& [source, members] : by_source) {
      heap.clear();
      bucket.clear();
      for (const std::size_t r : members) {
        heap.push_back({requests[r].target, 0.0, &heap_paths[r]});
        bucket.push_back({requests[r].target, 0.0, &bucket_paths[r]});
      }
      engine.shortest_tree(y, source, heap);
      engine.shortest_tree(y, source, bucket, {}, &profile);
      if (engine.last_used_kernel() != SpKernel::kBucket) return out;
      for (std::size_t i = 0; i < members.size(); ++i) {
        const std::size_t r = members[i];
        if (heap[i].length == bucket[i].length &&
            (heap[i].length == kInf || heap_paths[r] == bucket_paths[r])) {
          continue;
        }
        add(&out, "kernel-diff",
            "step " + std::to_string(step) + ", request " +
                std::to_string(r) + ": heap length " + fmt(heap[i].length) +
                " vs bucket " + fmt(bucket[i].length) +
                (heap[i].length == bucket[i].length ? ", different paths"
                                                    : ""));
        return out;
      }
    }
    // Reachability is static (no edge is ever blocked), so an unreachable
    // request keeps an empty path and inflates nothing.
    const Request& req = requests[step];
    for (const EdgeId e : heap_paths[step]) {
      double& w = y[static_cast<std::size_t>(e)];
      w *= std::exp(eps * B * req.demand / g.capacity(e));
      profile.include(w);
    }
  }
  return out;
}

std::vector<Violation> oracle_thread_diff(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  BoundedUfpConfig one = world.solver;
  one.num_threads = 1;
  BoundedUfpConfig four = world.solver;
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
  if (!(value <= wide_bound)) {
    add(&out, "capacity-monotone",
        "value " + fmt(value) + " at base capacity exceeds the dual bound " +
            fmt(wide_bound) + " of the doubled network");
  }
  return out;
}

std::vector<Violation> oracle_engine_offline(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  std::vector<Violation> out;
  const int R = world.instance.num_requests();
  if (R > kCriticalCap) return out;  // bisection cost cap

  // One epoch over the fresh network == the paper's one-shot auction.
  SimWorld single = world;
  single.max_batch = std::max(1, R);
  const TemporalRun engine =
      run_engine(single, {.payments = PaymentPolicy::kCritical});

  BoundedUfpConfig cfg = world.solver;
  cfg.capacity_guard = true;
  const UfpRule rule = make_bounded_ufp_rule(cfg);
  const PaymentOptions reference;
  const UfpMechanismResult offline =
      run_ufp_mechanism(world.instance, rule, reference);

  std::vector<double> engine_payment(static_cast<std::size_t>(R), 0.0);
  std::vector<bool> engine_won(static_cast<std::size_t>(R), false);
  for (const TemporalEpoch& epoch : engine.epochs) {
    for (const AdmissionRecord& a : epoch.report.allocations) {
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
  std::vector<Violation> out;
  const TemporalRun& none = ctx.run({.payments = PaymentPolicy::kNone});
  const TemporalRun& dual = ctx.run({.payments = PaymentPolicy::kDualPrice});

  const auto admitted_sequences = [](const TemporalRun& run) {
    std::vector<std::int64_t> seq;
    for (const TemporalEpoch& e : run.epochs) {
      for (const AdmissionRecord& a : e.report.allocations) {
        seq.push_back(a.sequence);
      }
    }
    return seq;
  };
  // IR + no-positive-transfer on the engine's *actual* charged payments
  // (the payments-ir oracle prices through the sim rule; this leg keeps
  // EpochEngine::apply_payments itself under the same invariant).
  const auto check_engine_ir = [&](const TemporalRun& run,
                                   const char* policy) {
    for (const TemporalEpoch& epoch : run.epochs) {
      const AdmissionReport& e = epoch.report;
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
  for (const TemporalEpoch& epoch : none.epochs) {
    if (epoch.report.revenue != 0.0) {
      add(&out, "payment-policy",
          "kNone epoch " + std::to_string(epoch.report.epoch) +
              " charged revenue " + fmt(epoch.report.revenue));
    }
  }
  if (world.instance.num_requests() <= kCriticalCap) {
    const TemporalRun& critical =
        ctx.run({.payments = PaymentPolicy::kCritical});
    if (admitted_sequences(critical) != base_seq) {
      add(&out, "payment-policy",
          "critical pricing changed the admitted set vs kNone");
    }
    check_engine_ir(critical, "critical");
  }
  return out;
}

std::vector<Violation> oracle_residual_feasible(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const Graph& g = world.instance.graph();
  const TemporalRun& run = ctx.run({});
  std::vector<Violation> out;

  // Every epoch leaves every residual in [0, base capacity]; the negated
  // comparisons fail a NaN too.
  for (const TemporalEpoch& epoch : run.epochs) {
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      const double res = epoch.residual[static_cast<std::size_t>(e)];
      if (!(res >= -1e-9) || !(res <= g.capacity(e) + 1e-9)) {
        add(&out, "residual-feasible",
            "epoch " + std::to_string(epoch.report.epoch) + " edge " +
                std::to_string(e) + " residual " + fmt(res) +
                " outside [0, " + fmt(g.capacity(e)) + "]");
      }
    }
  }

  // Global conservation: total capacity consumed across the base network
  // equals the sum over winners of demand x path length (a plain leg's
  // leases are permanent, so the horizon drain returned nothing).
  double consumed = 0.0;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    consumed += g.capacity(e) - run.final_residual[static_cast<std::size_t>(e)];
  }
  double expected = 0.0;
  for (const TemporalEpoch& epoch : run.epochs) {
    for (const AdmissionRecord& a : epoch.report.allocations) {
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

std::vector<Violation> oracle_temporal_conserve(OracleContext& ctx) {
  const SimWorld& world = ctx.world;
  const Graph& g = world.instance.graph();
  std::vector<Violation> out;
  const TemporalRun& run = ctx.run({.churn = true});

  // Check 1 — ledger vs residual, per epoch, per edge: what the ledger says
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

  // Check 2 — sim-side lease replay: rebuild the lease book from nothing
  // but the admission records (demand, path length, duration) and demand
  // the engine's total consumed capacity match it every epoch. This is
  // the check kLeakExpiredCapacity corrupts (the replay "loses" 5% of each
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
      const double duration = duration_of(world, /*churn=*/true, seq);
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
  const TemporalRun& run = ctx.run({.churn = true});

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
      if (duration_of(world, /*churn=*/true, seq) >= kInf) ++permanent;
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

// Every engine leg — 1 and 4 threads, on the plain replay and on the
// full admit->expire->re-admit churn replay — against the cold per-epoch
// reference replay and against the t1 leg of its replay, byte for byte:
// reports, payments, solver counters, residual and ledger views, the
// drained-horizon state and, t4 against t1, the det stream of decision
// records and telemetry. The reference shares no cross-epoch state with
// the engine, so this is the oracle that licenses the persistent
// residual store, its dirty-edge list and the solve overlay on its
// epoch-start state (DESIGN.md §12); the stream diff carries the
// decision provenance (§14) across thread counts. On top, the t1 leg's
// stream must keep the terminal-decision contract (equality carries it
// to the t4 leg).
std::vector<Violation> oracle_engine_differential(OracleContext& ctx) {
  std::vector<Violation> out;
  const auto report = [&out](const std::string& what,
                             const std::string& diff) {
    if (!diff.empty()) add(&out, "engine-differential", what + diff);
  };
  const std::size_t offered = ctx.world.instance.requests().size();
  for (const bool churn : {false, true}) {
    const TemporalRun reference = run_world_reference(ctx.world, churn);
    const Leg t1{PaymentPolicy::kDualPrice, 1, churn};
    const Leg t4{PaymentPolicy::kDualPrice, 4, churn};
    const TemporalRun& one = ctx.run(t1);
    const TemporalRun& four = ctx.run(t4);
    report(t1.name() + " vs cold reference replay: ",
           temporal_run_diff(one, reference));
    report(t1.name() + ": ", terminal_decision_audit(one.stream, offered));
    report(t4.name() + " vs cold reference replay: ",
           temporal_run_diff(four, reference));
    report(t4.name() + " vs " + t1.name() + ": ",
           temporal_run_diff(four, one));
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
    {"payment-policy", "pricing policy never steers allocation",
     oracle_payment_policy},
    {"engine-offline", "single engine epoch equals the one-shot mechanism",
     oracle_engine_offline},
    {"temporal-conserve",
     "active lease demand + residual reconstructs capacity every epoch",
     oracle_temporal_conserve},
    {"temporal-no-leak",
     "residual returns to the empty-network baseline after expiry",
     oracle_temporal_no_leak},
    {"engine-differential",
     "every engine leg byte-identical to a cold reference replay and to "
     "each other",
     oracle_engine_differential},
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

const OracleEntry* find_oracle(std::string_view name) {
  for (const OracleEntry& entry : kCatalogue) {
    if (name == entry.name) return &entry;
  }
  return nullptr;
}

std::vector<Violation> run_oracle_suite(const SimWorld& world,
                                        const OracleOptions& options,
                                        std::span<const std::string> only) {
  std::vector<const OracleEntry*> selected;
  for (const std::string& name : only) {
    const OracleEntry* entry = find_oracle(name);
    if (entry == nullptr) {
      throw std::invalid_argument("unknown oracle: " + name);
    }
    selected.push_back(entry);
  }
  OracleContext ctx(world, options);
  std::vector<Violation> out;
  for (const OracleEntry& entry : kCatalogue) {
    if (!only.empty() &&
        std::find(selected.begin(), selected.end(), &entry) == selected.end()) {
      continue;
    }
    // An oracle that throws (a solver precondition, an internal check)
    // reports it as its violation: the sweep logs the world and writes a
    // repro instead of dying with it.
    std::vector<Violation> found;
    try {
      found = entry.fn(ctx);
    } catch (const std::exception& e) {
      found = {{entry.name, std::string(kThrewPrefix) + e.what()}};
    }
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
  const BoundedUfpResult run = bounded_ufp(instance, solver);

  SimPricing pricing{run.solution,
                     std::vector<double>(
                         static_cast<std::size_t>(instance.num_requests()),
                         0.0)};
  if (instance.num_requests() <= kCriticalCap) {
    const UfpRule rule = make_bounded_ufp_rule(solver);
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
