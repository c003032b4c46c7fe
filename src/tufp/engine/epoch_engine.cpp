#include "tufp/engine/epoch_engine.hpp"

#include <algorithm>
#include <cmath>
#include <utility>

#include "tufp/obs/trace.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/parallel.hpp"
#include "tufp/util/timer.hpp"

namespace tufp {

namespace {

// Solver-exit reject reason -> wire outcome. kCapacityRace maps to
// shard_conflict: the request fit the epoch-start residual but lost the
// capacity race to earlier winners within the epoch.
obs::DecisionOutcome outcome_of(RejectReason reason) {
  switch (reason) {
    case RejectReason::kNoPath: return obs::DecisionOutcome::kNoPath;
    case RejectReason::kBlockedAtStart:
      return obs::DecisionOutcome::kCapacityBlocked;
    case RejectReason::kCapacityRace:
      return obs::DecisionOutcome::kShardConflict;
    case RejectReason::kLostAuction:
      return obs::DecisionOutcome::kLostAuction;
  }
  return obs::DecisionOutcome::kLostAuction;
}

}  // namespace

EpochEngine::EpochEngine(std::shared_ptr<const Graph> base_graph,
                         EpochEngineConfig config)
    : base_(std::move(base_graph)),
      config_(std::move(config)) {
  TUFP_REQUIRE(base_ != nullptr && base_->finalized(),
               "engine requires a finalized base graph");
  TUFP_REQUIRE(base_->num_edges() >= 1, "engine requires a non-empty graph");
  TUFP_REQUIRE(config_.max_batch >= 1, "max_batch must be positive");
  TUFP_REQUIRE(config_.epoch_duration >= 0.0, "negative epoch duration");
  TUFP_REQUIRE(config_.min_usable_capacity >= 1.0,
               "min_usable_capacity must cover the maximum normalized demand "
               "(>= 1), or epochs can violate bounded_ufp's B >= 1 precondition");
  TUFP_REQUIRE(config_.solver.capacity_guard,
               "the engine requires the capacity guard: residual carry-over "
               "is unsound on infeasible epoch outputs");
  for (const double c : base_->capacities()) total_capacity_ += c;
  rgraph_ =
      std::make_unique<ResidualGraph>(base_, config_.min_usable_capacity);
  workspace_ = std::make_unique<UfpWorkspace>();
  ledger_ = std::make_unique<temporal::LeaseLedger>(base_->num_edges());
}

void EpochEngine::reset() {
  rgraph_->reset();
  // Forget the solver's engines, shard plan and stamps too: a reset
  // engine holds what a fresh one does.
  workspace_->clear();
  metrics_ = EngineMetrics();
  ledger_->clear();
  epoch_ = 0;
}

const EpochEngine::BaseBfsTree& EpochEngine::base_bfs(VertexId source) {
  const std::int64_t use = ++base_bfs_uses_;
  BaseBfsTree* tree = nullptr;
  for (BaseBfsTree& cached : base_bfs_trees_) {
    if (cached.source == source) {
      cached.last_use = use;
      return cached;
    }
    if (tree == nullptr || cached.last_use < tree->last_use) tree = &cached;
  }
  if (base_bfs_trees_.size() < kBaseBfsTrees) {
    tree = &base_bfs_trees_.emplace_back();
  }
  tree->source = source;
  tree->last_use = use;
  // Canonical parent tree: plain queue BFS in CSR arc order, a pure
  // function of the topology — every run, kernel and thread count walks
  // the same route for a given terminal pair.
  std::vector<EdgeId>& parent_edge = tree->parent_edge;
  parent_edge.assign(static_cast<std::size_t>(base_->num_vertices()),
                     kInvalidEdge);
  std::vector<VertexId>& queue = bfs_queue_;
  queue.assign(1, source);
  for (std::size_t head = 0; head < queue.size(); ++head) {
    const VertexId v = queue[head];
    for (const Arc& arc : base_->arcs_from(v)) {
      EdgeId& parent = parent_edge[static_cast<std::size_t>(arc.to)];
      if (parent != kInvalidEdge || arc.to == source) continue;
      parent = arc.edge;
      queue.push_back(arc.to);
    }
  }
  return *tree;
}

EpochEngine::BaseRouteProbe EpochEngine::probe_base_route(VertexId source,
                                                          VertexId target) {
  BaseRouteProbe probe;
  const BaseBfsTree& tree = base_bfs(source);
  if (tree.parent_edge[static_cast<std::size_t>(target)] == kInvalidEdge) {
    return probe;  // disconnected in the base topology: a true no_path
  }
  probe.reachable = true;
  // Walk the route target -> source; the last edge met that the live
  // residual holds below the usable floor is the first one from the
  // source. One must exist whenever the solver reported no path: a route
  // entirely at or above the floor would have been in the epoch's active
  // subgraph, and its shortest-path pass would have reached the target.
  const std::span<const double> res = residual();
  for (VertexId v = target; v != source;) {
    const EdgeId e = tree.parent_edge[static_cast<std::size_t>(v)];
    if (res[static_cast<std::size_t>(e)] < config_.min_usable_capacity) {
      probe.bottleneck = e;
    }
    const auto [a, b] = base_->endpoints(e);
    v = a == v ? b : a;
  }
  return probe;
}

void EpochEngine::refresh_lease_gauges() {
  metrics_.set_lease_gauges(
      ledger_->active_count(),
      total_capacity_ > 0.0 ? ledger_->leased_capacity() / total_capacity_
                            : 0.0);
}

int EpochEngine::reclaim_expired(double now) {
  TUFP_SPAN("reclaim");
  // The ledger clock never runs backwards; a stale `now` (e.g. an
  // explicit run_epoch() with an older batch) reclaims at the frontier.
  const double effective = std::max(now, ledger_->now());
  const std::span<double> residual = rgraph_->mutable_residual();
  // Every edge a reclaim touched is declared to the residual graph, which
  // lists it as dirty (residual_csr.hpp): the drained leases come back.
  std::vector<temporal::Lease> drained;
  const int expired = ledger_->reclaim_until(effective, base_->capacities(),
                                             residual, &drained);
  if (config_.inject_reclaim_leak > 0.0) {
    // Oracle-bite fault (see the config field): after the ledger returns
    // an expired lease's capacity — snap rule included — "lose" a fraction
    // of it again on every edge the lease crossed. Conservation (leased +
    // residual == capacity) now fails, which is exactly what the
    // in-service sanity checks must catch.
    for (const temporal::Lease& lease : drained) {
      for (const EdgeId e : lease.edges) {
        auto& r = residual[static_cast<std::size_t>(e)];
        r = std::max(0.0, r - config_.inject_reclaim_leak * lease.demand);
      }
    }
  }
  if (drained.empty()) {
    // Nothing drained, but mutable_residual() was handed out above: close
    // the dirty window explicitly (the contract's empty-span idiom;
    // open_epoch() aborts the next solve otherwise).
    rgraph_->note_reclaimed({});
  } else {
    for (const temporal::Lease& lease : drained) {
      rgraph_->note_reclaimed(lease.edges);
    }
  }
  if (trace_ != nullptr) {
    // One lease_expired record per drained lease, in drain order,
    // attributed to the epoch whose boundary (or horizon drain) triggered
    // the reclaim.
    const std::int64_t epoch = trace_epoch_ >= 0 ? trace_epoch_ : epoch_;
    for (const temporal::Lease& lease : drained) {
      obs::DecisionRecord rec;
      rec.sequence = lease.sequence;
      rec.epoch = epoch;
      rec.outcome = obs::DecisionOutcome::kLeaseExpired;
      rec.close_time = effective;
      rec.demand = lease.demand;
      rec.path.assign(lease.edges.begin(), lease.edges.end());
      rec.admitted_at = lease.admitted_at;
      rec.expires_at = lease.expires_at;
      trace_->record(rec);
    }
  }
  if (expired > 0) {
    metrics_.counters().leases_expired += expired;
    refresh_lease_gauges();
  }
  return expired;
}

EngineSummary EpochEngine::run(
    RequestStream& stream,
    const std::function<void(const AdmissionReport&)>& on_epoch) {
  WallTimer timer;
  const bool time_based = config_.epoch_duration > 0.0;
  // Count-based epochs have no time pressure, so shedding load because the
  // queue is smaller than one batch would be a silent config footgun; the
  // queue is sized to hold at least a full batch. Time-based mode keeps
  // the configured capacity — there, overflow drops are the (open-loop)
  // semantics.
  const std::size_t queue_capacity =
      time_based ? config_.queue_capacity
                 : std::max(config_.queue_capacity,
                            static_cast<std::size_t>(config_.max_batch));
  BoundedRequestQueue queue(queue_capacity);
  const std::int64_t dropped_before = metrics_.counters().queue_dropped;
  double epoch_end = time_based ? config_.epoch_duration : kInf;

  TimedRequest pending;
  bool has_pending = false;
  bool stream_done = false;

  while (true) {
    // Ingest arrivals for this epoch window. Time-based epochs take every
    // arrival before the window closes (open loop: the queue sheds what
    // does not fit); count-based epochs fill at most one batch.
    while (!stream_done &&
           (time_based || queue.size() < static_cast<std::size_t>(
                                             config_.max_batch))) {
      if (!has_pending) {
        if (!stream.next(&pending)) {
          stream_done = true;
          break;
        }
        has_pending = true;
        ++metrics_.counters().requests_seen;
      }
      if (time_based && pending.arrival_time >= epoch_end) break;
      queue.push(pending);
      has_pending = false;
    }
    metrics_.counters().queue_dropped = dropped_before + queue.dropped();

    if (queue.empty()) {
      if (stream_done && !has_pending) break;
      // Idle window: skip ahead to the window containing the next arrival
      // instead of clearing empty auctions.
      if (time_based && has_pending) {
        const double t = config_.epoch_duration;
        epoch_end = (std::floor(pending.arrival_time / t) + 1.0) * t;
      }
      continue;
    }

    std::vector<TimedRequest> batch;
    batch.reserve(static_cast<std::size_t>(config_.max_batch));
    TimedRequest item;
    while (static_cast<int>(batch.size()) < config_.max_batch &&
           queue.pop(&item)) {
      batch.push_back(std::move(item));
    }

    const double close_time =
        time_based ? epoch_end : batch.back().arrival_time;
    AdmissionReport report = clear_epoch(batch, close_time);
    report.queue_depth = static_cast<std::int64_t>(queue.size());
    if (on_epoch) on_epoch(report);
    if (time_based) epoch_end += config_.epoch_duration;
  }

  EngineSummary summary;
  summary.counters = metrics_.counters();
  summary.admitted_fraction = metrics_.admitted_fraction();
  summary.active_leases = ledger_->active_count();
  summary.occupancy = metrics_.occupancy();
  summary.wall_seconds = timer.elapsed_seconds();
  summary.requests_per_second =
      summary.wall_seconds > 0.0
          ? static_cast<double>(summary.counters.requests_seen) /
                summary.wall_seconds
          : 0.0;
  return summary;
}

AdmissionReport EpochEngine::run_epoch(const std::vector<TimedRequest>& batch) {
  const double close_time = batch.empty() ? 0.0 : batch.back().arrival_time;
  return clear_epoch(batch, close_time);
}

AdmissionReport EpochEngine::run_epoch(const std::vector<TimedRequest>& batch,
                                       double close_time) {
  for (const TimedRequest& t : batch) {
    TUFP_REQUIRE(t.arrival_time <= close_time,
                 "epoch close time precedes an arrival in its batch");
  }
  return clear_epoch(batch, close_time);
}

AdmissionReport EpochEngine::clear_epoch(const std::vector<TimedRequest>& batch,
                                         double close_time) {
  TUFP_SPAN("epoch");
  WallTimer timer;
  AdmissionReport report;
  report.epoch = epoch_++;
  trace_epoch_ = report.epoch;
  report.batch_size = static_cast<int>(batch.size());
  report.close_time = close_time;
  ++metrics_.counters().epochs;
  metrics_.batch_sizes().add(static_cast<double>(batch.size()));

  // Epoch boundary: return expired leases' capacity *before* opening the
  // epoch's residual view, so this auction runs over the residual left by
  // expired and active leases. The reclaim may only *increase* residuals;
  // it declares every edge it touched, putting it on the residual graph's
  // dirty list, which is what keeps the epoch-start state open_epoch()
  // derives from outliving a capacity increase (DESIGN.md §10, §12).
  {
    WallTimer reclaim_timer;
    report.expired_leases = reclaim_expired(close_time);
    report.reclaim_seconds = reclaim_timer.elapsed_seconds();
    metrics_.reclaim_seconds().record(report.reclaim_seconds);
  }

  // Malformed bids (a zero-value bid, an out-of-range endpoint, an
  // un-normalized demand) must not poison the epoch: they are shed here,
  // counted as invalid, and the auction runs over the valid remainder.
  // batch_index maps instance request ids back to batch positions.
  std::vector<Request> requests;
  std::vector<int> batch_index;
  requests.reserve(batch.size());
  batch_index.reserve(batch.size());
  const int n = base_->num_vertices();
  {
    TUFP_SPAN("validate");
    for (std::size_t i = 0; i < batch.size(); ++i) {
      const TimedRequest& t = batch[i];
      const double delay = std::max(0.0, close_time - t.arrival_time);
      metrics_.admission_delay().record(delay);
      report.max_admission_delay = std::max(report.max_admission_delay, delay);

      const Request& req = t.request;
      // Durations must be positive; kInf (permanent) is the default. A NaN
      // or non-positive duration is a malformed bid like a zero value.
      const bool valid =
          std::isfinite(req.demand) && std::isfinite(req.value) &&
          req.demand > 0.0 && req.demand <= 1.0 && req.value > 0.0 &&
          req.source >= 0 && req.source < n && req.target >= 0 &&
          req.target < n && req.source != req.target && t.duration > 0.0 &&
          !std::isnan(t.duration);
      if (!valid) {
        ++report.invalid_rejected;
        ++metrics_.counters().invalid_rejected;
        if (trace_ != nullptr) {
          obs::DecisionRecord rec;
          rec.sequence = t.sequence;
          rec.epoch = report.epoch;
          rec.outcome = obs::DecisionOutcome::kInvalid;
          rec.close_time = close_time;
          rec.value = req.value;
          rec.demand = req.demand;
          trace_->record(rec);
        }
        continue;
      }
      report.offered_value += req.value;
      requests.push_back(req);
      batch_index.push_back(static_cast<int>(i));
    }
  }
  metrics_.counters().offered_value += report.offered_value;

  // Epoch residual view: open_epoch() re-derives the edges on the
  // residual graph's dirty list, in place. The per-layer benchmark reads
  // the `snapshot` span as the epoch-open phase.
  {
    TUFP_SPAN("snapshot");
    rgraph_->open_epoch();
    report.active_edges = rgraph_->num_active();
    report.saturated_edges = rgraph_->num_saturated();
    report.min_residual =
        rgraph_->num_active() > 0 ? rgraph_->min_residual() : 0.0;
  }

  // Keep the weight exponent in double range whatever the epoch bound B
  // is; epsilon only trades approximation quality, not feasibility.
  BoundedUfpConfig solver_cfg = config_.solver;
  solver_cfg.epsilon =
      std::min(solver_cfg.epsilon, kMaxSafeExponent / rgraph_->min_residual());
  // The engine never reads the final duals; skipping the export keeps
  // the solve free of O(m) work.
  solver_cfg.export_duals = false;
  if (config_.payments == PaymentPolicy::kDualPrice) {
    solver_cfg.record_trace = true;  // admission-time alpha per winner
  }
  // Always on: the per-outcome counters (no_path/capacity_blocked/
  // lost_auction/shard_conflict) feed the det telemetry whether or not
  // a DecisionTrace is attached.
  solver_cfg.classify_rejections = true;

  // The solver speaks base edge ids over the residual graph, starts from
  // its epoch-start duals and keeps its engines, shard plan and stamps in
  // the workspace. The engine-differential oracle pins the output
  // byte-identical to a cold per-epoch replay.
  // A fully saturated network (or nothing valid to clear) runs no
  // auction: every valid bid is a solver no_path, which the commit loop
  // refines against the base topology like any other.
  const BoundedUfpResult run = [&] {
    const int num_requests = static_cast<int>(requests.size());
    if (num_requests == 0 || report.active_edges == 0) {
      BoundedUfpResult none{
          .solution = UfpSolution(num_requests),
          .y = {},
          .trace = {},
          .rejections = std::vector<RejectionRecord>(requests.size())};
      for (int r = 0; r < num_requests; ++r) {
        RejectionRecord& rec = none.rejections[static_cast<std::size_t>(r)];
        rec.request = r;
        rec.reason = RejectReason::kNoPath;
      }
      return none;
    }
    TUFP_SPAN("solve");
    return bounded_ufp(*rgraph_, requests, solver_cfg, *workspace_);
  }();
  report.solver_iterations = run.iterations;
  report.sp_computations = run.sp_computations;
  report.sp_tree_runs = run.sp_tree_runs;
  report.dual_upper_bound = run.dual_upper_bound;
  metrics_.counters().solver_iterations += run.iterations;
  metrics_.counters().sp_computations += run.sp_computations;
  metrics_.counters().sp_tree_runs += run.sp_tree_runs;

  std::vector<double> payments(requests.size(), 0.0);
  {
    TUFP_SPAN("payments");
    apply_payments(requests, run, solver_cfg, &payments);
  }

  TUFP_SPAN("commit");
  // run.rejections is ascending by request index, matching this loop:
  // one cursor walks both sequences in lockstep.
  std::size_t rej = 0;
  for (int r = 0; r < static_cast<int>(requests.size()); ++r) {
    if (!run.solution.is_selected(r)) {
      ++metrics_.counters().rejected;
      while (rej < run.rejections.size() && run.rejections[rej].request < r) {
        ++rej;
      }
      if (rej < run.rejections.size() && run.rejections[rej].request == r) {
        const RejectionRecord& rr = run.rejections[rej];
        obs::DecisionOutcome outcome = outcome_of(rr.reason);
        std::int64_t bottleneck = rr.bottleneck;
        if (outcome == obs::DecisionOutcome::kNoPath) {
          // The solver's "no path" only means no route over edges above
          // the residual floor. When the base topology still connects
          // the terminals, the request was really capacity-blocked:
          // saturation cut every route, and the first below-floor edge
          // on the canonical base-BFS route names the cut.
          const Request& req = requests[static_cast<std::size_t>(r)];
          const BaseRouteProbe probe =
              probe_base_route(req.source, req.target);
          if (probe.reachable) {
            outcome = obs::DecisionOutcome::kCapacityBlocked;
            bottleneck = probe.bottleneck;
          }
        }
        switch (outcome) {
          case obs::DecisionOutcome::kNoPath:
            ++report.no_path;
            ++metrics_.counters().no_path;
            break;
          case obs::DecisionOutcome::kCapacityBlocked:
            ++report.capacity_blocked;
            ++metrics_.counters().capacity_blocked;
            break;
          case obs::DecisionOutcome::kShardConflict:
            ++report.shard_conflict;
            ++metrics_.counters().shard_conflict;
            break;
          default:
            ++report.lost_auction;
            ++metrics_.counters().lost_auction;
            break;
        }
        if (trace_ != nullptr) {
          const TimedRequest& timed =
              batch[static_cast<std::size_t>(batch_index[r])];
          obs::DecisionRecord rec;
          rec.sequence = timed.sequence;
          rec.epoch = report.epoch;
          rec.outcome = outcome;
          rec.close_time = close_time;
          rec.value = requests[static_cast<std::size_t>(r)].value;
          rec.demand = requests[static_cast<std::size_t>(r)].demand;
          rec.density = rr.density;
          rec.path.assign(rr.path.begin(), rr.path.end());
          rec.bottleneck_edge = bottleneck;
          trace_->record(rec);
        }
      }
      continue;
    }
    const Path& path = *run.solution.path_of(r);
    const double demand = requests[static_cast<std::size_t>(r)].demand;
    const double bid = requests[static_cast<std::size_t>(r)].value;
    const int bi = batch_index[static_cast<std::size_t>(r)];
    const TimedRequest& timed = batch[static_cast<std::size_t>(bi)];
    // The lease starts at the epoch close (the decision instant), not
    // the arrival: a request cannot hold capacity it was not yet
    // granted. Permanent (kInf) leases are recorded for occupancy but
    // never scheduled.
    const double expires =
        timed.duration < kInf ? close_time + timed.duration : kInf;
    if (trace_ != nullptr) {
      obs::DecisionRecord rec;
      rec.sequence = timed.sequence;
      rec.epoch = report.epoch;
      rec.outcome = obs::DecisionOutcome::kAdmitted;
      rec.close_time = close_time;
      rec.value = bid;
      rec.demand = demand;
      rec.path.assign(path.begin(), path.end());
      rec.payment = payments[static_cast<std::size_t>(r)];
      rec.admitted_at = close_time;
      rec.expires_at = expires;
      trace_->record(rec);
    }
    // The solver already speaks base edge ids: commit the decrement in
    // place (it lists the path's edges as dirty).
    rgraph_->commit_admission(path, demand);
    ledger_->admit(timed.sequence, demand, path, close_time, expires);
    if (timed.duration < kInf) ++metrics_.counters().finite_leases;
    ++metrics_.counters().admitted;
    ++report.admitted;
    report.admitted_value += bid;
    report.revenue += payments[static_cast<std::size_t>(r)];
    if (config_.record_allocations) {
      report.allocations.push_back(
          {timed.sequence, bi, bid, payments[static_cast<std::size_t>(r)],
           static_cast<int>(path.size())});
    }
  }
  metrics_.counters().admitted_value += report.admitted_value;
  metrics_.counters().revenue += report.revenue;
  refresh_lease_gauges();
  report.active_leases = metrics_.active_leases();
  report.occupancy = metrics_.occupancy();

  report.solve_seconds = timer.elapsed_seconds();
  metrics_.solve_seconds().record(report.solve_seconds);
  trace_epoch_ = -1;
  return report;
}

void EpochEngine::apply_payments(std::span<const Request> requests,
                                 const BoundedUfpResult& run,
                                 const BoundedUfpConfig& solver_cfg,
                                 std::vector<double>* payments) {
  switch (config_.payments) {
    case PaymentPolicy::kNone:
      return;
    case PaymentPolicy::kDualPrice: {
      // alpha_r = (d_r/v_r)*|p_r|_y at selection time, recorded in the
      // trace. pay = v * min(1, alpha): the congestion price of the
      // admitted path, capped at the bid for individual rationality.
      for (const IterationRecord& it : run.trace) {
        const double bid = requests[static_cast<std::size_t>(it.request)].value;
        (*payments)[static_cast<std::size_t>(it.request)] =
            bid * std::min(1.0, it.alpha);
      }
      return;
    }
    case PaymentPolicy::kCritical: {
      // One shadowed replay per winner (bounded_ufp_critical_value):
      // the exact critical value, read off the epoch re-run without the
      // winner. Replays start from the epoch-start state the solve saw:
      // the graph's frozen epoch capacities (the solve's overlay is
      // rolled back, and commits only land in the loop after this one).
      // Winners are independent and read only that immutable state, so
      // they fan out through parallel_for on the solver's thread count
      // into per-winner slots — byte-identical for any thread count, read
      // back in arrival order by the allocation loop. Each replay solves
      // on one thread (identical output): parallelism lives at the winner
      // level here, and the solver config may carry more threads, which a
      // replay inside a task would only spend on engine pools a nested
      // region cannot use.
      BoundedUfpConfig replay_cfg = solver_cfg;
      replay_cfg.num_threads = 1;
      std::vector<int> winners;
      for (int r = 0; r < static_cast<int>(requests.size()); ++r) {
        if (run.solution.is_selected(r)) winners.push_back(r);
      }
      parallel_for(winners.size(), solver_cfg.num_threads,
                   [&](std::size_t i, int) {
                     const int r = winners[i];
                     (*payments)[static_cast<std::size_t>(r)] =
                         bounded_ufp_critical_value(*rgraph_, requests, r,
                                                    replay_cfg);
                   });
      return;
    }
  }
}

}  // namespace tufp
