// E10: streaming admission engine throughput.
//
// Drives the epoch-batched engine over grid scenarios at several batch
// sizes and payment policies, reporting end-to-end request throughput,
// per-epoch solve latency and the admission/revenue profile. The load side
// (admitted fraction, revenue) is deterministic; the wall-clock side is
// machine-dependent and what CI tracks over time.
//
// Usage: bench_engine_throughput [--csv] [--json PATH] [--full]
//                                [--scale] [--scale-only]
//                                [--scale-churn] [--scale-churn-only]
//                                [--scale-requests N]
//   --csv   CSV instead of aligned table (first arg, bench_util convention)
//   --json  also write the series as a JSON array (CI artifact)
//   --full  bigger grids / more requests (off by default so the bench
//           stays ctest-speed friendly)
//   --scale           add the serving scale tier: 10^5-vertex worlds
//                     (316x316 grid, 10^5-vertex telecom mesh) clearing
//                     10^6 streamed requests, one `*-persistent` row
//                     each — the committed numbers for the persistent
//                     residual graph (DESIGN.md §12)
//   --scale-only      run only the scale cases (CI splits tiers)
//   --scale-churn     add the NON-saturating churn scale tier: the same
//                     worlds under hub-local traffic (spread source pool,
//                     hop-ball targets) with finite lease durations
//                     (exponential and flash-crowd), so reclaims fire
//                     steadily.
//   --scale-churn-only  run only the churn scale cases (CI splits tiers)
//   --scale-requests  override the scale tiers' streamed request count
//                     (CI runs the full 10^6 tier; the nightly soak
//                     streams 10^7 churn requests)
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/util/parallel.hpp"
#include "tufp/util/stats.hpp"
#include "tufp/util/table.hpp"
#include "tufp/workload/scenarios.hpp"

namespace {

using namespace tufp;

struct BenchCase {
  std::string name;
  int rows;
  int cols;
  double capacity;
  std::int64_t requests;
  int max_batch;
  PaymentPolicy payments;
  int threads = 0;  // solver OpenMP threads (0 = runtime default)
  // Lease churn (DESIGN.md §10). Default kInfinite reproduces the
  // fill-phase benchmark; a finite profile turns the case into a
  // steady-state benchmark: the horizon stretches with the request count
  // while the active lease set stays bounded by capacity x duration.
  DurationConfig durations = {};
  // Scale tier (DESIGN.md §12). `vertices > 0` selects the random
  // telecom topology instead of the grid. The sampler overrides exist
  // for 10^6-request streams:
  // assume_connected skips the per-sample reachability Dijkstra (legal
  // on these strongly connected worlds) and source_pool concentrates
  // sources on a hub set, so one source-shard tree answers many
  // requests per refresh.
  int vertices = 0;
  int edges = 0;
  bool assume_connected = false;
  int source_pool = 0;
  // Churn-tier locality knobs (workload/request_gen.hpp): stride spreads
  // the source pool across the vertex set, radius draws targets from the
  // per-source hop ball — together they keep each hub's traffic and
  // reclaims away from the other hubs' routes.
  int source_stride = 1;
  int target_radius = 0;
};

struct BenchRow {
  BenchCase config;
  std::int64_t admitted = 0;
  double admitted_fraction = 0.0;
  double revenue = 0.0;
  double requests_per_second = 0.0;
  double solve_p50 = 0.0;
  double solve_p99 = 0.0;
  double wall_seconds = 0.0;
  // Epoch-clear throughput: offered requests over wall time spent inside
  // clear_epoch (epoch open + auction + payments), stream generation
  // excluded. The metric the thread-scaling cases compare.
  double solve_seconds_total = 0.0;
  double clear_requests_per_second = 0.0;
  // Steady-state lease telemetry (zero on fill-phase cases). The
  // flatness ratio divides the mean per-epoch reclaim wall time of the
  // run's second half by its first half: amortized-O(1) expiry
  // processing keeps it near 1 however long the horizon grows.
  std::int64_t active_leases_max = 0;
  std::int64_t active_leases_final = 0;
  std::int64_t leases_expired = 0;
  double occupancy_final = 0.0;
  double virtual_horizon = 0.0;
  double reclaim_flat_ratio = 0.0;
  // Per-phase wall time from the span profiler (obs/trace.hpp), total
  // seconds inside each epoch phase across the run. Wall-channel data:
  // recorded in the artifact for trend eyeballing, never exact-gated.
  double span_reclaim_seconds = 0.0;
  double span_snapshot_seconds = 0.0;
  double span_solve_seconds = 0.0;
  double span_payments_seconds = 0.0;
  double span_commit_seconds = 0.0;
};

const char* payment_name(PaymentPolicy p) {
  switch (p) {
    case PaymentPolicy::kNone: return "none";
    case PaymentPolicy::kDualPrice: return "dual";
    case PaymentPolicy::kCritical: return "critical";
  }
  return "?";
}

BenchRow run_case(const BenchCase& c) {
  StreamingScenario scenario =
      c.vertices > 0
          ? make_streaming_random_scenario(c.vertices, c.edges, c.capacity,
                                           ValueModel::kUniform, /*seed=*/7)
          : make_streaming_grid_scenario(c.rows, c.cols, c.capacity,
                                         ValueModel::kUniform);
  scenario.request_config.assume_connected = c.assume_connected;
  scenario.request_config.source_pool = c.source_pool;
  scenario.request_config.source_stride = c.source_stride;
  scenario.request_config.target_radius = c.target_radius;
  EpochEngineConfig config;
  config.max_batch = c.max_batch;
  config.payments = c.payments;
  config.solver.num_threads = c.threads;
  EpochEngine engine(scenario.graph, config);

  PoissonStream stream(scenario.graph, scenario.request_config,
                       /*rate=*/10000.0, c.requests, /*seed=*/1,
                       c.durations);

  std::int64_t active_max = 0;
  double last_close = 0.0;
  std::vector<double> reclaim_per_epoch;
  obs::SpanProfiler profiler;
  obs::SpanProfiler* previous = obs::install_span_profiler(&profiler);
  const EngineSummary summary =
      engine.run(stream, [&](const AdmissionReport& r) {
        active_max = std::max(active_max, r.active_leases);
        last_close = std::max(last_close, r.close_time);
        reclaim_per_epoch.push_back(r.reclaim_seconds);
      });
  obs::install_span_profiler(previous);

  BenchRow row;
  row.config = c;
  row.admitted = summary.counters.admitted;
  row.admitted_fraction = summary.admitted_fraction;
  row.revenue = summary.counters.revenue;
  row.requests_per_second = summary.requests_per_second;
  row.solve_p50 = engine.metrics().solve_seconds().percentile(0.5);
  row.solve_p99 = engine.metrics().solve_seconds().percentile(0.99);
  row.wall_seconds = summary.wall_seconds;
  const auto& solve = engine.metrics().solve_seconds().stats();
  row.solve_seconds_total = solve.mean() * static_cast<double>(solve.count());
  row.clear_requests_per_second =
      row.solve_seconds_total > 0.0
          ? static_cast<double>(summary.counters.requests_seen) /
                row.solve_seconds_total
          : 0.0;
  row.active_leases_max = active_max;
  row.active_leases_final = summary.active_leases;
  row.leases_expired = summary.counters.leases_expired;
  row.occupancy_final = summary.occupancy;
  row.virtual_horizon = last_close;
  // Second-half vs first-half mean per-epoch reclaim wall time: flat
  // (~1x) means expiry processing did not grow with the horizon.
  const std::size_t half = reclaim_per_epoch.size() / 2;
  if (half > 0) {
    double first = 0.0, second = 0.0;
    for (std::size_t i = 0; i < half; ++i) first += reclaim_per_epoch[i];
    for (std::size_t i = half; i < reclaim_per_epoch.size(); ++i) {
      second += reclaim_per_epoch[i];
    }
    first /= static_cast<double>(half);
    second /= static_cast<double>(reclaim_per_epoch.size() - half);
    row.reclaim_flat_ratio = first > 0.0 ? second / first : 0.0;
  }
  row.span_reclaim_seconds = profiler.phase_seconds("reclaim");
  row.span_snapshot_seconds = profiler.phase_seconds("snapshot");
  row.span_solve_seconds = profiler.phase_seconds("solve");
  row.span_payments_seconds = profiler.phase_seconds("payments");
  row.span_commit_seconds = profiler.phase_seconds("commit");
  return row;
}

void write_json(const std::vector<BenchRow>& rows, const std::string& path) {
  std::ofstream os(path);
  os << "[\n";
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const BenchRow& r = rows[i];
    os << "  {\"case\": \"" << r.config.name << "\""
       << ", \"rows\": " << r.config.rows << ", \"cols\": " << r.config.cols
       << ", \"capacity\": " << r.config.capacity
       << ", \"requests\": " << r.config.requests
       << ", \"max_batch\": " << r.config.max_batch << ", \"payments\": \""
       << payment_name(r.config.payments) << "\""
       << ", \"threads\": " << r.config.threads
       << ", \"vertices\": " << r.config.vertices
       << ", \"edges\": " << r.config.edges
       << ", \"source_pool\": " << r.config.source_pool
       << ", \"source_stride\": " << r.config.source_stride
       << ", \"target_radius\": " << r.config.target_radius
       << ", \"openmp\": " << (openmp_available() ? "true" : "false")
       << ", \"admitted\": " << r.admitted
       << ", \"admitted_fraction\": " << r.admitted_fraction
       << ", \"revenue\": " << r.revenue
       << ", \"requests_per_second\": " << r.requests_per_second
       << ", \"solve_p50_seconds\": " << r.solve_p50
       << ", \"solve_p99_seconds\": " << r.solve_p99
       << ", \"solve_seconds_total\": " << r.solve_seconds_total
       << ", \"clear_requests_per_second\": " << r.clear_requests_per_second
       << ", \"duration_profile\": \""
       << duration_profile_name(r.config.durations.profile) << "\""
       << ", \"active_leases_max\": " << r.active_leases_max
       << ", \"active_leases_final\": " << r.active_leases_final
       << ", \"leases_expired\": " << r.leases_expired
       << ", \"occupancy_final\": " << r.occupancy_final
       << ", \"virtual_horizon\": " << r.virtual_horizon
       << ", \"reclaim_flat_ratio\": " << r.reclaim_flat_ratio
       << ", \"span_reclaim_seconds\": " << r.span_reclaim_seconds
       << ", \"span_snapshot_seconds\": " << r.span_snapshot_seconds
       << ", \"span_solve_seconds\": " << r.span_solve_seconds
       << ", \"span_payments_seconds\": " << r.span_payments_seconds
       << ", \"span_commit_seconds\": " << r.span_commit_seconds
       << ", \"wall_seconds\": " << r.wall_seconds << "}"
       << (i + 1 < rows.size() ? "," : "") << "\n";
  }
  os << "]\n";
}

}  // namespace

int main(int argc, char** argv) {
  const bool csv = tufp::bench::csv_mode(argc, argv);
  std::string json_path;
  bool full = false;
  bool scale = false;
  bool scale_only = false;
  bool scale_churn = false;
  bool scale_churn_only = false;
  std::int64_t scale_requests = 1'000'000;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--json" && i + 1 < argc) json_path = argv[++i];
    if (a == "--full") full = true;
    if (a == "--scale") scale = true;
    if (a == "--scale-only") scale = scale_only = true;
    if (a == "--scale-churn") scale_churn = true;
    if (a == "--scale-churn-only") scale_churn = scale_churn_only = true;
    if (a == "--scale-requests" && i + 1 < argc) {
      scale_requests = std::stoll(argv[++i]);
    }
  }

  std::vector<BenchCase> cases = {
      {"grid8-none", 8, 8, 20.0, 4000, 500, PaymentPolicy::kNone},
      {"grid8-dual", 8, 8, 20.0, 4000, 500, PaymentPolicy::kDualPrice},
      {"grid12-dual", 12, 12, 30.0, 8000, 1000, PaymentPolicy::kDualPrice},
      {"grid8-critical", 8, 8, 8.0, 400, 100, PaymentPolicy::kCritical},
      // Thread-scaling pair on the default grid scenario: identical load
      // (the engine is thread-count deterministic), only epoch-clear wall
      // time may differ. CI records clear_requests_per_second for both.
      {"grid12-dual-t1", 12, 12, 30.0, 8000, 1000, PaymentPolicy::kDualPrice,
       1},
      {"grid12-dual-t4", 12, 12, 30.0, 8000, 1000, PaymentPolicy::kDualPrice,
       4},
  };
  {
    // Steady-state pair (DESIGN.md §10): the grid8 fill case runs 4000
    // requests and saturates — a transient. These run a 10x longer
    // virtual horizon (40000 requests at the same offered rate) under
    // exponential lease churn, so the network never fills: the active
    // lease set stays bounded by capacity x duration while admissions
    // keep flowing — the sustained-load regime a production admission
    // system actually lives in. reclaim_flat_ratio near 1 in the JSON is
    // the measured amortized-O(1) expiry claim; the t1/t4 pair doubles
    // as the steady-state thread-determinism fixture.
    DurationConfig churn;
    churn.profile = DurationProfile::kExponential;
    churn.mean = 0.2;
    cases.push_back({"grid8-lease-exp-t1", 8, 8, 16.0, 40000, 500,
                     PaymentPolicy::kDualPrice, 1, churn});
    cases.push_back({"grid8-lease-exp-t4", 8, 8, 16.0, 40000, 500,
                     PaymentPolicy::kDualPrice, 4, churn});
  }
  if (full) {
    cases.push_back({"grid16-dual", 16, 16, 50.0, 40000, 4000,
                     PaymentPolicy::kDualPrice});
    cases.push_back({"grid24-dual", 24, 24, 100.0, 100000, 10000,
                     PaymentPolicy::kDualPrice});
  }
  if (scale_only || scale_churn_only) cases.clear();
  if (scale) {
    // Serving scale tier (DESIGN.md §12): 10^5-vertex worlds clearing a
    // 10^6-request stream. The workload is a hub overload: 8 hub sources
    // whose adjacent edges saturate within the first epochs, after which
    // every epoch still pays its full epoch-open cost, an O(m) in-place
    // rescan of the persistent residual graph. The `-persistent` suffix
    // names the rows the committed bench/baseline_engine.json gates.
    BenchCase grid;
    grid.name = "scale-grid316-persistent";
    grid.rows = 316;  // 316 x 316 = 99856 vertices
    grid.cols = 316;
    grid.capacity = 8.0;
    grid.requests = scale_requests;
    grid.max_batch = 50;
    grid.payments = PaymentPolicy::kNone;
    grid.assume_connected = true;  // undirected mesh: always connected
    grid.source_pool = 8;
    cases.push_back(grid);
    BenchCase telecom;
    telecom.name = "scale-telecom100k-persistent";
    telecom.rows = 0;
    telecom.cols = 0;
    telecom.vertices = 100'000;
    telecom.edges = 300'000;  // mutual spanning tree + random extras
    telecom.capacity = 8.0;
    telecom.requests = scale_requests;
    telecom.max_batch = 50;
    telecom.payments = PaymentPolicy::kNone;
    telecom.assume_connected = true;  // generator trees are mutual
    telecom.source_pool = 8;
    cases.push_back(telecom);
  }
  if (scale_churn) {
    // Non-saturating churn scale tier: the same 10^5-vertex worlds under
    // hub-local traffic — 32 sources spread across the vertex set
    // (stride) with targets drawn from each hub's hop ball — and finite
    // lease durations, exponential and flash-crowd. The network never
    // saturates: reclaims return capacity as fast as admissions take it,
    // so every epoch both reclaims AND admits. The hub regions run
    // at steady mid-band load (occupancy_final in the JSON tracks the
    // global gauge, which reads low because the load is local by design).
    DurationConfig exp_churn;
    exp_churn.profile = DurationProfile::kExponential;
    // Steady-state per-hub demand = rate x mean x admit x d_mean / pool
    // ~ 0.25 * 10^4 * 0.6 / 32 ~ 47: inside the weakest hub cut of both
    // worlds (see the capacity comments below).
    exp_churn.mean = 0.25;
    DurationConfig flash_churn;
    flash_churn.profile = DurationProfile::kFlashCrowd;
    // Window short enough that one window's pile-up (rate x period
    // admissions spread over the hubs) stays inside every hub cut —
    // repeated synchronized release waves, not a saturating pile.
    flash_churn.mean = 0.1;
    flash_churn.period = 0.1;
    const auto churn_case = [&](const char* name, const DurationConfig& d,
                                bool telecom_world) {
      BenchCase c;
      c.name = name;
      c.payments = PaymentPolicy::kNone;
      c.requests = scale_requests;
      c.max_batch = 50;
      c.durations = d;
      c.source_pool = 32;
      c.source_stride = 3100;  // spreads 32 hubs over ~10^5 vertices
      // Capacities sized so a hub's cut never saturates under the steady
      // active-lease demand (rate x mean duration / pool): a saturated
      // hub edge makes ball targets unreachable under the blocked mask
      // and turns the early-terminating local Dijkstra into a full-graph
      // exhaustion — the saturating regime the OTHER scale tier measures.
      if (telecom_world) {
        c.rows = 0;
        c.cols = 0;
        c.vertices = 100'000;
        c.edges = 300'000;
        c.capacity = 64.0;  // random mesh: hub out-degree can be 1
        // Expander-like: radius grows the ball geometrically, so a small
        // hop budget already gives hundreds of local targets while the
        // trees stay small enough to dodge remote reclaims.
        c.target_radius = 3;
      } else {
        c.rows = 316;
        c.cols = 316;
        c.capacity = 16.0;  // grid hub cut is 4 edges
        c.target_radius = 8;  // mesh: ~2 r^2 vertices per hub ball
      }
      cases.push_back(c);
    };
    churn_case("scale-churn-grid316-exp-persistent", exp_churn, false);
    churn_case("scale-churn-grid316-flash-persistent", flash_churn, false);
    churn_case("scale-churn-telecom100k-exp-persistent", exp_churn, true);
    churn_case("scale-churn-telecom100k-flash-persistent", flash_churn,
               true);
  }

  if (!openmp_available()) {
    // The thread-scaling rows are meaningless when thread requests are
    // silently serialized; say so loudly and record it in the JSON.
    std::cerr << "warning: built without OpenMP — threads>0 cases run "
                 "serial, thread-scaling rows measure nothing\n";
  }
  if (!csv) {
    tufp::bench::print_header(
        "E10", "streaming admission engine throughput",
        "serving-layer extension of Alg. 1 (no paper counterpart): "
        "epoch-batched online auctions over the residual network");
  }

  Table table({"case", "requests", "batch", "payments", "threads", "admitted",
               "admitted_frac", "revenue", "req_per_sec", "clear_rps",
               "leases_max", "occup", "reclaim_flat", "solve_p50_s",
               "solve_p99_s", "wall_s"});
  table.set_precision(4);
  std::vector<BenchRow> rows;
  for (const BenchCase& c : cases) {
    const BenchRow r = run_case(c);
    rows.push_back(r);
    table.row()
        .cell(r.config.name)
        .cell(static_cast<long long>(r.config.requests))
        .cell(r.config.max_batch)
        .cell(payment_name(r.config.payments))
        .cell(r.config.threads)
        .cell(static_cast<long long>(r.admitted))
        .cell(r.admitted_fraction)
        .cell(r.revenue)
        .cell(r.requests_per_second)
        .cell(r.clear_requests_per_second)
        .cell(static_cast<long long>(r.active_leases_max))
        .cell(r.occupancy_final)
        .cell(r.reclaim_flat_ratio)
        .cell(r.solve_p50)
        .cell(r.solve_p99)
        .cell(r.wall_seconds);
  }
  tufp::bench::emit(table, csv);

  if (!json_path.empty()) {
    write_json(rows, json_path);
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}
