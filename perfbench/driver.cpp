// perfbench_driver — in-process workloads of the repository benchmark.
//
// Drives the admission engine only through its public entry points
// (PoissonStream::next, EpochEngine::reclaim_expired,
// EpochEngine::run_epoch(batch, close_time), obs::EpochTelemetry::on_epoch,
// obs::run_sanity_checks). After an untimed fill that brings the lease
// population to its steady state, it is an open-loop client: each request
// is due on the wall clock at a fixed offered rate (OpenLoop below), and
// its latency runs from that due time to the return of the run_epoch call
// that decided it. Batches are count-triggered (max_batch consecutive
// requests, closed at the last one's virtual arrival), so every decision
// is a pure function of the seed; only the timing varies between runs.
//
// Usage:
//   perfbench_driver --workload contended-critical|hub-churn --seed N
//                    --seconds S --trace 0|1
//   perfbench_driver --self-test
//
// Prints one JSON object on stdout: correctness verdict, the end-to-end
// metrics of an untraced run and, with --trace 1, the per-layer metrics of
// a second, traced run over the identical stream (span profiler installed
// through obs::install_span_profiler, each public call timed here).
// perfbench/run.py turns it into the benchmark's result line.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <ctime>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/graph/generators.hpp"
#include "tufp/obs/sanity.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/util/json.hpp"

namespace {

using namespace tufp;
using Clock = std::chrono::steady_clock;

double now_seconds() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// Nearest-rank percentile (q in (0, 1]) of an unsorted sample; 0 when empty.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto n = static_cast<double>(values.size());
  const auto rank = static_cast<std::size_t>(std::max(1.0, std::ceil(q * n)));
  return values[std::min(rank, values.size()) - 1];
}

// Latency percentile robust to a rare host stall: the sample (in request
// order) is cut into up to 10 consecutive windows of at least 1000
// requests, and the median of the windows' percentiles is reported. A
// sample too small for two windows is taken whole.
double windowed_percentile(const std::vector<double>& values, double q) {
  const std::size_t windows =
      std::clamp<std::size_t>(values.size() / 1000, 1, 10);
  std::vector<double> per_window;
  for (std::size_t k = 0; k < windows; ++k) {
    const auto lo = values.begin() + static_cast<std::ptrdiff_t>(
                                         values.size() * k / windows);
    const auto hi = values.begin() + static_cast<std::ptrdiff_t>(
                                         values.size() * (k + 1) / windows);
    per_window.push_back(percentile(std::vector<double>(lo, hi), q));
  }
  return percentile(per_window, 0.5);
}

// Wall-clock schedule of the open-loop generator: a request arriving at
// virtual time t is due at start + (t - origin) * stretch, where stretch =
// stream rate (virtual req/s) / offered rate (wall req/s).
struct OpenLoop {
  double start = 0.0;
  double origin = 0.0;  // virtual time that maps to `start`
  double stretch = 1.0;

  double due(double arrival) const {
    return start + (arrival - origin) * stretch;
  }
};

// Appends, for every request of one decided batch, the wall seconds from
// its due time to `returned` (when run_epoch handed back the decision).
void account_batch(const OpenLoop& loop, const std::vector<TimedRequest>& batch,
                   double returned, std::vector<double>* latencies) {
  for (const TimedRequest& t : batch) {
    latencies->push_back(returned - loop.due(t.arrival_time));
  }
}

// Workload table. stream_rate and duration_mean fix the contention physics
// on the virtual clock; offered_rps fixes the wall-clock load, set well
// under each workload's throughput so the open loop has no growing backlog.
struct Workload {
  std::string name;
  int rows = 0;
  int cols = 0;
  double capacity = 0.0;
  int source_pool = 0;     // 0: sources anywhere
  int source_stride = 1;
  int target_radius = 0;   // 0: targets anywhere
  double stream_rate = 0.0;
  double duration_mean = 0.0;
  PaymentPolicy payments = PaymentPolicy::kDualPrice;
  int max_batch = 0;
  int threads = 1;
  double offered_rps = 0.0;
  double fill_lifetimes = 1.0;
};

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> table = [] {
    std::vector<Workload> w;
    // Headline tier: the auction binds and the paper's critical payments
    // are on; payments dominate the epoch wall time.
    Workload cc;
    cc.name = "contended-critical";
    cc.rows = 12;
    cc.cols = 12;
    cc.capacity = 8.0;
    cc.stream_rate = 9000.0;
    cc.duration_mean = 0.08;
    cc.payments = PaymentPolicy::kCritical;
    cc.max_batch = 32;
    cc.threads = 2;
    cc.offered_rps = 100.0;
    w.push_back(cc);
    // Large sparse-write world: 32 hubs spread by stride over a 316x316
    // mesh, hop-ball targets, churning leases. Stresses open_epoch, the
    // lease reclaim path and the warm-tree cache; payments are cheap.
    Workload hc;
    hc.name = "hub-churn";
    hc.rows = 316;
    hc.cols = 316;
    hc.capacity = 6.0;
    hc.source_pool = 32;
    hc.source_stride = 3100;
    hc.target_radius = 8;
    hc.stream_rate = 10000.0;
    hc.duration_mean = 0.25;
    hc.payments = PaymentPolicy::kDualPrice;
    hc.max_batch = 50;
    hc.threads = 1;
    hc.offered_rps = 5000.0;
    hc.fill_lifetimes = 2.0;
    w.push_back(hc);
    return w;
  }();
  return table;
}

// Everything the benchmark builds before timing starts: world, engine and
// the pre-drawn request stream.
struct Setup {
  std::shared_ptr<const Graph> graph;
  std::unique_ptr<EpochEngine> engine;
  std::vector<TimedRequest> requests;
  std::size_t fill = 0;  // leading requests run untimed (batch-aligned)
};

Setup make_setup(const Workload& w, std::uint64_t seed, std::int64_t measured) {
  Setup s;
  // Enough requests to run the lease population through `fill_lifetimes`
  // mean lease durations before timing starts.
  const auto batches = static_cast<std::int64_t>(std::ceil(
      w.stream_rate * w.duration_mean * w.fill_lifetimes / w.max_batch));
  s.fill = static_cast<std::size_t>(batches * w.max_batch);
  const std::int64_t count = static_cast<std::int64_t>(s.fill) + measured;
  s.graph = std::make_shared<const Graph>(
      grid_graph(w.rows, w.cols, w.capacity, /*directed=*/false));
  EpochEngineConfig config;
  config.max_batch = w.max_batch;
  config.payments = w.payments;
  config.solver.num_threads = w.threads;
  s.engine = std::make_unique<EpochEngine>(s.graph, config);

  RequestGenConfig gen;
  gen.source_pool = w.source_pool;
  gen.source_stride = w.source_stride;
  gen.target_radius = w.target_radius;
  DurationConfig durations;
  durations.profile = DurationProfile::kExponential;
  durations.mean = w.duration_mean;
  PoissonStream stream(s.graph, gen, w.stream_rate, count, seed, durations);
  s.requests.reserve(static_cast<std::size_t>(count));
  TimedRequest t;
  while (stream.next(&t)) s.requests.push_back(t);
  return s;
}

// In-memory telemetry sink: FNV-1a digest of the det channel, the
// byte-identity witness between the untraced and traced runs.
class DigestSink final : public obs::TelemetrySink {
 public:
  void emit(obs::Channel channel, std::string_view line) override {
    if (channel != obs::Channel::kDeterministic) return;
    for (const char c : line) {
      digest_ = (digest_ ^ static_cast<unsigned char>(c)) * 1099511628211ULL;
    }
    digest_ = (digest_ ^ '\n') * 1099511628211ULL;
  }
  std::uint64_t digest() const { return digest_; }

 private:
  std::uint64_t digest_ = 14695981039346656037ULL;
};

struct RunResult {
  // Deterministic outcome of the whole stream, fill included.
  std::int64_t offered = 0;
  std::int64_t decided = 0;  // admitted + every reject class + invalid
  EngineCounters counters;
  std::uint64_t det_digest = 0;
  std::vector<std::string> errors;
  // Measured segment only.
  std::int64_t measured = 0;
  std::int64_t admitted = 0;
  double offered_value = 0.0;
  double admitted_value = 0.0;
  double revenue = 0.0;
  double occupancy_sum = 0.0;
  std::int64_t epochs = 0;
  std::int64_t sp_computations = 0;
  std::int64_t sp_tree_runs = 0;
  std::int64_t iterations = 0;
  std::int64_t trees_kept = 0;
  std::int64_t trees_dropped = 0;
  std::int64_t leases_expired = 0;
  // Wall clock.
  double busy_seconds = 0.0;
  double reclaim_seconds = 0.0;
  double run_epoch_seconds = 0.0;
  double telemetry_seconds = 0.0;
  double cpu_seconds = 0.0;
  std::vector<double> latencies;      // per request, seconds
  std::vector<double> epoch_seconds;  // per run_epoch call
  std::vector<double> lateness;       // per generator wake-up, seconds
  // Span totals, seconds (traced run only).
  struct Spans {
    double payments = 0.0;
    double snapshot = 0.0;
    double commit = 0.0;
    double validate = 0.0;
    double solve_self = 0.0;  // solve minus its sp_refresh children
    double sp_refresh = 0.0;  // under solve only
  } spans;
};

// Reads the per-layer span totals off the profiler. Self times come from
// the collapsed stacks; sp_refresh counts only under the epoch's solve
// (critical payments re-solve on the driver thread too).
RunResult::Spans span_totals(const obs::SpanProfiler& profiler) {
  RunResult::Spans out;
  out.payments = profiler.phase_seconds("payments");
  out.snapshot = profiler.phase_seconds("snapshot");
  out.commit = profiler.phase_seconds("commit");
  out.validate = profiler.phase_seconds("validate");
  std::istringstream stacks(profiler.collapsed_stacks());
  std::string line;
  while (std::getline(stacks, line)) {
    const auto space = line.rfind(' ');
    if (space == std::string::npos) continue;
    const std::string stack = line.substr(0, space);
    const double seconds = std::stod(line.substr(space + 1)) * 1e-6;
    const auto ends_with = [&](std::string_view suffix) {
      return stack.size() >= suffix.size() &&
             stack.compare(stack.size() - suffix.size(), suffix.size(),
                           suffix) == 0;
    };
    if (ends_with(";solve")) out.solve_self += seconds;
    if (ends_with(";solve;sp_refresh")) out.sp_refresh += seconds;
  }
  return out;
}

// Feeds `setup`'s stream through the engine. The first `setup.fill`
// requests run back to back and untimed: they bring the lease population
// to its steady state and warm caches, allocator and CPU clocks. The rest
// run as the paced open loop every timing and e2e metric is taken from.
RunResult drive(Setup& setup, const Workload& w, bool traced) {
  RunResult r;
  EpochEngine& engine = *setup.engine;
  DigestSink sink;
  obs::EpochTelemetry telemetry(&sink);
  obs::SpanProfiler profiler;
  obs::SpanProfiler* previous = nullptr;

  const std::vector<TimedRequest>& all = setup.requests;
  const auto per_batch = static_cast<std::size_t>(w.max_batch);
  r.latencies.reserve(all.size() - setup.fill);
  OpenLoop loop;
  EngineCounters at_fill;
  double cpu_start = 0.0;
  std::vector<TimedRequest> batch;
  batch.reserve(per_batch);
  for (std::size_t begin = 0; begin < all.size(); begin += per_batch) {
    const bool measured = begin >= setup.fill;
    if (begin == setup.fill) {
      at_fill = engine.metrics().counters();
      loop.origin = begin > 0 ? all[begin - 1].arrival_time : 0.0;
      loop.stretch = w.stream_rate / w.offered_rps;
      loop.start = now_seconds() + 0.01;
      cpu_start = process_cpu_seconds();
      if (traced) previous = obs::install_span_profiler(&profiler);
    }
    const std::size_t end = std::min(all.size(), begin + per_batch);
    batch.assign(all.begin() + static_cast<std::ptrdiff_t>(begin),
                 all.begin() + static_cast<std::ptrdiff_t>(end));
    const double close = batch.back().arrival_time;
    if (measured) {
      const double due = loop.due(close);
      if (now_seconds() < due) {
        std::this_thread::sleep_until(
            Clock::time_point(std::chrono::duration_cast<Clock::duration>(
                std::chrono::duration<double>(due))));
        r.lateness.push_back(std::max(0.0, now_seconds() - due));
      }
    }
    const double t0 = now_seconds();
    engine.reclaim_expired(close);
    const double t1 = now_seconds();
    const AdmissionReport report = engine.run_epoch(batch, close);
    const double t2 = now_seconds();
    telemetry.on_epoch(report, engine.metrics());
    const double t3 = now_seconds();

    r.offered += report.batch_size;
    r.decided += report.admitted + report.no_path + report.capacity_blocked +
                 report.lost_auction + report.shard_conflict +
                 report.invalid_rejected;
    if (report.revenue > report.admitted_value * (1.0 + 1e-9) + 1e-9) {
      r.errors.push_back("epoch " + std::to_string(report.epoch) +
                         ": revenue exceeds admitted value");
    }
    if (!measured) continue;
    r.reclaim_seconds += t1 - t0;
    r.run_epoch_seconds += t2 - t1;
    r.busy_seconds += t2 - t0;
    r.telemetry_seconds += t3 - t2;
    r.epoch_seconds.push_back(t2 - t1);
    account_batch(loop, batch, t2, &r.latencies);
    r.measured += report.batch_size;
    r.admitted += report.admitted;
    r.offered_value += report.offered_value;
    r.admitted_value += report.admitted_value;
    r.revenue += report.revenue;
    r.occupancy_sum += report.occupancy;
    ++r.epochs;
  }
  r.cpu_seconds = process_cpu_seconds() - cpu_start;
  if (traced) {
    obs::install_span_profiler(previous);
    r.spans = span_totals(profiler);
  }
  telemetry.finish(engine.metrics(), engine.metrics().active_leases(),
                   engine.metrics().occupancy(), 0.0, 0.0);
  r.det_digest = sink.digest();
  const EngineCounters& c = engine.metrics().counters();
  r.counters = c;
  r.sp_computations = c.sp_computations - at_fill.sp_computations;
  r.sp_tree_runs = c.sp_tree_runs - at_fill.sp_tree_runs;
  r.iterations = c.solver_iterations - at_fill.solver_iterations;
  r.trees_kept = c.trees_kept_on_reclaim - at_fill.trees_kept_on_reclaim;
  r.trees_dropped =
      c.trees_dropped_on_reclaim - at_fill.trees_dropped_on_reclaim;
  r.leases_expired = c.leases_expired - at_fill.leases_expired;

  // Correctness gate: live invariants, then exact decision accounting.
  for (const obs::SanityViolation& v : obs::run_sanity_checks(engine)) {
    r.errors.push_back("sanity " + v.check + ": " + v.detail);
  }
  if (r.decided != r.offered) {
    r.errors.push_back("decisions " + std::to_string(r.decided) +
                       " != offered " + std::to_string(r.offered));
  }
  if (c.admitted + c.rejected + c.invalid_rejected != r.offered ||
      c.no_path + c.capacity_blocked + c.lost_auction + c.shard_conflict !=
          c.rejected) {
    r.errors.push_back("engine counters do not partition the offered load");
  }
  return r;
}

struct Timed {
  double seconds;
  Setup setup;
};

Timed timed_setup(const Workload& w, std::uint64_t seed, std::int64_t count) {
  const double t0 = now_seconds();
  Setup s = make_setup(w, seed, count);
  return {now_seconds() - t0, std::move(s)};
}

std::string det_summary(const RunResult& r) {
  const EngineCounters& c = r.counters;
  std::ostringstream os;
  os << "digest=" << r.det_digest << " admitted=" << c.admitted
     << " rejected=" << c.rejected << " sp=" << c.sp_computations
     << " trees=" << c.sp_tree_runs << " it=" << c.solver_iterations;
  return os.str();
}

int run(const Workload& w, std::uint64_t seed, double seconds, bool trace) {
  const auto count =
      static_cast<std::int64_t>(std::llround(w.offered_rps * seconds));
  // Set-up is timed repeatedly (at least 7 times, and until 1 s or 40
  // times); the median is the reported figure.
  std::vector<double> setup_times;
  double setup_total = 0.0;
  while (setup_times.size() < 7 ||
         (setup_total < 1.0 && setup_times.size() < 40)) {
    setup_times.push_back(timed_setup(w, seed, count).seconds);
    setup_total += setup_times.back();
  }
  Timed main = timed_setup(w, seed, count);
  setup_times.push_back(main.seconds);
  RunResult base = drive(main.setup, w, /*traced=*/false);
  main.setup = Setup{};
  RunResult traced;
  if (trace) {
    Timed second = timed_setup(w, seed, count);
    traced = drive(second.setup, w, /*traced=*/true);
    if (det_summary(traced) != det_summary(base)) {
      base.errors.push_back("traced run diverged: " + det_summary(traced) +
                            " vs " + det_summary(base));
    }
  }

  std::vector<std::string> errors = base.errors;
  errors.insert(errors.end(), traced.errors.begin(), traced.errors.end());
  const double n = static_cast<double>(base.measured);

  JsonObject e2e;
  e2e.field("setup_s", percentile(setup_times, 0.5))
      .field("decide_rps", n / base.busy_seconds)
      .field("decision_p50_ms",
             1e3 * windowed_percentile(base.latencies, 0.5))
      .field("decision_p99_ms",
             1e3 * windowed_percentile(base.latencies, 0.99))
      .field("admitted_fraction", static_cast<double>(base.admitted) / n)
      .field("value_share", base.admitted_value / base.offered_value)
      .field("peak_rss_mb", peak_rss_mb());

  JsonObject out;
  out.field("workload", w.name)
      .field("ok", errors.empty())
      .field("attempted", base.offered)
      .field("failed", std::abs(base.offered - base.decided) +
                           static_cast<std::int64_t>(errors.size()))
      .raw("e2e", e2e.str());
  std::ostringstream err_list;
  err_list << '[';
  for (std::size_t i = 0; i < errors.size(); ++i) {
    JsonObject e;
    e.field("error", errors[i]);
    err_list << (i ? "," : "") << e.str();
  }
  err_list << ']';
  out.raw("errors", err_list.str());

  if (trace) {
    const RunResult& t = traced;
    JsonObject layers;
    layers.field("mechanism.payments_s", t.spans.payments)
        .field("mechanism.revenue_share",
               t.admitted_value > 0.0 ? t.revenue / t.admitted_value : 0.0)
        .field("graph.open_epoch_s", t.spans.snapshot)
        .field("ufp.solve_s", t.spans.solve_self)
        .field("ufp.sp_refresh_s", t.spans.sp_refresh)
        .field("ufp.sp_computations", t.sp_computations)
        .field("ufp.sp_tree_runs", t.sp_tree_runs)
        .field("ufp.tree_miss_ratio",
               t.sp_computations > 0
                   ? static_cast<double>(t.sp_tree_runs) /
                         static_cast<double>(t.sp_computations)
                   : 0.0)
        .field("ufp.trees_kept_on_reclaim", t.trees_kept)
        .field("ufp.trees_dropped_on_reclaim", t.trees_dropped)
        .field("ufp.iterations", t.iterations)
        .field("temporal.reclaim_s", t.reclaim_seconds)
        .field("temporal.leases_expired", t.leases_expired)
        .field("engine.clear_s", t.run_epoch_seconds)
        .field("engine.epoch_p50_ms", 1e3 * percentile(t.epoch_seconds, 0.5))
        .field("engine.epoch_p99_ms", 1e3 * percentile(t.epoch_seconds, 0.99))
        .field("engine.commit_s", t.spans.commit)
        .field("engine.validate_s", t.spans.validate)
        .field("parallel.cpu_per_wall", t.cpu_seconds / t.busy_seconds)
        .field("obs.telemetry_s", t.telemetry_seconds)
        .field("obs.span_overhead", t.busy_seconds / base.busy_seconds - 1.0)
        .field("driver.late_p99_ms", 1e3 * percentile(base.lateness, 0.99));
    out.raw("layers", layers.str());
  }

  JsonObject diag;
  diag.field("epochs", base.epochs)
      .field("mean_occupancy", base.occupancy_sum /
                                   static_cast<double>(std::max<std::int64_t>(
                                       1, base.epochs)))
      .field("busy_s", base.busy_seconds)
      .field("fill", static_cast<std::int64_t>(base.offered - base.measured))
      .field("latency_samples",
             static_cast<std::int64_t>(base.latencies.size()))
      .field("det", det_summary(base));
  out.raw("diag", diag.str());
  std::cout << out.str() << std::endl;
  return errors.empty() ? 0 : 1;
}

// Self-tests of the helpers the metrics rest on.
int self_test() {
  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::cerr << "self-test FAILED: " << what << "\n";
      ++failures;
    }
  };
  std::vector<double> hundred;
  for (int i = 100; i >= 1; --i) hundred.push_back(i);
  check(percentile(hundred, 0.5) == 50.0, "p50 of 1..100 is 50");
  check(percentile(hundred, 0.99) == 99.0, "p99 of 1..100 is 99");
  check(percentile(hundred, 1.0) == 100.0, "p100 of 1..100 is 100");
  check(percentile({7.0}, 0.99) == 7.0, "percentile of one sample");
  check(percentile({}, 0.5) == 0.0, "percentile of no samples");
  check(percentile({3.0, 1.0, 2.0}, 0.5) == 2.0, "unsorted input");
  check(windowed_percentile(hundred, 0.99) == 99.0,
        "under 2000 samples the window is the whole sample");
  std::vector<double> stalled(10000, 1.0);
  for (int i = 0; i < 500; ++i) stalled[2000 + i] = 100.0;  // one stall
  check(percentile(stalled, 0.99) == 100.0 &&
            windowed_percentile(stalled, 0.99) == 1.0,
        "one stalled window does not set the reported p99");

  const OpenLoop loop{10.0, 0.5, 2.0};
  check(loop.due(0.5) == 10.0 && loop.due(2.0) == 13.0,
        "due = start + (t - origin) * stretch");
  std::vector<TimedRequest> batch(2);
  batch[0].arrival_time = 1.0;
  batch[1].arrival_time = 1.5;
  std::vector<double> lat;
  account_batch(loop, batch, 13.0, &lat);
  check(lat.size() == 2 && lat[0] == 2.0 && lat[1] == 1.0,
        "latency runs from each request's own due time");
  account_batch(loop, batch, 12.5, &lat);
  check(lat.size() == 4 && lat[3] == 0.5, "latencies accumulate per batch");
  std::cout << (failures == 0 ? "driver self-test ok" : "driver self-test FAILED")
            << std::endl;
  return failures == 0 ? 0 : 1;
}

[[noreturn]] void usage() {
  std::cerr << "usage: perfbench_driver --workload NAME --seed N --seconds S "
               "--trace 0|1\n       perfbench_driver --self-test\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (a == "--self-test") return self_test();
    if (a == "--workload") workload = value();
    else if (a == "--seed") seed = std::stoull(value());
    else if (a == "--seconds") seconds = std::stod(value());
    else if (a == "--trace") trace = value() == "1";
    else usage();
  }
  for (const Workload& w : workloads()) {
    if (w.name == workload) {
      try {
        return run(w, seed, seconds, trace);
      } catch (const std::exception& e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
      }
    }
  }
  usage();
}
