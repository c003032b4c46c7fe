// tufp_engine — stream a synthetic bid workload through the epoch-batched
// admission engine and report per-epoch auctions plus a final summary.
//
// Usage:
//   tufp_engine [options]
//
// Scenario:
//   --scenario grid|random   topology family           (default grid)
//   --rows N / --cols N      grid dimensions           (default 24 x 24)
//   --vertices N / --edges N random topology size      (default 400 / 1600)
//   --capacity X             uniform edge capacity     (default 100)
//   --value-model uniform|zipf|proportional            (default uniform)
// Stream:
//   --requests N             total offered requests    (default 100000)
//   --arrivals poisson|burst                           (default poisson)
//   --rate X                 Poisson rate, req/s       (default 10000)
//   --burst-size N / --burst-period X                  (default 1000 / 0.1)
//   --seed S                                           (default 1)
// Engine:
//   --epochs N               target epoch count; sets max_batch =
//                            ceil(requests/N), the batch that clears as
//                            soon as it is queued (default 10)
//   --epoch-duration X       also clear everything queued at every window
//                            boundary, multiples of X virtual seconds, by
//                            the same triggers as tufp_serve (default 0 =
//                            count-based)
//   --queue N                bounded queue capacity    (default 65536)
//   --payments none|dual|critical                      (default dual)
//   --threads N              solver OpenMP threads     (default runtime)
//   --eps X                  solver accuracy parameter (default 1/6)
// Leases (DESIGN.md §10):
//   --duration-profile none|fixed|exponential|heavy-tailed|diurnal|
//                      flash-crowd                     (default none =
//                            permanent leases, the historical semantics)
//   --duration-mean X        mean lease duration, virtual s (default 1)
//   --duration-period X      diurnal cycle / flash-crowd window (default 1)
//   --horizon X              after the stream ends, advance the virtual
//                            clock to X (finite) and reclaim what expired
//                            (default 0 = no post-run drain)
// Output:
//   --csv                    per-epoch CSV instead of aligned table
//   --quiet                  suppress the per-epoch series
//   --json PATH              deterministic run summary as telemetry JSONL
//                            (meta + hist + summary events, DESIGN.md §11 —
//                            same schema tufp_serve streams; det channel
//                            only, so the artifact cmp's clean across
//                            --threads)
//   --telemetry PATH|-       stream the full per-epoch telemetry
//                            (epoch/hist/summary events). `-` replaces the
//                            table: det events on stdout, wall on stderr
//   --hist-every N           histogram snapshot cadence for --telemetry
//   --trace PATH|-           per-request decision provenance records
//                            (DESIGN.md §14): one JSONL line per terminal
//                            decision, det channel, byte-identical across
//                            --threads. `-` writes to stdout
//                            (implies --quiet semantics for diffs)
//   --flame PATH             collapsed-stack phase-span dump (flamegraph.pl
//                            format) + span summary on stderr; wall-clock,
//                            never byte-stable
//
// Output discipline: stdout carries only deterministic data — identical
// for any --threads value and any machine (the determinism acceptance
// check diffs it). Wall-clock throughput and solve-time stats go to
// stderr.
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/util/json.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/util/table.hpp"
#include "tufp/workload/scenarios.hpp"

namespace {

using namespace tufp;
using tufp::cli::parse_double;
using tufp::cli::parse_int;
using tufp::cli::parse_int64;
using tufp::cli::parse_uint64;

struct Options {
  std::string scenario = "grid";
  int rows = 24;
  int cols = 24;
  int vertices = 400;
  int edges = 1600;
  double capacity = 100.0;
  std::string value_model = "uniform";

  std::int64_t requests = 100000;
  std::string arrivals = "poisson";
  double rate = 10000.0;
  int burst_size = 1000;
  double burst_period = 0.1;
  std::uint64_t seed = 1;

  int epochs = 10;
  double epoch_duration = 0.0;
  std::size_t queue = 1 << 16;
  PaymentPolicy payments = PaymentPolicy::kDualPrice;
  int threads = 0;
  double eps = 1.0 / 6.0;

  std::string duration_profile = "none";
  double duration_mean = 1.0;
  double duration_period = 1.0;
  double horizon = 0.0;

  bool csv = false;
  bool quiet = false;
  std::string json_path;
  std::string telemetry;
  int hist_every = 0;
  std::string trace;
  std::string flame;
};

[[noreturn]] void usage() {
  std::cerr << "usage: tufp_engine [--scenario grid|random] [--rows N] "
               "[--cols N]\n"
               "  [--vertices N] [--edges N] [--capacity X]\n"
               "  [--value-model uniform|zipf|proportional]\n"
               "  [--requests N] [--arrivals poisson|burst] [--rate X]\n"
               "  [--burst-size N] [--burst-period X] [--seed S]\n"
               "  [--epochs N] [--epoch-duration X] [--queue N]\n"
               "  [--payments none|dual|critical] [--threads N] [--eps X]\n"
               "  [--duration-profile none|fixed|exponential|heavy-tailed|"
               "diurnal|flash-crowd]\n"
               "  [--duration-mean X] [--duration-period X] [--horizon X]\n"
               "  [--csv] [--quiet] [--json PATH] [--telemetry PATH|-]\n"
               "  [--hist-every N] [--trace PATH|-] [--flame PATH]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) usage();
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--scenario") opt.scenario = value(i);
    else if (a == "--rows") opt.rows = parse_int(value(i));
    else if (a == "--cols") opt.cols = parse_int(value(i));
    else if (a == "--vertices") opt.vertices = parse_int(value(i));
    else if (a == "--edges") opt.edges = parse_int(value(i));
    else if (a == "--capacity") opt.capacity = parse_double(value(i));
    else if (a == "--value-model") opt.value_model = value(i);
    else if (a == "--requests") opt.requests = parse_int64(value(i));
    else if (a == "--arrivals") opt.arrivals = value(i);
    else if (a == "--rate") opt.rate = parse_double(value(i));
    else if (a == "--burst-size") opt.burst_size = parse_int(value(i));
    else if (a == "--burst-period") opt.burst_period = parse_double(value(i));
    else if (a == "--seed") opt.seed = parse_uint64(value(i));
    else if (a == "--epochs") opt.epochs = parse_int(value(i));
    else if (a == "--epoch-duration") opt.epoch_duration = parse_double(value(i));
    else if (a == "--queue") opt.queue = parse_uint64(value(i));
    else if (a == "--payments") {
      const std::optional<PaymentPolicy> p = cli::parse_payments(value(i));
      if (!p) usage();
      opt.payments = *p;
    }
    else if (a == "--threads") opt.threads = parse_int(value(i));
    else if (a == "--eps") opt.eps = parse_double(value(i));
    else if (a == "--duration-profile") opt.duration_profile = value(i);
    else if (a == "--duration-mean") opt.duration_mean = parse_double(value(i));
    else if (a == "--duration-period") opt.duration_period = parse_double(value(i));
    else if (a == "--horizon") opt.horizon = parse_double(value(i));
    else if (a == "--csv") opt.csv = true;
    else if (a == "--quiet") opt.quiet = true;
    else if (a == "--json") opt.json_path = value(i);
    else if (a == "--telemetry") opt.telemetry = value(i);
    else if (a == "--hist-every") opt.hist_every = parse_int(value(i));
    else if (a == "--trace") opt.trace = value(i);
    else if (a == "--flame") opt.flame = value(i);
    else usage();
  }
  // The lease clock only runs on finite times: an infinite or NaN
  // horizon is a usage error, not a failure after the whole run.
  if (opt.epochs < 1 || opt.requests < 0 || !std::isfinite(opt.horizon)) {
    usage();
  }
  return opt;
}

ValueModel parse_value_model(const std::string& name) {
  if (name == "uniform") return ValueModel::kUniform;
  if (name == "zipf") return ValueModel::kZipf;
  if (name == "proportional") return ValueModel::kProportional;
  usage();
}

DurationProfile parse_duration_profile(const std::string& name) {
  if (name == "none") return DurationProfile::kInfinite;  // CLI alias
  try {
    const DurationProfile p = duration_profile_from_name(name);
    if (p != DurationProfile::kAuto) return p;
  } catch (const std::invalid_argument&) {
  }
  usage();
}

// The run-description event heading every telemetry stream this tool
// writes (schema: DESIGN.md §11; tufp_serve emits its own meta fields).
void emit_meta(obs::TelemetrySink& sink, const Options& opt,
               const Graph& graph) {
  JsonObject obj;
  obj.field("event", "meta")
      .field("chan", "det")
      .field("tool", "tufp_engine")
      .field("scenario", opt.scenario)
      .field("duration_profile", opt.duration_profile)
      .field("vertices", graph.num_vertices())
      .field("edges", graph.num_edges())
      .field("requests", opt.requests)
      .field("arrivals", opt.arrivals)
      .field("seed", static_cast<std::int64_t>(opt.seed));
  sink.emit(obs::Channel::kDeterministic, obj.str());
}

// Deterministic run summary routed through the telemetry serializer: one
// JSONL stream of meta + hist + summary events — the same schema and the
// same %.17g formatter tufp_serve uses, det channel only, so the CI
// artifact cmp's clean across --threads values.
void write_json(const std::string& path, const Options& opt,
                const Graph& graph, const EngineMetrics& metrics,
                std::int64_t active_leases, double occupancy) {
  std::ofstream os(path);
  if (!os.good()) {
    throw std::runtime_error("cannot open --json path: " + path);
  }
  obs::StreamSink sink(&os, nullptr);
  emit_meta(sink, opt, graph);
  obs::EpochTelemetry telemetry(&sink, {/*histogram_every=*/0,
                                        /*wall_events=*/false});
  telemetry.finish(metrics, active_leases, occupancy,
                   /*wall_seconds=*/0.0, /*requests_per_second=*/0.0);
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt =
      cli::parse_args("tufp_engine", [&] { return parse(argc, argv); });
  cli::require_threads_supported("tufp_engine", opt.threads);
  try {
    if (opt.scenario != "grid" && opt.scenario != "random") usage();
    const ValueModel value_model = parse_value_model(opt.value_model);
    StreamingScenario scenario =
        opt.scenario == "grid"
            ? make_streaming_grid_scenario(opt.rows, opt.cols, opt.capacity,
                                           value_model)
            : make_streaming_random_scenario(opt.vertices, opt.edges,
                                             opt.capacity, value_model,
                                             opt.seed);

    DurationConfig durations;
    durations.profile = parse_duration_profile(opt.duration_profile);
    durations.mean = opt.duration_mean;
    durations.period = opt.duration_period;
    const bool temporal = durations.profile != DurationProfile::kInfinite;

    // The stream seed is derived, not opt.seed itself: the random scenario
    // consumes Rng(opt.seed) for the topology, and reusing the identical
    // sequence for arrivals would correlate workload with topology.
    const std::uint64_t stream_seed = SplitMix64(opt.seed).next();
    std::unique_ptr<RequestStream> stream;
    if (opt.arrivals == "poisson") {
      stream = std::make_unique<PoissonStream>(
          scenario.graph, scenario.request_config, opt.rate, opt.requests,
          stream_seed, durations);
    } else if (opt.arrivals == "burst") {
      stream = std::make_unique<BurstStream>(
          scenario.graph, scenario.request_config, opt.burst_period,
          opt.burst_size, opt.requests, stream_seed, durations);
    } else {
      usage();
    }

    EpochEngineConfig config;
    config.max_batch = static_cast<int>(
        (opt.requests + opt.epochs - 1) / std::max<std::int64_t>(1, opt.epochs));
    if (config.max_batch < 1) config.max_batch = 1;
    config.epoch_duration = opt.epoch_duration;
    config.queue_capacity = opt.queue;
    config.payments = opt.payments;
    config.solver.epsilon = opt.eps;
    config.solver.num_threads = opt.threads;

    EpochEngine engine(scenario.graph, config);

    // Live telemetry (DESIGN.md §11): per-epoch JSONL through the same
    // serializer tufp_serve streams. `-` splits channels across
    // stdout/stderr and replaces the table (two det formats interleaved
    // on one stream would be byte-comparable to nothing).
    std::ofstream telemetry_file;
    std::unique_ptr<obs::StreamSink> telemetry_sink;
    std::unique_ptr<obs::EpochTelemetry> telemetry;
    const bool telemetry_to_stdout = opt.telemetry == "-";
    if (!opt.telemetry.empty()) {
      if (telemetry_to_stdout) {
        telemetry_sink =
            std::make_unique<obs::StreamSink>(&std::cout, &std::cerr);
      } else {
        telemetry_file.open(opt.telemetry);
        if (!telemetry_file.good()) {
          throw std::runtime_error("cannot open --telemetry path: " +
                                   opt.telemetry);
        }
        telemetry_sink = std::make_unique<obs::StreamSink>(&telemetry_file,
                                                           &telemetry_file);
      }
      emit_meta(*telemetry_sink, opt, *scenario.graph);
      telemetry = std::make_unique<obs::EpochTelemetry>(
          telemetry_sink.get(),
          obs::TelemetryConfig{opt.hist_every, /*wall_events=*/true});
    }

    // Decision provenance stream (DESIGN.md §14): one det JSONL line per
    // terminal decision, diffable byte-for-byte across --threads
    // (tufp_trace diff pins it; so does CI).
    std::ofstream trace_file;
    std::unique_ptr<obs::StreamSink> trace_sink;
    std::unique_ptr<obs::DecisionTrace> trace;
    if (!opt.trace.empty()) {
      std::ostream* trace_os = &std::cout;
      if (opt.trace != "-") {
        trace_file.open(opt.trace);
        if (!trace_file.good()) {
          throw std::runtime_error("cannot open --trace path: " + opt.trace);
        }
        trace_os = &trace_file;
      }
      trace_sink = std::make_unique<obs::StreamSink>(trace_os, nullptr);
      trace = std::make_unique<obs::DecisionTrace>(trace_sink.get());
      engine.set_decision_trace(trace.get());
    }

    // Phase-span profiler: wall-channel only, installed on this driver
    // thread (worker threads see a null TLS and skip every span site).
    obs::SpanProfiler profiler;
    if (!opt.flame.empty()) obs::install_span_profiler(&profiler);

    // The lease columns appear only under a finite duration profile, so
    // the default (permanent-lease) table stays byte-identical to the
    // pre-temporal engine — the committed golden traces pin this.
    std::vector<std::string> columns = {
        "epoch",   "batch",        "admitted",  "offered_value",
        "admitted_value", "revenue", "dual_ub", "active_edges",
        "saturated", "B",          "iterations"};
    if (temporal) {
      columns.insert(columns.end(), {"expired", "leases", "occupancy"});
    }
    Table series(columns);
    series.set_precision(2);
    const EngineSummary summary =
        engine.run(*stream, [&](const AdmissionReport& r) {
      if (telemetry) telemetry->on_epoch(r, engine.metrics());
      auto row = series.row();
      row.cell(r.epoch)
          .cell(r.batch_size)
          .cell(r.admitted)
          .cell(r.offered_value)
          .cell(r.admitted_value)
          .cell(r.revenue)
          .cell(r.dual_upper_bound)
          .cell(r.active_edges)
          .cell(r.saturated_edges)
          .cell(r.min_residual)
          .cell(r.solver_iterations);
      if (temporal) {
        row.cell(r.expired_leases)
            .cell(static_cast<long long>(r.active_leases))
            .cell(r.occupancy);
      }
        });

    // Deterministic channel: epoch series + load summary.
    if (!opt.quiet && !telemetry_to_stdout) {
      if (opt.csv) {
        series.write_csv(std::cout);
      } else {
        series.print(std::cout);
      }
      std::cout << '\n';
    }

    // Post-run drain: advance the virtual clock past the last arrival and
    // reclaim what expired by then (deterministic — it reads only lease
    // state). Makes the steady state inspectable after a finite stream.
    if (opt.horizon > 0.0) {
      const int reclaimed = engine.reclaim_expired(opt.horizon);
      const std::int64_t active = engine.lease_ledger().active_count();
      if (telemetry) {
        telemetry->on_drain(opt.horizon, reclaimed, active,
                            engine.metrics().occupancy());
      }
      if (!telemetry_to_stdout) {
        std::cout << "horizon=" << Table::format_double(opt.horizon, 2)
                  << " reclaimed=" << reclaimed << " active_leases=" << active
                  << "\n";
      }
    }

    if (telemetry) {
      telemetry->finish(engine.metrics(), engine.lease_ledger().active_count(),
                        engine.metrics().occupancy(), summary.wall_seconds,
                        summary.requests_per_second);
    }
    if (!telemetry_to_stdout) {
      std::cout << "=== AdmissionReport summary ===\n"
                << engine.metrics().summary(/*include_wall_clock=*/false);
    }

    if (!opt.json_path.empty()) {
      write_json(opt.json_path, opt, *scenario.graph, engine.metrics(),
                 engine.lease_ledger().active_count(),
                 engine.metrics().occupancy());
      std::cerr << "wrote " << opt.json_path << "\n";
    }

    if (!opt.flame.empty()) {
      obs::install_span_profiler(nullptr);
      std::ofstream flame(opt.flame);
      if (!flame.good()) {
        throw std::runtime_error("cannot open --flame path: " + opt.flame);
      }
      flame << profiler.collapsed_stacks();
      std::cerr << "spans: " << profiler.to_json() << "\n"
                << "wrote " << opt.flame << "\n";
    }

    // Wall-clock channel (machine-dependent; kept off stdout so the
    // deterministic output diffs clean across thread counts), then the
    // critical-payment replays' search count, which no golden carries.
    std::cerr << "wall: requests_per_sec="
              << Table::format_double(summary.requests_per_second, 1)
              << " wall_seconds="
              << Table::format_double(summary.wall_seconds, 3)
              << " solve_p99="
              << Table::format_double(
                     engine.metrics().solve_seconds().percentile(0.99), 4)
              << "\n"
              << "payment_sp_computations="
              << engine.metrics().counters().payment_sp_computations << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tufp_engine: " << e.what() << "\n";
    return 1;
  }
}
