// tufp_serve — resident admission daemon over the epoch engine.
//
// Long-lived counterpart of the batch tufp_engine CLI: admission requests
// arrive as newline-delimited commands on stdin (pipe), on a Unix-domain
// socket, or synthesized from a sim world family; they feed the engine's
// bounded request queue (EpochEngine::offer); epochs clear on the
// engine's occupancy trigger (queue reaches --max-batch) or virtual-clock
// trigger (--epoch-duration windows); and every epoch streams JSONL
// telemetry (obs/telemetry.hpp, DESIGN.md §11).
// With --sanity every-N the PR-5 conservation oracles run *inside the
// serving loop* (obs/sanity.hpp, the mod_virgule sanity_check idiom): a
// violation aborts the daemon with a replayable session dump.
//
// Usage: tufp_serve [options]
//
// Input (pick one):
//   (default)                newline-delimited commands on stdin
//   --listen PATH            Unix socket; connections served serially,
//                            each speaking the protocol below; a
//                            `shutdown` line ends the daemon
//   --workload FAMILY        synthesize the session from a sim world
//                            (staircase|single-sink|grid|random-sparse|
//                            layered|ring) — requests, arrivals and lease
//                            durations all come from the world
//   --world-seed S           sim world seed            (default 1)
// Topology (stdin/socket modes; --workload brings its own graph):
//   --scenario grid|random   (default grid), --rows/--cols (default 6x6),
//   --vertices/--edges (default 400/1600), --capacity X (default 100),
//   --seed S (random topology seed, default 1)
// Engine & epoch triggers:
//   --max-batch N            occupancy trigger: clear as soon as N
//                            requests are queued (default 64)
//   --epoch-duration X       virtual-clock trigger: clear at each window
//                            boundary the clock crosses (default 0 = off)
//   --queue N                bounded queue capacity (default 65536)
//   --payments none|dual|critical                     (default dual)
//   --threads N / --eps X
//   --horizon X              advance the clock to X (finite) at shutdown
//                            and reclaim what expired (default 0)
// Framing:
//   --max-line BYTES         longest accepted request line (default
//                            65536). An oversized line, or a partial line
//                            at EOF / connection close, is shed into the
//                            invalid_rejected counter with an `invalid`
//                            det event — never parsed, never fatal
// Telemetry:
//   --telemetry PATH|-       JSONL events; `-` (default) sends the
//                            deterministic channel to stdout and the
//                            wall-clock channel to stderr; a file path
//                            receives both channels
//   --det-only               drop wall-clock events entirely
//   --hist-every N           admission-delay histogram snapshot cadence
//                            in epochs (default 0 = final snapshot only)
//   --trace PATH             per-request decision provenance records
//                            (DESIGN.md §14) as JSONL; additionally keeps
//                            the last 256 records in a ring — a sanity
//                            violation dumps the ring next to the repro
//                            (serve-repro-<check>-trace.jsonl), so the
//                            decisions leading into the violation ship
//                            with the replayable session
// In-service oracles:
//   --sanity every-N         run the sanity catalogue after every Nth
//                            epoch (and at shutdown); violations abort
//                            with exit 3 after writing a repro dump
//   --repro-dir DIR          where violation dumps go (default ".")
//   --inject leak-expired-capacity
//                            fault injection: the reclaim path leaks 5%
//                            of every expired lease's capacity — proves
//                            the in-service oracles bite (test only)
//
// Protocol (one command per line; '#' starts a comment):
//   req <src> <dst> <demand> <value> [arrival] [duration]
//         offer a bid; arrival defaults to the current virtual clock
//         (clamped up to it — arrivals are nondecreasing), duration
//         defaults to inf (permanent lease)
//   tick <T>      advance the virtual clock to T (may close windows)
//   flush         clear everything queued now, regardless of triggers
//   sanity        run the in-service oracles now
//   drain <T>     advance the clock to T and reclaim expired leases
//   quit          flush, drain --horizon, emit final summary, exit
//   shutdown      like quit; in socket mode also stops accepting
// Clock values (a req arrival, a tick or drain T) must be finite: an inf
// or NaN time is shed as a malformed line before the clock moves. Every
// numeric token must parse whole: `5x`, `2.5abc` or a fractional vertex
// id makes the line malformed too.
//
// Output discipline: the deterministic telemetry channel is byte-
// identical across --threads for the same session (the golden serve
// tests pin this); wall-clock events are machine-dependent and never
// mixed into it.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "cli_util.hpp"
#include "tufp/engine/epoch_engine.hpp"
#include "tufp/engine/request_stream.hpp"
#include "tufp/obs/sanity.hpp"
#include "tufp/obs/telemetry.hpp"
#include "tufp/obs/trace.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/util/json.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/util/timer.hpp"
#include "tufp/workload/scenarios.hpp"

namespace {

using namespace tufp;
using tufp::cli::parse_double;
using tufp::cli::parse_int;
using tufp::cli::parse_uint64;

struct Options {
  std::string listen_path;
  std::string workload;
  std::uint64_t world_seed = 1;

  std::string scenario = "grid";
  int rows = 6;
  int cols = 6;
  int vertices = 400;
  int edges = 1600;
  double capacity = 100.0;
  std::uint64_t seed = 1;

  int max_batch = 64;
  double epoch_duration = 0.0;
  std::size_t queue = 1 << 16;
  PaymentPolicy payments = PaymentPolicy::kDualPrice;
  int threads = 0;
  double eps = 1.0 / 6.0;
  double horizon = 0.0;
  std::size_t max_line = 65536;

  std::string telemetry = "-";
  bool det_only = false;
  int hist_every = 0;
  std::string trace;

  int sanity_every = 0;
  std::string repro_dir = ".";
  std::string inject;

  std::vector<std::string> argv;  // everything after argv[0], for dumps
};

[[noreturn]] void usage() {
  std::cerr
      << "usage: tufp_serve [--listen PATH | --workload FAMILY]\n"
         "  [--world-seed S] [--scenario grid|random] [--rows N] [--cols N]\n"
         "  [--vertices N] [--edges N] [--capacity X] [--seed S]\n"
         "  [--max-batch N] [--epoch-duration X] [--queue N]\n"
         "  [--payments none|dual|critical] [--threads N] [--eps X]\n"
         "  [--horizon X] [--max-line BYTES]\n"
         "  [--telemetry PATH|-] [--det-only] [--hist-every N]\n"
         "  [--trace PATH] [--sanity every-N] [--repro-dir DIR]\n"
         "  [--inject leak-expired-capacity]\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  opt.argv.assign(argv + 1, argv + argc);
  std::vector<std::string>& args = opt.argv;
  const auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) usage();
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--listen") opt.listen_path = value(i);
    else if (a == "--workload") opt.workload = value(i);
    else if (a == "--world-seed") opt.world_seed = parse_uint64(value(i));
    else if (a == "--scenario") opt.scenario = value(i);
    else if (a == "--rows") opt.rows = parse_int(value(i));
    else if (a == "--cols") opt.cols = parse_int(value(i));
    else if (a == "--vertices") opt.vertices = parse_int(value(i));
    else if (a == "--edges") opt.edges = parse_int(value(i));
    else if (a == "--capacity") opt.capacity = parse_double(value(i));
    else if (a == "--seed") opt.seed = parse_uint64(value(i));
    else if (a == "--max-batch") opt.max_batch = parse_int(value(i));
    else if (a == "--epoch-duration") opt.epoch_duration = parse_double(value(i));
    else if (a == "--queue") opt.queue = parse_uint64(value(i));
    else if (a == "--payments") {
      const std::optional<PaymentPolicy> p = cli::parse_payments(value(i));
      if (!p) usage();
      opt.payments = *p;
    }
    else if (a == "--threads") opt.threads = parse_int(value(i));
    else if (a == "--eps") opt.eps = parse_double(value(i));
    else if (a == "--horizon") opt.horizon = parse_double(value(i));
    else if (a == "--max-line") opt.max_line = parse_uint64(value(i));
    else if (a == "--telemetry") opt.telemetry = value(i);
    else if (a == "--det-only") opt.det_only = true;
    else if (a == "--hist-every") opt.hist_every = parse_int(value(i));
    else if (a == "--trace") opt.trace = value(i);
    else if (a == "--sanity") {
      const std::string v = value(i);
      if (v.rfind("every-", 0) != 0) usage();
      opt.sanity_every = parse_int(v.substr(6));
      if (opt.sanity_every < 1) usage();
    } else if (a == "--repro-dir") opt.repro_dir = value(i);
    else if (a == "--inject") opt.inject = value(i);
    else usage();
  }
  // The lease clock only runs on finite times: an infinite or NaN
  // horizon is a usage error, not a failure at the final drain.
  if (opt.max_batch < 1 || opt.epoch_duration < 0.0 || opt.max_line < 1 ||
      !std::isfinite(opt.horizon)) {
    usage();
  }
  if (!opt.inject.empty() && opt.inject != "leak-expired-capacity") usage();
  if (!opt.listen_path.empty() && !opt.workload.empty()) usage();
  return opt;
}

EpochEngineConfig engine_config(const Options& opt) {
  EpochEngineConfig config;
  config.max_batch = opt.max_batch;
  config.epoch_duration = opt.epoch_duration;
  config.queue_capacity = opt.queue;
  config.payments = opt.payments;
  config.solver.epsilon = opt.eps;
  config.solver.num_threads = opt.threads;
  if (opt.inject == "leak-expired-capacity") {
    config.inject_reclaim_leak = 0.05;
  }
  return config;
}

// A line source: stdin, one socket connection after another, or the
// synthesized command list of a --workload session.
class LineSource {
 public:
  virtual ~LineSource() = default;
  // False at end of input. Lines arrive without the trailing newline.
  virtual bool next(std::string* line) = 0;
  // Whether the line next() just returned actually ended with a newline
  // on the wire. False means the peer stopped mid-line (EOF or connection
  // close before the terminator): the fragment is a framing error and
  // must be shed, never parsed as a command — a truncated `req` would
  // otherwise admit a bid the client never finished sending.
  virtual bool last_line_terminated() const { return true; }
};

class IstreamSource final : public LineSource {
 public:
  explicit IstreamSource(std::istream& is) : is_(is) {}
  bool next(std::string* line) override {
    if (!std::getline(is_, *line)) return false;
    // getline raises eofbit only when the stream ends *before* the
    // delimiter — exactly the unterminated-final-line case.
    terminated_ = !is_.eof();
    return true;
  }
  bool last_line_terminated() const override { return terminated_; }

 private:
  std::istream& is_;
  bool terminated_ = true;
};

// Materialized command list (the --workload mode): a sim world's
// requests, arrivals and durations rendered as `req` lines, so a
// workload session and a piped session run the exact same code path —
// and a repro dump of either replays through stdin.
class ScriptSource final : public LineSource {
 public:
  explicit ScriptSource(std::vector<std::string> lines)
      : lines_(std::move(lines)) {}
  bool next(std::string* line) override {
    if (index_ >= lines_.size()) return false;
    *line = lines_[index_++];
    return true;
  }

 private:
  std::vector<std::string> lines_;
  std::size_t index_ = 0;
};

// Unix-domain socket listener. Connections are served one at a time —
// the epoch loop is single-threaded by design (determinism), so serial
// accept is the honest concurrency model; a `shutdown` line ends the
// daemon. Each connection's lines feed the same session state.
class SocketSource final : public LineSource {
 public:
  explicit SocketSource(const std::string& path) : path_(path) {
    listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listen_fd_ < 0) throw std::runtime_error("socket() failed");
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof(addr.sun_path)) {
      throw std::runtime_error("--listen path too long");
    }
    std::copy(path.begin(), path.end(), addr.sun_path);
    ::unlink(path.c_str());
    if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(listen_fd_, 4) != 0) {
      throw std::runtime_error("cannot listen on " + path);
    }
  }

  ~SocketSource() override {
    if (conn_fd_ >= 0) ::close(conn_fd_);
    if (listen_fd_ >= 0) ::close(listen_fd_);
    ::unlink(path_.c_str());
  }

  bool next(std::string* line) override {
    while (true) {
      if (conn_fd_ < 0) {
        conn_fd_ = ::accept(listen_fd_, nullptr, nullptr);
        if (conn_fd_ < 0) return false;
        buffer_.clear();
      }
      const auto nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        *line = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        terminated_ = true;
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(conn_fd_, chunk, sizeof(chunk));
      if (n <= 0) {
        // Connection closed: surface a trailing unterminated fragment
        // (flagged, so the session sheds it instead of parsing a command
        // the client never finished), then wait for the next client.
        ::close(conn_fd_);
        conn_fd_ = -1;
        if (!buffer_.empty()) {
          *line = std::move(buffer_);
          buffer_.clear();
          terminated_ = false;
          return true;
        }
        continue;
      }
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

  bool last_line_terminated() const override { return terminated_; }

 private:
  std::string path_;
  int listen_fd_ = -1;
  int conn_fd_ = -1;
  std::string buffer_;
  bool terminated_ = true;
};

std::string render_req_line(const Request& req, double arrival,
                            double duration) {
  std::ostringstream os;
  os.precision(17);
  os << "req " << req.source << ' ' << req.target << ' ' << req.demand << ' '
     << req.value << ' ' << arrival;
  if (duration < kInf) os << ' ' << duration;
  return os.str();
}

// The serving loop: session state + telemetry + in-service oracles.
class ServeSession {
 public:
  ServeSession(const Options& opt, std::shared_ptr<const Graph> graph,
               obs::TelemetrySink* sink, obs::DecisionTrace* trace)
      : opt_(opt), engine_(std::move(graph), engine_config(opt)),
        sink_(sink), trace_(trace),
        telemetry_(sink, {opt.hist_every, !opt.det_only}) {
    if (trace_ != nullptr) engine_.set_decision_trace(trace_);
  }

  // Returns the process exit code: 0 clean, 3 on a sanity violation.
  int drive(LineSource& source) {
    emit_meta();
    std::string line;
    while (source.next(&line)) {
      transcript_.push_back(line);
      // Framing errors are shed before command parsing: an unterminated
      // fragment (EOF / connection close mid-line) or an oversized line
      // is counted into invalid_rejected and never interpreted — a
      // truncated `req` must not admit a bid the client never finished.
      if (!source.last_line_terminated()) {
        shed_invalid("unterminated", line);
        continue;
      }
      if (line.size() > opt_.max_line) {
        shed_invalid("oversized", line);
        continue;
      }
      if (!handle(line)) break;  // quit/shutdown or abort
      if (violated_) return 3;
    }
    if (violated_) return 3;
    finish_session();
    return violated_ ? 3 : 0;
  }

 private:
  static std::vector<std::string> tokenize(const std::string& line) {
    std::istringstream is(line);
    std::vector<std::string> tokens;
    std::string tok;
    while (is >> tok) {
      if (tok[0] == '#') break;
      tokens.push_back(tok);
    }
    return tokens;
  }

  // Numbers off the wire parse whole (cli_util.hpp): `5x` throws, and
  // handle() sheds the line. A clock value must also be finite: the
  // virtual clock, and the lease ledger's reclaim clock behind it, only
  // run on finite times, so a non-finite value throws like any other
  // malformed number and handle() sheds the line before the clock moves.
  static double parse_time(const std::string& token) {
    const double t = parse_double(token);
    if (!std::isfinite(t)) throw std::invalid_argument("non-finite time");
    return t;
  }

  // False ends the session (quit/shutdown).
  bool handle(const std::string& line) {
    const std::vector<std::string> tokens = tokenize(line);
    if (tokens.empty()) return true;
    const std::string& cmd = tokens[0];
    try {
      if (cmd == "req") return handle_req(line, tokens);
      if (cmd == "tick" && tokens.size() == 2) {
        engine_.advance_clock(parse_time(tokens[1]), on_epoch_);
        return true;
      }
      if (cmd == "flush" && tokens.size() == 1) {
        engine_.flush(on_epoch_);
        return true;
      }
      if (cmd == "sanity" && tokens.size() == 1) {
        run_sanity();
        return !violated_;
      }
      if (cmd == "drain" && tokens.size() == 2) {
        drain(parse_time(tokens[1]));
        return true;
      }
      if ((cmd == "quit" || cmd == "shutdown") && tokens.size() == 1) {
        return false;
      }
    } catch (const std::exception&) {
      // fall through to the protocol shed
    }
    shed_invalid("malformed", line);
    return true;
  }

  bool handle_req(const std::string& line,
                  const std::vector<std::string>& tokens) {
    if (tokens.size() < 5 || tokens.size() > 7) {
      std::cerr << "tufp_serve: malformed req (want: req <src> "
                   "<dst> <demand> <value> [arrival] [duration])\n";
      shed_invalid("malformed", line);
      return true;
    }
    TimedRequest timed;
    timed.request.source = parse_int(tokens[1]);
    timed.request.target = parse_int(tokens[2]);
    timed.request.demand = parse_double(tokens[3]);
    timed.request.value = parse_double(tokens[4]);
    // Without an arrival the request arrives now; a stale one is clamped
    // up to the clock by the engine.
    timed.arrival_time =
        tokens.size() >= 6 ? parse_time(tokens[5]) : engine_.clock();
    timed.duration = tokens.size() >= 7 ? parse_double(tokens[6]) : kInf;
    timed.sequence = next_sequence_++;
    engine_.offer(std::move(timed), on_epoch_);
    return !violated_;
  }

  // Wire-level shed: the line is counted as seen and folded into the
  // same invalid_rejected counter the per-epoch bid validation uses,
  // with a deterministic `invalid` telemetry event — a framing error is
  // an observable fact about the session, not a silent stderr warning.
  void shed_invalid(std::string_view reason, const std::string& line) {
    engine_.record_invalid(1);
    telemetry_.on_invalid(engine_.epochs_run(), reason,
                          engine_.metrics().counters().invalid_rejected);
    std::cerr << "tufp_serve: shedding " << reason << " line (" << line.size()
              << " bytes)\n";
  }

  // Every epoch the engine's triggers clear: telemetry, then the sanity
  // cadence. A violation stops the clearing.
  bool on_epoch(const AdmissionReport& report) {
    unswept_ = true;
    telemetry_.on_epoch(report, engine_.metrics());
    if (opt_.sanity_every > 0 &&
        engine_.epochs_run() % opt_.sanity_every == 0) {
      run_sanity();
    }
    return !violated_;
  }

  void drain(double t) {
    if (!engine_.advance_clock(t, on_epoch_)) return;
    const int reclaimed = engine_.reclaim_expired(engine_.clock());
    unswept_ = true;
    telemetry_.on_drain(engine_.clock(), reclaimed,
                        engine_.lease_ledger().active_count(),
                        engine_.metrics().occupancy());
    // The reclaim path just ran: exactly when the oracles are worth
    // their cost (a leak can only appear on an expiry).
    if (opt_.sanity_every > 0) run_sanity();
  }

  void run_sanity() {
    unswept_ = false;
    const std::vector<obs::SanityViolation> violations =
        obs::run_sanity_checks(engine_);
    const int checks = obs::sanity_check_count(engine_);
    telemetry_.on_sanity(engine_.epochs_run(), checks,
                         static_cast<int>(violations.size()));
    if (violations.empty()) return;
    violated_ = true;
    for (const obs::SanityViolation& v : violations) {
      JsonObject obj;
      obj.field("event", "sanity_violation")
          .field("chan", "det")
          .field("epoch", engine_.epochs_run())
          .field("check", v.check)
          .field("detail", v.detail);
      sink_->emit(obs::Channel::kDeterministic, obj.str());
      std::cerr << "tufp_serve: SANITY VIOLATION [" << v.check << "] "
                << v.detail << "\n";
    }
    write_repro(violations);
  }

  // The replayable dump: every protocol line consumed so far (workload
  // sessions are materialized as req lines up front, so they dump the
  // same way), headed by the exact argv. Piping the dump back through
  // tufp_serve with the same flags re-fires the violation.
  void write_repro(const std::vector<obs::SanityViolation>& violations) {
    const std::string path =
        opt_.repro_dir + "/serve-repro-" + violations.front().check + ".txt";
    std::ofstream os(path);
    if (!os.good()) {
      std::cerr << "tufp_serve: cannot write repro dump: " << path << "\n";
      return;
    }
    os << "# tufp_serve sanity-violation repro\n";
    for (const obs::SanityViolation& v : violations) {
      os << "# violation: " << v.check << ": " << v.detail << "\n";
    }
    os << "# args:";
    for (const std::string& a : opt_.argv) os << ' ' << a;
    os << "\n# replay: tufp_serve <args above> < this file\n";
    for (const std::string& line : transcript_) os << line << "\n";
    os << "quit\n";
    std::cerr << "tufp_serve: wrote repro dump: " << path << "\n";
    // The decision ring: the last K terminal decisions leading into the
    // violation, as rendered det lines — the provenance half of the repro.
    if (trace_ != nullptr) {
      const std::string ring_path = opt_.repro_dir + "/serve-repro-" +
                                    violations.front().check +
                                    "-trace.jsonl";
      std::ofstream ring(ring_path);
      if (ring.good()) {
        for (const std::string& rec : trace_->ring_snapshot()) {
          ring << rec << "\n";
        }
        std::cerr << "tufp_serve: wrote decision ring: " << ring_path << "\n";
      } else {
        std::cerr << "tufp_serve: cannot write decision ring: " << ring_path
                  << "\n";
      }
    }
  }

  void finish_session() {
    if (!engine_.flush(on_epoch_)) return;
    if (opt_.horizon > 0.0) drain(opt_.horizon);
    if (violated_) return;
    // A last sweep, unless nothing ran since the last one: a horizon or
    // protocol drain just before the end has already swept.
    if (opt_.sanity_every > 0 && unswept_) {
      run_sanity();
      if (violated_) return;
    }
    const double wall = timer_.elapsed_seconds();
    const auto seen = engine_.metrics().counters().requests_seen;
    telemetry_.finish(engine_.metrics(), engine_.lease_ledger().active_count(),
                      engine_.metrics().occupancy(), wall,
                      wall > 0.0 ? static_cast<double>(seen) / wall : 0.0);
  }

  void emit_meta() {
    const std::string source =
        !opt_.workload.empty() ? "workload:" + opt_.workload
        : !opt_.listen_path.empty() ? "socket"
                                    : "stdin";
    JsonObject obj;
    obj.field("event", "meta")
        .field("chan", "det")
        .field("tool", "tufp_serve")
        .field("source", source)
        .field("vertices", engine_.base_graph().num_vertices())
        .field("edges", engine_.base_graph().num_edges())
        .field("max_batch", opt_.max_batch)
        .field("epoch_duration", opt_.epoch_duration)
        .field("sanity_every", opt_.sanity_every);
    sink_->emit(obs::Channel::kDeterministic, obj.str());
  }

  const Options& opt_;
  EpochEngine engine_;
  const EpochEngine::EpochObserver on_epoch_ =
      [this](const AdmissionReport& report) { return on_epoch(report); };
  obs::TelemetrySink* sink_;
  obs::DecisionTrace* trace_;  // null without --trace
  obs::EpochTelemetry telemetry_;
  std::vector<std::string> transcript_;
  WallTimer timer_;
  std::int64_t next_sequence_ = 0;
  bool violated_ = false;
  // An epoch or a reclaim ran since the last sanity sweep.
  bool unswept_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  const Options opt =
      cli::parse_args("tufp_serve", [&] { return parse(argc, argv); });
  cli::require_threads_supported("tufp_serve", opt.threads);
  try {
    // Topology + (for --workload) the synthesized session script.
    std::shared_ptr<const Graph> graph;
    std::unique_ptr<LineSource> source;
    if (!opt.workload.empty()) {
      sim::WorldSpec spec;
      spec.family = sim::family_from_name(opt.workload);
      spec.seed = opt.world_seed;
      const sim::SimWorld world = sim::generate_world(spec);
      graph = world.instance.shared_graph();
      std::vector<std::string> lines;
      lines.reserve(world.instance.requests().size() + 1);
      for (std::size_t i = 0; i < world.instance.requests().size(); ++i) {
        const double arrival =
            i < world.arrivals.size() ? world.arrivals[i] : 0.0;
        const double duration =
            i < world.durations.size() ? world.durations[i] : kInf;
        lines.push_back(render_req_line(
            world.instance.requests()[i], arrival, duration));
      }
      lines.push_back("quit");
      source = std::make_unique<ScriptSource>(std::move(lines));
    } else {
      if (opt.scenario != "grid" && opt.scenario != "random") usage();
      StreamingScenario scenario =
          opt.scenario == "grid"
              ? make_streaming_grid_scenario(opt.rows, opt.cols, opt.capacity,
                                             ValueModel::kUniform)
              : make_streaming_random_scenario(opt.vertices, opt.edges,
                                               opt.capacity,
                                               ValueModel::kUniform, opt.seed);
      graph = scenario.graph;
      if (!opt.listen_path.empty()) {
        source = std::make_unique<SocketSource>(opt.listen_path);
        std::cerr << "tufp_serve: listening on " << opt.listen_path << "\n";
      } else {
        source = std::make_unique<IstreamSource>(std::cin);
      }
    }

    // Telemetry sink: `-` splits channels across stdout/stderr (the
    // repo's output discipline); a path receives both channels as one
    // JSONL stream (readers separate them by the chan field).
    std::ofstream file;
    std::unique_ptr<obs::StreamSink> sink;
    if (opt.telemetry == "-") {
      sink = std::make_unique<obs::StreamSink>(
          &std::cout, opt.det_only ? nullptr : &std::cerr);
    } else {
      file.open(opt.telemetry);
      if (!file.good()) {
        throw std::runtime_error("cannot open --telemetry path: " +
                                 opt.telemetry);
      }
      sink = std::make_unique<obs::StreamSink>(
          &file, opt.det_only ? nullptr : &file);
    }

    // Decision provenance stream + bounded ring (DESIGN.md §14).
    std::ofstream trace_file;
    std::unique_ptr<obs::StreamSink> trace_sink;
    std::unique_ptr<obs::DecisionTrace> trace;
    if (!opt.trace.empty()) {
      trace_file.open(opt.trace);
      if (!trace_file.good()) {
        throw std::runtime_error("cannot open --trace path: " + opt.trace);
      }
      trace_sink = std::make_unique<obs::StreamSink>(&trace_file, nullptr);
      trace = std::make_unique<obs::DecisionTrace>(trace_sink.get());
    }

    ServeSession session(opt, std::move(graph), sink.get(), trace.get());
    return session.drive(*source);
  } catch (const std::exception& e) {
    std::cerr << "tufp_serve: " << e.what() << "\n";
    return 1;
  }
}
