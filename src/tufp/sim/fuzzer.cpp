#include "tufp/sim/fuzzer.hpp"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <utility>

#include "tufp/sim/world_gen.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/util/timer.hpp"
#include "tufp/workload/io.hpp"

namespace tufp::sim {

namespace {

std::string repro_filename(const FuzzViolation& violation) {
  return "repro-" + violation.oracle + "-w" +
         std::to_string(violation.world_index) + ".txt";
}

void write_repro_file(const std::string& dir, const std::string& name,
                      const std::string& text, std::string* path_out) {
  std::filesystem::create_directories(dir);
  const std::string path = dir + "/" + name;
  std::ofstream os(path);
  TUFP_REQUIRE(os.good(), "cannot open repro file for writing: " + path);
  os << text;
  TUFP_REQUIRE(os.good(), "repro write failed: " + path);
  *path_out = path;
}

}  // namespace

std::string make_repro_text(const FuzzConfig& config,
                            const FuzzViolation& violation,
                            const SimWorld& shrunk) {
  std::ostringstream os;
  os.precision(17);
  os << "# tufp_fuzz repro\n"
     << "# run-seed " << config.seed << " world " << violation.world_index
     << " family " << family_name(violation.spec.family) << " world-seed "
     << violation.spec.seed << "\n"
     << "# fault " << fault_name(config.oracle_options.fault) << "\n"
     << "# oracle " << violation.oracle << ": " << violation.detail << "\n"
     << "# shrunk " << violation.original_requests << " -> "
     << shrunk.instance.num_requests() << " requests\n"
     << "# solver epsilon " << shrunk.solver.epsilon
     << " run-to-saturation " << (shrunk.solver.run_to_saturation ? 1 : 0)
     << " max-batch " << shrunk.max_batch << "\n";
  if (!shrunk.durations.empty()) {
    // Lease durations per surviving request ("inf" = permanent), plus the
    // arrival clock that lets them actually expire mid-replay: the
    // temporal oracles fail *on* these, so replay must restore both.
    os << "# durations " << duration_profile_name(shrunk.duration_profile);
    for (const double d : shrunk.durations) {
      if (d >= kInf) {
        os << " inf";
      } else {
        os << " " << d;
      }
    }
    os << "\n# arrivals";
    for (int r = 0; r < shrunk.instance.num_requests(); ++r) {
      const auto ri = static_cast<std::size_t>(r);
      os << " " << (ri < shrunk.arrivals.size() ? shrunk.arrivals[ri] : 0.0);
    }
    os << "\n";
  }
  os << "# replay: tufp_fuzz --replay <this-file> --oracles "
     << violation.oracle;
  if (config.oracle_options.fault != FaultInjection::kNone) {
    os << " --inject " << fault_name(config.oracle_options.fault);
  }
  os << "\n";
  save_ufp(shrunk.instance, os);
  return os.str();
}

SimWorld load_repro(std::istream& is) {
  // Pull the whole stream so the solver directive can be scanned without
  // disturbing what load_ufp reads (it skips '#' comments on its own).
  std::stringstream buffer;
  buffer << is.rdbuf();
  const std::string text = buffer.str();

  BoundedUfpConfig solver;
  solver.capacity_guard = true;
  solver.run_to_saturation = true;
  int max_batch = 0;  // 0 = derive from the request count below
  std::vector<double> arrivals;
  std::vector<double> durations;
  DurationProfile duration_profile = DurationProfile::kInfinite;

  std::istringstream lines(text);
  std::string line;
  bool solver_seen = false;
  while (std::getline(lines, line)) {
    std::istringstream ls(line);
    std::string hash, keyword;
    if (!(ls >> hash >> keyword) || hash != "#") continue;
    if (keyword == "solver" && !solver_seen) {
      solver_seen = true;
      std::string key;
      while (ls >> key) {
        if (key == "epsilon") {
          ls >> solver.epsilon;
        } else if (key == "run-to-saturation") {
          int flag = 1;
          ls >> flag;
          solver.run_to_saturation = flag != 0;
        } else if (key == "max-batch") {
          ls >> max_batch;
        }
      }
    } else if (keyword == "arrivals" && arrivals.empty()) {
      double t = 0.0;
      while (ls >> t) arrivals.push_back(t);
    } else if (keyword == "durations" && durations.empty()) {
      std::string token;
      if (ls >> token) {
        try {
          duration_profile = duration_profile_from_name(token);
        } catch (const std::invalid_argument&) {
          // Tolerate headerless duration lists from hand-written files.
          durations.push_back(token == "inf" ? kInf : std::stod(token));
        }
      }
      while (ls >> token) {
        durations.push_back(token == "inf" ? kInf : std::stod(token));
      }
    }
  }

  std::istringstream body(text);
  UfpInstance instance = load_ufp(body);
  const int R = instance.num_requests();
  if (max_batch <= 0) max_batch = std::max(2, R / 3);
  SimWorld world = wrap_instance(std::move(instance), solver, max_batch);
  if (!durations.empty()) {
    TUFP_REQUIRE(static_cast<int>(durations.size()) == R,
                 "repro `# durations` count does not match its requests");
    world.durations = std::move(durations);
    world.duration_profile = duration_profile;
  }
  if (!arrivals.empty()) {
    TUFP_REQUIRE(static_cast<int>(arrivals.size()) == R,
                 "repro `# arrivals` count does not match its requests");
    world.arrivals = std::move(arrivals);
  }
  return world;
}

FuzzReport run_fuzz(const FuzzConfig& config, std::ostream* log) {
  TUFP_REQUIRE(config.max_worlds >= 0, "negative world budget");
  const std::vector<WorldFamily> families =
      config.families.empty()
          ? std::vector<WorldFamily>(std::begin(kAllFamilies),
                                     std::end(kAllFamilies))
          : config.families;

  FuzzReport report;
  SplitMix64 seeds(config.seed);
  WallTimer timer;

  for (int i = 0; i < config.max_worlds; ++i) {
    if (config.budget_seconds > 0.0 &&
        timer.elapsed_seconds() >= config.budget_seconds) {
      report.wall_clock_stop = true;
      break;
    }
    WorldSpec spec;
    spec.family = families[static_cast<std::size_t>(i) % families.size()];
    spec.seed = seeds.next();
    if (!config.duration_profiles.empty()) {
      // Profiles advance once per full family cycle, so the sweep walks
      // the complete families x profiles cross product in |F|*|P| worlds
      // (a shared i % len for both would skip unaligned pairs whenever
      // the list lengths share a factor).
      spec.durations = config.duration_profiles
          [(static_cast<std::size_t>(i) / families.size()) %
           config.duration_profiles.size()];
    }
    const SimWorld world = generate_world(spec);
    ++report.worlds_run;

    const std::vector<Violation> violations =
        run_oracle_suite(world, config.oracle_options, config.oracles);

    if (log) {
      *log << "world " << i << " family=" << family_name(spec.family)
           << " seed=" << spec.seed << " durations="
           << duration_profile_name(world.duration_profile)
           << " requests=" << world.instance.num_requests()
           << " edges=" << world.instance.graph().num_edges() << " verdict=";
      if (violations.empty()) {
        *log << "ok\n";
      } else {
        *log << "FAIL oracle=" << violations.front().oracle << "\n";
      }
    }
    if (violations.empty()) continue;

    ++report.worlds_failed;
    FuzzViolation record;
    record.world_index = i;
    record.spec = spec;
    record.oracle = violations.front().oracle;
    record.detail = violations.front().detail;
    record.original_requests = world.instance.num_requests();

    SimWorld shrunk = world;
    if (config.shrink) {
      const std::vector<std::string> only{record.oracle};
      // A thrown violation shrinks only while the oracle throws the same
      // message, so the shrinker cannot drift to another precondition
      // failure; any other only while the oracle reports one it did not
      // throw.
      const bool threw = record.detail.starts_with(kThrewPrefix);
      const WorldPredicate still_fails = [&](const SimWorld& candidate) {
        for (const Violation& v :
             run_oracle_suite(candidate, config.oracle_options, only)) {
          if (threw ? v.detail == record.detail
                    : !v.detail.starts_with(kThrewPrefix)) {
            return true;
          }
        }
        return false;
      };
      ShrinkStats stats;
      shrunk = shrink_world(world, still_fails, config.shrink_options, &stats);
      if (log) {
        *log << "  shrunk requests " << record.original_requests << " -> "
             << shrunk.instance.num_requests() << ", edges "
             << world.instance.graph().num_edges() << " -> "
             << shrunk.instance.graph().num_edges() << " (" << stats.probes
             << " probes)\n";
      }
    }
    record.shrunk_requests = shrunk.instance.num_requests();
    record.repro_text = make_repro_text(config, record, shrunk);
    if (!config.repro_dir.empty()) {
      write_repro_file(config.repro_dir, repro_filename(record),
                       record.repro_text, &record.repro_path);
      if (log) *log << "  repro " << record.repro_path << "\n";
    }
    if (log) {
      *log << "  " << record.oracle << ": " << record.detail << "\n";
    }
    report.violations.push_back(std::move(record));
    if (config.stop_on_first) break;
  }
  return report;
}

}  // namespace tufp::sim
