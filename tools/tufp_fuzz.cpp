// tufp_fuzz — seed-driven property-fuzz harness over the sim subsystem.
//
// Sweep mode (default): generate worlds across the family matrix, run the
// oracle catalogue on each, shrink any violation to a minimal repro file.
//
//   tufp_fuzz --seed 7 --budget 120            # 120 worlds, deterministic
//   tufp_fuzz --budget 60s --repro-dir repros  # nightly: wall-clock cap
//   tufp_fuzz --families grid,ring --oracles feasible,kernel-diff
//   tufp_fuzz --inject overcharge-winners      # prove the harness bites
//
// Replay mode: load a repro (or any workload/io ufp file) and run the
// suite on it.
//
//   tufp_fuzz --replay repros/repro-payments-ir-w3.txt
//   tufp_fuzz --replay case.txt --oracles payments-ir
//
// Options:
//   --seed S            run seed                     (default 1)
//   --budget N|Ns       N worlds, or N wall-clock seconds (suffix 's';
//                       the world sequence is seed-deterministic either
//                       way, a seconds budget only truncates it)
//   --max-worlds N      cap alongside a seconds budget (default 100000)
//   --families a,b,c    subset of: staircase single-sink grid
//                       random-sparse layered ring — plus duration
//                       profiles (infinite fixed exponential heavy-tailed
//                       diurnal flash-crowd), which cross with the
//                       topology families; without one, each world
//                       samples its own profile from its seed
//   --oracles x,y       subset of the catalogue (see --list)
//   --inject F          none|overcharge-winners|charge-losers|
//                       leak-expired-capacity
//   --repro-dir DIR     write shrunk repro files here
//   --no-shrink         keep violations at original size
//   --stop-on-first     exit after the first failing world
//   --replay FILE       replay mode (see above)
//   --list              print the oracle catalogue and families, exit
//
// Exit status: 0 all worlds clean, 1 violations found, 2 usage/load error.
// stdout is deterministic for identical configs (no wall-clock numbers).
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "tufp/sim/fuzzer.hpp"
#include "tufp/sim/oracles.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/workload/io.hpp"

namespace {

using namespace tufp;
using namespace tufp::sim;

[[noreturn]] void usage() {
  std::cerr
      << "usage: tufp_fuzz [--seed S] [--budget N|Ns] [--max-worlds N]\n"
         "  [--families a,b,c] [--oracles x,y]\n"
         "  [--inject none|overcharge-winners|charge-losers|"
         "leak-expired-capacity]\n"
         "  [--repro-dir DIR] [--no-shrink] [--stop-on-first]\n"
         "  [--replay FILE] [--list]\n";
  std::exit(2);
}

using tufp::cli::split_csv;

struct Options {
  FuzzConfig config;
  bool budget_given = false;
  std::string replay_path;
  bool list = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  opt.config.max_worlds = 100;
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) usage();
    return args[++i];
  };
  bool max_worlds_given = false;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--seed") {
      opt.config.seed = std::stoull(value(i));
    } else if (a == "--budget") {
      const std::string b = value(i);
      opt.budget_given = true;
      if (!b.empty() && b.back() == 's') {
        opt.config.budget_seconds = std::stod(b.substr(0, b.size() - 1));
        if (!max_worlds_given) opt.config.max_worlds = 100000;
      } else {
        opt.config.max_worlds = std::stoi(b);
      }
    } else if (a == "--max-worlds") {
      opt.config.max_worlds = std::stoi(value(i));
      max_worlds_given = true;
    } else if (a == "--families") {
      // The matrix has two registered axes: world families and duration
      // profiles. Either kind of name is accepted here, mixed freely —
      // `--families grid,flash-crowd` sweeps grid worlds under
      // flash-crowd leases (profiles round-robin like families do).
      for (const std::string& name : split_csv(value(i))) {
        try {
          opt.config.families.push_back(family_from_name(name));
        } catch (const std::invalid_argument&) {
          try {
            opt.config.duration_profiles.push_back(
                duration_profile_from_name(name));
          } catch (const std::invalid_argument&) {
            throw std::invalid_argument(
                "unknown world family or duration profile: " + name +
                " (see --list)");
          }
        }
      }
    } else if (a == "--oracles") {
      opt.config.oracles = split_csv(value(i));
    } else if (a == "--inject") {
      opt.config.oracle_options.fault = fault_from_name(value(i));
    } else if (a == "--repro-dir") {
      opt.config.repro_dir = value(i);
    } else if (a == "--no-shrink") {
      opt.config.shrink = false;
    } else if (a == "--stop-on-first") {
      opt.config.stop_on_first = true;
    } else if (a == "--replay") {
      opt.replay_path = value(i);
    } else if (a == "--list") {
      opt.list = true;
    } else {
      usage();
    }
  }
  return opt;
}

int run_list() {
  std::cout << "oracles:\n";
  for (const OracleEntry& entry : oracle_catalogue()) {
    std::cout << "  " << entry.name << " — " << entry.summary << "\n";
  }
  std::cout << "families:\n";
  for (WorldFamily f : kAllFamilies) {
    std::cout << "  " << family_name(f) << "\n";
  }
  std::cout << "duration profiles (usable in --families):\n";
  for (DurationProfile p : kAllDurationProfiles) {
    std::cout << "  " << duration_profile_name(p) << "\n";
  }
  return 0;
}

int run_replay(const Options& opt) {
  std::ifstream is(opt.replay_path);
  if (!is.good()) {
    std::cerr << "tufp_fuzz: cannot open " << opt.replay_path << "\n";
    return 2;
  }
  // load_repro honours the repro's `# solver ...` directive so the replay
  // runs under the exact config that produced the violation. The echoed
  // path goes to stderr: stdout stays byte-stable however the repro file
  // is addressed (the golden replay test diffs it).
  const SimWorld world = load_repro(is);
  std::cerr << "replaying " << opt.replay_path << "\n";
  std::cout << "replay"
            << " requests=" << world.instance.num_requests()
            << " edges=" << world.instance.graph().num_edges()
            << " epsilon=" << world.solver.epsilon << " saturation="
            << (world.solver.run_to_saturation ? 1 : 0) << "\n";
  const std::vector<Violation> violations =
      run_oracle_suite(world, opt.config.oracle_options, opt.config.oracles);
  for (const Violation& v : violations) {
    std::cout << "FAIL " << v.oracle << ": " << v.detail << "\n";
  }
  if (violations.empty()) {
    std::cout << "verdict=ok\n";
    return 0;
  }
  std::cout << "verdict=FAIL (" << violations.size() << " violations)\n";
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (opt.list) return run_list();
    if (!opt.replay_path.empty()) return run_replay(opt);

    const FuzzReport report = run_fuzz(opt.config, &std::cout);
    std::cout << "=== tufp_fuzz summary ===\n"
              << "worlds_run " << report.worlds_run << "\n"
              << "worlds_failed " << report.worlds_failed << "\n";
    if (report.wall_clock_stop) {
      // Machine-dependent truncation point: stderr, so stdout stays
      // diffable for count budgets.
      std::cerr << "wall-clock budget reached after " << report.worlds_run
                << " worlds\n";
    }
    return report.worlds_failed == 0 ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "tufp_fuzz: " << e.what() << "\n";
    return 2;
  }
}
