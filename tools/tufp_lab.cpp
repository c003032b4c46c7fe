// tufp_lab — the approximation-ratio lab (DESIGN.md §9).
//
// Sweeps the large-capacity parameter beta = c_min/d_max across the sim
// world families, runs the configured solvers on every (world, beta) cell
// and certifies each outcome against the tightest available upper bound
// (packing-lp / gk-dual / claim36). Summary table on stdout; JSON/CSV
// artifacts for the CI trend job.
//
//   tufp_lab --sweep beta --worlds 3 --betas 1,2,4,8,16,32
//   tufp_lab --families staircase,grid --solvers bounded,greedy-density
//   tufp_lab --sweep beta --json ratios.json --threads 4
//   tufp_lab --list
//
// Options:
//   --sweep AXIS        sweep axis; only `beta` exists today (default)
//   --seed S            run seed (default 1)
//   --families a,b,c    subset of the sim world families
//   --solvers x,y       subset of the lab solver catalogue (see --list)
//   --betas b1,b2,...   beta grid, each >= 1 (default 1,2,4,8,16,32)
//   --worlds N          worlds per family (default 3)
//   --eps X             primal-dual accuracy parameter (default 1/6)
//   --threads N         OpenMP threads across cells (default runtime)
//   --json PATH         write the full cell/summary artifact ('-' = stdout)
//   --csv PATH          write the per-cell series as CSV ('-' = stdout)
//   --list              print solvers, bound providers and families, exit
//
// Determinism: stdout and both artifacts are byte-identical for identical
// configs, for any --threads value (each cell is a pure function of the
// run seed; see DESIGN.md §9).
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "tufp/lab/solvers.hpp"
#include "tufp/lab/sweep.hpp"
#include "tufp/lab/upper_bound.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/util/table.hpp"

namespace {

using namespace tufp;
using namespace tufp::lab;

[[noreturn]] void usage() {
  std::cerr << "usage: tufp_lab [--sweep beta] [--seed S] [--families a,b]\n"
               "  [--solvers x,y] [--betas b1,b2,...] [--worlds N] [--eps X]\n"
               "  [--threads N] [--json PATH] [--csv PATH] [--list]\n";
  std::exit(2);
}

using tufp::cli::parse_double;
using tufp::cli::parse_int;
using tufp::cli::parse_uint64;
using tufp::cli::split_csv;

struct Options {
  SweepConfig config;
  std::string json_path;
  std::string csv_path;
  bool list = false;
};

Options parse(int argc, char** argv) {
  Options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  const auto value = [&](std::size_t& i) -> std::string {
    if (i + 1 >= args.size()) usage();
    return args[++i];
  };
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--sweep") {
      if (value(i) != "beta") {
        std::cerr << "tufp_lab: only the beta sweep axis exists today\n";
        std::exit(2);
      }
    } else if (a == "--seed") {
      opt.config.seed = parse_uint64(value(i));
    } else if (a == "--families") {
      for (const std::string& name : split_csv(value(i))) {
        opt.config.families.push_back(sim::family_from_name(name));
      }
    } else if (a == "--solvers") {
      opt.config.solvers = split_csv(value(i));
    } else if (a == "--betas") {
      opt.config.betas.clear();
      for (const std::string& b : split_csv(value(i))) {
        opt.config.betas.push_back(parse_double(b));
      }
    } else if (a == "--worlds") {
      opt.config.worlds_per_family = parse_int(value(i));
    } else if (a == "--eps") {
      opt.config.solve.epsilon = parse_double(value(i));
    } else if (a == "--threads") {
      opt.config.num_threads = parse_int(value(i));
      tufp::cli::require_threads_supported("tufp_lab",
                                           opt.config.num_threads);
    } else if (a == "--json") {
      opt.json_path = value(i);
    } else if (a == "--csv") {
      opt.csv_path = value(i);
    } else if (a == "--list") {
      opt.list = true;
    } else {
      usage();
    }
  }
  return opt;
}

int run_list() {
  std::cout << "solvers:\n";
  for (const LabSolverEntry& entry : solver_catalogue()) {
    std::cout << "  " << entry.name << " — " << entry.summary << "\n";
  }
  std::cout << "bound providers (tightest available wins):\n";
  for (const auto& provider : standard_providers()) {
    std::cout << "  " << provider->name() << "\n";
  }
  std::cout << "families:\n";
  for (sim::WorldFamily f : sim::kAllFamilies) {
    std::cout << "  " << sim::family_name(f) << "\n";
  }
  return 0;
}

void write_artifact(const std::string& path, const std::string& body,
                    const char* what) {
  if (path == "-") {
    std::cout << body;
    return;
  }
  std::ofstream os(path, std::ios::binary);
  if (!os.good()) {
    std::cerr << "tufp_lab: cannot write " << what << " to " << path << "\n";
    std::exit(2);
  }
  os << body;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Options opt = parse(argc, argv);
    if (opt.list) return run_list();

    const SweepResult result = run_beta_sweep(opt.config);

    std::cout << "tufp_lab sweep=beta seed=" << result.seed
              << " cells=" << result.cells.size() << "\n";
    summary_table(result).print(std::cout);

    if (!opt.json_path.empty()) {
      write_artifact(opt.json_path, sweep_to_json(result), "JSON");
    }
    if (!opt.csv_path.empty()) {
      std::ostringstream csv;
      sweep_to_csv(result, csv);
      write_artifact(opt.csv_path, csv.str(), "CSV");
    }
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "tufp_lab: " << e.what() << "\n";
    return 2;
  }
}
