// tufp_solve — run any solver in the library on an instance file.
//
// Usage:
//   tufp_solve [options] <instance-file>
//
// The file format (UFP vs MUCA) is auto-detected from the header token.
// Options:
//   --algo NAME   bounded (default) | repeat | greedy-value |
//                 greedy-density | exact | lp | gk
//                 (MUCA files support bounded | greedy-value |
//                  greedy-density | exact | lp)
//   --eps X       accuracy parameter for the primal-dual solvers
//   --saturate    run_to_saturation (out-of-regime instances)
//   --quiet       print only the summary line
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "tufp/auction/bounded_muca.hpp"
#include "tufp/auction/muca_exact.hpp"
#include "tufp/baselines/greedy.hpp"
#include "tufp/lp/branch_and_bound.hpp"
#include "tufp/lp/garg_konemann.hpp"
#include "tufp/lp/ufp_lp.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/bounded_ufp_repeat.hpp"
#include "tufp/util/table.hpp"
#include "tufp/util/timer.hpp"
#include "tufp/workload/io.hpp"

namespace {

using namespace tufp;

struct Options {
  std::string algo = "bounded";
  double eps = 1.0 / 6.0;
  bool saturate = false;
  bool quiet = false;
  std::string path;
};

[[noreturn]] void usage() {
  std::cerr << "usage: tufp_solve [--algo NAME] [--eps X] [--saturate] "
               "[--quiet] <instance-file>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--algo" && i + 1 < args.size()) {
      opt.algo = args[++i];
    } else if (args[i] == "--eps" && i + 1 < args.size()) {
      opt.eps = std::stod(args[++i]);
    } else if (args[i] == "--saturate") {
      opt.saturate = true;
    } else if (args[i] == "--quiet") {
      opt.quiet = true;
    } else if (!args[i].empty() && args[i][0] != '-') {
      opt.path = args[i];
    } else {
      usage();
    }
  }
  if (opt.path.empty()) usage();
  return opt;
}

std::string detect_kind(const std::string& path) {
  std::ifstream is(path);
  std::string token;
  while (is >> token) {
    if (token[0] == '#') {
      std::getline(is, token);
      continue;
    }
    return token;
  }
  return "";
}

int solve_ufp_file(const Options& opt) {
  const UfpInstance inst = load_ufp_file(opt.path);
  WallTimer timer;
  double value = 0.0;
  int selected = -1;
  std::string note;

  if (opt.algo == "bounded") {
    BoundedUfpConfig cfg;
    cfg.epsilon = opt.eps;
    cfg.run_to_saturation = opt.saturate;
    const BoundedUfpResult r = bounded_ufp(inst, cfg);
    value = r.solution.total_value(inst);
    selected = r.solution.num_selected();
    note = "dual upper bound " + Table::format_double(r.dual_upper_bound, 4);
    if (!opt.quiet) {
      Table t({"request", "path edges"});
      for (int i = 0; i < inst.num_requests(); ++i) {
        if (const Path* p = r.solution.path_of(i)) {
          std::string edges;
          for (EdgeId e : *p) edges += std::to_string(e) + " ";
          t.row().cell(i).cell(edges);
        }
      }
      t.print(std::cout);
    }
  } else if (opt.algo == "repeat") {
    BoundedUfpRepeatConfig cfg;
    cfg.epsilon = opt.eps;
    const BoundedUfpRepeatResult r = bounded_ufp_repeat(inst, cfg);
    value = r.solution.total_value(inst);
    selected = static_cast<int>(r.solution.allocations().size());
    note = "dual upper bound " + Table::format_double(r.dual_upper_bound, 4);
  } else if (opt.algo == "greedy-value" || opt.algo == "greedy-density") {
    const UfpSolution s = greedy_ufp(inst, opt.algo == "greedy-value"
                                               ? GreedyRanking::kByValue
                                               : GreedyRanking::kByDensity);
    value = s.total_value(inst);
    selected = s.num_selected();
  } else if (opt.algo == "exact") {
    const UfpExactResult r = solve_ufp_exact(inst);
    value = r.optimal_value;
    selected = r.solution.num_selected();
    note = r.proven_optimal ? "proven optimal" : "node cap hit (lower bound)";
  } else if (opt.algo == "lp") {
    value = solve_ufp_lp(inst).objective;
    note = "fractional optimum (Figure 1 relaxation)";
  } else if (opt.algo == "gk") {
    GkConfig cfg;
    cfg.epsilon = std::min(0.5, opt.eps);
    const GkResult r = garg_konemann_fractional_ufp(inst, cfg);
    value = r.objective;
    note = r.converged ? "fractional (Garg-Konemann)" : "iteration cap hit";
  } else {
    usage();
  }

  std::cout << "algo=" << opt.algo << " value=" << value;
  if (selected >= 0) std::cout << " selected=" << selected;
  std::cout << " requests=" << inst.num_requests()
            << " time_ms=" << timer.elapsed_ms();
  if (!note.empty()) std::cout << "  [" << note << "]";
  std::cout << "\n";
  return 0;
}

int solve_muca_file(const Options& opt) {
  const MucaInstance inst = load_muca_file(opt.path);
  WallTimer timer;
  double value = 0.0;
  int selected = -1;
  std::string note;

  if (opt.algo == "bounded") {
    BoundedMucaConfig cfg;
    cfg.epsilon = opt.eps;
    cfg.run_to_saturation = opt.saturate;
    const BoundedMucaResult r = bounded_muca(inst, cfg);
    value = r.solution.total_value(inst);
    selected = r.solution.num_selected();
    note = "dual upper bound " + Table::format_double(r.dual_upper_bound, 4);
  } else if (opt.algo == "greedy-value" || opt.algo == "greedy-density") {
    const MucaSolution s = greedy_muca(inst, opt.algo == "greedy-value"
                                                 ? GreedyRanking::kByValue
                                                 : GreedyRanking::kByDensity);
    value = s.total_value(inst);
    selected = s.num_selected();
  } else if (opt.algo == "exact") {
    const MucaExactResult r = solve_muca_exact(inst);
    value = r.optimal_value;
    selected = r.solution.num_selected();
    note = r.proven_optimal ? "proven optimal" : "node cap hit (lower bound)";
  } else if (opt.algo == "lp") {
    value = solve_muca_lp(inst);
    note = "fractional optimum";
  } else {
    usage();
  }

  std::cout << "algo=" << opt.algo << " value=" << value;
  if (selected >= 0) std::cout << " selected=" << selected;
  std::cout << " requests=" << inst.num_requests()
            << " time_ms=" << timer.elapsed_ms();
  if (!note.empty()) std::cout << "  [" << note << "]";
  std::cout << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt =
      cli::parse_args("tufp_solve", [&] { return parse(argc, argv); });
  try {
    const std::string kind = detect_kind(opt.path);
    if (kind == "ufp") return solve_ufp_file(opt);
    if (kind == "muca") return solve_muca_file(opt);
    std::cerr << "tufp_solve: unrecognized instance header '" << kind << "'\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "tufp_solve: " << e.what() << "\n";
    return 1;
  }
}
