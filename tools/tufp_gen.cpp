// tufp_gen — generate problem instances in the tufp text format.
//
// Usage:
//   tufp_gen grid <rows> <cols> <capacity> <requests> <seed> [--out FILE]
//   tufp_gen random <vertices> <edges> <capacity> <requests> <seed> [--out FILE]
//   tufp_gen staircase <l> <B> [--out FILE]          (Figure 2 gadget)
//   tufp_gen fig3 <B> [--out FILE]                   (Figure 3 gadget)
//   tufp_gen muca <items> <B> <requests> <bundle_min> <bundle_max> <seed>
//            [--out FILE]
//   tufp_gen fig4 <p> <B> [--out FILE]               (Figure 4 gadget)
//
// Instances print to stdout unless --out is given.
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "tufp/workload/io.hpp"
#include "tufp/workload/lower_bounds.hpp"
#include "tufp/workload/scenarios.hpp"

namespace {

using tufp::cli::parse_double;
using tufp::cli::parse_int;
using tufp::cli::parse_uint64;

[[noreturn]] void usage() {
  std::cerr
      << "usage:\n"
         "  tufp_gen grid <rows> <cols> <capacity> <requests> <seed>\n"
         "  tufp_gen random <vertices> <edges> <capacity> <requests> <seed>\n"
         "  tufp_gen staircase <l> <B>\n"
         "  tufp_gen fig3 <B>\n"
         "  tufp_gen muca <items> <B> <requests> <bmin> <bmax> <seed>\n"
         "  tufp_gen fig4 <p> <B>\n"
         "append --out FILE to write to a file instead of stdout\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace tufp;
  std::vector<std::string> args(argv + 1, argv + argc);
  std::string out_path;
  for (std::size_t i = 0; i + 1 < args.size(); ++i) {
    if (args[i] == "--out") {
      out_path = args[i + 1];
      args.erase(args.begin() + static_cast<std::ptrdiff_t>(i),
                 args.begin() + static_cast<std::ptrdiff_t>(i) + 2);
      break;
    }
  }
  if (args.empty()) usage();

  std::ofstream file;
  std::ostream* os = &std::cout;
  if (!out_path.empty()) {
    file.open(out_path);
    if (!file.good()) {
      std::cerr << "cannot open " << out_path << "\n";
      return 1;
    }
    os = &file;
  }

  try {
    const std::string& kind = args[0];
    const auto arg_int = [&](std::size_t i) { return parse_int(args.at(i)); };
    const auto arg_dbl = [&](std::size_t i) {
      return parse_double(args.at(i));
    };
    const auto arg_u64 = [&](std::size_t i) {
      return parse_uint64(args.at(i));
    };

    if (kind == "grid" && args.size() == 6) {
      save_ufp(make_grid_scenario(arg_int(1), arg_int(2), arg_dbl(3),
                                  arg_int(4), ValueModel::kUniform, arg_u64(5)),
               *os);
    } else if (kind == "random" && args.size() == 6) {
      save_ufp(make_random_scenario(arg_int(1), arg_int(2), arg_dbl(3),
                                    arg_int(4), arg_u64(5)),
               *os);
    } else if (kind == "staircase" && args.size() == 3) {
      save_ufp(make_staircase(arg_int(1), arg_int(2)).instance, *os);
    } else if (kind == "fig3" && args.size() == 2) {
      save_ufp(make_fig3(arg_int(1)).instance, *os);
    } else if (kind == "muca" && args.size() == 7) {
      save_muca(make_random_auction(arg_int(1), arg_int(2), arg_int(3),
                                    arg_int(4), arg_int(5), 1.0, 10.0,
                                    arg_u64(6)),
                *os);
    } else if (kind == "fig4" && args.size() == 3) {
      save_muca(make_fig4(arg_int(1), arg_int(2)).instance, *os);
    } else {
      usage();
    }
  } catch (const std::exception& e) {
    std::cerr << "tufp_gen: " << e.what() << "\n";
    return 1;
  }
  return 0;
}
