// tufp_mechanism — run the full truthful mechanism on an instance file:
// allocation (Bounded-UFP / Bounded-MUCA) plus critical-value payments,
// with an optional strategic audit.
//
// Usage:
//   tufp_mechanism [--eps X] [--saturate] [--audit] <instance-file>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "cli_util.hpp"
#include "tufp/mechanism/truthfulness_audit.hpp"
#include "tufp/util/table.hpp"
#include "tufp/workload/io.hpp"

namespace {

using namespace tufp;

struct Options {
  double eps = 1.0 / 6.0;
  bool saturate = false;
  bool audit = false;
  std::string path;
};

[[noreturn]] void usage() {
  std::cerr
      << "usage: tufp_mechanism [--eps X] [--saturate] [--audit] <file>\n";
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options opt;
  std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--eps" && i + 1 < args.size()) {
      opt.eps = std::stod(args[++i]);
    } else if (args[i] == "--saturate") {
      opt.saturate = true;
    } else if (args[i] == "--audit") {
      opt.audit = true;
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

int run_ufp(const Options& opt) {
  const UfpInstance inst = load_ufp_file(opt.path);
  BoundedUfpConfig cfg;
  cfg.epsilon = opt.eps;
  cfg.run_to_saturation = opt.saturate;
  const UfpRule rule = make_bounded_ufp_rule(cfg);
  const UfpMechanismResult res = run_ufp_mechanism(inst, rule);

  Table t({"agent", "demand", "value", "won", "payment", "utility"});
  t.set_precision(4);
  double revenue = 0.0;
  for (int r = 0; r < inst.num_requests(); ++r) {
    const Request& req = inst.request(r);
    t.row()
        .cell(r)
        .cell(req.demand)
        .cell(req.value)
        .cell(res.allocation.is_selected(r) ? "yes" : "no")
        .cell(res.payments[r])
        .cell(res.utilities[r]);
    revenue += res.payments[r];
  }
  t.print(std::cout);
  std::cout << "welfare=" << res.allocation.total_value(inst)
            << " revenue=" << revenue
            << " winners=" << res.allocation.num_selected() << "/"
            << inst.num_requests() << "\n";

  if (opt.audit) {
    const AuditReport report = audit_ufp_truthfulness(inst, rule, {});
    std::cout << "audit: " << report.misreports_tried << " misreports, "
              << report.violations.size() << " profitable\n";
    return report.truthful() ? 0 : 1;
  }
  return 0;
}

int run_muca(const Options& opt) {
  const MucaInstance inst = load_muca_file(opt.path);
  BoundedMucaConfig cfg;
  cfg.epsilon = opt.eps;
  cfg.run_to_saturation = opt.saturate;
  const MucaRule rule = make_bounded_muca_rule(cfg);
  const MucaMechanismResult res = run_muca_mechanism(inst, rule);

  Table t({"agent", "bundle size", "value", "won", "payment"});
  t.set_precision(4);
  double revenue = 0.0;
  for (int r = 0; r < inst.num_requests(); ++r) {
    const MucaRequest& req = inst.request(r);
    t.row()
        .cell(r)
        .cell(req.bundle.size())
        .cell(req.value)
        .cell(res.allocation.is_selected(r) ? "yes" : "no")
        .cell(res.payments[r]);
    revenue += res.payments[r];
  }
  t.print(std::cout);
  std::cout << "welfare=" << res.allocation.total_value(inst)
            << " revenue=" << revenue
            << " winners=" << res.allocation.num_selected() << "/"
            << inst.num_requests() << "\n";

  if (opt.audit) {
    const AuditReport report = audit_muca_truthfulness(inst, rule, {});
    std::cout << "audit: " << report.misreports_tried << " misreports, "
              << report.violations.size() << " profitable\n";
    return report.truthful() ? 0 : 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt =
      cli::parse_args("tufp_mechanism", [&] { return parse(argc, argv); });
  try {
    const std::string kind = detect_kind(opt.path);
    if (kind == "ufp") return run_ufp(opt);
    if (kind == "muca") return run_muca(opt);
    std::cerr << "tufp_mechanism: unrecognized instance header '" << kind
              << "'\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "tufp_mechanism: " << e.what() << "\n";
    return 1;
  }
}
