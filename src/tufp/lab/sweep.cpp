#include "tufp/lab/sweep.hpp"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "tufp/lab/upper_bound.hpp"
#include "tufp/sim/world_gen.hpp"
#include "tufp/util/assert.hpp"
#include "tufp/util/parallel.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/scenarios.hpp"

namespace tufp::lab {

namespace {

// 17 significant digits: round-trips doubles exactly, so serialized
// artifacts are byte-comparable across runs and thread counts.
std::string fmt(double v) {
  std::ostringstream os;
  os.precision(17);
  os << v;
  return os.str();
}

// World seed for (family, world index), independent of which subset of
// families/worlds a run selects — lab cells are addressable across
// configs the way fuzz worlds are addressable across budgets.
std::uint64_t world_seed_for(std::uint64_t run_seed, sim::WorldFamily family,
                             int world_index) {
  SplitMix64 sm(run_seed ^
                (static_cast<std::uint64_t>(family) + 1) * 0xa24baed4963ee407ULL ^
                (static_cast<std::uint64_t>(world_index) + 1) *
                    0x9fb21c651e98df25ULL);
  return sm.next();
}

struct WorldTask {
  sim::WorldFamily family{};
  int world_index = 0;
  std::uint64_t world_seed = 0;
  double beta = 0.0;
};

std::vector<const LabSolverEntry*> resolve_solvers(
    const std::vector<std::string>& names) {
  for (const std::string& name : names) {
    if (find_solver(name) == nullptr) {
      throw std::invalid_argument("unknown lab solver: " + name);
    }
  }
  // Canonical catalogue order regardless of how the caller listed them.
  std::vector<const LabSolverEntry*> solvers;
  for (const LabSolverEntry& entry : solver_catalogue()) {
    if (names.empty() ||
        std::find(names.begin(), names.end(), entry.name) != names.end()) {
      solvers.push_back(&entry);
    }
  }
  return solvers;
}

std::vector<SweepCell> run_task(
    const WorldTask& task, const SweepConfig& config,
    std::span<const std::unique_ptr<UpperBoundProvider>> providers,
    std::span<const LabSolverEntry* const> solvers) {
  const sim::SimWorld world =
      sim::generate_world({task.family, task.world_seed});
  // Normalize so d_max = 1 exactly, then dial the minimum capacity to
  // beta: afterwards beta = B/d_max holds by construction. The 1e-12
  // nudge keeps c_min * factor from rounding below Bounded-UFP's B >= 1
  // precondition at beta = 1.
  const UfpInstance normalized = world.instance.normalized();
  const UfpInstance instance = normalized.with_capacity_scale(
      task.beta / normalized.bound_B() * (1.0 + 1e-12));

  // One certifying run per cell: it yields the claim36 bound AND the
  // `bounded` solver's answer (lab/solvers.cpp solves `bounded` under the
  // certifying config). `providers` holds only the optional tighteners
  // (packing-lp, gk-dual); claim36 always answers, so ties keep the
  // earlier provider exactly as before.
  const BoundedUfpResult certifying_run =
      bounded_ufp(instance, certifying_solver_config(config.solve.epsilon));
  UpperBound bound = best_upper_bound(providers, instance);
  const double claim36 = claim36_upper_bound(instance, certifying_run);
  if (!bound.available || claim36 < bound.value) {
    bound = {claim36, true, "claim36"};
  }

  std::vector<SweepCell> cells;
  cells.reserve(solvers.size());
  double exact_opt = -1.0;
  for (const LabSolverEntry* entry : solvers) {
    LabSolve solve;
    if (std::string(entry->name) == "bounded") {
      solve.ran = true;
      solve.value = certifying_run.solution.total_value(instance);
      solve.selected = certifying_run.solution.num_selected();
    } else {
      solve = entry->fn(instance, config.solve);
    }
    SweepCell cell;
    cell.family = task.family;
    cell.world_index = task.world_index;
    cell.world_seed = task.world_seed;
    cell.beta = task.beta;
    cell.requests = instance.num_requests();
    cell.edges = instance.graph().num_edges();
    cell.solver = entry->name;
    cell.in_regime =
        task.beta >=
        regime_capacity(instance.graph().num_edges(), config.solve.epsilon);
    cell.ran = solve.ran;
    cell.value = solve.value;
    cell.selected = solve.selected;
    cell.upper_bound = bound.value;
    cell.bound_method = bound.method;
    if (solve.ran && solve.value > 0.0) {
      cell.certified_ratio = bound.value / solve.value;
    }
    if (std::string(entry->name) == "exact" && solve.ran &&
        solve.proven_optimal) {
      exact_opt = solve.value;
    }
    cells.push_back(std::move(cell));
  }
  for (SweepCell& cell : cells) {
    cell.exact_opt = exact_opt;
    if (exact_opt >= 0.0 && cell.ran && cell.value > 0.0) {
      cell.measured_ratio = exact_opt / cell.value;
    }
  }
  return cells;
}

}  // namespace

SweepResult run_beta_sweep(const SweepConfig& config) {
  TUFP_REQUIRE(!config.betas.empty(), "beta grid must not be empty");
  for (const double beta : config.betas) {
    if (beta < 1.0) {
      throw std::invalid_argument(
          "beta < 1 leaves B below d_max, outside Bounded-UFP's domain");
    }
  }
  TUFP_REQUIRE(config.worlds_per_family >= 1,
               "worlds_per_family must be >= 1");

  const std::vector<sim::WorldFamily> families =
      config.families.empty()
          ? std::vector<sim::WorldFamily>(std::begin(sim::kAllFamilies),
                                          std::end(sim::kAllFamilies))
          : config.families;
  const std::vector<const LabSolverEntry*> solvers =
      resolve_solvers(config.solvers);
  // Optional tighteners only — the always-answering claim36 bound comes
  // from each cell's certifying run (run_task).
  std::vector<std::unique_ptr<UpperBoundProvider>> providers;
  providers.push_back(make_packing_lp_provider());
  providers.push_back(make_gk_dual_provider());

  std::vector<WorldTask> tasks;
  for (const sim::WorldFamily family : families) {
    for (int w = 0; w < config.worlds_per_family; ++w) {
      const std::uint64_t seed = world_seed_for(config.seed, family, w);
      for (const double beta : config.betas) {
        tasks.push_back({family, w, seed, beta});
      }
    }
  }

  // Every task is a pure function of its WorldTask; slots are disjoint, so
  // the merged result is schedule-invariant (the golden determinism check
  // compares --threads 1 vs 4 byte-for-byte). A task that throws reaches
  // the caller after the loop, the first in task order winning.
  std::vector<std::vector<SweepCell>> slots(tasks.size());
  parallel_for(tasks.size(), config.num_threads, [&](std::size_t i, int) {
    slots[i] = run_task(tasks[i], config, providers, solvers);
  });

  SweepResult result;
  result.seed = config.seed;
  result.betas = config.betas;
  for (std::vector<SweepCell>& slot : slots) {
    result.cells.insert(result.cells.end(),
                        std::make_move_iterator(slot.begin()),
                        std::make_move_iterator(slot.end()));
  }

  for (const sim::WorldFamily family : families) {
    for (const LabSolverEntry* entry : solvers) {
      for (const double beta : config.betas) {
        SweepSummaryRow row;
        row.family = family;
        row.solver = entry->name;
        row.beta = beta;
        double total = 0.0;
        for (const SweepCell& cell : result.cells) {
          if (cell.family != family || cell.beta != beta ||
              cell.solver != entry->name || cell.certified_ratio < 0.0) {
            continue;
          }
          ++row.cells;
          total += cell.certified_ratio;
          row.worst_ratio = std::max(row.worst_ratio, cell.certified_ratio);
        }
        if (row.cells > 0) row.mean_ratio = total / row.cells;
        result.summary.push_back(std::move(row));
      }
    }
  }
  return result;
}

std::string sweep_to_json(const SweepResult& result) {
  std::ostringstream os;
  os << "{\n  \"sweep\": \"beta\",\n  \"seed\": " << result.seed
     << ",\n  \"betas\": [";
  for (std::size_t i = 0; i < result.betas.size(); ++i) {
    os << (i ? ", " : "") << fmt(result.betas[i]);
  }
  os << "],\n  \"cells\": [\n";
  for (std::size_t i = 0; i < result.cells.size(); ++i) {
    const SweepCell& c = result.cells[i];
    os << "    {\"family\": \"" << sim::family_name(c.family)
       << "\", \"world\": " << c.world_index
       << ", \"world_seed\": " << c.world_seed << ", \"beta\": " << fmt(c.beta)
       << ", \"requests\": " << c.requests << ", \"edges\": " << c.edges
       << ", \"solver\": \"" << c.solver << "\", \"in_regime\": "
       << (c.in_regime ? "true" : "false") << ", \"ran\": "
       << (c.ran ? "true" : "false") << ", \"value\": " << fmt(c.value)
       << ", \"selected\": " << c.selected
       << ", \"upper_bound\": " << fmt(c.upper_bound)
       << ", \"bound_method\": \"" << c.bound_method << "\"";
    if (c.certified_ratio >= 0.0) {
      os << ", \"certified_ratio\": " << fmt(c.certified_ratio);
    }
    if (c.exact_opt >= 0.0) os << ", \"exact_opt\": " << fmt(c.exact_opt);
    if (c.measured_ratio >= 0.0) {
      os << ", \"measured_ratio\": " << fmt(c.measured_ratio);
    }
    os << "}" << (i + 1 < result.cells.size() ? "," : "") << "\n";
  }
  os << "  ],\n  \"summary\": [\n";
  for (std::size_t i = 0; i < result.summary.size(); ++i) {
    const SweepSummaryRow& row = result.summary[i];
    os << "    {\"family\": \"" << sim::family_name(row.family)
       << "\", \"solver\": \"" << row.solver
       << "\", \"beta\": " << fmt(row.beta) << ", \"cells\": " << row.cells;
    if (row.cells > 0) {
      os << ", \"mean_ratio\": " << fmt(row.mean_ratio)
         << ", \"worst_ratio\": " << fmt(row.worst_ratio);
    }
    os << "}" << (i + 1 < result.summary.size() ? "," : "") << "\n";
  }
  os << "  ]\n}\n";
  return os.str();
}

Table summary_table(const SweepResult& result) {
  Table table(
      {"family", "solver", "beta", "worlds", "mean_ratio", "worst_ratio"});
  for (const SweepSummaryRow& row : result.summary) {
    auto r = table.row();
    r.cell(sim::family_name(row.family)).cell(row.solver).cell(row.beta)
        .cell(row.cells);
    if (row.cells > 0) {
      r.cell(row.mean_ratio).cell(row.worst_ratio);
    } else {
      r.cell("-").cell("-");
    }
  }
  return table;
}

void sweep_to_csv(const SweepResult& result, std::ostream& os) {
  os << "family,world,world_seed,beta,requests,edges,solver,in_regime,ran,"
        "value,selected,upper_bound,bound_method,certified_ratio,exact_opt,"
        "measured_ratio\n";
  for (const SweepCell& c : result.cells) {
    os << sim::family_name(c.family) << ',' << c.world_index << ','
       << c.world_seed << ',' << fmt(c.beta) << ',' << c.requests << ','
       << c.edges << ',' << c.solver << ',' << (c.in_regime ? 1 : 0) << ','
       << (c.ran ? 1 : 0) << ','
       << fmt(c.value) << ',' << c.selected << ',' << fmt(c.upper_bound)
       << ',' << c.bound_method << ',' << fmt(c.certified_ratio) << ','
       << fmt(c.exact_opt) << ',' << fmt(c.measured_ratio) << '\n';
  }
}

}  // namespace tufp::lab
