#include "tufp/obs/sanity.hpp"

#include <cmath>
#include <sstream>
#include <span>

#include "tufp/temporal/lease_ledger.hpp"
#include "tufp/util/math.hpp"

namespace tufp::obs {

namespace {

std::string edge_witness(const Graph& g, EdgeId e, double residual,
                         double leased) {
  const auto [u, v] = g.endpoints(e);
  std::ostringstream os;
  os.precision(17);
  os << "edge " << e << " (" << u << "->" << v << ") capacity="
     << g.capacity(e) << " residual=" << residual << " leased=" << leased;
  return os.str();
}

}  // namespace

int sanity_check_count(const EpochEngine&) { return 3; }

std::vector<SanityViolation> run_sanity_checks(const EpochEngine& engine) {
  std::vector<SanityViolation> out;
  const Graph& g = engine.base_graph();
  const std::span<const double> residual = engine.residual();
  const temporal::LeaseLedger& ledger = engine.lease_ledger();

  // feasible: residual in [0, capacity]. A residual above base means
  // capacity was returned twice; below zero means it was promised twice.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double r = residual[static_cast<std::size_t>(e)];
    if (!(r >= -1e-9) || !(r <= g.capacity(e) + 1e-9) || std::isnan(r)) {
      out.push_back(
          {"feasible", edge_witness(g, e, r, ledger.leased_demand(e))});
      break;
    }
  }

  // temporal-conserve: what the ledger says is promised out plus what the
  // residual says is free must account for the whole edge. Same tolerance
  // as the sim oracle: both sides are incremental float sums.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const double r = residual[static_cast<std::size_t>(e)];
    const double leased = ledger.leased_demand(e);
    if (!approx_eq(r + leased, g.capacity(e), 1e-9, 1e-6)) {
      out.push_back({"temporal-conserve", edge_witness(g, e, r, leased)});
      break;
    }
  }

  // temporal-no-leak: the ledger's snap rule (DESIGN.md §10) makes this
  // an exact equality — an idle edge that is not bit-for-bit at base
  // capacity has leaked, however small the gap.
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (ledger.active_on_edge(e) != 0) continue;
    const double r = residual[static_cast<std::size_t>(e)];
    if (r != g.capacity(e)) {
      out.push_back({"temporal-no-leak", edge_witness(g, e, r, 0.0)});
      break;
    }
  }
  return out;
}

}  // namespace tufp::obs
