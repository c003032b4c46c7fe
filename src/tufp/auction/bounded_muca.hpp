// Algorithm 2: Bounded-MUCA(eps) — the paper's truthful multi-unit
// combinatorial auction (§4).
//
// The specialization of Bounded-UFP to singleton path sets: items take the
// role of edges (y_u = (1/c_u) e^{eps*B*f_u/c_u}), the "shortest path" of
// a request is its fixed bundle, and the selection rule minimizes
// (1/v_r) sum_{u in U_r} y_u. Approximation (1+eps)*e/(e-1) in the
// B = Omega(ln m) regime (Theorem 4.1), monotone and exact w.r.t. value —
// and w.r.t. the bundle in the *unknown single-minded* sense: shrinking a
// bundle only lowers its priority sum, so declaring a superset bundle
// never helps (Corollary 4.2).
#pragma once

#include <cstdint>
#include <vector>

#include "tufp/auction/muca_instance.hpp"
#include "tufp/auction/muca_solution.hpp"

namespace tufp {

struct BoundedMucaConfig {
  double epsilon = 1.0 / 6.0;
  // Skip requests whose bundle no longer fits the residual multiplicities
  // (same rationale as BoundedUfpConfig::capacity_guard).
  bool capacity_guard = true;
  // Ignore the stopping threshold and run until nothing fits (requires the
  // guard; see BoundedUfpConfig::run_to_saturation).
  bool run_to_saturation = false;
};

struct MucaIterationRecord {
  int request = -1;
  double alpha = 0.0;
  double dual_sum = 0.0;
  double primal_value = 0.0;
};

struct BoundedMucaResult {
  MucaSolution solution;
  int iterations = 0;
  double final_dual_sum = 0.0;
  std::vector<double> y{};  // final item duals
  double dual_upper_bound = 0.0;  // Claim 3.6 specialization
  bool stopped_by_threshold = false;
  std::vector<MucaIterationRecord> trace{};
};

BoundedMucaResult bounded_muca(const MucaInstance& instance,
                               const BoundedMucaConfig& config = {});

}  // namespace tufp
