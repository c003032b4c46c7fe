// BKV-style baseline: the predecessor primal-dual mechanism of
// Briest, Krysta and Vöcking (STOC'05), reconstructed.
//
// The reproduced paper describes Algorithm 1 as being "in the spirit of"
// BKV's Garg-Könemann-motivated monotone primal-dual, whose guarantee
// approaches e; the SPAA'07 improvement to e/(e-1) comes from the tighter
// duality accounting that credits already-satisfied requests through the
// z_r variables (Claim 3.6). No implementation or full pseudocode of BKV
// is available, so this baseline reconstructs the *analysis* difference
// exactly and keeps the algorithmic skeleton shared (DESIGN.md §5):
//
//   - the run itself performs the same monotone iterative selection;
//   - the reported certificate is the *coarse* one available without the
//     z-credit: UB_bkv = min_i D1(i) / alphaAll(i), where alphaAll ranges
//     over ALL requests (selected ones included). That vector y/alphaAll is
//     feasible for the dual of the repetitions relaxation (Figure 5),
//     which contains the UFP polytope, so UB_bkv soundly bounds OPT — it
//     is simply weaker, by exactly the factor the SPAA'07 analysis
//     recovers (~ (e-1) in the limit; bench E9 measures the gap).
//
// Reported per run: the solution, the coarse certificate, and the tight
// certificate for comparison.
#pragma once

#include "tufp/ufp/bounded_ufp.hpp"

namespace tufp {

struct BkvResult {
  UfpSolution solution;
  int iterations = 0;
  double coarse_upper_bound = 0.0;  // min_i D1(i)/alphaAll(i) — BKV-style
  double tight_upper_bound = 0.0;   // min_i D1(i)/alphaRem(i) + P(i) — SPAA'07
  bool stopped_by_threshold = false;
};

BkvResult bkv_ufp(const UfpInstance& instance, const BoundedUfpConfig& config = {});

}  // namespace tufp
