// Critical-value payments: the pricing half of a truthful mechanism.
//
// For a monotone allocation rule the set of winning declared values of an
// agent (everything else fixed) is an up-closed interval; its infimum is
// the agent's *critical value*, and charging exactly that makes
// truth-telling a dominant strategy (Theorem 2.3). Losers pay zero
// (normalization).
//
// This header is the rule-agnostic reference: monotonicity alone makes
// the critical value computable by bisection on the declared value, each
// probe re-running the allocation rule on a single-declaration variant of
// the instance. It serves the offline mechanism, the truthfulness audits
// and the oracles. The bisection brackets theta within a configurable
// relative tolerance; payments are reported as the upper end of the
// bracket, so they never undercharge by more than the bracket width and
// never exceed the declared value (individual rationality).
//
// For Algorithm 1 itself the serving path does not bisect: the exact
// value is read off the run without the winner (ufp/bounded_ufp.hpp) —
// cold, one replay from line 4 (bounded_ufp_critical_value); in the
// engine, a replay of only the run after the winner's selection,
// resumed from the epoch solve's checkpoint (winner_critical_value).
// Against it this reference reads b with p <= b <= p + tolerance *
// max(1, b).
#pragma once

#include <vector>

#include "tufp/mechanism/allocation_rule.hpp"

namespace tufp {

struct PaymentOptions {
  // Bisection stops when hi - lo <= tolerance * max(1, hi).
  double tolerance = 1e-6;
  int max_bisection_steps = 80;
};

struct UfpMechanismResult {
  UfpSolution allocation;
  std::vector<double> payments{};   // per request; 0 for losers
  std::vector<double> utilities{};  // v_r - payment for winners, else 0
  long rule_evaluations = 0;      // total allocation-rule re-runs
};

struct MucaMechanismResult {
  MucaSolution allocation;
  std::vector<double> payments{};
  std::vector<double> utilities{};
  long rule_evaluations = 0;
};

// Runs allocation + critical payments for every winner. The rule must be
// monotone for the output to be a truthful mechanism; the function itself
// only requires that rule(instance) is deterministic.
UfpMechanismResult run_ufp_mechanism(const UfpInstance& instance,
                                     const UfpRule& rule,
                                     const PaymentOptions& options = {});

MucaMechanismResult run_muca_mechanism(const MucaInstance& instance,
                                       const MucaRule& rule,
                                       const PaymentOptions& options = {});

// Whether `rule` selects request r when r declares value v, every other
// declaration (and r's demand) as in `instance`: the probe every
// critical-value bisection and exactness check is built on.
bool ufp_wins_at(const UfpInstance& instance, const UfpRule& rule, int r,
                 double v);

// The critical value of request r under `rule` at its declared demand
// (bisection; requires r to win at its declared value). Exposed for tests
// and the truthfulness auditors.
double ufp_critical_value(const UfpInstance& instance, const UfpRule& rule,
                          int r, const PaymentOptions& options = {},
                          long* evaluations = nullptr);

double muca_critical_value(const MucaInstance& instance, const MucaRule& rule,
                           int r, const PaymentOptions& options = {},
                           long* evaluations = nullptr);

// The other axis of the two-parameter type (d_r, v_r): the largest demand
// at which request r still wins, holding its declared value fixed.
// Monotonicity (Definition 2.1) makes the winning demand set down-closed,
// so the threshold is well defined; the bisection searches (declared, 1]
// and returns the known-winning end of the bracket. Requires r to win at
// its declared demand. Useful for diagnosing how much headroom a winner
// has, and exercised by the truthfulness tests (over-declaring demand
// beyond this threshold loses).
double ufp_critical_demand(const UfpInstance& instance, const UfpRule& rule,
                           int r, const PaymentOptions& options = {},
                           long* evaluations = nullptr);

}  // namespace tufp
