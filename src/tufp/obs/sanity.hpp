// In-service sanity oracles (DESIGN.md §11).
//
// The PR-5 conservation oracles run offline against sim-world replays;
// these are their *live* counterparts, reading the running engine's state
// directly so a resident daemon can validate itself inside the serving
// loop — the mod_virgule pattern, where net_flow_sanity_check runs against
// the live flow structure the site is serving from, not a test fixture.
// They are pure reads (no allocation mutation, no clock movement), cheap
// (O(edges)), and deterministic, so a `--sanity every-N` cadence changes
// nothing about the admission history.
//
// The catalogue, mirroring the sim oracle names:
//   * feasible           — residual within [0, base capacity] on every
//                          edge (Lemma 3.3's feasibility, live).
//   * temporal-conserve  — per edge: active leased demand + residual ==
//                          base capacity (tolerance: residuals are
//                          maintained incrementally, so equality holds to
//                          accumulation error, same bound the sim oracle
//                          uses).
//   * temporal-no-leak   — an edge with NO active lease holds its base
//                          capacity EXACTLY (==, not a tolerance: the
//                          ledger snaps on last expiry, DESIGN.md §10).
//
// These catch exactly the class of bug the reclaim path can have: capacity
// leaked on expiry (injectable via EpochEngineConfig::inject_reclaim_leak
// to prove the checks bite), double-returned capacity, or a residual
// drifting from the lease book.
#pragma once

#include <string>
#include <vector>

#include "tufp/engine/epoch_engine.hpp"

namespace tufp::obs {

struct SanityViolation {
  std::string check;   // catalogue name
  std::string detail;  // deterministic human-readable witness
};

// Number of checks a sweep runs against this engine (always the three
// above) — reported in telemetry `sanity` events.
int sanity_check_count(const EpochEngine& engine);

// Runs every applicable check against the engine's current state.
// Violations are reported in catalogue order, first offending edge per
// check (one witness is enough to abort on; the repro dump is the
// debugging artifact).
std::vector<SanityViolation> run_sanity_checks(const EpochEngine& engine);

}  // namespace tufp::obs
