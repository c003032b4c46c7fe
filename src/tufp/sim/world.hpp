// Simulation worlds — the unit of work of the property-fuzz harness.
//
// A SimWorld is one randomized scenario: a normalized B-bounded UfpInstance
// (graph + ordered requests) plus the deterministic knobs the oracle suite
// replays it under — solver config, epoch batching, and synthesized arrival
// times for the streaming oracles. Every field is a pure function of the
// WorldSpec, so a (family, seed) pair names the world completely and the
// fuzz driver can regenerate any world from its log line alone.
//
// The generator matrix (world_gen.hpp) spans the instance distributions
// where UFP solvers are known to break: the paper's staircase adversary,
// single-sink trees in the Shepherd–Vetta style, meshes, sparse random
// graphs, layered DAGs, and Poisson/burst streaming traces materialized
// into arrival-ordered request lists.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "tufp/temporal/duration.hpp"
#include "tufp/ufp/bounded_ufp.hpp"
#include "tufp/ufp/instance.hpp"

namespace tufp::sim {

enum class WorldFamily {
  kStaircase,    // Figure 2 directed staircase (Thm 3.11 adversary)
  kSingleSink,   // random tree oriented into one sink, all requests -> sink
  kGrid,         // undirected mesh, mixed traffic
  kRandomSparse, // random connected directed graph, B-bounded demand mix
  kLayered,      // layered DAG, left-to-right traffic
  kRing,         // cycle — long paths, heavy edge sharing
};

inline constexpr WorldFamily kAllFamilies[] = {
    WorldFamily::kStaircase, WorldFamily::kSingleSink,  WorldFamily::kGrid,
    WorldFamily::kRandomSparse, WorldFamily::kLayered,  WorldFamily::kRing,
};

const char* family_name(WorldFamily family);
// Throws std::invalid_argument on an unknown name.
WorldFamily family_from_name(const std::string& name);

// Complete name of a world: regenerating from an identical spec yields a
// byte-identical world.
struct WorldSpec {
  WorldFamily family = WorldFamily::kGrid;
  std::uint64_t seed = 0;  // world-local seed (not the fuzz run seed)
  // Lease-duration axis (temporal/duration.hpp), crossed with the family
  // matrix. kAuto samples a concrete profile from the seed — from a
  // *separate* RNG stream, so worlds generated before the temporal axis
  // existed are byte-identical under kAuto.
  DurationProfile durations = DurationProfile::kAuto;
};

struct SimWorld {
  WorldSpec spec;
  UfpInstance instance;  // normalized (d <= 1), B >= 1 by construction

  // Arrival time per request, nondecreasing, same length as the request
  // list (all-zero for one-shot families). Only the streaming oracles
  // read them; allocation outcomes are arrival-time independent.
  std::vector<double> arrivals;

  // Lease duration per request (virtual seconds; kInf = permanent), same
  // length as the request list — or empty, meaning all-permanent. Only
  // the churn replays read them (the temporal oracles and the engine
  // differential's churn legs); every other replay of the world holds
  // each admission forever.
  std::vector<double> durations;
  // The concrete profile `durations` was drawn from (spec.durations, or
  // the seed-sampled profile when the spec says kAuto). Log/repro label.
  DurationProfile duration_profile = DurationProfile::kInfinite;

  // Epoch batch size the streaming oracles replay the request list under.
  int max_batch = 16;

  // Per-world solver configuration (epsilon, saturation mode).
  BoundedUfpConfig solver;
};

}  // namespace tufp::sim
