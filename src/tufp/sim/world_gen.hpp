// The generator matrix: WorldSpec -> SimWorld, deterministically.
#pragma once

#include <cstdint>

#include "tufp/sim/world.hpp"

namespace tufp::sim {

// Generates the world named by `spec`. Pure: identical specs yield
// byte-identical worlds (graph, requests, arrivals, config). Never throws
// on any spec — every (family, seed) pair maps to a valid normalized
// B-bounded instance with at least one request.
SimWorld generate_world(const WorldSpec& spec);

// The non-saturating churn tier's world shape, shared by the scale bench,
// the oracle suite and test_engine_leases: a grid mesh under hub-local
// traffic (pooled sources spread across the grid, targets from each hub's
// hop ball) with finite lease durations, so reclaims fire steadily while
// the residual graph never saturates into the blocked-mask fast path.
struct ScaleChurnSpec {
  int rows = 60;
  int cols = 60;
  double capacity = 8.0;
  int num_requests = 2000;
  int max_batch = 64;
  // Hub-locality knobs (workload/request_gen.hpp): `source_stride == 0`
  // auto-spreads the pool evenly across the vertex set.
  int source_pool = 24;
  int source_stride = 0;
  int target_radius = 6;
  // Poisson arrival rate (requests per virtual second) and the finite
  // duration profile driving the churn. Occupancy scales with
  // arrival_rate * duration_mean; the defaults land mid-band on the
  // default grid.
  double arrival_rate = 400.0;
  DurationProfile durations = DurationProfile::kExponential;
  double duration_mean = 0.05;
  // Flash-crowd release window (kFlashCrowd only).
  double duration_period = 0.5;
  std::uint64_t seed = 1;
};

// Builds the churn world named by `spec`. Pure and deterministic like
// generate_world(); requests are reachable by construction (hop-ball
// targets), so no per-sample reachability probe runs even at 10^6
// requests.
SimWorld make_scale_churn_world(const ScaleChurnSpec& spec);

}  // namespace tufp::sim
