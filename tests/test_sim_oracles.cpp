#include "tufp/sim/oracles.hpp"

#include <gtest/gtest.h>

#include <sstream>

#include "tufp/sim/world_gen.hpp"
#include "tufp/workload/io.hpp"

namespace tufp::sim {
namespace {

TEST(SimOracles, FullCatalogueCleanOnHealthyWorlds) {
  const OracleOptions options;
  for (WorldFamily family :
       {WorldFamily::kGrid, WorldFamily::kStaircase, WorldFamily::kRing}) {
    for (std::uint64_t seed : {11ULL, 23ULL}) {
      const SimWorld world = generate_world({family, seed});
      const std::vector<Violation> violations =
          run_oracle_suite(world, options);
      for (const Violation& v : violations) {
        ADD_FAILURE() << family_name(family) << " seed " << seed << ": "
                      << v.oracle << ": " << v.detail;
      }
    }
  }
}

TEST(SimOracles, CatalogueNamesAreUniqueAndSelectable) {
  const auto catalogue = oracle_catalogue();
  ASSERT_GE(catalogue.size(), 10u);
  for (const OracleEntry& entry : catalogue) {
    for (const OracleEntry& other : catalogue) {
      if (&entry != &other) EXPECT_STRNE(entry.name, other.name);
    }
    // Every oracle runs standalone through the subset path.
    const SimWorld world = generate_world({WorldFamily::kGrid, 5});
    const std::vector<std::string> only{entry.name};
    EXPECT_TRUE(run_oracle_suite(world, OracleOptions{}, only).empty())
        << entry.name;
  }
}

TEST(SimOracles, UnknownOracleNameThrows) {
  // The names of the four engine differentials merged into
  // engine-differential select nothing either.
  const SimWorld world = generate_world({WorldFamily::kGrid, 5});
  for (const char* name :
       {"not-an-oracle", "engine-thread", "temporal-infinite",
        "residual-differential", "trace-differential"}) {
    EXPECT_EQ(find_oracle(name), nullptr) << name;
    const std::vector<std::string> only{name};
    EXPECT_THROW(run_oracle_suite(world, OracleOptions{}, only),
                 std::invalid_argument)
        << name;
  }
}

TEST(SimOracles, ThrowingOracleIsReportedAsItsViolation) {
  // epsilon = 2 is outside Bounded-UFP's (0, 1]: the solve `feasible`
  // reads throws std::invalid_argument, and the suite reports that as
  // the oracle's violation instead of letting it end the sweep.
  Graph g = Graph::directed(2);
  g.add_edge(0, 1, 4.0);
  g.finalize();
  BoundedUfpConfig solver;
  solver.epsilon = 2.0;
  const SimWorld world = wrap_instance(
      UfpInstance(std::move(g), {Request{0, 1, 1.0, 1.0}}), solver, 2);
  const std::vector<std::string> only{"feasible"};
  const std::vector<Violation> violations =
      run_oracle_suite(world, OracleOptions{}, only);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].oracle, "feasible");
  EXPECT_TRUE(violations[0].detail.starts_with(kThrewPrefix))
      << violations[0].detail;
  EXPECT_NE(violations[0].detail.find("epsilon outside (0,1]"),
            std::string::npos)
      << violations[0].detail;
}

// First grid world whose auction actually admits somebody (a world can
// sample the faithful stop threshold and clear nothing; faults on winners
// need winners).
SimWorld world_with_winners() {
  for (std::uint64_t seed = 1;; ++seed) {
    SimWorld world = generate_world({WorldFamily::kGrid, seed});
    const SimPricing pricing =
        sim_price(world.instance, world.solver, OracleOptions{});
    if (pricing.allocation.num_selected() > 0) return world;
  }
}

TEST(SimOracles, OverchargeFaultBreaksIndividualRationality) {
  const SimWorld world = world_with_winners();
  OracleOptions options;
  options.fault = FaultInjection::kOverchargeWinners;
  const std::vector<std::string> only{"payments-ir"};
  const std::vector<Violation> violations =
      run_oracle_suite(world, options, only);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations.front().oracle, "payments-ir");
  EXPECT_NE(violations.front().detail.find("above its bid"),
            std::string::npos);
}

TEST(SimOracles, ChargeLosersFaultBreaksLoserPaysZero) {
  // A saturating world guarantees losers exist for the fault to hit.
  OracleOptions options;
  options.fault = FaultInjection::kChargeLosers;
  const std::vector<std::string> only{"payments-ir"};
  bool caught = false;
  for (std::uint64_t seed = 1; seed <= 10 && !caught; ++seed) {
    const SimWorld world = generate_world({WorldFamily::kSingleSink, seed});
    caught = !run_oracle_suite(world, options, only).empty();
  }
  EXPECT_TRUE(caught);
}

TEST(SimOracles, SimPriceFaultSemantics) {
  const SimWorld world = world_with_winners();
  OracleOptions clean;
  const SimPricing honest = sim_price(world.instance, world.solver, clean);
  OracleOptions broken;
  broken.fault = FaultInjection::kOverchargeWinners;
  const SimPricing faulty = sim_price(world.instance, world.solver, broken);

  ASSERT_GT(honest.allocation.num_selected(), 0);
  for (int r = 0; r < world.instance.num_requests(); ++r) {
    const auto i = static_cast<std::size_t>(r);
    const double bid = world.instance.request(r).value;
    // The fault touches payments only, never the allocation.
    EXPECT_EQ(honest.allocation.is_selected(r),
              faulty.allocation.is_selected(r));
    if (honest.allocation.is_selected(r)) {
      EXPECT_LE(honest.payments[i], bid + 1e-9);
      EXPECT_GT(faulty.payments[i], bid);
    } else {
      EXPECT_EQ(honest.payments[i], 0.0);
      EXPECT_EQ(faulty.payments[i], 0.0);
    }
  }
}

TEST(SimOracles, WrappedInstanceReplaysThroughTheSuite) {
  const SimWorld world = generate_world({WorldFamily::kRandomSparse, 29});
  std::stringstream ss;
  save_ufp(world.instance, ss);
  const SimWorld replay = wrap_instance(load_ufp(ss));
  EXPECT_EQ(replay.instance.num_requests(), world.instance.num_requests());
  EXPECT_TRUE(run_oracle_suite(replay, OracleOptions{}).empty());
}

TEST(SimOracles, FaultNamesRoundTrip) {
  for (FaultInjection f :
       {FaultInjection::kNone, FaultInjection::kOverchargeWinners,
        FaultInjection::kChargeLosers, FaultInjection::kLeakExpiredCapacity}) {
    EXPECT_EQ(fault_from_name(fault_name(f)), f);
  }
  EXPECT_THROW(fault_from_name("bogus"), std::invalid_argument);
}

}  // namespace
}  // namespace tufp::sim
