// The one fork/join helper (util/parallel.hpp): every task runs exactly
// once, worker ids index per-thread scratch, and a throwing task reaches
// the caller as the lowest index's exception at any team size.
#include "tufp/util/parallel.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

namespace tufp {
namespace {

TEST(ParallelFor, EveryTaskRunsOnceOnAValidWorker) {
  for (const std::size_t count : {0, 1, 100}) {
    for (const int threads : {1, 4}) {
      const int team = effective_num_threads(threads);
      std::vector<std::atomic<int>> runs(count);
      std::vector<int> worker_of(count, -1);
      parallel_for(count, threads, [&](std::size_t i, int worker) {
        runs[i].fetch_add(1);
        worker_of[i] = worker;
      });
      for (std::size_t i = 0; i < count; ++i) {
        EXPECT_EQ(runs[i].load(), 1)
            << "task " << i << " of " << count << ", " << threads
            << " threads";
        EXPECT_GE(worker_of[i], 0);
        EXPECT_LT(worker_of[i], team);
      }
    }
  }
}

TEST(ParallelFor, LowestIndexExceptionReachesTheCaller) {
  // Tasks 3 and 7 throw; whatever the team and whichever finishes first,
  // the caller sees task 3's exception, after every task ran once.
  for (const int threads : {4, 1}) {
    std::vector<std::atomic<int>> runs(16);
    try {
      parallel_for(runs.size(), threads, [&](std::size_t i, int) {
        runs[i].fetch_add(1);
        if (i == 3 || i == 7) {
          throw std::runtime_error("task " + std::to_string(i));
        }
      });
      ADD_FAILURE() << "no exception at " << threads << " threads";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "task 3") << threads << " threads";
    }
    for (std::size_t i = 0; i < runs.size(); ++i) {
      EXPECT_EQ(runs[i].load(), 1) << "task " << i << ", " << threads
                                   << " threads";
    }
  }
}

}  // namespace
}  // namespace tufp
