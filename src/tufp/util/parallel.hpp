// The library's one parallelism policy, and its one fork/join helper.
//
// Policy: everything runs serially unless a caller asks for threads.
// BoundedUfpConfig::num_threads and BoundedUfpRepeatConfig::num_threads
// default to 1; a caller that wants a team says how large (0 = the
// OpenMP runtime default, all cores unless OMP_NUM_THREADS says less).
// A solve that runs inside a parallel_for task (the engine's critical
// replays, the lab's cells) runs with num_threads = 1, so no region
// nests another.
//
// Output never depends on the thread count: every parallel_for body
// writes only its own task's slots, and callers read them back in task
// order. Neither does failure: whatever the team, every task runs once
// and the exception of the lowest-index task that threw reaches the
// caller after the join — never std::terminate from inside a worker.
//
// This header is the only code that uses OpenMP, which the build
// requires.
#pragma once

#include <cstddef>
#include <exception>

#include <omp.h>

namespace tufp {

// Threads a parallel region would use for the given request (0 = runtime
// default).
inline int effective_num_threads(int requested) {
  return requested > 0 ? requested : omp_get_max_threads();
}

// Runs body(i, worker) once for every i in [0, count). The team is
// effective_num_threads(num_threads); `worker` is in [0, team) and no two
// tasks run on the same worker at once, so it indexes per-thread
// scratch. A team of one, or a single task, is a plain loop on the
// calling thread that forks nothing. Otherwise tasks are dealt one at a
// time (dynamic schedule; their costs are uneven) to the full team, even
// when there are fewer tasks than threads: a team that shrinks makes
// libgomp end the surplus threads, and the next full team starts them
// again. When tasks throw, the lowest index's exception is rethrown
// after all tasks ran, at any team size.
template <class Body>
void parallel_for(std::size_t count, int num_threads, Body&& body) {
  const int team = effective_num_threads(num_threads);
  std::exception_ptr error;
  std::size_t error_index = count;
  const auto task = [&](std::size_t i, int worker) {
    try {
      body(i, worker);
    } catch (...) {
#pragma omp critical(tufp_parallel_for_error)
      if (i < error_index) {
        error_index = i;
        error = std::current_exception();
      }
    }
  };
  if (team > 1 && count > 1) {
#pragma omp parallel for schedule(dynamic, 1) num_threads(team)
    for (std::size_t i = 0; i < count; ++i) task(i, omp_get_thread_num());
  } else {
    for (std::size_t i = 0; i < count; ++i) task(i, 0);
  }
  if (error) std::rethrow_exception(error);
}

}  // namespace tufp
