// Request streams — the ingestion side of the admission engine.
//
// A RequestStream yields timestamped bid requests in arrival order on a
// virtual clock (seconds since stream start). The adapters below are
// *open-loop*: arrival times are drawn from the traffic model independently
// of how fast the engine drains them, which is the honest way to load-test
// an admission system (a closed loop would throttle offered load to match
// capacity and hide saturation). Request bodies are drawn from
// workload/request_gen over the base graph, so a streaming workload with
// seed s offers exactly the requests the batch generator would produce
// with the same seed.
//
// BoundedRequestQueue is the buffer between ingestion and the epoch
// triggers: FIFO with a hard capacity and tail-drop overflow, the standard
// router discipline. Everything here is deterministic given the seed.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>

#include "tufp/temporal/duration.hpp"
#include "tufp/ufp/instance.hpp"
#include "tufp/util/math.hpp"
#include "tufp/util/rng.hpp"
#include "tufp/workload/request_gen.hpp"

namespace tufp {

struct TimedRequest {
  double arrival_time = 0.0;   // virtual seconds since stream start
  std::int64_t sequence = 0;   // 0-based arrival index, unique per stream
  // Requested lease duration in virtual seconds (temporal/duration.hpp);
  // kInf holds the capacity forever — the pre-temporal semantics.
  double duration = kInf;
  Request request;
};

class RequestStream {
 public:
  virtual ~RequestStream() = default;

  // Yields the next request in nondecreasing arrival-time order. Returns
  // false when the stream is exhausted (*out untouched).
  virtual bool next(TimedRequest* out) = 0;
};

// Poisson process: exponential inter-arrival times at `rate` requests per
// virtual second, `limit` requests total. The arrival clock draws from its
// own RNG stream (derived from the seed), so request bodies consume the
// seed exactly like the batch generator and the offered-workload
// equivalence above holds.
// Both adapters accept a DurationConfig: each emitted request carries a
// lease duration drawn by a DurationSampler from its *own* RNG stream
// (derived from the seed), so the request/arrival sampling is untouched —
// the default kInfinite profile consumes no randomness and the stream is
// byte-identical to its pre-temporal self.
class PoissonStream final : public RequestStream {
 public:
  PoissonStream(std::shared_ptr<const Graph> graph,
                const RequestGenConfig& config, double rate,
                std::int64_t limit, std::uint64_t seed,
                const DurationConfig& durations = {});

  bool next(TimedRequest* out) override;

 private:
  std::shared_ptr<const Graph> graph_;
  RequestSampler sampler_;
  Rng rng_;
  Rng arrival_rng_;
  DurationSampler durations_;
  double rate_;
  std::int64_t limit_;
  std::int64_t emitted_ = 0;
  double clock_ = 0.0;
};

// Burst process: every `period` virtual seconds, `burst_size` requests
// arrive simultaneously — the flash-crowd / top-of-the-hour pattern that
// stresses the bounded queue.
class BurstStream final : public RequestStream {
 public:
  BurstStream(std::shared_ptr<const Graph> graph,
              const RequestGenConfig& config, double period, int burst_size,
              std::int64_t limit, std::uint64_t seed,
              const DurationConfig& durations = {});

  bool next(TimedRequest* out) override;

 private:
  std::shared_ptr<const Graph> graph_;
  RequestSampler sampler_;
  Rng rng_;
  DurationSampler durations_;
  double period_;
  int burst_size_;
  std::int64_t limit_;
  std::int64_t emitted_ = 0;
};

// FIFO buffer with a hard capacity. push() on a full queue rejects the
// newcomer (tail drop); the engine counts it as queue-level load shedding
// (queue_dropped), distinct from auction rejection.
class BoundedRequestQueue {
 public:
  explicit BoundedRequestQueue(std::size_t capacity);

  // False when the queue is full (the request is dropped).
  bool push(const TimedRequest& request);
  // False when the queue is empty.
  bool pop(TimedRequest* out);

  std::size_t size() const { return queue_.size(); }
  std::size_t capacity() const { return capacity_; }
  bool empty() const { return queue_.empty(); }

 private:
  std::deque<TimedRequest> queue_;
  std::size_t capacity_;
};

}  // namespace tufp
