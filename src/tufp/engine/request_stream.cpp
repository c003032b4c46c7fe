#include "tufp/engine/request_stream.hpp"

#include <cmath>
#include <utility>

#include "tufp/util/assert.hpp"

namespace tufp {

namespace {

// Exponential inter-arrival sample via inverse CDF. next_double() is in
// [0,1); flip to (0,1] so log() never sees zero.
double exponential_gap(Rng& rng, double rate) {
  return -std::log(1.0 - rng.next_double()) / rate;
}

// Private seed stream for the duration sampler: distinct from both the
// body RNG (raw seed) and the arrival RNG (~seed), so adding or removing
// durations never shifts what the other two draw.
std::uint64_t duration_seed(std::uint64_t seed) {
  return SplitMix64(seed ^ 0x7e3a9c155d2f8b41ULL).next();
}

}  // namespace

PoissonStream::PoissonStream(std::shared_ptr<const Graph> graph,
                             const RequestGenConfig& config, double rate,
                             std::int64_t limit, std::uint64_t seed,
                             const DurationConfig& durations)
    : graph_(std::move(graph)),
      sampler_(*graph_, config),
      rng_(seed),
      arrival_rng_(SplitMix64(~seed).next()),
      durations_(durations, duration_seed(seed)),
      rate_(rate),
      limit_(limit) {
  TUFP_REQUIRE(rate > 0.0, "Poisson rate must be positive");
  TUFP_REQUIRE(limit >= 0, "negative stream limit");
}

bool PoissonStream::next(TimedRequest* out) {
  TUFP_REQUIRE(out != nullptr, "next() needs an output slot");
  if (emitted_ >= limit_) return false;
  clock_ += exponential_gap(arrival_rng_, rate_);
  out->arrival_time = clock_;
  out->sequence = emitted_++;
  out->duration = durations_.sample(clock_);
  out->request = sampler_.sample(rng_);
  return true;
}

BurstStream::BurstStream(std::shared_ptr<const Graph> graph,
                         const RequestGenConfig& config, double period,
                         int burst_size, std::int64_t limit,
                         std::uint64_t seed,
                         const DurationConfig& durations)
    : graph_(std::move(graph)),
      sampler_(*graph_, config),
      rng_(seed),
      durations_(durations, duration_seed(seed)),
      period_(period),
      burst_size_(burst_size),
      limit_(limit) {
  TUFP_REQUIRE(period > 0.0, "burst period must be positive");
  TUFP_REQUIRE(burst_size >= 1, "burst size must be positive");
  TUFP_REQUIRE(limit >= 0, "negative stream limit");
}

bool BurstStream::next(TimedRequest* out) {
  TUFP_REQUIRE(out != nullptr, "next() needs an output slot");
  if (emitted_ >= limit_) return false;
  const std::int64_t burst_index = emitted_ / burst_size_;
  out->arrival_time = static_cast<double>(burst_index) * period_;
  out->sequence = emitted_++;
  out->duration = durations_.sample(out->arrival_time);
  out->request = sampler_.sample(rng_);
  return true;
}

BoundedRequestQueue::BoundedRequestQueue(std::size_t capacity)
    : capacity_(capacity) {
  TUFP_REQUIRE(capacity >= 1, "queue capacity must be positive");
}

bool BoundedRequestQueue::push(const TimedRequest& request) {
  if (queue_.size() >= capacity_) return false;
  queue_.push_back(request);
  return true;
}

bool BoundedRequestQueue::pop(TimedRequest* out) {
  TUFP_REQUIRE(out != nullptr, "pop() needs an output slot");
  if (queue_.empty()) return false;
  *out = queue_.front();
  queue_.pop_front();
  return true;
}

}  // namespace tufp
