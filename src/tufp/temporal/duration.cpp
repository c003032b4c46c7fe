#include "tufp/temporal/duration.hpp"

#include <cmath>
#include <stdexcept>

#include "tufp/util/assert.hpp"
#include "tufp/util/math.hpp"

namespace tufp {

namespace {

// Pareto shape for the heavy-tailed profile: α = 1.5 has finite mean but
// infinite variance — the classic "elephants and mice" holding-time mix.
constexpr double kParetoAlpha = 1.5;
constexpr double kPi = 3.14159265358979323846;

}  // namespace

const char* duration_profile_name(DurationProfile profile) {
  switch (profile) {
    case DurationProfile::kInfinite: return "infinite";
    case DurationProfile::kFixed: return "fixed";
    case DurationProfile::kExponential: return "exponential";
    case DurationProfile::kHeavyTailed: return "heavy-tailed";
    case DurationProfile::kDiurnal: return "diurnal";
    case DurationProfile::kFlashCrowd: return "flash-crowd";
    case DurationProfile::kAuto: return "auto";
  }
  return "unknown";
}

DurationProfile duration_profile_from_name(const std::string& name) {
  for (DurationProfile p : kAllDurationProfiles) {
    if (name == duration_profile_name(p)) return p;
  }
  throw std::invalid_argument("unknown duration profile: " + name);
}

DurationSampler::DurationSampler(const DurationConfig& config,
                                 std::uint64_t seed)
    : config_(config), rng_(seed) {
  TUFP_REQUIRE(config.profile != DurationProfile::kAuto,
               "kAuto is a sim-layer sentinel, not a samplable profile");
  if (config.profile != DurationProfile::kInfinite) {
    TUFP_REQUIRE(config.mean > 0.0 && std::isfinite(config.mean),
                 "duration mean must be positive and finite");
    TUFP_REQUIRE(config.period > 0.0 && std::isfinite(config.period),
                 "duration period must be positive and finite");
  }
}

double DurationSampler::sample(double arrival_time) {
  switch (config_.profile) {
    case DurationProfile::kInfinite:
      return kInf;
    case DurationProfile::kFixed:
      return config_.mean;
    case DurationProfile::kExponential:
      // Inverse CDF on (0,1]: log never sees zero, duration never is.
      return -config_.mean * std::log(1.0 - rng_.next_double());
    case DurationProfile::kHeavyTailed: {
      // Pareto with x_m chosen so the mean matches config_.mean:
      // mean = x_m * α/(α-1)  =>  x_m = mean (α-1)/α.
      const double xm = config_.mean * (kParetoAlpha - 1.0) / kParetoAlpha;
      const double u = rng_.next_double();  // in [0,1)
      return xm * std::pow(1.0 - u, -1.0 / kParetoAlpha);
    }
    case DurationProfile::kDiurnal: {
      // Phase in [0,1] of the arrival within the cycle scales an
      // exponential base draw by [0.3, 1.7]: mean over a full cycle stays
      // config_.mean, but leases cluster long at peak and short at trough.
      const double phase =
          0.5 * (1.0 + std::sin(2.0 * kPi * arrival_time / config_.period));
      const double base = -config_.mean * std::log(1.0 - rng_.next_double());
      return base * (0.3 + 1.4 * phase);
    }
    case DurationProfile::kFlashCrowd: {
      // Expire at the next window boundary strictly after the arrival:
      // every admission of a window releases at the same instant. When
      // t/period rounds to just below an integer m, m*period can round
      // back to t itself (t = 4.3, period 0.1); the boundary after it is
      // the first one strictly later.
      double window = std::floor(arrival_time / config_.period) + 1.0;
      if (!(window * config_.period > arrival_time)) window += 1.0;
      return window * config_.period - arrival_time;
    }
    case DurationProfile::kAuto:
      break;  // rejected by the constructor
  }
  TUFP_CHECK(false, "unhandled duration profile");
}

}  // namespace tufp
