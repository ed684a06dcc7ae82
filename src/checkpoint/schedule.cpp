#include "checkpoint/schedule.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"
#include "common/mathx.h"
#include "checkpoint/oci.h"

namespace shiraz::checkpoint {

EquidistantSchedule::EquidistantSchedule(Seconds interval) : interval_(interval) {
  SHIRAZ_REQUIRE(interval > 0.0, "interval must be positive");
}

std::string EquidistantSchedule::name() const {
  std::ostringstream os;
  os << "Equidistant(" << interval_ << "s)";
  return os.str();
}

IntervalSchedulePtr EquidistantSchedule::clone() const {
  return std::make_unique<EquidistantSchedule>(*this);
}

LazySchedule::LazySchedule(Seconds delta, Seconds mtbf, double weibull_shape)
    : delta_(delta),
      scale_(mtbf / mathx::gamma_fn(1.0 + 1.0 / weibull_shape)),
      shape_(weibull_shape),
      floor_interval_(optimal_interval(mtbf, delta, OciFormula::kYoung)) {
  SHIRAZ_REQUIRE(delta > 0.0, "checkpoint cost must be positive");
  SHIRAZ_REQUIRE(mtbf > 0.0, "MTBF must be positive");
  SHIRAZ_REQUIRE(weibull_shape > 0.0 && weibull_shape <= 1.0,
                 "lazy checkpointing targets decreasing-hazard shapes (0,1]");
}

Seconds LazySchedule::next_interval(Seconds elapsed_since_restart) const {
  // Evaluate the hazard a floor-interval ahead of `elapsed` so the very first
  // interval (t = 0, where a beta < 1 Weibull hazard diverges) is finite.
  const Seconds t = std::max(elapsed_since_restart + floor_interval_, floor_interval_);
  const double hazard =
      shape_ / scale_ * std::pow(t / scale_, shape_ - 1.0);
  const Seconds tau = std::sqrt(2.0 * delta_ / hazard);
  return std::max(tau, floor_interval_);
}

std::string LazySchedule::name() const {
  std::ostringstream os;
  os << "Lazy(delta=" << delta_ << "s, beta=" << shape_ << ")";
  return os.str();
}

IntervalSchedulePtr LazySchedule::clone() const {
  return std::make_unique<LazySchedule>(*this);
}

}  // namespace shiraz::checkpoint
