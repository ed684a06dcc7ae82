// Checkpoint interval schedules.
//
// A schedule answers one question for the simulator: "given how long this
// application has been running since the last failure/restart, how long is the
// next compute interval before it checkpoints?" Equidistant schedules cover
// the baseline and Shiraz; a stretched schedule covers Shiraz+; the Lazy
// schedule implements the Tiwari et al. (DSN'14) comparator discussed in the
// paper's related work.
#pragma once

#include <memory>
#include <optional>
#include <string>

#include "common/units.h"

namespace shiraz::checkpoint {

class IntervalSchedule {
 public:
  virtual ~IntervalSchedule() = default;

  /// Length of the next compute interval when `elapsed_since_restart` seconds
  /// have passed since the last failure (or job start).
  virtual Seconds next_interval(Seconds elapsed_since_restart) const = 0;

  /// The constant interval when this schedule is periodic (the same value for
  /// every elapsed time), else nullopt. A non-null period MUST equal every
  /// next_interval() return bit for bit — consumers (the flat kernel and the
  /// pair sweep in sim/optimizer.cpp, which requires it) substitute it for the
  /// virtual call and rely on exact equality to stay bit-identical to the
  /// event loop.
  virtual std::optional<Seconds> period() const { return std::nullopt; }

  virtual std::string name() const = 0;
  virtual std::unique_ptr<IntervalSchedule> clone() const = 0;
};

using IntervalSchedulePtr = std::unique_ptr<IntervalSchedule>;

/// Fixed, equidistant checkpoint intervals (the paper's default; both Shiraz
/// and Shiraz+ deliberately keep checkpoints equidistant — Section 6).
class EquidistantSchedule final : public IntervalSchedule {
 public:
  explicit EquidistantSchedule(Seconds interval);

  Seconds interval() const { return interval_; }
  Seconds next_interval(Seconds) const override { return interval_; }
  std::optional<Seconds> period() const override { return interval_; }
  std::string name() const override;
  IntervalSchedulePtr clone() const override;

 private:
  Seconds interval_;
};

/// Equidistant intervals stretched by an integer factor — Shiraz+'s
/// heavy-weight application schedule (paper Fig. 8).
class StretchedSchedule final : public IntervalSchedule {
 public:
  StretchedSchedule(Seconds base_interval, unsigned factor);

  unsigned factor() const { return factor_; }
  Seconds next_interval(Seconds) const override;
  std::optional<Seconds> period() const override;
  std::string name() const override;
  IntervalSchedulePtr clone() const override;

 private:
  Seconds base_interval_;
  unsigned factor_;
};

/// Lazy checkpointing (Tiwari, Gupta, Vazhkudai — DSN'14): the interval grows
/// with elapsed time as the Weibull hazard decays,
///   tau(t) = sqrt(2 * delta / h(t)),  h(t) = (beta/lambda) * (t/lambda)^(beta-1),
/// floored at the classic OCI so the schedule never checkpoints more often
/// than the equidistant optimum.
class LazySchedule final : public IntervalSchedule {
 public:
  LazySchedule(Seconds delta, Seconds mtbf, double weibull_shape);

  Seconds next_interval(Seconds elapsed_since_restart) const override;
  std::string name() const override;
  IntervalSchedulePtr clone() const override;

 private:
  Seconds delta_;
  Seconds scale_;
  double shape_;
  Seconds floor_interval_;
};

}  // namespace shiraz::checkpoint
