#include "checkpoint/schedule.h"

#include <gtest/gtest.h>

#include "checkpoint/oci.h"
#include "common/error.h"
#include "sim/job.h"

namespace shiraz::checkpoint {
namespace {

TEST(Equidistant, ConstantInterval) {
  const EquidistantSchedule s(600.0);
  EXPECT_DOUBLE_EQ(s.next_interval(0.0), 600.0);
  EXPECT_DOUBLE_EQ(s.next_interval(hours(7.0)), 600.0);
}

TEST(Equidistant, RejectsNonPositiveInterval) {
  EXPECT_THROW(EquidistantSchedule(0.0), InvalidArgument);
  EXPECT_THROW(EquidistantSchedule(-5.0), InvalidArgument);
}

TEST(Equidistant, CloneIsIndependentEquivalent) {
  const EquidistantSchedule s(300.0);
  const auto copy = s.clone();
  EXPECT_DOUBLE_EQ(copy->next_interval(0.0), 300.0);
  EXPECT_EQ(copy->name(), s.name());
}

TEST(Stretched, MultipliesBaseInterval) {
  const Seconds oci = optimal_interval(hours(5.0), 300.0, OciFormula::kYoung);
  const sim::SimJob job = sim::SimJob::at_oci("hw", 300.0, hours(5.0), 3);
  EXPECT_DOUBLE_EQ(job.schedule->next_interval(0.0), 3.0 * oci);
  EXPECT_DOUBLE_EQ(job.schedule->next_interval(hours(2.0)), 3.0 * oci);
  ASSERT_TRUE(job.schedule->period().has_value());
  EXPECT_EQ(*job.schedule->period(), 3.0 * oci);
}

TEST(Stretched, FactorOneEqualsEquidistant) {
  const Seconds oci = optimal_interval(hours(5.0), 300.0, OciFormula::kYoung);
  const sim::SimJob job = sim::SimJob::at_oci("lw", 300.0, hours(5.0), 1);
  EXPECT_EQ(job.schedule->next_interval(hours(1.0)), oci);
  EXPECT_EQ(job.schedule->name(), EquidistantSchedule(oci).name());
}

TEST(Stretched, RejectsZeroFactor) {
  EXPECT_THROW(sim::SimJob::at_oci("hw", 300.0, hours(5.0), 0), InvalidArgument);
}

TEST(Lazy, IntervalGrowsWithElapsedTime) {
  // Tiwari et al.'s core property: as the Weibull hazard decays after a
  // failure, checkpoints spread out.
  const LazySchedule s(300.0, hours(5.0), 0.6);
  const Seconds early = s.next_interval(0.0);
  const Seconds mid = s.next_interval(hours(2.0));
  const Seconds late = s.next_interval(hours(10.0));
  EXPECT_LT(early, mid);
  EXPECT_LT(mid, late);
}

TEST(Lazy, NeverBelowTheClassicOci) {
  const Seconds mtbf = hours(5.0);
  const Seconds delta = 300.0;
  const LazySchedule s(delta, mtbf, 0.6);
  const Seconds floor = optimal_interval(mtbf, delta, OciFormula::kYoung);
  EXPECT_GE(s.next_interval(0.0), floor);
}

TEST(Lazy, ShapeOneDegeneratesToConstantInterval) {
  // With beta = 1 the hazard is flat, so lazy checkpointing never stretches.
  const LazySchedule s(300.0, hours(5.0), 1.0);
  EXPECT_NEAR(s.next_interval(0.0), s.next_interval(hours(20.0)), 1.0);
}

TEST(Lazy, RejectsIncreasingHazardShapes) {
  EXPECT_THROW(LazySchedule(300.0, hours(5.0), 1.5), InvalidArgument);
  EXPECT_THROW(LazySchedule(0.0, hours(5.0), 0.6), InvalidArgument);
}

TEST(Lazy, ProducesNonEquidistantCheckpointsOverAGap) {
  // Walk a failure-free gap; intervals are non-decreasing (the OCI floor can
  // pin the first few) and must have stretched clearly by the end — the
  // non-equidistance that makes Lazy unattractive for progress monitoring
  // (paper Section 6) and that Shiraz deliberately avoids.
  const LazySchedule s(300.0, hours(5.0), 0.6);
  Seconds t = 0.0;
  Seconds prev = 0.0;
  Seconds first = 0.0;
  Seconds last = 0.0;
  for (int i = 0; i < 10; ++i) {
    const Seconds tau = s.next_interval(t);
    EXPECT_GE(tau, prev);
    if (i == 0) first = tau;
    last = tau;
    prev = tau;
    t += tau + 300.0;
  }
  EXPECT_GT(last, 1.2 * first);
}

}  // namespace
}  // namespace shiraz::checkpoint
