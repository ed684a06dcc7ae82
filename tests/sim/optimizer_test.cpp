#include "sim/optimizer.h"

#include <gtest/gtest.h>

#include "common/error.h"
#include "reliability/weibull.h"
#include "sim/trace.h"

namespace shiraz::sim {
namespace {

Engine make_engine(double mtbf_hours) {
  EngineConfig cfg;
  cfg.t_total = hours(1000.0);
  return Engine(reliability::Weibull::from_mtbf(0.6, hours(mtbf_hours)), cfg);
}

TEST(Optimizer, CandidateDeltasAreConsistent) {
  const Engine engine = make_engine(5.0);
  const SimJob lw = SimJob::at_oci("lw", hours(0.02), hours(5.0));
  const SimJob hw = SimJob::at_oci("hw", hours(0.5), hours(5.0));
  const SimSwitchCandidate c = simulate_switch_point(engine, lw, hw, 13, 16, 7);
  EXPECT_NEAR(c.delta_total, c.delta_lw + c.delta_hw, 1e-9);
  EXPECT_EQ(c.k, 13);
}

TEST(Optimizer, SimulatedFairPointNearModelPrediction) {
  // Table 2 exascale, delta-factor 25: model predicts k = 13; the simulated
  // fair point must land within the paper's reported tolerance of 2.
  const Engine engine = make_engine(5.0);
  const SimJob lw = SimJob::at_oci("lw", hours(0.02), hours(5.0));
  const SimJob hw = SimJob::at_oci("hw", hours(0.5), hours(5.0));
  const SimSwitchSolution sol = find_fair_k_by_simulation(engine, lw, hw, 8, 19, 24, 3);
  ASSERT_TRUE(sol.beneficial());
  EXPECT_NEAR(*sol.k, 13, 2.0);
  EXPECT_GT(sol.delta_total, 0.0);
}

TEST(Optimizer, SweepCoversRequestedRange) {
  const Engine engine = make_engine(5.0);
  const SimJob lw = SimJob::at_oci("lw", hours(0.02), hours(5.0));
  const SimJob hw = SimJob::at_oci("hw", hours(0.5), hours(5.0));
  const SimSwitchSolution sol = find_fair_k_by_simulation(engine, lw, hw, 5, 9, 4, 3);
  ASSERT_EQ(sol.sweep.size(), 5u);
  EXPECT_EQ(sol.sweep.front().k, 5);
  EXPECT_EQ(sol.sweep.back().k, 9);

  // The sweep needs periodic schedules: an aperiodic (lazy) pair is rejected,
  // by the search and by the sweep itself.
  const SimJob lazy_lw = SimJob::lazy("lw", hours(0.02), hours(5.0), 0.6);
  const SimJob lazy_hw = SimJob::lazy("hw", hours(0.5), hours(5.0), 0.6);
  EXPECT_THROW(find_fair_k_by_simulation(engine, lazy_lw, lazy_hw, 5, 9, 4, 3),
               InvalidArgument);
  const TraceStore traces(engine, 3);
  EXPECT_THROW(replay_pair_sweep(engine, lazy_lw, lazy_hw, 5, 9, 4, traces),
               InvalidArgument);
}

TEST(Optimizer, DeltaLwIncreasesAcrossSweep) {
  const Engine engine = make_engine(5.0);
  const SimJob lw = SimJob::at_oci("lw", hours(0.02), hours(5.0));
  const SimJob hw = SimJob::at_oci("hw", hours(0.5), hours(5.0));
  const SimSwitchSolution sol =
      find_fair_k_by_simulation(engine, lw, hw, 4, 24, 16, 11);
  // With common random numbers the sim Delta curves inherit the model's
  // monotonicity up to residual noise.
  EXPECT_LT(sol.sweep.front().delta_lw, sol.sweep.back().delta_lw);
  EXPECT_GT(sol.sweep.front().delta_hw, sol.sweep.back().delta_hw);
}

TEST(Optimizer, RejectsBadRange) {
  const Engine engine = make_engine(5.0);
  const SimJob lw = SimJob::at_oci("lw", hours(0.02), hours(5.0));
  const SimJob hw = SimJob::at_oci("hw", hours(0.5), hours(5.0));
  EXPECT_THROW(find_fair_k_by_simulation(engine, lw, hw, 0, 5, 4, 3), InvalidArgument);
  EXPECT_THROW(find_fair_k_by_simulation(engine, lw, hw, 5, 4, 4, 3), InvalidArgument);
}

}  // namespace
}  // namespace shiraz::sim
