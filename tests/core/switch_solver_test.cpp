#include "core/switch_solver.h"

#include <cstdint>

#include <gtest/gtest.h>

#include "common/error.h"

namespace shiraz::core {
namespace {

ShirazModel make_model(double mtbf_hours) {
  ModelConfig cfg;
  cfg.mtbf = hours(mtbf_hours);
  cfg.t_total = hours(1000.0);
  return ShirazModel(cfg);
}

AppSpec heavy() { return {"hw", hours(0.5), 1}; }
AppSpec light(double delta_factor) { return {"lw", hours(0.5) / delta_factor, 1}; }

// -----------------------------------------------------------------------
// Table 2 reproduction: the paper's model switch points, tolerance +-1
// (the paper itself reports model-vs-sim differences up to 2).
// -----------------------------------------------------------------------

// No padding: gtest prints the param's bytes into the test name, and padding
// bytes are uninitialized, so an int here made the names differ per build.
struct Table2Case {
  double mtbf_hours;
  double delta_factor;
  std::int64_t paper_k;
};

class Table2SwitchPoint : public ::testing::TestWithParam<Table2Case> {};

TEST_P(Table2SwitchPoint, ModelMatchesPaper) {
  const auto [mtbf_hours, factor, paper_k] = GetParam();
  const ShirazModel model = make_model(mtbf_hours);
  const SwitchSolution sol = solve_switch_point(model, light(factor), heavy());
  ASSERT_TRUE(sol.beneficial());
  EXPECT_NEAR(*sol.k, paper_k, 1.0)
      << "MTBF=" << mtbf_hours << "h, delta-factor=" << factor;
}

INSTANTIATE_TEST_SUITE_P(PaperScenarios, Table2SwitchPoint,
                         ::testing::Values(Table2Case{5.0, 5.0, 6},
                                           Table2Case{5.0, 25.0, 13},
                                           Table2Case{5.0, 100.0, 26},
                                           Table2Case{5.0, 1000.0, 81},
                                           Table2Case{20.0, 5.0, 12},
                                           Table2Case{20.0, 25.0, 26},
                                           Table2Case{20.0, 100.0, 51},
                                           Table2Case{20.0, 1000.0, 161}));

// -----------------------------------------------------------------------
// Structural properties of the solver.
// -----------------------------------------------------------------------

TEST(Solver, DeltaLwMonotoneUpDeltaHwMonotoneDown) {
  const ShirazModel model = make_model(5.0);
  SolverOptions opts;
  opts.max_k = 60;
  const SwitchSolution sol = solve_switch_point(model, light(100.0), heavy(), opts);
  ASSERT_GE(sol.sweep.size(), 40u);
  for (std::size_t i = 1; i < sol.sweep.size(); ++i) {
    EXPECT_GE(sol.sweep[i].delta_lw, sol.sweep[i - 1].delta_lw - 1.0);
    EXPECT_LE(sol.sweep[i].delta_hw, sol.sweep[i - 1].delta_hw + 1.0);
  }
}

TEST(Solver, FairPointBalancesGains) {
  const ShirazModel model = make_model(20.0);
  const SwitchSolution sol = solve_switch_point(model, light(25.0), heavy());
  ASSERT_TRUE(sol.beneficial());
  // At the fair point the two gains are within ~a segment of each other.
  EXPECT_NEAR(sol.delta_lw, sol.delta_hw,
              0.15 * std::max(sol.delta_lw, sol.delta_hw) +
                  model.segment(light(25.0)));
}

TEST(Solver, RegionOfInterestBracketsTheFairPoint) {
  // Fig 10: at MTBF 5h, delta-factor 100, the region of interest is k in
  // [24, 28] and the fair point 26.
  const ShirazModel model = make_model(5.0);
  const SwitchSolution sol = solve_switch_point(model, light(100.0), heavy());
  ASSERT_TRUE(sol.beneficial());
  ASSERT_TRUE(sol.region_lo.has_value());
  ASSERT_TRUE(sol.region_hi.has_value());
  EXPECT_LE(*sol.region_lo, *sol.k);
  EXPECT_GE(*sol.region_hi, *sol.k);
  EXPECT_GE(*sol.region_lo, 22);
  EXPECT_LE(*sol.region_hi, 30);
}

TEST(Solver, TotalImprovementGrowsWithDeltaFactor) {
  // Paper observation (2) on Fig 11.
  const ShirazModel model = make_model(5.0);
  double prev = 0.0;
  for (const double factor : {25.0, 100.0, 1000.0}) {
    const SwitchSolution sol = solve_switch_point(model, light(factor), heavy());
    ASSERT_TRUE(sol.beneficial()) << factor;
    EXPECT_GT(sol.delta_total, prev) << factor;
    prev = sol.delta_total;
  }
}

TEST(Solver, ImprovementLargerAtLowerMtbf) {
  // Paper: 19h (petascale) -> 33h (exascale) at delta-factor 100; check the
  // ordering and rough magnitudes.
  const SwitchSolution exa =
      solve_switch_point(make_model(5.0), light(100.0), heavy());
  const SwitchSolution peta =
      solve_switch_point(make_model(20.0), light(100.0), heavy());
  ASSERT_TRUE(exa.beneficial());
  ASSERT_TRUE(peta.beneficial());
  EXPECT_GT(exa.delta_total, peta.delta_total);
  EXPECT_NEAR(as_hours(exa.delta_total), 33.0, 12.0);
  EXPECT_NEAR(as_hours(peta.delta_total), 19.0, 8.0);
}

TEST(Solver, SwitchPointGrowsWithMtbf) {
  // Paper observation (3): k* increases from 6 to 12 as exa -> peta at
  // delta-factor 5.
  const SwitchSolution exa = solve_switch_point(make_model(5.0), light(5.0), heavy());
  const SwitchSolution peta = solve_switch_point(make_model(20.0), light(5.0), heavy());
  ASSERT_TRUE(exa.beneficial());
  ASSERT_TRUE(peta.beneficial());
  EXPECT_GT(*peta.k, *exa.k);
}

TEST(Solver, SwitchTimeExceedsMtbf) {
  // Paper: switching happens *after* the MTBF (6.6h at 5h MTBF; 25.2h at 20h)
  // — the insight that a naive MTBF/2 switch is far too early.
  for (const double mtbf_hours : {5.0, 20.0}) {
    const ShirazModel model = make_model(mtbf_hours);
    const SwitchSolution sol = solve_switch_point(model, light(5.0), heavy());
    ASSERT_TRUE(sol.beneficial());
    EXPECT_GT(model.switch_time(light(5.0), *sol.k), hours(mtbf_hours));
  }
}

TEST(Solver, IdenticalAppsYieldNoBenefit) {
  // Equal checkpoint costs leave nothing to exploit; Shiraz must return the
  // "no beneficial switch" sentinel rather than a fake optimum.
  const ShirazModel model = make_model(5.0);
  const AppSpec a{"a", hours(0.5), 1};
  const AppSpec b{"b", hours(0.5), 1};
  const SwitchSolution sol = solve_switch_point(model, a, b);
  EXPECT_FALSE(sol.beneficial());
}

TEST(Solver, EvaluateSwitchPointConsistentWithSweep) {
  const ShirazModel model = make_model(5.0);
  const SwitchSolution sol = solve_switch_point(model, light(25.0), heavy());
  ASSERT_TRUE(sol.beneficial());
  const SwitchCandidate c = evaluate_switch_point(model, light(25.0), heavy(), *sol.k);
  EXPECT_NEAR(c.delta_lw, sol.delta_lw, 1e-6);
  EXPECT_NEAR(c.delta_hw, sol.delta_hw, 1e-6);
}

TEST(Solver, KeepSweepFalseStillFindsSameK) {
  const ShirazModel model = make_model(20.0);
  SolverOptions with;
  with.keep_sweep = true;
  SolverOptions without;
  without.keep_sweep = false;
  const SwitchSolution a = solve_switch_point(model, light(100.0), heavy(), with);
  const SwitchSolution b = solve_switch_point(model, light(100.0), heavy(), without);
  ASSERT_TRUE(a.beneficial());
  ASSERT_TRUE(b.beneficial());
  EXPECT_EQ(*a.k, *b.k);
  EXPECT_TRUE(b.sweep.empty());
}

TEST(Solver, RejectsBadOptions) {
  const ShirazModel model = make_model(5.0);
  SolverOptions opts;
  opts.max_k = 0;
  EXPECT_THROW(solve_switch_point(model, light(5.0), heavy(), opts), InvalidArgument);
}

}  // namespace
}  // namespace shiraz::core
