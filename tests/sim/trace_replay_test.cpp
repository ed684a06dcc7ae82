// The trace-replay contract: a campaign replayed from a sim::TraceStore is
// bit-identical to the same campaign sampling its failure streams live — for
// every policy, every worker count, with and without an alarm source, and for
// non-stationary GapSampler processes. The fast-path sweep evaluator
// (replay_pair_sweep) must match per-candidate Engine campaigns bit for bit.
#include <cmath>
#include <cstdint>
#include <memory>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/error.h"
#include "predict/oracle.h"
#include "predict/policies.h"
#include "reliability/weibull.h"
#include "sim/engine.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

namespace shiraz::sim {
namespace {

constexpr std::uint64_t kSeed = 20180404;
constexpr std::size_t kReps = 10;
constexpr double kMtbfHours = 5.0;

Engine make_engine(Seconds t_total = hours(200.0)) {
  EngineConfig cfg;
  cfg.t_total = t_total;
  return Engine(reliability::Weibull::from_mtbf(0.6, hours(kMtbfHours)), cfg);
}

void expect_identical(const SimResult& a, const SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    EXPECT_EQ(a.apps[i].name, b.apps[i].name);
    EXPECT_EQ(a.apps[i].useful, b.apps[i].useful) << "app " << i;
    EXPECT_EQ(a.apps[i].io, b.apps[i].io) << "app " << i;
    EXPECT_EQ(a.apps[i].lost, b.apps[i].lost) << "app " << i;
    EXPECT_EQ(a.apps[i].restart, b.apps[i].restart) << "app " << i;
    EXPECT_EQ(a.apps[i].checkpoints, b.apps[i].checkpoints) << "app " << i;
    EXPECT_EQ(a.apps[i].failures_hit, b.apps[i].failures_hit) << "app " << i;
  }
  EXPECT_EQ(a.wall, b.wall);
  EXPECT_EQ(a.idle, b.idle);
  EXPECT_EQ(a.truncated, b.truncated);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.switches, b.switches);
  EXPECT_EQ(a.alarms, b.alarms);
  EXPECT_EQ(a.proactive_checkpoints, b.proactive_checkpoints);
}

enum class Policy { kBaseline, kShiraz, kShirazPlus, kPredictiveShiraz };

struct Campaign {
  std::vector<SimJob> jobs;
  std::unique_ptr<Scheduler> scheduler;
  std::unique_ptr<AlarmSource> alarms;  // null for the non-predictive policies
};

Campaign make_campaign(Policy policy) {
  const Seconds mtbf = hours(kMtbfHours);
  Campaign c;
  c.jobs = {SimJob::at_oci("lw", 18.0, mtbf), SimJob::at_oci("hw", 1800.0, mtbf)};
  switch (policy) {
    case Policy::kBaseline:
      c.scheduler = std::make_unique<AlternateAtFailure>();
      break;
    case Policy::kShiraz:
      c.scheduler = std::make_unique<ShirazPairScheduler>(26);
      break;
    case Policy::kShirazPlus:
      c.jobs[1] = SimJob::at_oci("hw", 1800.0, mtbf, /*stretch=*/3);
      c.scheduler = std::make_unique<ShirazPairScheduler>(26);
      break;
    case Policy::kPredictiveShiraz: {
      predict::OracleConfig ocfg;
      ocfg.precision = 0.9;
      ocfg.recall = 0.8;
      ocfg.lead = minutes(10.0);
      ocfg.mtbf = mtbf;
      c.scheduler = std::make_unique<predict::PredictiveShirazScheduler>(26);
      c.alarms = std::make_unique<predict::OraclePredictor>(ocfg);
      break;
    }
  }
  return c;
}

class TraceReplayTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Policy>> {};

TEST_P(TraceReplayTest, ReplayedCampaignMatchesSampledBitForBit) {
  const auto [workers, policy] = GetParam();
  const Engine engine = make_engine();
  const Campaign c = make_campaign(policy);

  const SimResult live = engine.run_many(c.jobs, *c.scheduler, kReps, kSeed,
                                         workers, c.alarms.get());

  const TraceStore traces(engine, kSeed);
  CampaignOptions opts;
  opts.workers = workers;
  opts.alarms = c.alarms.get();
  opts.traces = &traces;
  const SimResult replayed =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
  expect_identical(replayed, live);

  const CampaignSummary live_summary = engine.run_campaign(
      c.jobs, *c.scheduler, kReps, kSeed, workers, c.alarms.get());
  const CampaignSummary replayed_summary =
      engine.run_campaign(c.jobs, *c.scheduler, kReps, kSeed, opts);
  EXPECT_EQ(replayed_summary.reps, live_summary.reps);
  expect_identical(replayed_summary.mean, live_summary.mean);
  EXPECT_EQ(replayed_summary.total_useful.stddev,
            live_summary.total_useful.stddev);
  EXPECT_EQ(replayed_summary.total_useful.ci95, live_summary.total_useful.ci95);
}

INSTANTIATE_TEST_SUITE_P(
    WorkerCountsAndPolicies, TraceReplayTest,
    ::testing::Combine(::testing::Values(std::size_t{1}, std::size_t{4}),
                       ::testing::Values(Policy::kBaseline, Policy::kShiraz,
                                         Policy::kShirazPlus,
                                         Policy::kPredictiveShiraz)),
    [](const ::testing::TestParamInfo<std::tuple<std::size_t, Policy>>& info) {
      const Policy policy = std::get<1>(info.param);
      const char* name = policy == Policy::kBaseline     ? "Baseline"
                         : policy == Policy::kShiraz     ? "Shiraz"
                         : policy == Policy::kShirazPlus ? "ShirazPlus"
                                                         : "PredictiveShiraz";
      return std::string(name) + "Jobs" + std::to_string(std::get<0>(info.param));
    });

TEST(TraceReplay, SingleRunReplayMatchesLive) {
  const Engine engine = make_engine();
  const Campaign c = make_campaign(Policy::kShiraz);
  const TraceStore traces(engine, kSeed);
  for (const std::size_t rep : {std::size_t{0}, std::size_t{3}}) {
    Rng live_rng = Rng(kSeed).fork(rep);
    const SimResult live = engine.run(c.jobs, *c.scheduler, live_rng);
    const SimResult replayed = engine.replay(c.jobs, *c.scheduler, traces.trace(rep));
    expect_identical(replayed, live);
  }
}

TEST(TraceReplay, SingleRunReplayWithAlarmsMatchesLive) {
  const Engine engine = make_engine();
  const Campaign c = make_campaign(Policy::kPredictiveShiraz);
  const TraceStore traces(engine, kSeed);
  Rng live_rng = Rng(kSeed).fork(1);
  const SimResult live = engine.run(c.jobs, *c.scheduler, live_rng, c.alarms.get());
  Rng replay_rng = Rng(kSeed).fork(1);
  const SimResult replayed = engine.replay(c.jobs, *c.scheduler, traces.trace(1),
                                           replay_rng, c.alarms.get());
  expect_identical(replayed, live);
}

TEST(TraceReplay, NonStationarySamplerReplaysBitForBit) {
  // Aging system: the mean gap shrinks as the campaign progresses. Gap starts
  // are policy-independent prefix sums, so memoizing the sampled gaps is
  // sound even though the sampler consults absolute time.
  GapSampler aging = [](Rng& rng, Seconds gap_start) {
    const Seconds mtbf = hours(kMtbfHours) / (1.0 + gap_start / hours(50.0));
    return -mtbf * std::log1p(-rng.uniform());
  };
  EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const Engine engine(aging, cfg);
  const Campaign c = make_campaign(Policy::kShiraz);

  const SimResult live = engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, 1);

  const TraceStore traces(engine, kSeed);
  CampaignOptions opts;
  opts.traces = &traces;
  const SimResult replayed =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
  expect_identical(replayed, live);
}

TEST(TraceReplay, StoreMaterializesLazily) {
  const Engine engine = make_engine();
  const TraceStore traces(engine, kSeed);
  EXPECT_EQ(traces.materialized(), 0u);
  EXPECT_EQ(traces.total_gaps(), 0u);

  // ensure() only reserves slots; it samples nothing.
  traces.ensure(4);
  EXPECT_EQ(traces.materialized(), 0u);
  EXPECT_EQ(traces.total_gaps(), 0u);

  // trace(r) materializes exactly r, inside or past the reserved slots.
  const FailureTrace& t3 = traces.trace(3);
  EXPECT_EQ(traces.materialized(), 1u);
  EXPECT_GT(t3.size(), 0u);
  EXPECT_EQ(traces.total_gaps(), t3.size());
  const FailureTrace& t6 = traces.trace(6);
  EXPECT_EQ(traces.materialized(), 2u);
  EXPECT_EQ(traces.total_gaps(), t3.size() + t6.size());

  // Growing the table leaves addresses alone; repeated access is stable.
  traces.ensure(64);
  EXPECT_EQ(traces.materialized(), 2u);
  EXPECT_EQ(&traces.trace(3), &t3);
  EXPECT_EQ(&traces.trace(6), &t6);
  EXPECT_EQ(traces.materialized(), 2u);
}

TEST(TraceReplay, TraceEndsAtFirstGapCrossingHorizon) {
  const Engine engine = make_engine();
  const TraceStore traces(engine, kSeed);
  const FailureTrace& t = traces.trace(0);
  for (std::size_t i = 0; i + 1 < t.size(); ++i) {
    EXPECT_LT(t.fail_time(i), t.horizon());    // all but the last stay inside
  }
  EXPECT_GE(t.fail_time(t.size() - 1), t.horizon());  // the last crosses
  EXPECT_THROW(t.fail_time(t.size()), InvalidArgument);
}

TEST(TraceReplay, FailureTraceValidatesItsHorizon) {
  EXPECT_NO_THROW(FailureTrace({4.0, 7.0}, 10.0));
  // Stops short: the running sum never reaches the horizon.
  EXPECT_THROW(FailureTrace({4.0, 5.0}, 10.0), InvalidArgument);
  // Over-sampled: a gap after the first horizon crossing.
  EXPECT_THROW(FailureTrace({4.0, 7.0, 1.0}, 10.0), InvalidArgument);
}

TEST(TraceReplay, LongerStoreHorizonServesShorterEngines) {
  // One store can back engines with shorter horizons (e.g. cost ablations
  // that share a failure process): replay just stops at the engine horizon.
  const Engine long_engine = make_engine(hours(400.0));
  const Engine short_engine = make_engine(hours(200.0));
  const TraceStore traces(long_engine, kSeed);
  const Campaign c = make_campaign(Policy::kBaseline);

  const SimResult live =
      short_engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, 1);
  CampaignOptions opts;
  opts.traces = &traces;
  const SimResult replayed =
      short_engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
  expect_identical(replayed, live);
}

TEST(TraceReplay, ShortStoreHorizonIsRejected) {
  const Engine short_engine = make_engine(hours(100.0));
  const Engine long_engine = make_engine(hours(200.0));
  const TraceStore traces(short_engine, kSeed);
  const Campaign c = make_campaign(Policy::kBaseline);
  CampaignOptions opts;
  opts.traces = &traces;
  EXPECT_THROW(long_engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts),
               InvalidArgument);
  EXPECT_THROW(
      long_engine.replay(c.jobs, *c.scheduler, traces.trace(0)),
      InvalidArgument);
}

TEST(TraceReplay, SeedMismatchIsRejected) {
  const Engine engine = make_engine();
  const TraceStore traces(engine, kSeed);
  const Campaign c = make_campaign(Policy::kBaseline);
  CampaignOptions opts;
  opts.traces = &traces;
  EXPECT_THROW(engine.run_many(c.jobs, *c.scheduler, kReps, kSeed + 1, opts),
               InvalidArgument);
}

// A source that never raises an alarm must reproduce the alarm-free run bit
// for bit — this pins the fast path that skips the prediction-stream fork
// entirely when no source is armed.
class SilentSource final : public AlarmSource {
 public:
  std::vector<Alarm> alarms_in_gap(Seconds, Seconds, Rng&) const override {
    return {};
  }
  std::string name() const override { return "silent"; }
};

TEST(TraceReplay, NullAlarmSourceMatchesSilentSource) {
  const Engine engine = make_engine();
  const Campaign c = make_campaign(Policy::kShiraz);
  const SilentSource silent;

  Rng rng_null = Rng(kSeed).fork(0);
  const SimResult without = engine.run(c.jobs, *c.scheduler, rng_null, nullptr);
  Rng rng_silent = Rng(kSeed).fork(0);
  const SimResult with = engine.run(c.jobs, *c.scheduler, rng_silent, &silent);
  expect_identical(without, with);

  const SimResult many_null =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, 4, nullptr);
  const SimResult many_silent =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, 4, &silent);
  expect_identical(many_null, many_silent);
}

TEST(TraceReplay, PairSweepMatchesPerCandidateCampaignsBitForBit) {
  const Engine engine = make_engine();
  const Seconds mtbf = hours(kMtbfHours);
  const SimJob lw = SimJob::at_oci("lw", 18.0, mtbf);
  const SimJob hw = SimJob::at_oci("hw", 1800.0, mtbf);
  const std::vector<SimJob> jobs{lw, hw};
  constexpr int kLo = 1;
  constexpr int kHi = 9;

  const TraceStore traces(engine, kSeed);
  const std::vector<SweepUseful> sweep =
      replay_pair_sweep(engine, lw, hw, kLo, kHi, kReps, traces);
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(kHi - kLo + 1));

  CampaignOptions opts;
  opts.traces = &traces;
  for (int k = kLo; k <= kHi; ++k) {
    const ShirazPairScheduler shiraz(k);
    const SimResult ref = engine.run_many(jobs, shiraz, kReps, kSeed, opts);
    const SweepUseful& u = sweep[static_cast<std::size_t>(k - kLo)];
    EXPECT_EQ(u.lw, ref.apps[0].useful) << "k=" << k;
    EXPECT_EQ(u.hw, ref.apps[1].useful) << "k=" << k;
  }
}

TEST(TraceReplay, PairSweepIsWorkerCountInvariant) {
  const Engine engine = make_engine();
  const Seconds mtbf = hours(kMtbfHours);
  const SimJob lw = SimJob::at_oci("lw", 18.0, mtbf);
  const SimJob hw = SimJob::at_oci("hw", 1800.0, mtbf);
  const TraceStore traces(engine, kSeed);

  const std::vector<SweepUseful> serial =
      replay_pair_sweep(engine, lw, hw, 1, 9, kReps, traces, 1);
  const std::vector<SweepUseful> parallel =
      replay_pair_sweep(engine, lw, hw, 1, 9, kReps, traces, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    EXPECT_EQ(serial[i].lw, parallel[i].lw) << "i=" << i;
    EXPECT_EQ(serial[i].hw, parallel[i].hw) << "i=" << i;
  }
}

TEST(TraceReplay, OptimizerFindsSameSolutionWithCostlySwitches) {
  // With restart and switch costs the optimizer still takes the one-pass
  // sweep: the result must be worker-count invariant, and every candidate
  // must equal its own per-candidate campaign pair on the event loop.
  EngineConfig cfg;
  cfg.t_total = hours(200.0);
  cfg.restart_cost = 60.0;
  cfg.switch_cost = 30.0;
  const reliability::Weibull dist =
      reliability::Weibull::from_mtbf(0.6, hours(kMtbfHours));
  const Engine engine(dist, cfg);
  cfg.flat_kernel = false;
  const Engine loop(dist, cfg);
  const Seconds mtbf = hours(kMtbfHours);
  const SimJob lw = SimJob::at_oci("lw", 18.0, mtbf);
  const SimJob hw = SimJob::at_oci("hw", 1800.0, mtbf);

  const SimSwitchSolution serial =
      find_fair_k_by_simulation(engine, lw, hw, 1, 8, 6, kSeed, 1);
  const SimSwitchSolution parallel =
      find_fair_k_by_simulation(engine, lw, hw, 1, 8, 6, kSeed, 4);
  EXPECT_EQ(serial.k, parallel.k);
  EXPECT_EQ(serial.delta_total, parallel.delta_total);
  ASSERT_EQ(serial.sweep.size(), parallel.sweep.size());
  for (std::size_t i = 0; i < serial.sweep.size(); ++i) {
    EXPECT_EQ(serial.sweep[i].delta_lw, parallel.sweep[i].delta_lw);
    EXPECT_EQ(serial.sweep[i].delta_hw, parallel.sweep[i].delta_hw);
    const SimSwitchCandidate ref =
        simulate_switch_point(loop, lw, hw, serial.sweep[i].k, 6, kSeed);
    EXPECT_EQ(serial.sweep[i].delta_lw, ref.delta_lw) << "k = " << ref.k;
    EXPECT_EQ(serial.sweep[i].delta_hw, ref.delta_hw) << "k = " << ref.k;
    EXPECT_EQ(serial.sweep[i].delta_total, ref.delta_total) << "k = " << ref.k;
  }
}

}  // namespace
}  // namespace shiraz::sim
