// The metrics purity contract on the campaign path (DESIGN.md §11): arming
// an obs::MetricsRegistry is bit-identical to an unarmed run for every
// policy family and every worker count — metrics are observations, never
// participants — and the registry's *contents* are themselves worker-count
// invariant (per-repetition increments buffer and merge in rep order, and
// every count is an exact u64 sum).
#include <cstdint>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sim/engine.h"
#include "sim/trace.h"

namespace shiraz::obs {
namespace {

constexpr std::uint64_t kSeed = 20180888;
constexpr std::size_t kReps = 12;
constexpr double kMtbfHours = 5.0;

sim::Engine make_engine(bool flat_kernel = true) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  cfg.flat_kernel = flat_kernel;
  return sim::Engine(reliability::Weibull::from_mtbf(0.6, hours(kMtbfHours)),
                     cfg);
}

void expect_identical(const sim::SimResult& a, const sim::SimResult& b) {
  ASSERT_EQ(a.apps.size(), b.apps.size());
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
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
}

void expect_equal_snapshots(const MetricsSnapshot& a,
                            const MetricsSnapshot& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    const MetricsSnapshot::Entry& x = a.entries[i];
    const MetricsSnapshot::Entry& y = b.entries[i];
    EXPECT_EQ(x.name, y.name);
    EXPECT_EQ(x.kind, y.kind);
    EXPECT_EQ(x.count, y.count) << x.name;
    EXPECT_EQ(x.value, y.value) << x.name;
    EXPECT_EQ(x.edges, y.edges) << x.name;
    EXPECT_EQ(x.buckets, y.buckets) << x.name;
  }
}

enum class Policy { kBaseline, kShiraz, kShirazPlus };

const char* policy_name(Policy p) {
  switch (p) {
    case Policy::kBaseline: return "Baseline";
    case Policy::kShiraz: return "Shiraz";
    case Policy::kShirazPlus: return "ShirazPlus";
  }
  return "?";
}

struct Campaign {
  std::vector<sim::SimJob> jobs;
  std::unique_ptr<sim::Scheduler> scheduler;
};

Campaign make_campaign(Policy policy) {
  const Seconds mtbf = hours(kMtbfHours);
  Campaign c;
  c.jobs = {sim::SimJob::at_oci("lw", 18.0, mtbf),
            sim::SimJob::at_oci("hw", 1800.0, mtbf)};
  switch (policy) {
    case Policy::kBaseline:
      c.scheduler = std::make_unique<sim::AlternateAtFailure>();
      break;
    case Policy::kShiraz:
      c.scheduler = std::make_unique<sim::ShirazPairScheduler>(26);
      break;
    case Policy::kShirazPlus:
      c.jobs[1] = sim::SimJob::at_oci("hw", 1800.0, mtbf, /*stretch=*/3);
      c.scheduler = std::make_unique<sim::ShirazPairScheduler>(26);
      break;
  }
  return c;
}

class MetricsCampaignTest
    : public ::testing::TestWithParam<std::tuple<Policy, std::size_t>> {};

// Armed run == unarmed run, bit for bit, for sampled and replayed campaigns.
TEST_P(MetricsCampaignTest, ArmedRunIsBitIdentical) {
  const auto [policy, workers] = GetParam();
  const sim::Engine engine = make_engine();
  const Campaign c = make_campaign(policy);

  sim::CampaignOptions unarmed;
  unarmed.workers = workers;
  const sim::SimResult want =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, unarmed);

  MetricsRegistry registry;
  sim::CampaignOptions armed = unarmed;
  armed.metrics = &registry;
  const sim::SimResult got =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, armed);
  expect_identical(want, got);
  EXPECT_EQ(registry.counter("shiraz_sim_reps_total").value(), kReps);
  // Without a store every repetition samples and replays its own trace, so
  // these kernel-eligible policies take the kernel on the live path too...
  EXPECT_EQ(registry.counter("shiraz_sim_kernel_replays_total").value(), kReps);
  EXPECT_EQ(registry.counter("shiraz_sim_event_loop_runs_total").value(), 0u);
  // ...and still match the event loop bit for bit.
  const sim::Engine loop = make_engine(/*flat_kernel=*/false);
  expect_identical(want,
                   loop.run_many(c.jobs, *c.scheduler, kReps, kSeed, unarmed));

  // Replay path (flat kernel eligible): still bit-identical, still counted.
  const sim::TraceStore traces(engine, kSeed);
  MetricsRegistry replay_registry;
  sim::CampaignOptions replay = unarmed;
  replay.traces = &traces;
  replay.metrics = &replay_registry;
  const sim::SimResult replayed =
      engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, replay);
  expect_identical(want, replayed);
  EXPECT_EQ(replay_registry.counter("shiraz_sim_reps_total").value(), kReps);
  EXPECT_EQ(replay_registry.counter("shiraz_sim_kernel_replays_total").value(),
            kReps);
  EXPECT_EQ(replay_registry.counter("shiraz_sim_event_loop_runs_total").value(),
            0u);
}

// The registry contents match the jobs=1 reference exactly: buffered
// per-repetition increments merge in repetition order on every worker count.
TEST_P(MetricsCampaignTest, SnapshotMatchesSerialReference) {
  const auto [policy, workers] = GetParam();
  const sim::Engine engine = make_engine();
  const Campaign c = make_campaign(policy);

  auto run_armed = [&](std::size_t n_workers) {
    MetricsRegistry registry;
    sim::TraceStore traces(engine, kSeed);
    traces.set_metrics(&registry);
    sim::CampaignOptions copts;
    copts.workers = n_workers;
    copts.traces = &traces;
    copts.metrics = &registry;
    (void)engine.run_many(c.jobs, *c.scheduler, kReps, kSeed, copts);
    // A trace holds one array: a failure time per gap.
    EXPECT_EQ(registry.gauge("shiraz_trace_resident_bytes").value(),
              static_cast<double>(sizeof(Seconds) * traces.total_gaps()));
    return registry.snapshot();
  };

  const MetricsSnapshot serial = run_armed(1);
  const MetricsSnapshot parallel = run_armed(workers);
  expect_equal_snapshots(serial, parallel);
}

INSTANTIATE_TEST_SUITE_P(
    PoliciesAndWorkers, MetricsCampaignTest,
    ::testing::Combine(::testing::Values(Policy::kBaseline, Policy::kShiraz,
                                         Policy::kShirazPlus),
                       ::testing::Values(std::size_t{1}, std::size_t{4})),
    [](const auto& info) {
      return std::string(policy_name(std::get<0>(info.param))) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

}  // namespace
}  // namespace shiraz::obs
