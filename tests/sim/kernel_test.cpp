// The flat replay kernel contract (sim/kernel.h): for every closed-form-
// eligible configuration the kernel's result equals the event loop's bit for
// bit — across schedulers, the whole scenario-corpus regime catalog, and
// every worker count — and every ineligible configuration falls back to the
// event loop with identical behavior. Bit-identity here means EXPECT_EQ on
// doubles: the kernel is an optimization, never an approximation.
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "checkpoint/schedule.h"
#include "common/error.h"
#include "obs/event.h"
#include "predict/oracle.h"
#include "predict/predictor.h"
#include "reliability/weibull.h"
#include "scenario/scenario.h"
#include "sim/engine.h"
#include "sim/kernel.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

#ifndef SHIRAZ_TESTDATA_SCENARIOS
#error "SHIRAZ_TESTDATA_SCENARIOS must point at testdata/scenarios"
#endif

namespace shiraz::sim {
namespace {

constexpr std::uint64_t kSeed = 20180909;
constexpr std::size_t kReps = 6;
constexpr double kDeltaLw = 18.0;
constexpr double kDeltaHw = 1800.0;

Engine make_engine(bool flat_kernel, Seconds t_total = hours(200.0),
                   Seconds mtbf = hours(5.0)) {
  EngineConfig cfg;
  cfg.t_total = t_total;
  cfg.flat_kernel = flat_kernel;
  return Engine(reliability::Weibull::from_mtbf(0.6, mtbf), cfg);
}

/// The engine's downtime windows as one more input: free, short, and long
/// enough that failures cut them short — the last with a horizon short
/// enough that windows also run into it.
struct CostCase {
  Seconds restart = 0.0;
  Seconds switching = 0.0;
  Seconds t_total = hours(200.0);
};

const CostCase kCostCases[] = {{0.0, 0.0},
                               {60.0, 30.0},
                               {hours(4.0), hours(3.0)},
                               {hours(4.0), hours(3.0), hours(7.3)}};

Engine make_costly_engine(bool flat_kernel, const CostCase& costs,
                          obs::EventSink* sink = nullptr) {
  EngineConfig cfg;
  cfg.t_total = costs.t_total;
  cfg.restart_cost = costs.restart;
  cfg.switch_cost = costs.switching;
  cfg.flat_kernel = flat_kernel;
  cfg.sink = sink;
  return Engine(reliability::Weibull::from_mtbf(0.6, hours(5.0)), cfg);
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
}

/// The three paper policies the corpus matrix exercises. Shiraz+ stretches
/// the heavy member's OCI by 4 (an arbitrary catalog-scale factor).
enum class PolicyKind { kBaseline, kShiraz, kShirazPlus };

const char* policy_name(PolicyKind p) {
  switch (p) {
    case PolicyKind::kBaseline: return "Baseline";
    case PolicyKind::kShiraz: return "Shiraz";
    case PolicyKind::kShirazPlus: return "ShirazPlus";
  }
  return "?";
}

struct PolicyCase {
  std::vector<SimJob> jobs;
  std::unique_ptr<Scheduler> scheduler;
};

PolicyCase make_policy(PolicyKind kind, Seconds nominal_mtbf) {
  PolicyCase c;
  const unsigned stretch = kind == PolicyKind::kShirazPlus ? 4 : 1;
  c.jobs = {SimJob::at_oci("lw", kDeltaLw, nominal_mtbf),
            SimJob::at_oci("hw", kDeltaHw, nominal_mtbf, stretch)};
  if (kind == PolicyKind::kBaseline) {
    c.scheduler = std::make_unique<AlternateAtFailure>();
  } else {
    c.scheduler = std::make_unique<ShirazPairScheduler>(26);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Kernel vs event loop across the scenario corpus: every shipped failure
// regime (Markov bursts, cascades, pools, bathtub, drift, renewal controls)
// through every paper policy, serial and parallel.

using CorpusParam = std::tuple<std::string, PolicyKind>;

class FlatKernelCorpus : public ::testing::TestWithParam<CorpusParam> {};

const scenario::Scenario& corpus_scenario(const std::string& id) {
  static const std::vector<scenario::Scenario> all =
      scenario::load_dir(SHIRAZ_TESTDATA_SCENARIOS);
  for (const scenario::Scenario& s : all) {
    if (s.id == id) return s;
  }
  throw InvalidArgument("scenario not in corpus: " + id);
}

std::vector<std::string> corpus_ids() {
  std::vector<std::string> ids;
  for (const scenario::Scenario& s :
       scenario::load_dir(SHIRAZ_TESTDATA_SCENARIOS)) {
    ids.push_back(s.id);
  }
  return ids;
}

TEST_P(FlatKernelCorpus, BitIdenticalToEventLoopForEveryWorkerCount) {
  const auto& [id, kind] = GetParam();
  const scenario::Scenario& sc = corpus_scenario(id);
  const PolicyCase c = make_policy(kind, sc.nominal_mtbf);

  // Regime traces: the stateful-safe path (DESIGN.md §8). Both engines
  // replay the same store; only the dispatch differs.
  const reliability::FailureRegimePtr regime = sc.make_regime();
  const TraceStore traces(*regime, kSeed, sc.horizon);
  const Engine flat = make_engine(true, sc.horizon, sc.nominal_mtbf);
  const Engine loop = make_engine(false, sc.horizon, sc.nominal_mtbf);

  std::optional<SimResult> reference;
  for (const std::size_t workers : {std::size_t{1}, std::size_t{4}}) {
    CampaignOptions opts;
    opts.workers = workers;
    opts.traces = &traces;
    const SimResult via_kernel =
        flat.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
    const SimResult via_loop =
        loop.run_many(c.jobs, *c.scheduler, kReps, kSeed, opts);
    expect_identical(via_kernel, via_loop);
    if (!reference) {
      reference = via_loop;
    } else {
      expect_identical(via_kernel, *reference);  // worker-count invariance
    }
  }
}

std::vector<CorpusParam> corpus_matrix() {
  std::vector<CorpusParam> params;
  for (const std::string& id : corpus_ids()) {
    for (const PolicyKind kind : {PolicyKind::kBaseline, PolicyKind::kShiraz,
                                  PolicyKind::kShirazPlus}) {
      params.emplace_back(id, kind);
    }
  }
  return params;
}

INSTANTIATE_TEST_SUITE_P(Corpus, FlatKernelCorpus,
                         ::testing::ValuesIn(corpus_matrix()),
                         [](const ::testing::TestParamInfo<CorpusParam>& info) {
                           std::string name = std::get<0>(info.param) +
                                              std::string("_") +
                                              policy_name(std::get<1>(info.param));
                           for (char& ch : name) {
                             if (ch == '-') ch = '_';
                           }
                           return name;
                         });

// ---------------------------------------------------------------------------
// Direct kernel calls vs Engine::replay on a renewal process.

TEST(FlatKernel, FlatReplayMatchesEngineReplay) {
  // The event loop narrates each run, so the test can also show that its
  // inputs reach both clamps of a downtime window: a window cut short by a
  // failure is followed by more events, one cut short by the horizon ends
  // the run.
  std::size_t clamped_by_failure = 0;
  std::size_t clamped_by_horizon = 0;
  obs::EventRecorder recorder;
  for (const CostCase& costs : kCostCases) {
    const Engine loop = make_costly_engine(false, costs, &recorder);
    EngineConfig untraced = loop.config();
    untraced.sink = nullptr;
    const TraceStore traces(loop, kSeed);
    traces.ensure(kReps);
    for (const PolicyKind kind :
         {PolicyKind::kBaseline, PolicyKind::kShiraz, PolicyKind::kShirazPlus}) {
      const PolicyCase c = make_policy(kind, hours(5.0));
      for (std::size_t r = 0; r < kReps; ++r) {
        recorder.clear();
        const SimResult via_loop =
            loop.replay(c.jobs, *c.scheduler, traces.trace(r));
        SimResult via_kernel;
        const KernelEligibility e =
            try_flat_replay(untraced, c.jobs, *c.scheduler, nullptr, nullptr,
                            traces.trace(r), &via_kernel);
        ASSERT_TRUE(e.eligible) << e.reason;
        expect_identical(via_kernel, via_loop);

        const std::vector<obs::Event>& events = recorder.events();
        for (std::size_t i = 0; i < events.size(); ++i) {
          const obs::Event& ev = events[i];
          const Seconds cost = ev.kind == obs::EventKind::kRestart ? costs.restart
                               : ev.kind == obs::EventKind::kAppSwitch
                                   ? costs.switching
                                   : 0.0;
          if (ev.duration >= cost) continue;
          if (i + 1 < events.size()) {
            ++clamped_by_failure;
          } else {
            ++clamped_by_horizon;
          }
        }
      }
    }
  }
  EXPECT_GT(clamped_by_failure, 0u);
  EXPECT_GT(clamped_by_horizon, 0u);
}

TEST(FlatKernel, MultiSwitchAndPairRotationFlatten) {
  for (const CostCase& costs : kCostCases) {
    const Engine flat = make_costly_engine(true, costs);
    const Engine loop = make_costly_engine(false, costs);
    const TraceStore traces(loop, kSeed);
    CampaignOptions opts;
    opts.traces = &traces;

    // Three-app multi-switch chain, including a zero count (skipped turn).
    {
      std::vector<SimJob> jobs{SimJob::at_oci("a", 12.0, hours(5.0)),
                               SimJob::at_oci("b", 120.0, hours(5.0)),
                               SimJob::at_oci("c", 1200.0, hours(5.0))};
      const MultiSwitchScheduler sched(std::vector<int>{9, 0});
      expect_identical(flat.run_many(jobs, sched, kReps, kSeed, opts),
                       loop.run_many(jobs, sched, kReps, kSeed, opts));
    }
    // Two rotating pairs: one solved k, one k-less (lead-alternating), plus
    // a k == 0 Shiraz pair (heavy only) as its own case.
    {
      std::vector<SimJob> jobs{SimJob::at_oci("lw0", 12.0, hours(5.0)),
                               SimJob::at_oci("hw0", 1200.0, hours(5.0)),
                               SimJob::at_oci("lw1", 30.0, hours(5.0)),
                               SimJob::at_oci("hw1", 3000.0, hours(5.0))};
      const PairRotationScheduler sched(
          std::vector<std::optional<int>>{14, std::nullopt});
      expect_identical(flat.run_many(jobs, sched, kReps, kSeed, opts),
                       loop.run_many(jobs, sched, kReps, kSeed, opts));
    }
    {
      const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
      const ShirazPairScheduler k0(0);
      expect_identical(flat.run_many(c.jobs, k0, kReps, kSeed, opts),
                       loop.run_many(c.jobs, k0, kReps, kSeed, opts));
    }
  }
}

TEST(FlatKernel, SweepMatchesEventLoopSweep) {
  // replay_pair_sweep's count-table sweep against its oracle, the event loop:
  // each candidate k must equal a ShirazPairScheduler(k) campaign on a
  // flat_kernel=false engine over the same store — for a plain pair and a
  // Shiraz+ pair whose heavy-weight schedule is stretched by 2, under every
  // restart and switch cost.
  for (const CostCase& costs : kCostCases) {
    const Engine loop = make_costly_engine(false, costs);
    const TraceStore traces(loop, kSeed);
    CampaignOptions opts;
    opts.traces = &traces;
    const SimJob lw = SimJob::at_oci("lw", kDeltaLw, hours(5.0));
    for (const unsigned stretch : {1u, 2u}) {
      const SimJob hw = SimJob::at_oci("hw", kDeltaHw, hours(5.0), stretch);
      const std::vector<SimJob> jobs{lw, hw};
      const std::vector<SweepUseful> sweep =
          replay_pair_sweep(loop, lw, hw, 20, 32, kReps, traces, 1, nullptr);
      ASSERT_EQ(sweep.size(), 13u);
      for (int k = 20; k <= 32; ++k) {
        const ShirazPairScheduler shiraz(k);
        const SimResult ref = loop.run_many(jobs, shiraz, kReps, kSeed, opts);
        const SweepUseful& u = sweep[static_cast<std::size_t>(k - 20)];
        EXPECT_EQ(u.lw, ref.apps[0].useful)
            << "restart " << costs.restart << ", stretch " << stretch
            << ", k = " << k;
        EXPECT_EQ(u.hw, ref.apps[1].useful)
            << "restart " << costs.restart << ", stretch " << stretch
            << ", k = " << k;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Eligibility: every fallback rule, and that the dispatcher actually takes
// the event loop (identical results, policy errors preserved) when one fails.

TEST(FlatKernel, EligibilityRules) {
  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const TraceStore traces(make_engine(false), kSeed);
  const FailureTrace& trace = traces.trace(0);

  // An ineligible call reports why and leaves the output slot untouched.
  auto reason = [&](const EngineConfig& config, const std::vector<SimJob>& jobs,
                    const Scheduler& sched, const AlarmSource* alarms = nullptr,
                    const obs::EventSink* sink = nullptr) {
    SimResult out;
    out.failures = 12345;
    const KernelEligibility e =
        try_flat_replay(config, jobs, sched, alarms, sink, trace, &out);
    EXPECT_FALSE(e.eligible);
    EXPECT_EQ(out.failures, 12345u);
    EXPECT_TRUE(out.apps.empty());
    return std::string(e.reason);
  };

  SimResult out;
  const KernelEligibility ok =
      try_flat_replay(cfg, c.jobs, *c.scheduler, nullptr, nullptr, trace, &out);
  EXPECT_TRUE(ok.eligible);
  EXPECT_STREQ(ok.reason, "");
  EXPECT_EQ(out.apps.size(), c.jobs.size());

  obs::EventRecorder recorder;
  EngineConfig traced = cfg;
  traced.sink = &recorder;
  EXPECT_EQ(reason(traced, c.jobs, *c.scheduler),
            "an event sink observes the run");
  EXPECT_EQ(reason(cfg, c.jobs, *c.scheduler, nullptr, &recorder),
            "an event sink observes the run");

  const predict::NullPredictor no_alarms;
  EXPECT_EQ(reason(cfg, c.jobs, *c.scheduler, &no_alarms),
            "an alarm source is armed");

  EXPECT_EQ(reason(cfg, {}, *c.scheduler), "no jobs");

  // Lazy Checkpointing is aperiodic: period() is nullopt by contract.
  std::vector<SimJob> lazy_jobs{SimJob::lazy("lazy", kDeltaLw, hours(5.0), 0.6),
                                SimJob::at_oci("hw", kDeltaHw, hours(5.0))};
  EXPECT_EQ(reason(cfg, lazy_jobs, *c.scheduler),
            "job schedule is not periodic");

  // Pair policies with the wrong app count fall back (and the event loop
  // then raises the policy's own error, tested below).
  std::vector<SimJob> three{SimJob::at_oci("a", 12.0, hours(5.0)),
                            SimJob::at_oci("b", 120.0, hours(5.0)),
                            SimJob::at_oci("c", 1200.0, hours(5.0))};
  EXPECT_EQ(reason(cfg, three, *c.scheduler),
            "ShirazPairScheduler needs exactly two apps");
  const MultiSwitchScheduler multi(std::vector<int>{3, 4});
  EXPECT_EQ(reason(cfg, c.jobs, multi),
            "MultiSwitchScheduler app count must be one more than its ks");
}

TEST(FlatKernel, LiveRunsAndStorelessCampaignsMatchTheEventLoop) {
  // Live runs sample their trace first and then replay it, so they take the
  // kernel too — serial run() and store-less parallel campaigns alike.
  const Engine flat = make_engine(true);
  const Engine loop = make_engine(false);
  for (const PolicyKind kind :
       {PolicyKind::kBaseline, PolicyKind::kShiraz, PolicyKind::kShirazPlus}) {
    const PolicyCase c = make_policy(kind, hours(5.0));
    Rng rf(kSeed);
    Rng rl(kSeed);
    expect_identical(flat.run(c.jobs, *c.scheduler, rf),
                     loop.run(c.jobs, *c.scheduler, rl));
    expect_identical(flat.run_many(c.jobs, *c.scheduler, kReps, kSeed, 4),
                     loop.run_many(c.jobs, *c.scheduler, kReps, kSeed, 1));
  }
}

TEST(FlatKernel, IneligibleConfigurationsFallBackToTheEventLoop) {
  // flat_kernel on vs off must agree even where the kernel cannot run: the
  // dispatcher takes the event loop, so arming the flag is always safe.
  const TraceStore traces(make_engine(false), kSeed);
  CampaignOptions opts;
  opts.traces = &traces;

  const Engine flat = make_engine(true);
  const Engine loop = make_engine(false);

  // Ineligible: Lazy Checkpointing's intervals are not periodic.
  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  const std::vector<SimJob> lazy_jobs{
      SimJob::lazy("lazy", kDeltaLw, hours(5.0), 0.6),
      SimJob::lazy("lazy_hw", kDeltaHw, hours(5.0), 0.6)};
  expect_identical(flat.run_many(lazy_jobs, *c.scheduler, kReps, kSeed, opts),
                   loop.run_many(lazy_jobs, *c.scheduler, kReps, kSeed, opts));

  // Wrong app count: the fallback preserves the policy's own error.
  std::vector<SimJob> three{SimJob::at_oci("a", 12.0, hours(5.0)),
                            SimJob::at_oci("b", 120.0, hours(5.0)),
                            SimJob::at_oci("c", 1200.0, hours(5.0))};
  EXPECT_THROW(flat.replay(three, *c.scheduler, traces.trace(0)), InvalidArgument);
}

TEST(FlatKernel, PredictiveReplayFallsBackAndMatches) {
  // An armed alarm source is ineligible; the predictive replay must be
  // untouched by the dispatcher.
  const TraceStore traces(make_engine(false), kSeed);
  const Engine flat = make_engine(true);
  const Engine loop = make_engine(false);
  const PolicyCase c = make_policy(PolicyKind::kShiraz, hours(5.0));
  const predict::OraclePredictor oracle(
      predict::OracleConfig{0.7, 0.2, minutes(20.0), hours(5.0)});
  Rng rng_a(kSeed);
  Rng rng_b(kSeed);
  const SimResult a =
      flat.replay(c.jobs, *c.scheduler, traces.trace(0), rng_a, &oracle);
  const SimResult b =
      loop.replay(c.jobs, *c.scheduler, traces.trace(0), rng_b, &oracle);
  expect_identical(a, b);
}

// ---------------------------------------------------------------------------
// FailureTrace's failure-time array (the kernel's SoA substrate).

TEST(FlatKernel, FailureTracePrefixSumsMatchSequentialAddition) {
  const Engine loop = make_engine(false);
  const TraceStore traces(loop, kSeed);
  const FailureTrace& trace = traces.trace(0);
  // A fresh draw of repetition 0 from the stream the store used.
  Rng rng = Rng(kSeed).fork(0);
  std::vector<Seconds> gaps;
  loop.failure_process()(rng, trace.horizon(), gaps);
  ASSERT_EQ(trace.fail_times().size(), gaps.size());
  Seconds t = 0.0;
  for (std::size_t i = 0; i < gaps.size(); ++i) {
    t += gaps[i];  // the exact accumulation a live clock performs
    EXPECT_EQ(trace.fail_times()[i], t) << "draw " << i;
  }
  EXPECT_THROW(trace.fail_time(trace.size()), InvalidArgument);
}

}  // namespace
}  // namespace shiraz::sim
