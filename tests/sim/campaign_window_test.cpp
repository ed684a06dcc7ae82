// Campaign fan-out and merge across fold windows (common::ordered_fold).
//
// Engine::run_campaign and sim::replay_pair_sweep hold one window of
// common::kFoldWindow repetitions at a time. These tests put the repetition
// count on and around the window edges — 1, W-1, W, W+1 and 2W+1 — at 1, 2
// and 4 workers, and compare every output bit for bit with a hand-rolled
// serial loop over Engine::run / Engine::replay: the summary, the mean, the
// delivered event stream, the registry's counts, and the post-campaign state
// of a stateful scheduler and alarm source (the caller's instances must run
// the last repetition, and every clone must be made on the calling thread).
// TraceFill checks the store behind a campaign at the same edges: the
// workers sample it, and it must hold what a serial fill holds.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.h"
#include "obs/event.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sim/engine.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

namespace shiraz::sim {
namespace {

constexpr std::uint64_t kSeed = 20190101;
constexpr std::size_t kW = common::kFoldWindow;
constexpr double kMtbfHours = 5.0;

EngineConfig short_config() {
  // Ten hours keep 2W+1 repetitions cheap under the sanitizers while every
  // repetition still sees a few failures and switches.
  EngineConfig cfg;
  cfg.t_total = hours(10.0);
  return cfg;
}

Engine make_engine(const EngineConfig& cfg) {
  return Engine(reliability::Weibull::from_mtbf(0.6, hours(kMtbfHours)), cfg);
}

std::vector<SimJob> pair_jobs() {
  const Seconds mtbf = hours(kMtbfHours);
  return {SimJob::at_oci("lw", 300.0, mtbf), SimJob::at_oci("hw", 1800.0, mtbf)};
}

/// FNV-1a digest of an event stream, so a 2W+1-repetition stream is compared
/// without holding it.
class StreamDigest final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override {
    mix(&e.kind, sizeof e.kind);
    mix(&e.time, sizeof e.time);
    mix(&e.duration, sizeof e.duration);
    mix(&e.app, sizeof e.app);
    mix(&e.rep, sizeof e.rep);
    mix(&e.value, sizeof e.value);
    ++count;
  }

  std::uint64_t hash = 14695981039346656037ULL;
  std::size_t count = 0;

 private:
  void mix(const void* p, std::size_t n) {
    unsigned char bytes[8];
    std::memcpy(bytes, p, n);
    for (std::size_t i = 0; i < n; ++i) {
      hash = (hash ^ bytes[i]) * 1099511628211ULL;
    }
  }
};

/// Stamps the repetition id a campaign merge would, for the serial reference.
class RepStamp final : public obs::EventSink {
 public:
  explicit RepStamp(obs::EventSink& out) : out_(out) {}
  void on_event(const obs::Event& e) override {
    obs::Event stamped = e;
    stamped.rep = rep;
    out_.on_event(stamped);
  }
  std::uint32_t rep = 0;

 private:
  obs::EventSink& out_;
};

/// Alternates at every failure like AlternateAtFailure, but from run state,
/// and checkpoints on alarms that leave room for the write. Plain mutable
/// counters: an instance shared by two workers is a data race the thread
/// sanitizer reports.
class CountingScheduler final : public Scheduler {
 public:
  explicit CountingScheduler(std::thread::id owner) : owner_(owner) {}

  void reset() const override {
    ++runs_;
    gaps_ = 0;
  }
  Decision on_gap_start(const SchedContext& ctx) const override {
    return Decision::run(gaps_++ % ctx.num_apps);
  }
  Decision on_checkpoint(const SchedContext& ctx) const override {
    return Decision::run(ctx.current);
  }
  AlarmAction on_alarm(const SchedContext& ctx) const override {
    return ctx.alarm_lead > ctx.current_delta ? AlarmAction::checkpoint_after(0.0)
                                              : AlarmAction::ignore();
  }
  std::unique_ptr<Scheduler> clone() const override {
    if (std::this_thread::get_id() != owner_) ++foreign_clones_;
    auto copy = std::make_unique<CountingScheduler>(*this);
    copy->runs_ = 0;
    ++clones_;
    return copy;
  }
  std::string name() const override { return "CountingScheduler"; }

  std::size_t runs() const { return runs_; }
  std::size_t gaps_last_run() const { return gaps_; }
  std::size_t clones() const { return clones_; }
  std::size_t foreign_clones() const { return foreign_clones_; }

 private:
  std::thread::id owner_;
  mutable std::size_t runs_ = 0;
  mutable std::size_t gaps_ = 0;
  mutable std::size_t clones_ = 0;          // counted on the original only
  mutable std::size_t foreign_clones_ = 0;  // clones made off the owner thread
};

/// One alarm at mid-gap for about half the gaps, with run state and the
/// same ownership bookkeeping as CountingScheduler.
class CountingAlarms final : public AlarmSource {
 public:
  explicit CountingAlarms(std::thread::id owner) : owner_(owner) {}

  void reset() const override {
    ++runs_;
    emitted_ = 0;
  }
  std::vector<Alarm> alarms_in_gap(Seconds gap_start, Seconds gap_length,
                                   Rng& rng) const override {
    if (rng.uniform() < 0.5) return {};
    ++emitted_;
    return {Alarm{gap_start + 0.5 * gap_length, 0.5 * gap_length}};
  }
  std::unique_ptr<AlarmSource> clone() const override {
    if (std::this_thread::get_id() != owner_) ++foreign_clones_;
    auto copy = std::make_unique<CountingAlarms>(*this);
    copy->runs_ = 0;
    ++clones_;
    return copy;
  }
  std::string name() const override { return "CountingAlarms"; }

  std::size_t runs() const { return runs_; }
  std::size_t emitted_last_run() const { return emitted_; }
  std::size_t clones() const { return clones_; }
  std::size_t foreign_clones() const { return foreign_clones_; }

 private:
  std::thread::id owner_;
  mutable std::size_t runs_ = 0;
  mutable std::size_t emitted_ = 0;
  mutable std::size_t clones_ = 0;
  mutable std::size_t foreign_clones_ = 0;
};

void expect_same_summary(const MetricSummary& a, const MetricSummary& b,
                         const char* what) {
  EXPECT_EQ(a.mean, b.mean) << what;
  EXPECT_EQ(a.stddev, b.stddev) << what;
  EXPECT_EQ(a.ci95, b.ci95) << what;
  EXPECT_EQ(a.min, b.min) << what;
  EXPECT_EQ(a.max, b.max) << what;
}

void expect_same_campaign(const CampaignSummary& a, const CampaignSummary& b) {
  ASSERT_EQ(a.reps, b.reps);
  ASSERT_EQ(a.mean.apps.size(), b.mean.apps.size());
  for (std::size_t i = 0; i < a.mean.apps.size(); ++i) {
    EXPECT_EQ(a.mean.apps[i].useful, b.mean.apps[i].useful) << i;
    EXPECT_EQ(a.mean.apps[i].io, b.mean.apps[i].io) << i;
    EXPECT_EQ(a.mean.apps[i].lost, b.mean.apps[i].lost) << i;
    EXPECT_EQ(a.mean.apps[i].restart, b.mean.apps[i].restart) << i;
    EXPECT_EQ(a.mean.apps[i].checkpoints, b.mean.apps[i].checkpoints) << i;
    EXPECT_EQ(a.mean.apps[i].proactive_checkpoints,
              b.mean.apps[i].proactive_checkpoints) << i;
    EXPECT_EQ(a.mean.apps[i].failures_hit, b.mean.apps[i].failures_hit) << i;
    expect_same_summary(a.apps[i].useful, b.apps[i].useful, "app useful");
    expect_same_summary(a.apps[i].io, b.apps[i].io, "app io");
    expect_same_summary(a.apps[i].lost, b.apps[i].lost, "app lost");
    expect_same_summary(a.apps[i].restart, b.apps[i].restart, "app restart");
  }
  EXPECT_EQ(a.mean.wall, b.mean.wall);
  EXPECT_EQ(a.mean.idle, b.mean.idle);
  EXPECT_EQ(a.mean.truncated, b.mean.truncated);
  EXPECT_EQ(a.mean.failures, b.mean.failures);
  EXPECT_EQ(a.mean.switches, b.mean.switches);
  EXPECT_EQ(a.mean.alarms, b.mean.alarms);
  EXPECT_EQ(a.mean.proactive_checkpoints, b.mean.proactive_checkpoints);
  expect_same_summary(a.total_useful, b.total_useful, "total_useful");
  expect_same_summary(a.total_io, b.total_io, "total_io");
  expect_same_summary(a.total_lost, b.total_lost, "total_lost");
  expect_same_summary(a.idle, b.idle, "idle");
  expect_same_summary(a.failures, b.failures, "failures");
  expect_same_summary(a.switches, b.switches, "switches");
}

void expect_same_counts(const obs::MetricsSnapshot& a,
                        const obs::MetricsSnapshot& b) {
  ASSERT_EQ(a.entries.size(), b.entries.size());
  for (std::size_t i = 0; i < a.entries.size(); ++i) {
    EXPECT_EQ(a.entries[i].name, b.entries[i].name);
    EXPECT_EQ(a.entries[i].count, b.entries[i].count) << a.entries[i].name;
  }
}

using WindowParam = std::tuple<std::size_t, std::size_t>;  // reps, workers

class CampaignWindow : public ::testing::TestWithParam<WindowParam> {};

TEST_P(CampaignWindow, RunCampaignMatchesSerialLoopBitForBit) {
  const auto [reps, workers] = GetParam();
  const std::thread::id self = std::this_thread::get_id();
  const std::vector<SimJob> jobs = pair_jobs();

  // Serial reference: one traced, metered Engine::run per repetition, with
  // the caller's instances reused throughout, summarized after the loop.
  StreamDigest want_events;
  RepStamp stamp(want_events);
  obs::MetricsRegistry want_registry;
  EngineConfig ref_cfg = short_config();
  ref_cfg.sink = &stamp;
  ref_cfg.metrics = &want_registry;
  const Engine reference = make_engine(ref_cfg);
  const CountingScheduler ref_policy(self);
  const CountingAlarms ref_alarms(self);
  std::vector<SimResult> per_rep;
  per_rep.reserve(reps);
  const Rng master(kSeed);
  for (std::size_t r = 0; r < reps; ++r) {
    stamp.rep = static_cast<std::uint32_t>(r);
    Rng rng = master.fork(r);
    per_rep.push_back(reference.run(jobs, ref_policy, rng, &ref_alarms));
  }
  const CampaignSummary want = summarize_campaign(per_rep);
  if (reps > 1) {  // the workload exercises what the merge must carry
    std::size_t alarms_total = 0, proactive = 0, failures = 0;
    for (const SimResult& r : per_rep) {
      alarms_total += r.alarms;
      proactive += r.proactive_checkpoints;
      failures += r.failures;
    }
    EXPECT_GT(alarms_total, 0u);
    EXPECT_GT(proactive, 0u);
    EXPECT_GT(failures, 0u);
  }

  StreamDigest got_events;
  obs::MetricsRegistry got_registry;
  const Engine engine = make_engine(short_config());
  const CountingScheduler policy(self);
  const CountingAlarms alarms(self);
  CampaignOptions opts;
  opts.workers = workers;
  opts.alarms = &alarms;
  opts.sink = &got_events;
  opts.metrics = &got_registry;
  const CampaignSummary got = engine.run_campaign(jobs, policy, reps, kSeed, opts);

  expect_same_campaign(got, want);
  EXPECT_EQ(got_events.count, want_events.count);
  EXPECT_EQ(got_events.hash, want_events.hash);
  expect_same_counts(got_registry.snapshot(), want_registry.snapshot());

  // The caller's instances end in the last repetition's state.
  EXPECT_EQ(policy.gaps_last_run(), ref_policy.gaps_last_run());
  EXPECT_EQ(alarms.emitted_last_run(), ref_alarms.emitted_last_run());
  const bool parallel = workers > 1 && reps > 1;
  EXPECT_EQ(policy.runs(), parallel ? 1u : reps);
  EXPECT_EQ(alarms.runs(), parallel ? 1u : reps);
  EXPECT_EQ(policy.clones(), parallel ? reps - 1 : 0u);
  EXPECT_EQ(alarms.clones(), parallel ? reps - 1 : 0u);
  EXPECT_EQ(policy.foreign_clones(), 0u);
  EXPECT_EQ(alarms.foreign_clones(), 0u);
}

TEST_P(CampaignWindow, PairSweepMatchesSerialReplaysBitForBit) {
  const auto [reps, workers] = GetParam();
  const Engine engine = make_engine(short_config());
  const std::vector<SimJob> jobs = pair_jobs();
  const TraceStore traces(engine, kSeed);
  constexpr int kLo = 1;
  constexpr int kHi = 4;

  common::ThreadPool pool(workers);
  const std::vector<SweepUseful> got = replay_pair_sweep(
      engine, jobs[0], jobs[1], kLo, kHi, reps, traces, workers,
      workers > 1 ? &pool : nullptr);

  // Reference: every candidate replayed repetition by repetition, summed in
  // repetition order and divided once (sim::average's accumulation).
  ASSERT_EQ(got.size(), static_cast<std::size_t>(kHi - kLo + 1));
  for (int k = kLo; k <= kHi; ++k) {
    const ShirazPairScheduler policy(k);
    Seconds lw = 0.0;
    Seconds hw = 0.0;
    for (std::size_t r = 0; r < reps; ++r) {
      const SimResult res = engine.replay(jobs, policy, traces.trace(r));
      lw += res.apps[0].useful;
      hw += res.apps[1].useful;
    }
    const double n = static_cast<double>(reps);
    EXPECT_EQ(got[static_cast<std::size_t>(k - kLo)].lw, lw / n) << "k=" << k;
    EXPECT_EQ(got[static_cast<std::size_t>(k - kLo)].hw, hw / n) << "k=" << k;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Edges, CampaignWindow,
    ::testing::Combine(::testing::Values(std::size_t{1}, kW - 1, kW, kW + 1,
                                         2 * kW + 1),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})),
    [](const ::testing::TestParamInfo<WindowParam>& info) {
      return "reps" + std::to_string(std::get<0>(info.param)) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

TEST(CampaignWindow, ThrowingRepetitionsRunAllAndRethrowTheLowest) {
  // A scheduler that throws on repetitions past the first window: in
  // parallel every repetition still runs, the sink sees exactly the
  // repetitions before the lowest failing one, and that one's exception is
  // the one rethrown.
  class ThrowPast final : public Scheduler {
   public:
    ThrowPast(std::size_t fail_from, std::atomic<std::size_t>& started)
        : fail_from_(fail_from), started_(started) {}
    void reset() const override {
      rep_ = next_rep_++;
      started_.fetch_add(1);
    }
    Decision on_gap_start(const SchedContext& ctx) const override {
      if (rep_ >= fail_from_) throw std::runtime_error(std::to_string(rep_));
      return Decision::run(ctx.failures_so_far % ctx.num_apps);
    }
    Decision on_checkpoint(const SchedContext& ctx) const override {
      return Decision::run(ctx.current);
    }
    // Clones are made in repetition order on the calling thread, so each
    // clone learns its repetition id from the original's counter.
    std::unique_ptr<Scheduler> clone() const override {
      auto copy = std::make_unique<ThrowPast>(fail_from_, started_);
      copy->next_rep_ = next_rep_++;
      return copy;
    }
    std::string name() const override { return "ThrowPast"; }

   private:
    std::size_t fail_from_;
    std::atomic<std::size_t>& started_;
    mutable std::size_t rep_ = 0;
    mutable std::size_t next_rep_ = 0;
  };

  const std::size_t reps = kW + 8;
  const std::size_t fail_from = kW + 3;
  const Engine engine = make_engine(short_config());
  obs::EventRecorder events;
  std::atomic<std::size_t> started{0};
  const ThrowPast policy(fail_from, started);
  CampaignOptions opts;
  opts.workers = 2;
  opts.sink = &events;
  try {
    (void)engine.run_campaign(pair_jobs(), policy, reps, kSeed, opts);
    FAIL() << "campaign did not throw";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), std::to_string(fail_from));
  }
  EXPECT_EQ(started.load(), reps);
  ASSERT_FALSE(events.events().empty());
  EXPECT_EQ(events.events().back().rep, fail_from - 1);
}

TEST(CampaignWindow, FoldConsumesInOrderOnTheCallingThread) {
  const std::thread::id self = std::this_thread::get_id();
  common::ThreadPool pool(4);
  const std::size_t n = 2 * kW + 1;
  std::size_t next = 0;
  std::size_t prepared_to = 0;
  bool on_caller = true;
  common::ordered_fold(
      &pool, n,
      [&](std::size_t lo, std::size_t hi) {
        EXPECT_EQ(lo, next);  // every earlier index was consumed
        EXPECT_EQ(lo, prepared_to);
        EXPECT_LE(hi - lo, kW);
        prepared_to = hi;
        on_caller = on_caller && std::this_thread::get_id() == self;
      },
      [](std::size_t i) { return i * i; },
      [&](std::size_t i, std::size_t v) {
        EXPECT_EQ(i, next++);
        EXPECT_EQ(v, i * i);
        EXPECT_LT(i, prepared_to);
        on_caller = on_caller && std::this_thread::get_id() == self;
      });
  EXPECT_EQ(next, n);
  EXPECT_TRUE(on_caller);
}

TEST(TraceStoreExactSize, TracesHoldExactlyTheirFailureTimes) {
  // Resident traces carry no growth slack, so the resident-bytes gauge is
  // the real allocation of the store's arrays.
  const Engine engine = make_engine(short_config());
  obs::MetricsRegistry registry;
  TraceStore traces(engine, kSeed);
  traces.set_metrics(&registry);
  traces.ensure(64);
  (void)traces.trace(64);  // the lazy path materializes at exact size too
  std::size_t allocated = 0;
  for (std::size_t r = 0; r <= 64; ++r) {
    const FailureTrace& t = traces.trace(r);
    EXPECT_EQ(t.fail_times().capacity(), t.size()) << "rep " << r;
    allocated += sizeof(Seconds) * t.fail_times().capacity();
  }
  EXPECT_EQ(registry.gauge("shiraz_trace_resident_bytes").value(),
            static_cast<double>(allocated));
}

// A store behind a campaign is filled by the campaign's workers, each
// repetition sampled by its first reader off the store's lock. Whoever
// samples it, every trace, count and summary must match a serial fill.

/// The registry of a store filled serially with repetitions [0, reps): the
/// counts a worker-filled store must reproduce.
obs::MetricsSnapshot serial_fill_counts(const Engine& engine, std::size_t reps) {
  obs::MetricsRegistry registry;
  TraceStore serial(engine, kSeed);
  serial.set_metrics(&registry);
  for (std::size_t r = 0; r < reps; ++r) (void)serial.trace(r);
  return registry.snapshot();
}

class TraceFill : public ::testing::TestWithParam<WindowParam> {};

TEST_P(TraceFill, WorkersFillTheStoreBitForBit) {
  const auto [reps, workers] = GetParam();
  const Engine engine = make_engine(short_config());
  const std::vector<SimJob> jobs = pair_jobs();
  const AlternateAtFailure policy;
  CampaignOptions opts;
  opts.workers = workers;

  obs::MetricsRegistry registry;
  TraceStore filled(engine, kSeed);
  filled.set_metrics(&registry);
  opts.traces = &filled;
  const CampaignSummary got = engine.run_campaign(jobs, policy, reps, kSeed, opts);
  EXPECT_EQ(filled.materialized(), reps);
  // Counters and the resident-bytes gauge: sums of integers, so the order
  // the workers published in does not show.
  const obs::MetricsSnapshot counts = registry.snapshot();
  const obs::MetricsSnapshot want_counts = serial_fill_counts(engine, reps);
  expect_same_counts(counts, want_counts);
  ASSERT_EQ(counts.entries.size(), want_counts.entries.size());
  for (std::size_t i = 0; i < counts.entries.size(); ++i) {
    EXPECT_EQ(counts.entries[i].value, want_counts.entries[i].value)
        << counts.entries[i].name;
  }

  // Every trace is the one FailureTrace::sample draws on the repetition's
  // stream.
  const Rng master(kSeed);
  for (std::size_t r = 0; r < reps; ++r) {
    Rng rng = master.fork(r);
    const FailureTrace want =
        FailureTrace::sample(engine.failure_process(), rng, engine.config().t_total);
    EXPECT_EQ(filled.trace(r).fail_times(), want.fail_times()) << "rep " << r;
  }

  // The eager path: the store filled serially before the campaign starts.
  TraceStore eager(engine, kSeed);
  for (std::size_t r = 0; r < reps; ++r) (void)eager.trace(r);
  opts.traces = &eager;
  expect_same_campaign(got, engine.run_campaign(jobs, policy, reps, kSeed, opts));
}

INSTANTIATE_TEST_SUITE_P(
    Edges, TraceFill,
    ::testing::Combine(::testing::Values(std::size_t{1}, kW - 1, kW, kW + 1,
                                         2 * kW + 1),
                       ::testing::Values(std::size_t{1}, std::size_t{2},
                                         std::size_t{4})),
    [](const ::testing::TestParamInfo<WindowParam>& info) {
      return "reps" + std::to_string(std::get<0>(info.param)) + "_jobs" +
             std::to_string(std::get<1>(info.param));
    });

TEST(TraceFill, CallerSamplesNoneOfTheRepetitions) {
  // A recording sampler: every gap it draws notes whether the calling thread
  // drew it. Exponential gaps, mean five hours.
  const std::thread::id self = std::this_thread::get_id();
  std::atomic<std::size_t> on_caller{0};
  std::atomic<std::size_t> drawn{0};
  const Engine engine(
      [&](Rng& rng, Seconds) {
        drawn.fetch_add(1);
        if (std::this_thread::get_id() == self) on_caller.fetch_add(1);
        return -hours(kMtbfHours) * std::log1p(-rng.uniform());
      },
      short_config());
  const TraceStore traces(engine, kSeed);
  CampaignOptions opts;
  opts.workers = 2;
  opts.traces = &traces;
  const std::size_t reps = kW + 1;
  (void)engine.run_campaign(pair_jobs(), AlternateAtFailure{}, reps, kSeed, opts);
  EXPECT_EQ(traces.materialized(), reps);
  EXPECT_GT(drawn.load(), reps);
  EXPECT_EQ(on_caller.load(), 0u);
}

TEST(TraceFill, RacingReadersShareOneTrace) {
  // Four threads read the same fresh repetitions in the same order, released
  // together, so they race on each one. Every repetition is published once:
  // one address for all four readers, one materialization, three hits.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kReps = 64;
  const Engine engine = make_engine(short_config());
  obs::MetricsRegistry registry;
  TraceStore traces(engine, kSeed);
  traces.set_metrics(&registry);
  std::vector<std::vector<const FailureTrace*>> seen(
      kThreads, std::vector<const FailureTrace*>(kReps, nullptr));
  std::atomic<bool> go{false};
  std::vector<std::thread> readers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    readers.emplace_back([&, t] {
      while (!go.load()) std::this_thread::yield();
      for (std::size_t r = 0; r < kReps; ++r) seen[t][r] = &traces.trace(r);
    });
  }
  go.store(true);
  for (std::thread& th : readers) th.join();

  const Rng master(kSeed);
  for (std::size_t r = 0; r < kReps; ++r) {
    for (std::size_t t = 1; t < kThreads; ++t) {
      EXPECT_EQ(seen[t][r], seen[0][r]) << "rep " << r << ", thread " << t;
    }
    Rng rng = master.fork(r);
    EXPECT_EQ(seen[0][r]->fail_times(),
              FailureTrace::sample(engine.failure_process(), rng,
                                   engine.config().t_total)
                  .fail_times())
        << "rep " << r;
  }
  EXPECT_EQ(traces.materialized(), kReps);
  EXPECT_EQ(registry.counter("shiraz_trace_traces_materialized_total").value(), kReps);
  EXPECT_EQ(registry.counter("shiraz_trace_replay_hits_total").value(),
            (kThreads - 1) * kReps);
}

}  // namespace
}  // namespace shiraz::sim
