#include "sim/kernel.h"

#include <cstddef>
#include <limits>
#include <typeinfo>
#include <vector>

#include "common/error.h"
#include "sim/trace.h"

namespace shiraz::sim {

namespace {

constexpr std::size_t kUnbounded = std::numeric_limits<std::size_t>::max();

/// One scheduler phase inside a gap: run `app` until it completes `budget`
/// checkpoints (kUnbounded = until the gap ends).
struct KernelPhase {
  std::size_t app = 0;
  std::size_t budget = kUnbounded;
};

/// The scheduler's behavior flattened into per-gap phase plans. Every
/// supported policy is gap-local: which apps run, in what order, and for how
/// many checkpoints depends only on the failure count at gap start, cycling
/// with period plans.size(). Plan `f % plans.size()` governs the gap opened
/// by failure number f (the campaign opens with f == 0).
struct FlatPlan {
  std::vector<std::vector<KernelPhase>> plans;
};

/// Flattens `scheduler` for `num_apps` apps, or returns a static reason why
/// it cannot. Matches exact dynamic types: a subclass may override any hook,
/// so an is-a match would be unsound.
const char* build_plan(std::size_t num_apps, const Scheduler& scheduler,
                       FlatPlan* out) {
  const std::type_info& type = typeid(scheduler);
  if (type == typeid(AlternateAtFailure)) {
    // Gap f runs app f % n until the next failure.
    out->plans.resize(num_apps);
    for (std::size_t i = 0; i < num_apps; ++i) {
      out->plans[i] = {KernelPhase{i, kUnbounded}};
    }
    return nullptr;
  }
  if (type == typeid(ShirazPairScheduler)) {
    if (num_apps != 2) return "ShirazPairScheduler needs exactly two apps";
    const int k = static_cast<const ShirazPairScheduler&>(scheduler).k();
    out->plans.resize(1);
    if (k == 0) {
      out->plans[0] = {KernelPhase{1, kUnbounded}};
    } else {
      out->plans[0] = {KernelPhase{0, static_cast<std::size_t>(k)},
                       KernelPhase{1, kUnbounded}};
    }
    return nullptr;
  }
  if (type == typeid(MultiSwitchScheduler)) {
    const std::vector<int>& ks =
        static_cast<const MultiSwitchScheduler&>(scheduler).ks();
    if (num_apps != ks.size() + 1) {
      return "MultiSwitchScheduler app count must be one more than its ks";
    }
    // Zero counts skip that app's turn (Scheduler::next_runnable semantics);
    // the last app always runs to the gap's end.
    std::vector<KernelPhase> plan;
    for (std::size_t i = 0; i < ks.size(); ++i) {
      if (ks[i] > 0) plan.push_back({i, static_cast<std::size_t>(ks[i])});
    }
    plan.push_back({ks.size(), kUnbounded});
    out->plans = {std::move(plan)};
    return nullptr;
  }
  if (type == typeid(PairRotationScheduler)) {
    const std::vector<std::optional<int>>& ks =
        static_cast<const PairRotationScheduler&>(scheduler).ks();
    if (num_apps != 2 * ks.size()) {
      return "PairRotationScheduler app count must be 2 * pairs";
    }
    // Rotation r picks pair r % P; pairs without a k alternate their lead
    // across rotations via (r / P) % 2, so the whole cycle has period 2P.
    const std::size_t pairs = ks.size();
    out->plans.resize(2 * pairs);
    for (std::size_t r = 0; r < 2 * pairs; ++r) {
      const std::size_t pair = r % pairs;
      const std::size_t lw = 2 * pair;
      const std::size_t hw = lw + 1;
      std::vector<KernelPhase>& plan = out->plans[r];
      if (!ks[pair]) {
        plan = {KernelPhase{(r / pairs) % 2 == 0 ? lw : hw, kUnbounded}};
      } else if (*ks[pair] == 0) {
        plan = {KernelPhase{hw, kUnbounded}};
      } else {
        plan = {KernelPhase{lw, static_cast<std::size_t>(*ks[pair])},
                KernelPhase{hw, kUnbounded}};
      }
    }
    return nullptr;
  }
  return "scheduler has no flat phase-plan form";
}

/// Eligibility rules + plan construction in one pass (the plan is the last
/// and most expensive rule, so the engine's per-repetition dispatch builds
/// it exactly once). Returns nullptr and fills `*out` when eligible.
const char* check_and_plan(const EngineConfig& config,
                           const std::vector<SimJob>& jobs,
                           const Scheduler& scheduler, const AlarmSource* alarms,
                           const obs::EventSink* sink, FlatPlan* out) {
  if (config.restart_cost != 0.0) return "restart cost is not free";
  if (config.switch_cost != 0.0) return "switch cost is not free";
  if (config.sink != nullptr || sink != nullptr) {
    return "an event sink observes the run";
  }
  if (alarms != nullptr) return "an alarm source is armed";
  if (jobs.empty()) return "no jobs";
  for (const SimJob& job : jobs) {
    if (job.schedule == nullptr) return "job has no interval schedule";
    if (!job.schedule->period()) return "job schedule is not periodic";
  }
  return build_plan(jobs.size(), scheduler, out);
}

/// The kernel proper: one repetition over a prebuilt phase plan.
SimResult run_flat(const EngineConfig& config, const std::vector<SimJob>& jobs,
                   const Scheduler& scheduler, const FlatPlan& flat,
                   const FailureTrace& trace) {
  SHIRAZ_REQUIRE(trace.horizon() >= config.t_total,
                 "trace horizon does not cover the engine horizon");
  for (const SimJob& job : jobs) {
    SHIRAZ_REQUIRE(job.delta > 0.0, "job checkpoint cost must be positive");
    SHIRAZ_REQUIRE(*job.schedule->period() > 0.0,
                   "schedule produced a non-positive interval");
  }
  scheduler.reset();  // the engine contract; eligible policies are stateless

  const std::size_t cycle = flat.plans.size();

  // Per-app constants, hoisted once (structure-of-arrays view of the jobs).
  const std::size_t napps = jobs.size();
  std::vector<Seconds> taus(napps);
  std::vector<Seconds> deltas(napps);
  for (std::size_t i = 0; i < napps; ++i) {
    taus[i] = *jobs[i].schedule->period();
    deltas[i] = jobs[i].delta;
  }

  SimResult res;
  res.wall = config.t_total;
  res.apps.resize(napps);
  for (std::size_t i = 0; i < napps; ++i) res.apps[i].name = jobs[i].name;

  const Seconds horizon = config.t_total;
  // Raw prefix-sum array: the FailureTrace invariant (every entry before the
  // last is < horizon, the last is >= horizon) guarantees the cursor below
  // never advances past the end — a new entry is read only after a failure
  // strictly before the horizon.
  const Seconds* fail_times = trace.fail_times().data();
  std::size_t cursor = 0;
  Seconds now = 0.0;
  Seconds next_fail = fail_times[cursor++];

  // Tracks res.failures % cycle without the per-gap division — failures
  // advance by exactly one per gap.
  std::size_t plan_idx = 0;
  for (;;) {
    const std::vector<KernelPhase>& plan = flat.plans[plan_idx];
    std::size_t phase = 0;
    std::size_t ai = plan[0].app;
    Seconds tau = taus[ai];
    Seconds delta = deltas[ai];
    AppMetrics* am = &res.apps[ai];
    std::size_t done_in_phase = 0;
    for (;;) {
      // The engine's exact segment resolution: compute [now, write_start),
      // checkpoint write [write_start, seg_end), three-way compare.
      const Seconds write_start = now + tau;
      const Seconds seg_end = write_start + delta;
      if (horizon <= seg_end && horizon <= next_fail) {
        res.truncated += horizon - now;
        return res;  // `now = horizon` in the engine; nothing reads it after
      }
      if (next_fail < seg_end) {
        am->lost += next_fail - now;
        now = next_fail;
        ++res.failures;
        ++am->failures_hit;
        next_fail = fail_times[cursor++];
        if (++plan_idx == cycle) plan_idx = 0;
        break;  // next gap: re-plan from the new failure count
      }
      am->useful += tau;
      am->io += delta;
      ++am->checkpoints;
      now = seg_end;
      if (++done_in_phase >= plan[phase].budget) {
        ++phase;
        const std::size_t next_app = plan[phase].app;
        if (next_app != ai) ++res.switches;  // free hand-off (switch_cost 0)
        ai = next_app;
        tau = taus[ai];
        delta = deltas[ai];
        am = &res.apps[ai];
        done_in_phase = 0;
      }
    }
  }
}

}  // namespace

KernelEligibility try_flat_replay(const EngineConfig& config,
                                  const std::vector<SimJob>& jobs,
                                  const Scheduler& scheduler,
                                  const AlarmSource* alarms,
                                  const obs::EventSink* sink,
                                  const FailureTrace& trace, SimResult* out) {
  SHIRAZ_REQUIRE(out != nullptr, "try_flat_replay needs an output slot");
  FlatPlan flat;
  if (const char* reason =
          check_and_plan(config, jobs, scheduler, alarms, sink, &flat)) {
    return KernelEligibility{false, reason};
  }
  *out = run_flat(config, jobs, scheduler, flat, trace);
  return KernelEligibility{true, ""};
}

}  // namespace shiraz::sim
