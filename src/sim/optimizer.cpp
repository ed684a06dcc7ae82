#include "sim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "sim/trace.h"

namespace shiraz::sim {

namespace {

SimSwitchCandidate candidate_from(int k, double lw_useful, double hw_useful,
                                  const SimResult& base) {
  SimSwitchCandidate c;
  c.k = k;
  c.delta_lw = lw_useful - base.apps[0].useful;
  c.delta_hw = hw_useful - base.apps[1].useful;
  c.delta_total = c.delta_lw + c.delta_hw;
  return c;
}

/// One repetition of the shared-prefix k sweep for periodic schedules: the
/// light-weight interval is hoisted to `tau_lw` (== the LW schedule's
/// period) and the heavy-weight to `tau_hw`. Accumulates, per candidate
/// k in [k_lo, k_lo + acc.size()), the useful-work additions ShirazPair(k)
/// performs over `trace` under free restarts and switches — bit-identical to
/// the event loop's (the hoisted period equals every next_interval return by
/// the period() contract, and the segment resolution below is the engine's
/// comparison structure verbatim).
void flat_pair_sweep_rep(Seconds tau_lw, Seconds delta_lw, Seconds tau_hw,
                         Seconds delta_hw, int k_lo, Seconds horizon,
                         const FailureTrace& trace,
                         std::vector<SweepUseful>& acc) {
  const std::size_t n = acc.size();
  const int k_hi = k_lo + static_cast<int>(n) - 1;
  const std::size_t k_lo_sz = static_cast<std::size_t>(k_lo);
  const std::size_t k_hi_sz = static_cast<std::size_t>(k_hi);
  // Completed light-weight segment end times of the current gap, shared by
  // every candidate that has not switched yet (the intervals are all tau_lw).
  // A flat scratch buffer indexed by a count — the prefix loop is the hottest
  // code in the sweep and a push_back capacity check per segment shows up.
  std::vector<Seconds> seg_end_buf(k_hi_sz);
  Seconds* const seg_end_at = seg_end_buf.data();

  // Candidate k's engine accumulator performs only `useful += tau` additions
  // of one constant per app, so its final value is a pure function of the
  // ADDITION COUNT: n sequential adds of tau starting from 0.0, exactly the
  // sequence the event loop interleaves across gaps. The hot loop therefore
  // only counts completed segments per candidate (integer adds, no FP
  // dependency chains), and one shared iterated-sum pass at the end converts
  // counts back to the engine's doubles.
  std::vector<std::size_t> lw_segments(n, 0);
  std::vector<std::size_t> hw_segments(n, 0);

  const Seconds* fail_times = trace.fail_times().data();
  std::size_t cursor = 0;
  Seconds gap_start = 0.0;
  Seconds next_fail = fail_times[cursor++];
  for (;;) {
    // Light-weight prefix: the engine's comparisons verbatim, with the
    // periodic interval hoisted out of the loop.
    std::size_t completed = 0;
    Seconds now = gap_start;
    while (completed < k_hi_sz) {
      const Seconds seg_end = now + tau_lw + delta_lw;
      if (horizon <= seg_end && horizon <= next_fail) break;
      if (next_fail < seg_end) break;
      seg_end_at[completed++] = seg_end;
      now = seg_end;
    }

    // Candidates split into two branch-free ranges: k <= completed switched
    // (credit k, walk the heavy-weight tail); the rest were still
    // light-weight when the gap ended (credit every completed segment).
    const std::size_t switched =
        completed < k_lo_sz ? 0 : std::min(n, completed - k_lo_sz + 1);
    for (std::size_t i = 0; i < switched; ++i) {
      const std::size_t k = k_lo_sz + i;
      lw_segments[i] += k;
      Seconds t = seg_end_at[k - 1];
      for (;;) {
        const Seconds seg_end = t + tau_hw + delta_hw;
        if (horizon <= seg_end && horizon <= next_fail) break;
        if (next_fail < seg_end) break;
        ++hw_segments[i];
        t = seg_end;
      }
    }
    for (std::size_t i = switched; i < n; ++i) lw_segments[i] += completed;

    if (next_fail >= horizon) break;
    gap_start = next_fail;
    next_fail = fail_times[cursor++];
  }

  // Replay the engine's accumulator additions once, shared across the range:
  // running_lw after m iterations equals m sequential `+= tau_lw` from 0.0 —
  // the exact double every candidate with m credited segments ends at. A
  // multiplication would round differently and break bit-identity.
  const std::size_t max_lw = *std::max_element(lw_segments.begin(), lw_segments.end());
  const std::size_t max_hw = *std::max_element(hw_segments.begin(), hw_segments.end());
  std::vector<Seconds> lw_sum(max_lw + 1, 0.0);
  std::vector<Seconds> hw_sum(max_hw + 1, 0.0);
  for (std::size_t m = 1; m <= max_lw; ++m) lw_sum[m] = lw_sum[m - 1] + tau_lw;
  for (std::size_t m = 1; m <= max_hw; ++m) hw_sum[m] = hw_sum[m - 1] + tau_hw;
  for (std::size_t i = 0; i < n; ++i) {
    acc[i].lw += lw_sum[lw_segments[i]];
    acc[i].hw += hw_sum[hw_segments[i]];
  }
}

}  // namespace

SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k, std::size_t reps,
                                         std::uint64_t seed, std::size_t workers) {
  // Same seed => same failure streams for both policies (the engine draws
  // failures identically regardless of policy), so the difference is pure
  // policy effect; the store makes the sharing explicit and samples once.
  TraceStore traces(engine, seed);
  traces.ensure(reps);
  CampaignOptions opts;
  opts.workers = workers;
  opts.traces = &traces;
  const std::vector<SimJob> jobs{lw, hw};
  const AlternateAtFailure baseline_policy;
  const SimResult base = engine.run_many(jobs, baseline_policy, reps, seed, opts);
  return simulate_switch_point(engine, lw, hw, k, base, reps, seed, opts);
}

SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k,
                                         const SimResult& baseline,
                                         std::size_t reps, std::uint64_t seed,
                                         const CampaignOptions& opts) {
  const std::vector<SimJob> jobs{lw, hw};
  const ShirazPairScheduler shiraz_policy(k);
  const SimResult sz = engine.run_many(jobs, shiraz_policy, reps, seed, opts);
  return candidate_from(k, sz.apps[0].useful, sz.apps[1].useful, baseline);
}

SimSwitchSolution find_fair_k_by_simulation(const Engine& engine, const SimJob& lw,
                                            const SimJob& hw, int k_lo, int k_hi,
                                            std::size_t reps, std::uint64_t seed,
                                            std::size_t workers) {
  SHIRAZ_REQUIRE(k_lo >= 1 && k_hi >= k_lo, "invalid k range");
  const std::vector<SimJob> jobs{lw, hw};

  // Sample every repetition's failure stream once and spawn threads once:
  // the baseline and all candidates replay the same store on the same pool.
  TraceStore traces(engine, seed);
  traces.ensure(reps);
  std::optional<common::ThreadPool> pool;
  if (workers > 1 && reps > 1) pool.emplace(std::min(workers, reps));
  CampaignOptions opts;
  opts.workers = workers;
  opts.traces = &traces;
  opts.pool = pool ? &*pool : nullptr;

  const AlternateAtFailure baseline_policy;
  const SimResult base = engine.run_many(jobs, baseline_policy, reps, seed, opts);

  SimSwitchSolution sol;
  // Same fairness criterion the model solver applies: the k nearest the
  // Delta_LW = Delta_HW crossing, accepted only when the total gain there is
  // material (see core::solve_switch_point).
  double best_gap = std::numeric_limits<double>::infinity();
  SimSwitchCandidate best;
  bool have_candidate = false;
  auto consider = [&](const SimSwitchCandidate& c) {
    sol.sweep.push_back(c);
    const double gap = std::fabs(c.delta_lw - c.delta_hw);
    if (gap < best_gap) {
      best_gap = gap;
      best = c;
      have_candidate = true;
    }
  };

  // The baseline campaign above has already validated both jobs' schedules.
  if (engine.config().restart_cost == 0.0 && engine.config().switch_cost == 0.0 &&
      lw.schedule->period() && hw.schedule->period()) {
    // Free restarts and switches with periodic schedules (the paper's model
    // setting): one replayed pass evaluates the whole range, sharing each
    // gap's light-weight prefix across candidates — bit-identical to the
    // per-candidate campaigns, which every other pair runs.
    const std::vector<SweepUseful> sweep = replay_pair_sweep(
        engine, lw, hw, k_lo, k_hi, reps, traces, workers, opts.pool);
    for (int k = k_lo; k <= k_hi; ++k) {
      const SweepUseful& u = sweep[static_cast<std::size_t>(k - k_lo)];
      consider(candidate_from(k, u.lw, u.hw, base));
    }
  } else {
    for (int k = k_lo; k <= k_hi; ++k) {
      consider(simulate_switch_point(engine, lw, hw, k, base, reps, seed, opts));
    }
  }

  const double materiality = 1e-4 * (base.apps[0].useful + base.apps[1].useful);
  if (have_candidate && best.delta_total > materiality) {
    sol.k = best.k;
    sol.delta_lw = best.delta_lw;
    sol.delta_hw = best.delta_hw;
    sol.delta_total = best.delta_total;
  }
  return sol;
}

std::vector<SweepUseful> replay_pair_sweep(const Engine& engine, const SimJob& lw,
                                           const SimJob& hw, int k_lo, int k_hi,
                                           std::size_t reps, const TraceStore& traces,
                                           std::size_t workers,
                                           common::ThreadPool* pool) {
  SHIRAZ_REQUIRE(k_lo >= 1 && k_hi >= k_lo, "invalid k range");
  SHIRAZ_REQUIRE(reps >= 1, "need at least one repetition");
  SHIRAZ_REQUIRE(
      engine.config().restart_cost == 0.0 && engine.config().switch_cost == 0.0,
      "replay_pair_sweep models free restarts and switches");
  SHIRAZ_REQUIRE(lw.delta > 0.0 && hw.delta > 0.0,
                 "job checkpoint cost must be positive");
  SHIRAZ_REQUIRE(lw.schedule != nullptr && hw.schedule != nullptr,
                 "job needs an interval schedule");
  const std::optional<Seconds> lw_period = lw.schedule->period();
  const std::optional<Seconds> hw_period = hw.schedule->period();
  SHIRAZ_REQUIRE(lw_period && hw_period,
                 "replay_pair_sweep needs periodic schedules");
  SHIRAZ_REQUIRE(traces.horizon() >= engine.config().t_total,
                 "trace store horizon does not cover the engine horizon");
  traces.ensure(reps);

  const Seconds horizon = engine.config().t_total;
  const std::size_t n = static_cast<std::size_t>(k_hi - k_lo + 1);
  std::vector<std::vector<SweepUseful>> per_rep(reps, std::vector<SweepUseful>(n));
  auto one_rep = [&](std::size_t r) {
    flat_pair_sweep_rep(*lw_period, lw.delta, *hw_period, hw.delta, k_lo,
                        horizon, traces.trace(r), per_rep[r]);
  };
  if ((workers <= 1 && pool == nullptr) || reps == 1) {
    for (std::size_t r = 0; r < reps; ++r) one_rep(r);
  } else {
    common::PoolHandle handle(pool, std::min(workers, reps));
    common::parallel_for_indexed(handle.get(), reps, one_rep);
  }

  // Merge in repetition order with sim::average's exact accumulation (sum in
  // order, then divide), so the means match run_many's bit for bit.
  std::vector<SweepUseful> mean = per_rep.front();
  const double dn = static_cast<double>(reps);
  for (std::size_t r = 1; r < reps; ++r) {
    for (std::size_t i = 0; i < n; ++i) {
      mean[i].lw += per_rep[r][i].lw;
      mean[i].hw += per_rep[r][i].hw;
    }
  }
  for (SweepUseful& u : mean) {
    u.lw /= dn;
    u.hw /= dn;
  }
  return mean;
}

}  // namespace shiraz::sim
