#include "sim/optimizer.h"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <optional>
#include <vector>

#include "common/error.h"
#include "common/thread_pool.h"
#include "obs/metrics.h"
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

/// Distance, in segments, that a closed-form quotient must keep from every
/// integer before its floor is trusted; a gap with a quotient closer than
/// this takes the exact segment walk instead. Derivation (u = 2^-53, S = a
/// segment's tau + delta, E = horizon + restart + switch + S_lw + S_hw, which
/// bounds every operand the walk touches):
///  - the walk's j-th segment end is a chain of j' <= 2j + 1 rounded
///    additions of non-negative terms (tau, delta, and the switch cost once
///    for a heavy-weight tail), each off by at most u*E, so it lies within
///    N*u*E of the real gap_start + (sum of terms), with
///    N = 2 * (k_hi + ceil(horizon / S_hw) + 1) + 1 over every segment the
///    walk can reach;
///  - each quotient below is a chain of at most eleven roundings (the
///    reciprocal, the differences, the products), each relative to a value
///    bounded by E/S, so it is within 12*u*E/S segments of its real value;
///  - a quotient kept more than kEta from every integer therefore has its
///    real value more than kEta - 12*u*E/S from one, so every real segment
///    end lies more than kEta*S - 12*u*E from the gap's end, and the
///    walk's rounded ends fall on the same side of it whenever
///    kEta*S > (N + 12)*u*E. The sweep checks (N + 16)*u*E < kEta*S/2 once
///    (the factor 2 covers the O(u^2) terms); if it fails, every gap walks.
/// A quotient's fractional part is spread evenly over [0, 1), so each one
/// falls back with probability 2*kEta: at the fig10 point (k 1-64, about 20
/// quotients per gap) that bounds the walked share near 4e-5 of the gaps
/// (measured: 1 of 40 273 gaps at 1000 h, 3 of 41 853 at 8760 h), and the
/// check holds up to horizons of about 3.5e4 h there. Exact boundaries (a
/// failure on a segment end, where `<= next_fail` and `< horizon` differ)
/// have distance 0 and always walk.
constexpr double kEta = 1e-6;

/// The per-sweep constants of flat_pair_sweep_rep.
struct SweepShape {
  Seconds tau_lw;
  Seconds delta_lw;
  Seconds tau_hw;
  Seconds delta_hw;
  Seconds horizon;
  Seconds restart_cost;
  Seconds switch_cost;
  std::size_t k_lo;
  std::size_t k_hi;
  double inv_lw;                  ///< 1 / (tau_lw + delta_lw)
  double inv_hw;                  ///< 1 / (tau_hw + delta_hw)
  /// k * (tau_lw + delta_lw) / (tau_hw + delta_hw) for k = k_lo + i: the
  /// light-weight prefix of candidate k in heavy-weight segments.
  std::vector<double> k_prefix_hw;
  bool closed_form;               ///< kEta's error bound holds for this sweep

  SweepShape(Seconds tau_lw_, Seconds delta_lw_, Seconds tau_hw_,
             Seconds delta_hw_, int k_lo_, int k_hi_, const EngineConfig& config)
      : tau_lw(tau_lw_),
        delta_lw(delta_lw_),
        tau_hw(tau_hw_),
        delta_hw(delta_hw_),
        horizon(config.t_total),
        restart_cost(config.restart_cost),
        switch_cost(config.switch_cost),
        k_lo(static_cast<std::size_t>(k_lo_)),
        k_hi(static_cast<std::size_t>(k_hi_)) {
    const Seconds seg_lw = tau_lw + delta_lw;
    const Seconds seg_hw = tau_hw + delta_hw;
    inv_lw = 1.0 / seg_lw;
    inv_hw = 1.0 / seg_hw;
    const double lw_per_hw = seg_lw * inv_hw;
    for (std::size_t k = k_lo; k <= k_hi; ++k) {
      k_prefix_hw.push_back(static_cast<double>(k) * lw_per_hw);
    }
    const double u = std::numeric_limits<double>::epsilon() / 2.0;
    const double magnitude = horizon + restart_cost + switch_cost + seg_lw + seg_hw;
    const double roundings =
        2.0 * (static_cast<double>(k_hi) + std::ceil(horizon / seg_hw) + 1.0) + 1.0;
    closed_form = (roundings + 16.0) * u * magnitude <
                  0.5 * kEta * std::min(seg_lw, seg_hw);
  }
};

/// floor(q) for 0.5 <= q < 2^51, as a double, and whether q lies within
/// kEta of an integer (`near` is or-ed, so a loop can collect it). Callers
/// clamp q below at 0.5: a quotient under 1 completes no segment whichever
/// side of 0 its real value lies, so only integers >= 1 are boundaries. The
/// bound check keeps every quotient below 1/(32 u) < 2^51. q - 0.5 is exact
/// there, and adding and subtracting 2^52 rounds it to the nearest integer,
/// which is floor(q) unless q is an integer, where the margin test rejects
/// it anyway. Doubles throughout keep the candidate loop free of
/// integer conversions, so it vectorizes.
inline double floor_with_margin(double q, unsigned& near) {
  constexpr double kRoundToInteger = 4503599627370496.0;  // 2^52
  const double whole = (q - 0.5 + kRoundToInteger) - kRoundToInteger;
  const double frac = q - whole;
  near |= static_cast<unsigned>(frac <= kEta) | static_cast<unsigned>(frac >= 1.0 - kEta);
  return whole;
}

/// One repetition's segment counts: n light-weight, then n heavy-weight,
/// for candidates k_lo .. k_hi; and the gaps it evaluated and how many of
/// them the exact walk decided.
struct RepCounts {
  std::vector<std::size_t> segments;
  std::size_t gaps = 0;
  std::size_t exact_gaps = 0;
};

/// One repetition of the shared-prefix k sweep for periodic schedules: the
/// light-weight interval is hoisted to `tau_lw` (== the LW schedule's
/// period) and the heavy-weight to `tau_hw`. For each candidate k in
/// [k_lo, k_hi] it counts the segments ShirazPair(k) completes per app over
/// the horizon of `trace`, exactly the counts of the event loop (the hoisted
/// period equals every next_interval return by the period() contract).
///
/// Per gap, the light-weight prefix completes
/// `min(k_hi, floor((L - gap_start) / S_lw))` segments, where L is the next
/// failure if it precedes the horizon and the horizon otherwise, and
/// candidate k's heavy-weight tail completes
/// `floor((L - gap_start - switch - k * S_lw) / S_hw)` clamped at 0. Those
/// closed forms are taken when every quotient keeps kEta from an integer
/// (see kEta); otherwise the gap replays the engine's comparisons segment by
/// segment.
RepCounts flat_pair_sweep_rep(const SweepShape& shape, const FailureTrace& trace) {
  const Seconds horizon = shape.horizon;
  const std::size_t k_lo = shape.k_lo;
  const std::size_t k_hi = shape.k_hi;
  const std::size_t n = k_hi - k_lo + 1;
  RepCounts out;
  out.segments.resize(2 * n);
  // Gaps by light-weight segments completed (0..k_hi): candidate k is
  // credited min(completed, k) light-weight segments per gap.
  std::vector<std::size_t> hist(k_hi + 1, 0);
  // Heavy-weight segments per candidate (integers, exact in doubles far
  // beyond any count).
  std::vector<double> hw_segments(n, 0.0);
  // Completed light-weight segment end times of a walked gap, shared by
  // every candidate that has not switched yet (the intervals are all tau_lw).
  std::vector<Seconds> seg_end_at(k_hi);

  // The engine's restart and switch windows move where segments start. It
  // clamps each window at the next failure and the horizon, but a window
  // reaching either completes no segment whether clamped or not, so the
  // sweep only adds the cost (x + 0.0 == x keeps free windows exact).
  const auto closed = [&](Seconds gap_start, Seconds limit,
                          std::size_t& completed) {
    unsigned near = 0;
    const double q = (limit - gap_start) * shape.inv_lw;
    completed = static_cast<std::size_t>(floor_with_margin(
        std::min(std::max(q, 0.5), static_cast<double>(k_hi) + 0.5), near));
    if (near != 0) return false;
    const std::size_t switched =
        completed < k_lo ? 0 : std::min(n, completed - k_lo + 1);
    const double a = ((limit - gap_start) - shape.switch_cost) * shape.inv_hw;
    const double* const k_prefix = shape.k_prefix_hw.data();
    for (std::size_t i = 0; i < switched; ++i) {
      hw_segments[i] += floor_with_margin(std::max(a - k_prefix[i], 0.5), near);
    }
    if (near == 0) return true;
    // Rare: take back the same floors before the walk decides the gap.
    for (std::size_t i = 0; i < switched; ++i) {
      hw_segments[i] -= floor_with_margin(std::max(a - k_prefix[i], 0.5), near);
    }
    return false;
  };
  // The engine's comparisons verbatim, one segment at a time.
  const auto walk = [&](Seconds gap_start, Seconds next_fail,
                        std::size_t& completed) {
    completed = 0;
    Seconds now = gap_start;
    while (completed < k_hi) {
      const Seconds seg_end = now + shape.tau_lw + shape.delta_lw;
      if (horizon <= seg_end && horizon <= next_fail) break;
      if (next_fail < seg_end) break;
      seg_end_at[completed++] = seg_end;
      now = seg_end;
    }
    const std::size_t switched =
        completed < k_lo ? 0 : std::min(n, completed - k_lo + 1);
    for (std::size_t i = 0; i < switched; ++i) {
      double done = 0.0;
      Seconds t = seg_end_at[k_lo + i - 1] + shape.switch_cost;
      for (;;) {
        const Seconds seg_end = t + shape.tau_hw + shape.delta_hw;
        if (horizon <= seg_end && horizon <= next_fail) break;
        if (next_fail < seg_end) break;
        done += 1.0;
        t = seg_end;
      }
      hw_segments[i] += done;
    }
  };

  const Seconds* fail_times = trace.fail_times().data();
  std::size_t cursor = 0;
  Seconds gap_start = 0.0;
  Seconds next_fail = fail_times[cursor++];
  for (;;) {
    const Seconds limit = next_fail < horizon ? next_fail : horizon;
    std::size_t completed = 0;
    if (!shape.closed_form || !closed(gap_start, limit, completed)) {
      walk(gap_start, next_fail, completed);
      ++out.exact_gaps;
    }
    ++hist[completed];

    if (next_fail >= horizon) break;
    gap_start = next_fail + shape.restart_cost;
    next_fail = fail_times[cursor++];
  }

  // Candidate k's light-weight count: sum over c of hist[c] * min(c, k).
  std::size_t below = 0;   // sum of c * hist[c] over c < k
  std::size_t above = cursor;  // gaps with c >= k (one per failure time read)
  for (std::size_t k = 0; k <= k_hi; ++k) {
    if (k >= k_lo) out.segments[k - k_lo] = below + k * above;
    below += k * hist[k];
    above -= hist[k];
  }
  for (std::size_t i = 0; i < n; ++i) {
    out.segments[n + i] = static_cast<std::size_t>(hw_segments[i]);
  }
  out.gaps = cursor;
  return out;
}

/// The engine's useful-work accumulator after m additions of `tau` from 0.0,
/// for every m seen so far: candidate k's accumulator performs only
/// `useful += tau` additions of one constant per app, so its final value is
/// a pure function of the addition count. A multiplication m * tau would
/// round differently and break bit-identity; the table replays the engine's
/// additions once per sweep, grown as larger counts arrive.
class IteratedSum {
 public:
  explicit IteratedSum(Seconds tau) : tau_(tau), sums_{0.0} {}

  Seconds operator()(std::size_t m) {
    while (sums_.size() <= m) sums_.push_back(sums_.back() + tau_);
    return sums_[m];
  }

 private:
  Seconds tau_;
  std::vector<Seconds> sums_;
};

}  // namespace

SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k, std::size_t reps,
                                         std::uint64_t seed, std::size_t workers) {
  // Same seed => same failure streams for both policies (the engine draws
  // failures identically regardless of policy), so the difference is pure
  // policy effect; the store makes the sharing explicit and samples once.
  TraceStore traces(engine, seed);
  CampaignOptions opts;
  opts.workers = workers;
  opts.traces = &traces;
  const std::vector<SimJob> jobs{lw, hw};
  const SimResult base =
      engine.run_many(jobs, AlternateAtFailure{}, reps, seed, opts);
  const SimResult sz =
      engine.run_many(jobs, ShirazPairScheduler(k), reps, seed, opts);
  return candidate_from(k, sz.apps[0].useful, sz.apps[1].useful, base);
}

SimSwitchSolution find_fair_k_by_simulation(const Engine& engine, const SimJob& lw,
                                            const SimJob& hw, int k_lo, int k_hi,
                                            std::size_t reps, std::uint64_t seed,
                                            std::size_t workers) {
  SHIRAZ_REQUIRE(k_lo >= 1 && k_hi >= k_lo, "invalid k range");
  const std::vector<SimJob> jobs{lw, hw};

  // Sample every repetition's failure stream once and spawn threads once:
  // the baseline campaign's workers fill the store, and all candidates
  // replay it on the same pool.
  TraceStore traces(engine, seed);
  std::optional<common::ThreadPool> pool;
  if (workers > 1 && reps > 1) pool.emplace(std::min(workers, reps));
  CampaignOptions opts;
  opts.workers = workers;
  opts.traces = &traces;
  opts.pool = pool ? &*pool : nullptr;

  const AlternateAtFailure baseline_policy;
  const SimResult base = engine.run_many(jobs, baseline_policy, reps, seed, opts);

  // One replayed pass evaluates the whole range, sharing each gap's
  // light-weight prefix across candidates — bit-identical to per-candidate
  // campaigns. It rejects an aperiodic pair.
  const std::vector<SweepUseful> sweep = replay_pair_sweep(
      engine, lw, hw, k_lo, k_hi, reps, traces, workers, opts.pool);

  // Same fairness criterion the model solver applies: the k nearest the
  // Delta_LW = Delta_HW crossing, accepted only when the total gain there is
  // material (see core::solve_switch_point; a range with no comparable
  // candidate keeps `best`'s zero gain and is rejected).
  SimSwitchSolution sol;
  double best_gap = std::numeric_limits<double>::infinity();
  SimSwitchCandidate best;
  for (int k = k_lo; k <= k_hi; ++k) {
    const SweepUseful& u = sweep[static_cast<std::size_t>(k - k_lo)];
    const SimSwitchCandidate c = candidate_from(k, u.lw, u.hw, base);
    sol.sweep.push_back(c);
    const double gap = std::fabs(c.delta_lw - c.delta_hw);
    if (gap < best_gap) {
      best_gap = gap;
      best = c;
    }
  }

  const double materiality = 1e-4 * (base.apps[0].useful + base.apps[1].useful);
  if (best.delta_total > materiality) {
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

  const std::size_t n = static_cast<std::size_t>(k_hi - k_lo + 1);
  const SweepShape shape(*lw_period, lw.delta, *hw_period, hw.delta, k_lo, k_hi,
                         engine.config());
  auto one_rep = [&](std::size_t r) { return flat_pair_sweep_rep(shape, traces.trace(r)); };
  // Merge in repetition order with sim::average's exact accumulation (sum in
  // order from 0.0, then divide), so the means match run_many's bit for bit.
  // The iterated sums live on this thread only; workers return counts.
  obs::MetricsRegistry* const registry = engine.config().metrics;
  obs::Counter* const gaps_metric =
      registry == nullptr
          ? nullptr
          : &registry->counter("shiraz_sim_sweep_gaps_total",
                               "gaps evaluated by the pair sweep");
  obs::Counter* const exact_metric =
      registry == nullptr
          ? nullptr
          : &registry->counter("shiraz_sim_sweep_exact_gaps_total",
                               "pair-sweep gaps decided by the exact segment walk");
  IteratedSum lw_sum(*lw_period);
  IteratedSum hw_sum(*hw_period);
  std::vector<SweepUseful> mean(n);
  auto add_rep = [&](std::size_t, RepCounts&& rep) {
    for (std::size_t i = 0; i < n; ++i) {
      mean[i].lw += lw_sum(rep.segments[i]);
      mean[i].hw += hw_sum(rep.segments[n + i]);
    }
    if (registry != nullptr) {
      gaps_metric->add(rep.gaps);
      exact_metric->add(rep.exact_gaps);
    }
  };
  std::optional<common::PoolHandle> pool_handle;
  if ((workers > 1 || pool != nullptr) && reps > 1) {
    pool_handle.emplace(pool, std::min(workers, reps));
  }
  common::ordered_fold(
      pool_handle ? &pool_handle->get() : nullptr, reps,
      [](std::size_t, std::size_t) {}, one_rep, add_rep);

  const double dn = static_cast<double>(reps);
  for (SweepUseful& u : mean) {
    u.lw /= dn;
    u.hw /= dn;
  }
  return mean;
}

}  // namespace shiraz::sim
