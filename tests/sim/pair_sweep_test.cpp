// The pair sweep's closed-form segment counts against the event loop.
//
// replay_pair_sweep counts each gap's segments from the gap's length and
// walks the gap segment by segment only when a quotient lies within kEta of
// an integer (sim/optimizer.cpp). These tests check every candidate against
// ShirazPairScheduler(k) campaigns on a flat_kernel=false engine where that
// decision is hardest — failures exactly on segment ends, on the horizon,
// and one ULP either side — and at the fig10 shape, where the walk must stay
// rare (shiraz_sim_sweep_exact_gaps_total) so a guard that silently turns
// the closed form off fails here.
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sim/engine.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

namespace shiraz::sim {
namespace {

constexpr std::uint64_t kSeed = 20260101;
constexpr double kMtbfHours = 5.0;

std::uint64_t counter_value(obs::MetricsRegistry& registry, const char* name) {
  return registry.counter(name).value();
}

/// Every candidate of `sweep` must equal its own ShirazPairScheduler(k)
/// campaign on `loop` (an event-loop engine) over `traces`.
void expect_matches_event_loop(const Engine& loop, const SimJob& lw, const SimJob& hw,
                               int k_lo, int k_hi, std::size_t reps,
                               const TraceStore& traces,
                               const std::vector<SweepUseful>& sweep,
                               const std::string& label) {
  ASSERT_EQ(sweep.size(), static_cast<std::size_t>(k_hi - k_lo + 1)) << label;
  CampaignOptions opts;
  opts.traces = &traces;
  const std::vector<SimJob> jobs{lw, hw};
  for (int k = k_lo; k <= k_hi; ++k) {
    const SimResult ref =
        loop.run_many(jobs, ShirazPairScheduler(k), reps, traces.seed(), opts);
    const SweepUseful& u = sweep[static_cast<std::size_t>(k - k_lo)];
    EXPECT_EQ(u.lw, ref.apps[0].useful) << label << ", k = " << k;
    EXPECT_EQ(u.hw, ref.apps[1].useful) << label << ", k = " << k;
  }
}

// ---------------------------------------------------------------------------
// Boundaries: a GapSampler that puts failures on the engine's own segment
// ends.

struct BoundaryCase {
  const char* label;
  Seconds restart;
  Seconds switch_cost;
  unsigned stretch;
  int k_lo;
  int k_hi;
};

/// The segment ends the engine computes, in its order of additions.
struct SegmentChain {
  Seconds tau_lw, delta_lw, tau_hw, delta_hw, switch_cost;

  Seconds lw_end(Seconds start, int segments) const {
    for (int j = 0; j < segments; ++j) start = start + tau_lw + delta_lw;
    return start;
  }
  Seconds hw_end(Seconds start, int k, int segments) const {
    Seconds t = lw_end(start, k) + switch_cost;
    for (int i = 0; i < segments; ++i) t = t + tau_hw + delta_hw;
    return t;
  }
};

Seconds nudge(Seconds t, std::int64_t ulps) {
  if (ulps < 0) return std::nextafter(t, 0.0);
  if (ulps > 0) return std::nextafter(t, std::numeric_limits<double>::infinity());
  return t;
}

/// A gap g with from + g == to, when one exists (the trace's prefix sum is
/// the same addition); otherwise the nearest.
Seconds gap_to(Seconds from, Seconds to) {
  Seconds g = to - from;
  for (int step = 0; step < 64 && from + g != to; ++step) {
    g = std::nextafter(g, from + g < to ? std::numeric_limits<double>::infinity()
                                        : 0.0);
  }
  return g;
}

/// Failures on light- and heavy-weight segment ends of the gap they close,
/// one ULP either side, or at a random point; the last gap before the
/// horizon starts where a segment end lands on the horizon (or one ULP off),
/// and the final failure lands on the horizon or one ULP either side.
GapSampler boundary_sampler(const SegmentChain& chain, const BoundaryCase& c,
                            Seconds horizon) {
  const Seconds seg_lw = chain.tau_lw + chain.delta_lw;
  const Seconds seg_hw = chain.tau_hw + chain.delta_hw;
  // Longest chain placed below, plus the restart that opens it.
  const Seconds reach = c.k_hi * seg_lw + c.switch_cost + 3.0 * seg_hw + 2.0 * c.restart;
  return [=](Rng& rng, Seconds fail) -> Seconds {
    const std::int64_t off = rng.uniform_int(-1, 1);
    if (horizon - fail <= reach) {
      const Seconds end = nudge(horizon, off);
      return gap_to(fail, end > fail ? end : horizon + seg_hw);
    }
    const Seconds start = fail == 0.0 ? 0.0 : fail + c.restart;
    const int k = static_cast<int>(rng.uniform_int(c.k_lo, c.k_hi));
    const int tail = static_cast<int>(rng.uniform_int(1, 3));
    Seconds next = 0.0;
    switch (rng.uniform_int(0, 2)) {
      case 0:
        next = nudge(chain.lw_end(start, static_cast<int>(rng.uniform_int(1, c.k_hi + 1))), off);
        break;
      case 1:
        next = nudge(chain.hw_end(start, k, tail), off);
        break;
      default:
        next = start + rng.uniform(0.2, 1.5) * c.k_hi * seg_lw;
        break;
    }
    if (horizon - next > reach) return gap_to(fail, next);
    // Open the last gap so that one of its segment ends lands on the
    // horizon: search the failure time ULP by ULP around its real value.
    const bool light = rng.uniform_int(0, 1) == 0;
    const int lw_segments = light ? static_cast<int>(rng.uniform_int(1, c.k_hi)) : k;
    const auto end_of = [&](Seconds f) {
      return light ? chain.lw_end(f + c.restart, lw_segments)
                   : chain.hw_end(f + c.restart, k, tail);
    };
    const Seconds target = nudge(horizon, off);
    const Seconds length = end_of(0.0);
    Seconds last = target - length - c.restart;
    for (int step = 0; step < 512 && end_of(last) != target; ++step) {
      last = std::nextafter(last, end_of(last) < target
                                      ? std::numeric_limits<double>::infinity()
                                      : 0.0);
    }
    return gap_to(fail, last);
  };
}

constexpr BoundaryCase kBoundaryCases[] = {
    {"free", 0.0, 0.0, 1, 1, 12},
    {"costly", 60.0, 30.0, 1, 1, 12},
    {"expensive, k_lo 5", 600.0, 300.0, 1, 5, 12},
    {"stretch 2", 0.0, 0.0, 2, 1, 10},
    {"stretch 2, costly, k_lo 3", 60.0, 30.0, 2, 3, 9},
};

TEST(PairSweepBoundary, FailuresOnSegmentEndsMatchEventLoop) {
  constexpr std::size_t kReps = 24;
  const Seconds mtbf = hours(kMtbfHours);
  for (const BoundaryCase& c : kBoundaryCases) {
    const SimJob lw = SimJob::at_oci("lw", 18.0, mtbf);
    const SimJob hw = SimJob::at_oci("hw", 1800.0, mtbf, c.stretch);
    const SegmentChain chain{*lw.schedule->period(), lw.delta,
                             *hw.schedule->period(), hw.delta, c.switch_cost};
    obs::MetricsRegistry registry;
    EngineConfig cfg;
    cfg.t_total = hours(300.0);
    cfg.restart_cost = c.restart;
    cfg.switch_cost = c.switch_cost;
    cfg.flat_kernel = false;
    cfg.metrics = &registry;
    const Engine loop(boundary_sampler(chain, c, cfg.t_total), cfg);
    const TraceStore traces(loop, kSeed);

    const std::vector<SweepUseful> sweep =
        replay_pair_sweep(loop, lw, hw, c.k_lo, c.k_hi, kReps, traces);
    const std::uint64_t gaps = counter_value(registry, "shiraz_sim_sweep_gaps_total");
    const std::uint64_t exact =
        counter_value(registry, "shiraz_sim_sweep_exact_gaps_total");
    EXPECT_EQ(gaps, traces.total_gaps()) << c.label;
    // Most failures sit on a segment end or one ULP from it: the walk must
    // have decided those gaps, and the closed form the random ones.
    EXPECT_GT(exact, gaps / 4) << c.label;
    EXPECT_LT(exact, gaps) << c.label;
    expect_matches_event_loop(loop, lw, hw, c.k_lo, c.k_hi, kReps, traces, sweep,
                              c.label);
  }
}

// ---------------------------------------------------------------------------
// The fig10 shape: Weibull beta 0.6, MTBF 5 h, delta 18 s / 1800 s, k 1-64.

struct Fig10Case {
  double horizon_hours;
  std::size_t reps;
};

TEST(PairSweepFig10, MatchesEventLoopAndRarelyWalks) {
  const Seconds mtbf = hours(kMtbfHours);
  const SimJob lw = SimJob::at_oci("lw", 18.0, mtbf);
  const SimJob hw = SimJob::at_oci("hw", 1800.0, mtbf);
  for (const Fig10Case& c : {Fig10Case{1000.0, 200}, Fig10Case{8760.0, 24}}) {
    const std::string label = std::to_string(c.horizon_hours) + " h";
    obs::MetricsRegistry registry;
    EngineConfig cfg;
    cfg.t_total = hours(c.horizon_hours);
    cfg.flat_kernel = false;
    cfg.metrics = &registry;
    const Engine loop(reliability::Weibull::from_mtbf(0.6, mtbf), cfg);
    const TraceStore traces(loop, kSeed);

    const std::vector<SweepUseful> sweep =
        replay_pair_sweep(loop, lw, hw, 1, 64, c.reps, traces, 2);
    const std::uint64_t gaps = counter_value(registry, "shiraz_sim_sweep_gaps_total");
    const std::uint64_t exact =
        counter_value(registry, "shiraz_sim_sweep_exact_gaps_total");
    EXPECT_EQ(gaps, traces.total_gaps()) << label;
    EXPECT_LT(exact * 1000, gaps) << label << ": " << exact << " of " << gaps
                                  << " gaps took the exact walk";
    expect_matches_event_loop(loop, lw, hw, 1, 64, c.reps, traces, sweep, label);
  }
}

TEST(PairSweepCounters, SameForEveryWorkerCount) {
  const Seconds mtbf = hours(kMtbfHours);
  const SimJob lw = SimJob::at_oci("lw", 18.0, mtbf);
  const SimJob hw = SimJob::at_oci("hw", 1800.0, mtbf);
  std::vector<std::uint64_t> seen;
  for (const std::size_t workers : {1u, 2u, 4u}) {
    obs::MetricsRegistry registry;
    EngineConfig cfg;
    cfg.t_total = hours(200.0);
    cfg.metrics = &registry;
    const Engine engine(reliability::Weibull::from_mtbf(0.6, mtbf), cfg);
    const TraceStore traces(engine, kSeed);
    replay_pair_sweep(engine, lw, hw, 1, 64, 64, traces, workers);
    seen.push_back(counter_value(registry, "shiraz_sim_sweep_gaps_total"));
    seen.push_back(counter_value(registry, "shiraz_sim_sweep_exact_gaps_total"));
  }
  EXPECT_GT(seen[0], 0u);
  for (std::size_t i = 2; i < seen.size(); ++i) EXPECT_EQ(seen[i], seen[i % 2]);
}

}  // namespace
}  // namespace shiraz::sim
