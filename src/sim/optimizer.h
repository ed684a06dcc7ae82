// Simulation-side switch-point search and policy comparison.
//
// The paper's Table 2 checks that the model's fair switch point matches the
// one found by "extensive simulation". This module implements that search:
// for each candidate k it simulates Shiraz and the baseline over the same
// failure streams (common random numbers) and applies the same fairness
// criterion the model uses — both apps gain, and the gains are as equal as
// possible.
#pragma once

#include <optional>
#include <vector>

#include "sim/engine.h"

namespace shiraz::sim {

/// Improvements of Shiraz(k) over the baseline, measured by simulation.
struct SimSwitchCandidate {
  int k = 0;
  double delta_lw = 0.0;
  double delta_hw = 0.0;
  double delta_total = 0.0;
};

struct SimSwitchSolution {
  std::optional<int> k;
  double delta_lw = 0.0;
  double delta_hw = 0.0;
  double delta_total = 0.0;
  std::vector<SimSwitchCandidate> sweep;

  bool beneficial() const { return k.has_value(); }
};

/// Baseline-vs-Shiraz comparison for a light/heavy pair at one k. `workers`
/// parallelizes each campaign's repetitions (see Engine::run_many); the
/// result is bit-identical for every worker count. Samples the failure
/// streams once and replays them across both campaigns.
SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k, std::size_t reps,
                                         std::uint64_t seed,
                                         std::size_t workers = 1);

/// Scans k in [k_lo, k_hi] and returns the simulated fair switch point.
/// Samples each repetition's failure stream once (TraceStore) and spawns one
/// pool of `workers` threads; the baseline campaign and one replayed pass
/// over the whole range (replay_pair_sweep, bit-identical to per-candidate
/// campaigns) share both, so the pair's schedules must be periodic. The
/// sweep and the chosen k are worker-count-invariant.
SimSwitchSolution find_fair_k_by_simulation(const Engine& engine, const SimJob& lw,
                                            const SimJob& hw, int k_lo, int k_hi,
                                            std::size_t reps, std::uint64_t seed,
                                            std::size_t workers = 1);

/// Mean useful work per app of ShirazPairScheduler(k) over one trace store.
struct SweepUseful {
  double lw = 0.0;
  double hw = 0.0;
};

/// One-pass replayed evaluation of the whole candidate range: element i holds
/// the campaign-mean useful work of ShirazPairScheduler(k_lo + i) over
/// repetitions [0, reps) of `traces`, bit-identical to running each candidate
/// through Engine::run_many over the same store (enforced by
/// tests/sim/trace_replay_test.cpp and tests/sim/pair_sweep_test.cpp).
///
/// Every candidate runs the light-weight app identically until its k-th
/// checkpoint, and each app's useful work is a count of completed segments
/// turned into the engine's double by one table of iterated sums per sweep
/// (`sum[m] = sum[m-1] + tau`, built on the calling thread as counts
/// arrive). The counts are closed forms per gap: with S = tau + delta and L
/// the gap's end (the next failure, or the horizon), the light-weight prefix
/// completes min(k_hi, floor((L - start) / S_lw)) segments and candidate k's
/// heavy-weight tail floor((L - start - switch - k S_lw) / S_hw), clamped
/// at 0. The engine's segment ends are sequential sums that drift from
/// start + j S by at most 2j u E (u = 2^-53, E bounding every time in the
/// run), so a floor is taken only when its quotient keeps a fixed margin
/// from every integer; any other gap — a failure on a segment end above all
/// — replays the engine's comparisons segment by segment, and when the bound
/// itself cannot be met for this horizon every gap does. The engine's
/// restart and switch windows only shift where segments start. Light-weight
/// counts go through a histogram of prefix lengths; heavy-weight tails are
/// per candidate. With EngineConfig::metrics armed, the sweep counts
/// `shiraz_sim_sweep_gaps_total` and `shiraz_sim_sweep_exact_gaps_total`
/// (gaps the segment walk decided), merged in repetition order.
///
/// Requires periodic schedules for both jobs (IntervalSchedule::period()
/// non-null; the paper keeps checkpoints equidistant, Shiraz+'s stretch
/// included) and k_lo >= 1. Always runs this sweep, whatever
/// EngineConfig::flat_kernel says.
std::vector<SweepUseful> replay_pair_sweep(const Engine& engine, const SimJob& lw,
                                           const SimJob& hw, int k_lo, int k_hi,
                                           std::size_t reps, const TraceStore& traces,
                                           std::size_t workers = 1,
                                           common::ThreadPool* pool = nullptr);

}  // namespace shiraz::sim
