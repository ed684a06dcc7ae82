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

/// Variant with a precomputed baseline: the baseline campaign is
/// policy-independent across a k sweep (common random numbers), so callers
/// simulate it once and pass it to every candidate, along with shared
/// campaign plumbing (trace store, pool) via `opts`.
SimSwitchCandidate simulate_switch_point(const Engine& engine, const SimJob& lw,
                                         const SimJob& hw, int k,
                                         const SimResult& baseline,
                                         std::size_t reps, std::uint64_t seed,
                                         const CampaignOptions& opts = {});

/// Scans k in [k_lo, k_hi] and returns the simulated fair switch point. Each
/// candidate's baseline+Shiraz campaign pair dispatches its repetitions onto
/// `workers` threads; the sweep and the chosen k are worker-count-invariant.
/// Internally samples each repetition's failure stream once (TraceStore) and
/// spawns one thread pool, replaying both across the baseline and every
/// candidate; when the engine models free restarts and switches and both
/// schedules are periodic, the whole range is evaluated in one replayed pass
/// (replay_pair_sweep), and every other pair runs per-candidate campaigns
/// (simulate_switch_point). Both routes are bit-identical to the historical
/// per-candidate campaigns.
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
/// tests/sim/trace_replay_test.cpp). Every candidate runs the light-weight
/// app identically until its k-th checkpoint, so each gap's light-weight
/// prefix is simulated once and shared across the range; only the (short)
/// heavy-weight tails are per-candidate. Requires the free-restart,
/// free-switch engine configuration the paper's model assumes
/// (restart_cost == 0 and switch_cost == 0), periodic schedules for both
/// jobs (IntervalSchedule::period() non-null; the paper keeps checkpoints
/// equidistant, Shiraz+'s stretch included) and k_lo >= 1. Always runs this
/// count-table sweep, whatever EngineConfig::flat_kernel says.
std::vector<SweepUseful> replay_pair_sweep(const Engine& engine, const SimJob& lw,
                                           const SimJob& hw, int k_lo, int k_hi,
                                           std::size_t reps, const TraceStore& traces,
                                           std::size_t workers = 1,
                                           common::ThreadPool* pool = nullptr);

}  // namespace shiraz::sim
