// The discrete-event checkpoint/restart simulator (paper Section 4).
//
// One machine runs one application at a time. Failures arrive from a
// failure process — a renewal reliability::Distribution, a correlated
// reliability::FailureRegime, or a non-stationary GapSampler — that each
// repetition samples once, up front, into a FailureTrace; the run then
// reads every failure time from that trace (one failure clock for live runs
// and replays alike). The running application
// computes for an interval given by its schedule, then writes a checkpoint;
// a failure striking before the checkpoint completes wipes the whole segment
// (compute plus partial write) back to the last completed checkpoint. The
// Scheduler decides who runs at each failure and after each checkpoint.
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "reliability/distribution.h"
#include "sim/alarm.h"
#include "sim/job.h"
#include "sim/metrics.h"
#include "sim/scheduler.h"

namespace shiraz::common {
class ThreadPool;
}  // namespace shiraz::common

namespace shiraz::obs {
class EventSink;
class MetricsRegistry;
}  // namespace shiraz::obs

namespace shiraz::reliability {
class FailureRegime;
}  // namespace shiraz::reliability

namespace shiraz::sim {

class FailureTrace;
class TraceStore;

struct EngineConfig {
  /// Simulated horizon.
  Seconds t_total = hours(1000.0);
  /// Downtime after each failure before anything can run again (the paper's
  /// model folds restart into epsilon; 0 reproduces the model exactly).
  Seconds restart_cost = 0.0;
  /// Downtime charged when the running application changes *within* a gap
  /// (drain + launch of the other job). The paper assumes free switches;
  /// bench/abl_switch_cost probes how much of Shiraz's gain that assumption
  /// is worth. Charged to the incoming application's restart time.
  Seconds switch_cost = 0.0;
  /// When non-null, every run narrates itself as a typed event stream (see
  /// obs/event.h). Sinks are pure observers — no RNG access — so arming one
  /// is bit-identical to an untraced run; a null sink costs one pointer
  /// compare per would-be event. Single runs stream events as they happen;
  /// run_campaign buffers per repetition and merges in repetition order.
  obs::EventSink* sink = nullptr;
  /// Dispatch Engine runs of closed-form-eligible configurations (free
  /// restarts/switches, periodic schedules, no alarms, no sink, a flat
  /// phase-plan scheduler — see sim/kernel.h) to the flat replay kernel.
  /// The kernel is bit-identical to the event loop (tests/sim/kernel_test),
  /// so this is purely a speed knob; false forces every Engine run through
  /// the event loop (benchmarking, differential testing). It does not reach
  /// replay_pair_sweep (sim/optimizer.h), which always runs its count-table
  /// sweep.
  bool flat_kernel = true;
  /// When non-null, every run counts into this registry (obs/metrics.h):
  /// repetitions evaluated, kernel-vs-event-loop dispatch, gaps consumed.
  /// Metrics are pure observers with the same contract as `sink` — no RNG
  /// access, no control-flow influence — so arming them is bit-identical to
  /// an unarmed run (gated by bench/micro_metrics_overhead --check); a null
  /// registry costs one pointer compare per repetition. Campaigns buffer the
  /// per-repetition increments and apply them in repetition order, so the
  /// registry's mutation order is worker-count-invariant too.
  obs::MetricsRegistry* metrics = nullptr;
};

/// Samples the next inter-failure gap given the RNG and the absolute time of
/// the gap's start — the hook for non-stationary failure processes (e.g. an
/// aging system whose MTBF shrinks over the campaign). Called only while
/// sampling a trace, with gap_start = the running sum of the gaps so far.
using GapSampler = std::function<Seconds(Rng& rng, Seconds gap_start)>;

/// A failure process as one batch pass over a repetition's RNG stream:
/// appends inter-failure gaps to `out` until their running sum reaches
/// `horizon` (the final gap is the first crossing it) — the
/// Distribution::sample_gaps / FailureRegime::sample_gaps contract. Must be
/// deterministic and safe to call concurrently (campaign workers share it).
using FailureProcess =
    std::function<void(Rng& rng, Seconds horizon, std::vector<Seconds>& out)>;

/// Shared campaign plumbing for sweeps that run many campaigns over the same
/// repetitions (see run_many/run_campaign overloads below). Defaults
/// reproduce the plain positional overloads.
struct CampaignOptions {
  /// Repetitions dispatch onto this many threads (1 = inline serial loop).
  std::size_t workers = 1;
  /// Consulted once per armed gap when non-null (see run()).
  const AlarmSource* alarms = nullptr;
  /// When non-null, repetition r replays `traces->trace(r)` instead of
  /// sampling a trace of its own — bit-identical output, one sampling pass
  /// amortized over every campaign sharing the store. Must have been built
  /// for the same seed and a horizon covering this engine's (both
  /// SHIRAZ_REQUIREd).
  const TraceStore* traces = nullptr;
  /// When non-null, parallel repetitions borrow this pool instead of
  /// spawning (and joining) a fresh one per campaign.
  common::ThreadPool* pool = nullptr;
  /// Campaign event sink (overrides EngineConfig::sink for this campaign).
  /// Events buffer per repetition and are delivered rep by rep — stamped with
  /// Event::rep — after the runs, so the merged stream is identical for every
  /// worker count.
  obs::EventSink* sink = nullptr;
  /// Campaign metrics registry (overrides EngineConfig::metrics). Same
  /// purity and rep-order-merge contract as EngineConfig::metrics.
  obs::MetricsRegistry* metrics = nullptr;
};

class Engine {
 public:
  /// Renewal failures: each repetition batch-samples
  /// `failure_dist.sample_gaps`.
  Engine(const reliability::Distribution& failure_dist, const EngineConfig& config);

  /// Correlated failures: each repetition batch-samples
  /// `regime.sample_gaps`, so parallel campaigns need no TraceStore.
  Engine(const reliability::FailureRegime& regime, const EngineConfig& config);

  /// Non-stationary variant: gaps come from `sampler` instead of a fixed
  /// distribution.
  Engine(GapSampler sampler, const EngineConfig& config);

  /// Runs one campaign. `jobs` index positions are the app indices the
  /// scheduler sees. The RNG drives only the failure process, so two runs
  /// with the same seed see identical failure times regardless of policy —
  /// common-random-numbers variance reduction for policy comparisons.
  ///
  /// The run samples its whole FailureTrace from `rng` in one batched pass
  /// (every gap up to the first one crossing the horizon) and then replays
  /// it (see replay()), flat kernel included.
  ///
  /// `alarms`, when non-null, is consulted once per armed gap and its alarms
  /// are delivered to the scheduler via on_alarm (see alarm.h); predictors
  /// draw from a dedicated stream forked off `rng`, so the failure sequence
  /// is identical with and without an alarm source, and a source emitting no
  /// alarms reproduces the prediction-free run bit for bit.
  SimResult run(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                Rng& rng, const AlarmSource* alarms = nullptr) const;

  /// Replays one campaign from a materialized failure trace: the engine
  /// walks the trace's prefix-summed failure times with a cursor. run()
  /// goes through here too, so the result is bit-identical to run() with
  /// the RNG the trace was sampled from. The trace's horizon must cover the
  /// engine's.
  SimResult replay(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                   const FailureTrace& trace) const;

  /// Replay with an alarm source: `rng` seeds only the prediction stream,
  /// which forks off the seed exactly as in run() (never off generator
  /// state), so a replayed predictive campaign matches its sampled
  /// counterpart bit for bit.
  SimResult replay(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                   const FailureTrace& trace, Rng& rng,
                   const AlarmSource* alarms) const;

  /// Runs `reps` campaigns with independent failure streams forked from
  /// `seed` and returns the element-wise average. `workers` > 1 dispatches
  /// repetitions onto a thread pool; repetition `r` always draws from stream
  /// `Rng(seed).fork(r)` and results merge in repetition order, so the output
  /// is bit-identical for every worker count (workers == 1 runs inline and
  /// reproduces the historical serial loop exactly).
  SimResult run_many(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                     std::size_t reps, std::uint64_t seed,
                     std::size_t workers = 1,
                     const AlarmSource* alarms = nullptr) const;

  /// run_many with shared campaign plumbing: an optional trace store to
  /// replay (repetition r replays trace r — bit-identical to sampling) and
  /// an optional borrowed pool. Sweeps pass the same CampaignOptions to
  /// every campaign so the failure streams are sampled once and the threads
  /// spawned once.
  SimResult run_many(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                     std::size_t reps, std::uint64_t seed,
                     const CampaignOptions& opts) const;

  /// run_many plus per-repetition spread: mean, stddev, 95% CI and range of
  /// every headline metric (see CampaignSummary). Same determinism guarantee.
  /// Stateful schedulers and alarm sources (clone() != nullptr) get a private
  /// copy per parallel repetition; the caller's instances run the last
  /// repetition so post-campaign diagnostics (and predictor stats) match the
  /// serial path.
  CampaignSummary run_campaign(const std::vector<SimJob>& jobs,
                               const Scheduler& scheduler, std::size_t reps,
                               std::uint64_t seed, std::size_t workers = 1,
                               const AlarmSource* alarms = nullptr) const;

  /// run_campaign with shared campaign plumbing (see CampaignOptions).
  CampaignSummary run_campaign(const std::vector<SimJob>& jobs,
                               const Scheduler& scheduler, std::size_t reps,
                               std::uint64_t seed,
                               const CampaignOptions& opts) const;

  const EngineConfig& config() const { return config_; }

  /// The batch-sampling failure process every repetition's trace comes
  /// from (TraceStore copies it).
  const FailureProcess& failure_process() const { return process_; }

 private:
  /// Evaluates one repetition over `trace`; `rng` seeds only the alarm
  /// stream. `used_kernel`, when non-null, reports whether the flat replay
  /// kernel (rather than the event loop) produced the result — telemetry
  /// only.
  SimResult run_impl(const std::vector<SimJob>& jobs, const Scheduler& scheduler,
                     Rng& rng, const FailureTrace& trace,
                     const AlarmSource* alarms, obs::EventSink* sink,
                     bool* used_kernel = nullptr) const;

  FailureProcess process_;
  EngineConfig config_;
};

}  // namespace shiraz::sim
