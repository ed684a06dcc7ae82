// Flat replay kernel: batched structure-of-arrays campaign evaluation.
//
// For closed-form-eligible configurations — free restarts and switches,
// periodic schedules, no alarm source, no event sink, and a scheduler whose
// per-gap behavior is a fixed phase plan — a campaign over a materialized
// FailureTrace is fully determined by the trace's gap/prefix-sum arrays.
// try_flat_replay() walks those arrays directly: no virtual next_interval per
// segment, no SchedContext construction, no per-event emit checks, no
// per-gap checkpoint-count vectors — just the engine's three comparisons and
// its accumulator additions per segment. Every Engine run replays a trace
// (live runs sample theirs first), so every run is a candidate.
//
// Bit-identity contract (the same one sim/optimizer.cpp's pair sweep keeps):
// the kernel performs the engine's useful/io/lost/truncated additions on the
// same doubles in the same chronological order, resolves every segment with
// the engine's exact comparison structure (`write_start = now + tau;
// seg_end = write_start + delta`; truncate iff horizon <= min(seg_end,
// next_fail); fail iff next_fail < seg_end), and reads failure times from
// the same FailureTrace::fail_times() prefix sums the event loop reads. The
// result therefore equals the event loop's bit for bit (enforced by
// tests/sim/kernel_test.cpp and micro_engine_throughput --check);
// Engine::run_impl dispatches here automatically when
// EngineConfig::flat_kernel is set and eligibility holds.
//
// This module replays single runs. A whole k range of ShirazPairScheduler
// candidates is sim/optimizer.h's replay_pair_sweep, which keeps the same
// contract with a count-table sweep of its own.
#pragma once

#include <vector>

#include "sim/engine.h"

namespace shiraz::sim {

/// Why a configuration can(not) take the flat kernel. `reason` points at a
/// static string ("" when eligible) so the check is allocation-free — it runs
/// once per repetition.
struct KernelEligibility {
  bool eligible = false;
  const char* reason = "";

  explicit operator bool() const { return eligible; }
};

/// The kernel's one entry point. Checks every eligibility rule the kernel
/// relies on:
///  * config models free restarts and switches (restart_cost == switch_cost
///    == 0) and has no engine-level event sink;
///  * no alarm source and no campaign sink (pass the call-site values);
///  * every job schedule is periodic (IntervalSchedule::period() non-null);
///  * the scheduler is exactly (typeid, not is-a — subclasses may override
///    hooks) AlternateAtFailure, ShirazPairScheduler, MultiSwitchScheduler,
///    or PairRotationScheduler, with an app count the policy accepts.
/// When they hold, replays `trace` (whose horizon must cover the config's)
/// into `*out` — exactly what the event loop returns for the same inputs —
/// building the phase plan once. Otherwise leaves `*out` untouched and
/// returns the failed rule's reason, so the caller falls back to the event
/// loop, which preserves both behavior and error messages (e.g. a pair
/// policy given three apps still throws the policy's own InvalidArgument).
KernelEligibility try_flat_replay(const EngineConfig& config,
                                  const std::vector<SimJob>& jobs,
                                  const Scheduler& scheduler,
                                  const AlarmSource* alarms,
                                  const obs::EventSink* sink,
                                  const FailureTrace& trace, SimResult* out);

}  // namespace shiraz::sim
