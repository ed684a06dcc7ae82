// Failure traces: every simulated repetition replays one.
//
// Engine::run draws failures identically for a given seed regardless of
// policy (common random numbers). A FailureTrace materializes one
// repetition's inter-failure gaps up to the horizon in a single batched pass
// of the engine's FailureProcess (Distribution::sample_gaps,
// FailureRegime::sample_gaps, or a GapSampler loop) and keeps only the
// absolute failure times they sum to; the engine reads every failure time
// from it — a live run samples its own trace first and replays it, so there
// is one failure clock. A TraceStore caches one trace per repetition, keyed
// by (seed, rep), so every campaign over the same seed replays a plain array
// instead of re-sampling it.
//
// Replay of a stored trace is bit-identical to a live run
// (tests/sim/trace_replay_test.cpp): both sample the same process from the
// same stream `Rng(seed).fork(rep)`, and alarm RNGs fork from the seed — not
// from generator state — so prediction runs replay unchanged too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <deque>
#include <memory_resource>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "common/error.h"
#include "common/rng.h"
#include "common/units.h"
#include "sim/engine.h"

namespace shiraz::obs {
class Counter;
class Gauge;
class MetricsRegistry;
}  // namespace shiraz::obs

namespace shiraz::sim {

/// One repetition's failure times, materialized up to a horizon. The last
/// failure is the first at or past the horizon: every failure a run can
/// reach, no more and no fewer.
///
/// The constructor turns the drawn gaps into absolute failure times in place
/// by sequential prefix sums (`fail_i = fail_{i-1} + gap_i`, starting from 0)
/// and keeps only those. Consumers (the event loop, the sweep/kernel paths)
/// read fail_time() instead of re-deriving running sums per campaign, so
/// they all see the same doubles. A gap is not recoverable as a difference
/// of failure times (that difference need not round back to the drawn gap);
/// callers that need the gaps draw them from the process directly.
///
/// The array lives wherever `gaps` allocated it: the default heap for a live
/// run, the store's chunks for a TraceStore trace.
class FailureTrace {
 public:
  FailureTrace(std::pmr::vector<Seconds> gaps, Seconds horizon);

  /// Samples one repetition of `process` from `rng` up to `horizon` — the
  /// pass behind both Engine::run and TraceStore. The process appends into
  /// the calling thread's reused buffer, so its growth slack stays there and
  /// the trace gets one allocation of exactly its size.
  static FailureTrace sample(const FailureProcess& process, Rng& rng,
                             Seconds horizon);

  /// Absolute time of the i-th failure (prefix sum of gaps [0, i]).
  Seconds fail_time(std::size_t i) const {
    SHIRAZ_REQUIRE(i < fail_times_.size(),
                   "failure trace exhausted before the horizon");
    return fail_times_[i];
  }

  /// The whole array for batched consumers (sim/kernel.cpp). The invariants
  /// hold: fail_times().back() >= horizon() and every earlier entry is
  /// < horizon(), so a replay that only advances while the next failure
  /// precedes the horizon never runs off the end.
  const std::pmr::vector<Seconds>& fail_times() const { return fail_times_; }

  std::size_t size() const { return fail_times_.size(); }
  Seconds horizon() const { return horizon_; }

 private:
  std::pmr::vector<Seconds> fail_times_;
  Seconds horizon_;
};

/// Lazily materialized per-repetition traces for one (engine, seed) pair.
/// Repetition r samples the engine's FailureProcess with `Rng(seed).fork(r)`
/// — the stream and the pass an Engine campaign without a store uses for
/// repetition r.
///
/// Thread-safe. A repetition is sampled by the first thread that asks for
/// it, outside the store's mutex, so a campaign's workers fill the store in
/// parallel; the lock only guards the slot table and the publication of a
/// finished trace. ensure() only reserves slots. Slots are stable (a deque
/// grown at its end), so returned references survive later growth.
///
/// Each trace's array is copied at exact size into the store's own chunks
/// (Chunks below), never into the sampling worker's malloc arena: there the
/// long-lived traces would sit between the worker's short-lived
/// per-repetition results and keep the arena from shrinking after each
/// campaign. The resident-bytes gauge (set_metrics) counts the arrays; each
/// chunk's unused tail is smaller than the trace that did not fit. Memory is
/// O(reps x gaps) by design: the store is what every campaign over the same
/// seed replays.
class TraceStore {
 public:
  /// Traces for `engine`'s failure process up to `engine.config().t_total`.
  TraceStore(const Engine& engine, std::uint64_t seed);

  /// Same, with an explicit horizon (e.g. to share one store across engines
  /// that differ only in costs, or to pre-sample past the longest horizon).
  TraceStore(const Engine& engine, std::uint64_t seed, Seconds horizon);

  /// Traces for a correlated failure regime (src/reliability/regimes.h):
  /// the process of `Engine(regime, config)` with t_total == horizon.
  TraceStore(const reliability::FailureRegime& regime, std::uint64_t seed,
             Seconds horizon);

  std::uint64_t seed() const { return master_.seed(); }
  Seconds horizon() const { return horizon_; }

  /// Arms telemetry: subsequent materializations and lookups count into
  /// `registry` (shiraz_trace_* counters plus a resident-bytes gauge).
  /// Metrics are pure observers — they never change which traces exist or
  /// what they contain — so arming them is bit-identical to an unarmed
  /// store. Pass nullptr to disarm. Not thread-safe against concurrent
  /// ensure()/trace() calls; arm before the campaigns start.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Reserves slots for repetitions [0, reps); samples nothing.
  void ensure(std::size_t reps) const;

  /// The trace of repetition `rep`, materializing it on first use. Threads
  /// racing on one fresh `rep` sample it alike; all get the first published
  /// copy.
  const FailureTrace& trace(std::size_t rep) const;

  /// How many repetitions are currently materialized (laziness observable).
  std::size_t materialized() const;

  /// Total gaps across materialized repetitions (throughput accounting).
  std::size_t total_gaps() const;

 private:
  /// Page-mapped chunks the trace arrays are carved from in order (under
  /// mu_), all unmapped with the store; deallocation is a no-op.
  class Chunks final : public std::pmr::memory_resource {
   public:
    Chunks() = default;
    Chunks(const Chunks&) = delete;
    Chunks& operator=(const Chunks&) = delete;
    ~Chunks() override;

   private:
    void* do_allocate(std::size_t bytes, std::size_t align) override;
    void do_deallocate(void*, std::size_t, std::size_t) override {}
    bool do_is_equal(const std::pmr::memory_resource& other) const noexcept override {
      return this == &other;
    }

    std::vector<std::pair<std::byte*, std::size_t>> mapped_;  ///< base, length
    std::size_t used_ = 0;  ///< bytes carved from mapped_.back()
  };

  /// Counts one freshly materialized trace (call with mu_ held).
  void note_materialized(const FailureTrace& trace) const;

  FailureProcess process_;
  const Rng master_;  ///< repetition r samples master_.fork(r)
  Seconds horizon_;
  mutable std::mutex mu_;
  mutable Chunks chunks_;  ///< outlives traces_, whose arrays it holds
  mutable std::deque<std::optional<FailureTrace>> traces_;
  obs::Counter* traces_metric_ = nullptr;   ///< traces materialized
  obs::Counter* gaps_metric_ = nullptr;     ///< gaps materialized
  obs::Counter* hits_metric_ = nullptr;     ///< trace() calls served cached
  obs::Gauge* resident_metric_ = nullptr;   ///< bytes held by cached traces
};

}  // namespace shiraz::sim
