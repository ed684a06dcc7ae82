// Correlated failure regimes — processes the Weibull renewal model can't
// express.
//
// Shiraz's analysis assumes i.i.d. renewal gaps; real fleets fail in bursts
// (a flaky power rail), cascades (one rack outage felling its neighbours),
// superpositions of heterogeneous node pools, and slowly drifting hazard
// shapes. A FailureRegime generalizes reliability::Distribution to such
// processes: instead of one i.i.d. draw at a time, a regime generates the
// WHOLE gap sequence of one campaign repetition in a single deterministic
// pass over the RNG. That batch pass is exactly the failure process a
// sim::Engine samples each repetition's trace from — same seed, same gaps,
// policy-independent — so `sim::Engine(regime, config)` runs live or
// replayed, serial or parallel, with the --jobs bit-identity renewal
// distributions enjoy (DESIGN.md §8; tests/sim/regime_replay_test.cpp).
//
// Regimes with a well-defined per-draw form (Markov modulation with explicit
// phase state, the drifting Weibull's pure (rng, gap_start) function) expose
// it publicly, and the property tests pin per-draw vs batch bit-identity;
// the merge-based regimes (pools, cascades) are batch-only by nature.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"
#include "reliability/distribution.h"
#include "reliability/weibull.h"

namespace shiraz::reliability {

/// A failure process over one campaign repetition, possibly carrying state
/// across gaps or depending on absolute time.
class FailureRegime {
 public:
  virtual ~FailureRegime() = default;

  /// Appends inter-failure gaps to `out` until their running sum reaches
  /// `horizon` (the final gap is the first crossing it) — the same stopping
  /// contract as Distribution::sample_gaps, and the entry point
  /// sim::Engine samples repetitions through. Deterministic: equal RNG
  /// state and horizon give bit-equal gap vectors; const, so concurrent
  /// calls are safe.
  virtual void sample_gaps(Rng& rng, Seconds horizon,
                           std::vector<Seconds>& out) const = 0;

  /// Long-run mean gap (exact where closed-form; see each regime's note).
  virtual Seconds mean_gap() const = 0;

  /// Human-readable name with parameters.
  virtual std::string name() const = 0;

  virtual std::unique_ptr<FailureRegime> clone() const = 0;
};

using FailureRegimePtr = std::unique_ptr<FailureRegime>;

/// Adapter: any renewal Distribution as a regime (the control rows of the
/// scenario catalog). mean_gap is exact.
class RenewalRegime final : public FailureRegime {
 public:
  explicit RenewalRegime(DistributionPtr dist);

  const Distribution& distribution() const { return *dist_; }

  void sample_gaps(Rng& rng, Seconds horizon,
                   std::vector<Seconds>& out) const override;
  Seconds mean_gap() const override { return dist_->mean(); }
  std::string name() const override;
  FailureRegimePtr clone() const override;

 private:
  DistributionPtr dist_;
};

/// Markov-modulated gaps: a two-phase (calm/burst) Markov chain over failure
/// events. Each failure first resolves a phase transition, then draws the
/// next gap from the current phase's Weibull — so a machine that enters the
/// burst phase emits a run of short gaps before recovering, producing the
/// positive gap autocorrelation and over-dispersed failure counts no renewal
/// process has. Exactly two uniforms are consumed per gap (transition, gap),
/// which makes the per-draw form below trivially replayable.
class MarkovBurstRegime final : public FailureRegime {
 public:
  struct Config {
    Seconds calm_mtbf = 0.0;      ///< mean gap while calm
    double calm_shape = 0.7;      ///< Weibull beta while calm
    Seconds burst_mtbf = 0.0;     ///< mean gap while bursting (<< calm)
    double burst_shape = 1.0;     ///< Weibull beta while bursting
    double p_calm_to_burst = 0.0; ///< per-failure transition probability
    double p_burst_to_calm = 0.0; ///< per-failure recovery probability
  };

  enum class Phase { kCalm, kBurst };

  explicit MarkovBurstRegime(const Config& config);

  const Config& config() const { return config_; }

  /// Per-draw form with explicit state: resolves one phase transition, then
  /// draws one gap. sample_gaps is bit-identical to looping this from
  /// Phase::kCalm (pinned in tests/reliability/regimes_test.cpp).
  Seconds next_gap(Rng& rng, Phase& phase) const;

  void sample_gaps(Rng& rng, Seconds horizon,
                   std::vector<Seconds>& out) const override;
  /// Exact: the phase chain is per-gap, so the stationary mix of the two
  /// phase means is the long-run mean gap.
  Seconds mean_gap() const override;
  std::string name() const override;
  FailureRegimePtr clone() const override;

 private:
  Config config_;
  Weibull calm_;
  Weibull burst_;
};

/// Spatially correlated node-group outages, seen from the system's failure
/// clock: primary (group-level) outages arrive as a Weibull renewal process,
/// and each felled group drags `group_size_mean` neighbours down with it at
/// short exponential offsets (a Neyman–Scott cluster process). The merged
/// event stream is non-renewal: failures arrive in tight clusters separated
/// by long quiet spells.
class ClusterOutageRegime final : public FailureRegime {
 public:
  struct Config {
    Seconds primary_mtbf = 0.0;  ///< mean gap between group-level outages
    double primary_shape = 0.7;  ///< Weibull beta of the primary process
    double group_size_mean = 0.0;///< mean follow-on failures per outage (geometric)
    Seconds spread = 0.0;        ///< mean offset of a follow-on failure (exponential)
  };

  explicit ClusterOutageRegime(const Config& config);

  const Config& config() const { return config_; }

  void sample_gaps(Rng& rng, Seconds horizon,
                   std::vector<Seconds>& out) const override;
  /// Long-run approximation primary_mtbf / (1 + group_size_mean); edge
  /// effects at the horizon make finite-sample means slightly larger.
  Seconds mean_gap() const override;
  std::string name() const override;
  FailureRegimePtr clone() const override;

 private:
  Config config_;
  Weibull primary_;
};

/// Heterogeneous MTBF pools: the superposition of independent Weibull
/// renewal streams, one per node pool (old racks fail often, new racks
/// rarely). Superposing non-Poisson renewals yields a non-renewal system
/// process. Pools are sampled in declaration order off one RNG stream and
/// their event times merged, so the output is deterministic.
class HeterogeneousPoolsRegime final : public FailureRegime {
 public:
  struct Pool {
    double shape = 0.7;    ///< Weibull beta of this pool's stream
    Seconds mtbf = 0.0;    ///< this pool's mean gap
  };

  explicit HeterogeneousPoolsRegime(std::vector<Pool> pools);

  const std::vector<Pool>& pools() const { return pools_; }

  void sample_gaps(Rng& rng, Seconds horizon,
                   std::vector<Seconds>& out) const override;
  /// Exact long-run rate sum: 1 / sum_i (1 / mtbf_i).
  Seconds mean_gap() const override;
  std::string name() const override;
  FailureRegimePtr clone() const override;

 private:
  std::vector<Pool> pools_;
  std::vector<Weibull> streams_;
};

/// Non-stationary Weibull whose shape (and optionally MTBF) drifts linearly
/// over [0, ramp], then holds: gap at absolute time t draws from
/// Weibull(beta(t), scale chosen so the mean is mtbf(t)). The per-draw form
/// is a pure function of (rng, gap_start) — the sim::GapSampler contract
/// verbatim — and sample_gaps is bit-identical to looping it.
class DriftingWeibullRegime final : public FailureRegime {
 public:
  struct Config {
    double beta_start = 0.0;
    double beta_end = 0.0;
    Seconds mtbf_start = 0.0;
    Seconds mtbf_end = 0.0;
    Seconds ramp = 0.0;  ///< drift completes at this absolute time
  };

  explicit DriftingWeibullRegime(const Config& config);

  const Config& config() const { return config_; }

  /// Shape and MTBF at absolute time `t` (clamped linear ramp).
  double beta_at(Seconds t) const;
  Seconds mtbf_at(Seconds t) const;

  /// Pure per-draw form: one uniform, inverse-transformed through the
  /// Weibull current at `gap_start`.
  Seconds gap_at(Rng& rng, Seconds gap_start) const;

  void sample_gaps(Rng& rng, Seconds horizon,
                   std::vector<Seconds>& out) const override;
  /// Time-average of mtbf(t) over the ramp — an approximation (gap-start
  /// times do not sample the ramp uniformly); display only.
  Seconds mean_gap() const override;
  std::string name() const override;
  FailureRegimePtr clone() const override;

 private:
  Config config_;
};

/// Index of dispersion of failure counts in consecutive `window`-second
/// windows: var(count) / mean(count). 1 for Poisson; renewal processes tend
/// to the gap CV^2 for wide windows; bursty/clustered regimes exceed their
/// same-mean renewal counterpart (the "clustering factor" the scenario
/// tests and the matrix bench report). Requires the gaps to span at least
/// two windows.
double count_index_of_dispersion(const std::vector<Seconds>& gaps, Seconds window);

/// Lag-1 autocorrelation of successive gap lengths: ~0 for any renewal
/// process, positive under Markov modulation (short gaps follow short gaps).
/// Requires at least three gaps.
double gap_lag1_autocorrelation(const std::vector<Seconds>& gaps);

}  // namespace shiraz::reliability
