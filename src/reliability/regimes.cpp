#include "reliability/regimes.h"

#include <algorithm>
#include <cmath>
#include <sstream>

#include "common/error.h"

namespace shiraz::reliability {

namespace {

/// Shared horizon-crossing walk: converts a sorted absolute event-time list
/// into gaps obeying the sample_gaps stopping contract (all-but-last prefix
/// sums < horizon, last crossing it). The merge-based regimes generate event
/// times past the horizon, then hand the sorted list here.
void event_times_to_gaps(const std::vector<Seconds>& times, Seconds horizon,
                         std::vector<Seconds>& out) {
  Seconds prev = 0.0;
  for (const Seconds t : times) {
    if (t <= prev) continue;  // drop coincident / out-of-order duplicates
    out.push_back(t - prev);
    prev = t;
    if (t >= horizon) return;
  }
  // The caller over-samples past the horizon, so falling off the end means
  // the generator under-produced — a regime bug, not a data condition.
  throw Error("regime event stream ended before the horizon");
}

}  // namespace

// ---------------------------------------------------------------------------
// RenewalRegime

RenewalRegime::RenewalRegime(DistributionPtr dist) : dist_(std::move(dist)) {
  SHIRAZ_REQUIRE(dist_ != nullptr, "RenewalRegime requires a distribution");
}

void RenewalRegime::sample_gaps(Rng& rng, Seconds horizon,
                                std::vector<Seconds>& out) const {
  dist_->sample_gaps(rng, horizon, out);
}

std::string RenewalRegime::name() const {
  return "Renewal[" + dist_->name() + "]";
}

FailureRegimePtr RenewalRegime::clone() const {
  return std::make_unique<RenewalRegime>(dist_->clone());
}

// ---------------------------------------------------------------------------
// MarkovBurstRegime

MarkovBurstRegime::MarkovBurstRegime(const Config& config)
    : config_(config),
      calm_(Weibull::from_mtbf(config.calm_shape, config.calm_mtbf)),
      burst_(Weibull::from_mtbf(config.burst_shape, config.burst_mtbf)) {
  SHIRAZ_REQUIRE(config.calm_mtbf > 0.0, "markov-burst calm MTBF must be positive");
  SHIRAZ_REQUIRE(config.burst_mtbf > 0.0, "markov-burst burst MTBF must be positive");
  SHIRAZ_REQUIRE(config.burst_mtbf < config.calm_mtbf,
                 "markov-burst burst MTBF must be shorter than calm MTBF");
  SHIRAZ_REQUIRE(config.p_calm_to_burst > 0.0 && config.p_calm_to_burst < 1.0,
                 "markov-burst p_calm_to_burst must be in (0, 1)");
  SHIRAZ_REQUIRE(config.p_burst_to_calm > 0.0 && config.p_burst_to_calm < 1.0,
                 "markov-burst p_burst_to_calm must be in (0, 1)");
}

Seconds MarkovBurstRegime::next_gap(Rng& rng, Phase& phase) const {
  const double u = rng.uniform();  // always one transition draw per gap
  if (phase == Phase::kCalm) {
    if (u < config_.p_calm_to_burst) phase = Phase::kBurst;
  } else {
    if (u < config_.p_burst_to_calm) phase = Phase::kCalm;
  }
  const Weibull& w = (phase == Phase::kCalm) ? calm_ : burst_;
  return w.quantile(rng.uniform());
}

void MarkovBurstRegime::sample_gaps(Rng& rng, Seconds horizon,
                                    std::vector<Seconds>& out) const {
  Phase phase = Phase::kCalm;
  Seconds t = 0.0;
  while (t < horizon) {
    const Seconds gap = next_gap(rng, phase);
    out.push_back(gap);
    t += gap;
  }
}

Seconds MarkovBurstRegime::mean_gap() const {
  const double pi_burst =
      config_.p_calm_to_burst / (config_.p_calm_to_burst + config_.p_burst_to_calm);
  return (1.0 - pi_burst) * config_.calm_mtbf + pi_burst * config_.burst_mtbf;
}

std::string MarkovBurstRegime::name() const {
  std::ostringstream os;
  os << "MarkovBurst(calm=" << as_hours(config_.calm_mtbf)
     << "h@b=" << config_.calm_shape << ", burst=" << as_hours(config_.burst_mtbf)
     << "h@b=" << config_.burst_shape << ", p_cb=" << config_.p_calm_to_burst
     << ", p_bc=" << config_.p_burst_to_calm << ")";
  return os.str();
}

FailureRegimePtr MarkovBurstRegime::clone() const {
  return std::make_unique<MarkovBurstRegime>(*this);
}

// ---------------------------------------------------------------------------
// ClusterOutageRegime

ClusterOutageRegime::ClusterOutageRegime(const Config& config)
    : config_(config),
      primary_(Weibull::from_mtbf(config.primary_shape, config.primary_mtbf)) {
  SHIRAZ_REQUIRE(config.primary_mtbf > 0.0,
                 "cluster-outage primary MTBF must be positive");
  SHIRAZ_REQUIRE(config.group_size_mean >= 0.0,
                 "cluster-outage group size mean must be non-negative");
  SHIRAZ_REQUIRE(config.spread > 0.0, "cluster-outage spread must be positive");
  SHIRAZ_REQUIRE(config.spread < config.primary_mtbf,
                 "cluster-outage spread must be shorter than the primary MTBF");
}

void ClusterOutageRegime::sample_gaps(Rng& rng, Seconds horizon,
                                      std::vector<Seconds>& out) const {
  // Primary outages: Weibull renewal walked past the horizon so clusters
  // seeded just inside it still contribute their tails.
  const double p_geo = 1.0 / (1.0 + config_.group_size_mean);  // P(size = k) geometric
  std::vector<Seconds> times;
  Seconds t = 0.0;
  while (t < horizon) {
    t += primary_.quantile(rng.uniform());
    times.push_back(t);
    // Follow-on failures: geometric count (mean group_size_mean), each at an
    // independent exponential offset after the primary. Draw order is fixed
    // (count, then offsets), so the stream is deterministic.
    while (rng.uniform() >= p_geo) {
      const Seconds offset = -config_.spread * std::log1p(-rng.uniform());
      times.push_back(t + offset);
    }
  }
  // The final primary lands at or past the horizon (loop condition), so the
  // sorted stream always crosses it regardless of where follow-ons fall.
  std::sort(times.begin(), times.end());
  event_times_to_gaps(times, horizon, out);
}

Seconds ClusterOutageRegime::mean_gap() const {
  return config_.primary_mtbf / (1.0 + config_.group_size_mean);
}

std::string ClusterOutageRegime::name() const {
  std::ostringstream os;
  os << "ClusterOutage(primary=" << as_hours(config_.primary_mtbf)
     << "h@b=" << config_.primary_shape << ", group=" << config_.group_size_mean
     << ", spread=" << as_hours(config_.spread) << "h)";
  return os.str();
}

FailureRegimePtr ClusterOutageRegime::clone() const {
  return std::make_unique<ClusterOutageRegime>(*this);
}

// ---------------------------------------------------------------------------
// HeterogeneousPoolsRegime

HeterogeneousPoolsRegime::HeterogeneousPoolsRegime(std::vector<Pool> pools)
    : pools_(std::move(pools)) {
  SHIRAZ_REQUIRE(pools_.size() >= 2,
                 "hetero-pools needs at least two pools (one pool is a renewal)");
  streams_.reserve(pools_.size());
  for (const Pool& p : pools_) {
    SHIRAZ_REQUIRE(p.mtbf > 0.0, "hetero-pools pool MTBF must be positive");
    streams_.push_back(Weibull::from_mtbf(p.shape, p.mtbf));
  }
}

void HeterogeneousPoolsRegime::sample_gaps(Rng& rng, Seconds horizon,
                                           std::vector<Seconds>& out) const {
  // Each pool's renewal stream is sampled to the horizon in declaration
  // order off the single RNG — a fixed draw order, so the superposition is
  // as deterministic as any single stream.
  std::vector<Seconds> times;
  std::vector<Seconds> gaps;
  for (const Weibull& w : streams_) {
    gaps.clear();
    w.sample_gaps(rng, horizon, gaps);
    Seconds t = 0.0;
    for (const Seconds g : gaps) {
      t += g;
      times.push_back(t);
    }
  }
  std::sort(times.begin(), times.end());
  event_times_to_gaps(times, horizon, out);
}

Seconds HeterogeneousPoolsRegime::mean_gap() const {
  double rate = 0.0;
  for (const Pool& p : pools_) rate += 1.0 / p.mtbf;
  return 1.0 / rate;
}

std::string HeterogeneousPoolsRegime::name() const {
  std::ostringstream os;
  os << "HeteroPools(";
  for (std::size_t i = 0; i < pools_.size(); ++i) {
    if (i != 0) os << ", ";
    os << as_hours(pools_[i].mtbf) << "h@b=" << pools_[i].shape;
  }
  os << ")";
  return os.str();
}

FailureRegimePtr HeterogeneousPoolsRegime::clone() const {
  return std::make_unique<HeterogeneousPoolsRegime>(*this);
}

// ---------------------------------------------------------------------------
// DriftingWeibullRegime

DriftingWeibullRegime::DriftingWeibullRegime(const Config& config)
    : config_(config) {
  SHIRAZ_REQUIRE(config.beta_start > 0.0 && config.beta_end > 0.0,
                 "drifting-weibull shapes must be positive");
  SHIRAZ_REQUIRE(config.mtbf_start > 0.0 && config.mtbf_end > 0.0,
                 "drifting-weibull MTBFs must be positive");
  SHIRAZ_REQUIRE(config.ramp > 0.0, "drifting-weibull ramp must be positive");
}

double DriftingWeibullRegime::beta_at(Seconds t) const {
  const double frac = std::clamp(t / config_.ramp, 0.0, 1.0);
  return config_.beta_start + frac * (config_.beta_end - config_.beta_start);
}

Seconds DriftingWeibullRegime::mtbf_at(Seconds t) const {
  const double frac = std::clamp(t / config_.ramp, 0.0, 1.0);
  return config_.mtbf_start + frac * (config_.mtbf_end - config_.mtbf_start);
}

Seconds DriftingWeibullRegime::gap_at(Rng& rng, Seconds gap_start) const {
  const double beta = beta_at(gap_start);
  const Seconds scale = mtbf_at(gap_start) / std::tgamma(1.0 + 1.0 / beta);
  // Inverse transform, identical algebra to Weibull::quantile.
  return scale * std::pow(-std::log1p(-rng.uniform()), 1.0 / beta);
}

void DriftingWeibullRegime::sample_gaps(Rng& rng, Seconds horizon,
                                        std::vector<Seconds>& out) const {
  Seconds t = 0.0;
  while (t < horizon) {
    const Seconds gap = gap_at(rng, t);
    out.push_back(gap);
    t += gap;
  }
}

Seconds DriftingWeibullRegime::mean_gap() const {
  return 0.5 * (config_.mtbf_start + config_.mtbf_end);
}

std::string DriftingWeibullRegime::name() const {
  std::ostringstream os;
  os << "DriftingWeibull(b=" << config_.beta_start << "->" << config_.beta_end
     << ", mtbf=" << as_hours(config_.mtbf_start) << "h->"
     << as_hours(config_.mtbf_end) << "h over " << as_hours(config_.ramp) << "h)";
  return os.str();
}

FailureRegimePtr DriftingWeibullRegime::clone() const {
  return std::make_unique<DriftingWeibullRegime>(*this);
}

// ---------------------------------------------------------------------------
// Statistics

double count_index_of_dispersion(const std::vector<Seconds>& gaps, Seconds window) {
  SHIRAZ_REQUIRE(window > 0.0, "dispersion window must be positive");
  Seconds total = 0.0;
  for (const Seconds g : gaps) total += g;
  const auto n_windows = static_cast<std::size_t>(total / window);
  SHIRAZ_REQUIRE(n_windows >= 2, "gaps must span at least two dispersion windows");
  std::vector<double> counts(n_windows, 0.0);
  Seconds t = 0.0;
  for (const Seconds g : gaps) {
    t += g;
    const auto w = static_cast<std::size_t>(t / window);
    if (w < n_windows) counts[w] += 1.0;
  }
  double mean = 0.0;
  for (const double c : counts) mean += c;
  mean /= static_cast<double>(n_windows);
  SHIRAZ_REQUIRE(mean > 0.0, "dispersion windows contain no failures");
  double var = 0.0;
  for (const double c : counts) var += (c - mean) * (c - mean);
  var /= static_cast<double>(n_windows);
  return var / mean;
}

double gap_lag1_autocorrelation(const std::vector<Seconds>& gaps) {
  SHIRAZ_REQUIRE(gaps.size() >= 3, "lag-1 autocorrelation needs at least 3 gaps");
  const std::size_t n = gaps.size();
  double mean = 0.0;
  for (const Seconds g : gaps) mean += g;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (const Seconds g : gaps) var += (g - mean) * (g - mean);
  SHIRAZ_REQUIRE(var > 0.0, "lag-1 autocorrelation undefined for constant gaps");
  double cov = 0.0;
  for (std::size_t i = 0; i + 1 < n; ++i) {
    cov += (gaps[i] - mean) * (gaps[i + 1] - mean);
  }
  return cov / var;
}

}  // namespace shiraz::reliability
