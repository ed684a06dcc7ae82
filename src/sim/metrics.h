// Simulation metrics: the same useful/io/lost decomposition the analytical
// model predicts, plus event counts for deeper assertions.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "common/statistics.h"
#include "common/units.h"

namespace shiraz::sim {

struct AppMetrics {
  std::string name;
  Seconds useful = 0.0;   ///< compute time sealed by a completed checkpoint
  Seconds io = 0.0;       ///< time spent writing completed checkpoints
  Seconds lost = 0.0;     ///< compute/partial-checkpoint time wiped by failures
  Seconds restart = 0.0;  ///< downtime charged to this app after its failures
  std::size_t checkpoints = 0;   ///< scheduled checkpoints completed
  /// Alarm-triggered checkpoints completed (prediction-aware policies only;
  /// their io is included in `io` but they do not count toward `checkpoints`
  /// or the per-gap counts Shiraz's k-switch logic reads).
  std::size_t proactive_checkpoints = 0;
  std::size_t failures_hit = 0;  ///< failures that struck while this app ran

  Seconds busy() const { return useful + io + lost + restart; }
};

struct SimResult {
  std::vector<AppMetrics> apps;
  Seconds wall = 0.0;             ///< simulated horizon
  Seconds idle = 0.0;             ///< time no app was running
  Seconds truncated = 0.0;        ///< partial segment cut off by the horizon
  std::size_t failures = 0;       ///< total failures over the horizon
  std::size_t switches = 0;       ///< within-gap application switches
  std::size_t alarms = 0;         ///< failure alarms delivered to the policy
  std::size_t proactive_checkpoints = 0;  ///< Σ apps[i].proactive_checkpoints

  Seconds total_useful() const;
  Seconds total_io() const;
  Seconds total_lost() const;
  /// Σ busy + idle + truncated; equals `wall` up to rounding (tested invariant).
  Seconds accounted() const;

  const AppMetrics& app(const std::string& name) const;
};

/// Element-wise mean of several results (same app layout required).
SimResult average(const std::vector<SimResult>& results);

/// Mean and spread of one scalar metric across campaign repetitions.
/// Well-defined for a single repetition: stddev and ci95 are exactly 0 (a
/// degenerate interval), never NaN.
struct MetricSummary {
  double mean = 0.0;
  double stddev = 0.0;  ///< unbiased sample standard deviation
  double ci95 = 0.0;    ///< 95% normal confidence half-width of the mean
  double min = 0.0;
  double max = 0.0;
};

/// Per-application spread across repetitions (seconds, like AppMetrics).
struct AppSummary {
  std::string name;
  MetricSummary useful;
  MetricSummary io;
  MetricSummary lost;
  MetricSummary restart;
};

/// Variance-aware aggregate of a Monte-Carlo campaign: the element-wise mean
/// (bit-identical to average(), so existing point-estimate consumers are
/// unchanged) plus the per-repetition spread of every headline metric.
/// All spreads are accumulated in repetition order, so the summary is
/// identical no matter how many workers produced the repetitions.
struct CampaignSummary {
  std::size_t reps = 0;
  SimResult mean;  ///< == average(per_rep)
  std::vector<AppSummary> apps;
  MetricSummary total_useful;  ///< per-rep sum over apps, seconds
  MetricSummary total_io;
  MetricSummary total_lost;
  MetricSummary idle;
  MetricSummary failures;  ///< per-rep event counts
  MetricSummary switches;

  const AppSummary& app(const std::string& name) const;
};

/// Streaming campaign merge: add() each repetition's result in repetition
/// order, then mean() is bit-identical to average() and summary() to
/// summarize_campaign() of the same results (both are loops over this
/// class). Holds O(apps) state, so a campaign's merge does not grow with its
/// repetition count.
class CampaignAccumulator {
 public:
  /// Adds the next repetition; every result must have the first one's app
  /// layout.
  void add(const SimResult& r);

  /// Element-wise mean so far. Throws when nothing was added.
  SimResult mean() const;
  /// Mean plus spread so far (see CampaignSummary). Throws when nothing was
  /// added.
  CampaignSummary summary() const;

 private:
  struct AppAccum {
    RunningStats useful, io, lost, restart;
  };
  std::size_t reps_ = 0;
  SimResult sum_;  ///< element-wise sums in repetition order
  std::vector<AppAccum> apps_;
  RunningStats total_useful_, total_io_, total_lost_, idle_, failures_, switches_;
};

/// Aggregates per-repetition results into a CampaignSummary. Throws when
/// `per_rep` is empty; a single repetition yields zero spread (see
/// MetricSummary).
CampaignSummary summarize_campaign(const std::vector<SimResult>& per_rep);

}  // namespace shiraz::sim
