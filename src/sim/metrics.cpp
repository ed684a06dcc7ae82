#include "sim/metrics.h"

#include "common/error.h"

namespace shiraz::sim {

Seconds SimResult::total_useful() const {
  Seconds t = 0.0;
  for (const auto& a : apps) t += a.useful;
  return t;
}

Seconds SimResult::total_io() const {
  Seconds t = 0.0;
  for (const auto& a : apps) t += a.io;
  return t;
}

Seconds SimResult::total_lost() const {
  Seconds t = 0.0;
  for (const auto& a : apps) t += a.lost;
  return t;
}

Seconds SimResult::accounted() const {
  Seconds t = idle + truncated;
  for (const auto& a : apps) t += a.busy();
  return t;
}

const AppMetrics& SimResult::app(const std::string& name) const {
  for (const auto& a : apps) {
    if (a.name == name) return a;
  }
  throw InvalidArgument("no app named " + name + " in result");
}

SimResult average(const std::vector<SimResult>& results) {
  CampaignAccumulator acc;
  for (const SimResult& r : results) acc.add(r);
  return acc.mean();
}

namespace {
MetricSummary to_summary(const RunningStats& stats) {
  MetricSummary s;
  s.mean = stats.mean();
  s.stddev = stats.stddev();
  s.ci95 = ci95_halfwidth(stats);
  s.min = stats.min();
  s.max = stats.max();
  return s;
}
}  // namespace

const AppSummary& CampaignSummary::app(const std::string& name) const {
  for (const auto& a : apps) {
    if (a.name == name) return a;
  }
  throw InvalidArgument("no app named " + name + " in campaign summary");
}

void CampaignAccumulator::add(const SimResult& r) {
  if (reps_ == 0) {
    sum_ = r;
    apps_.assign(r.apps.size(), AppAccum{});
  } else {
    SHIRAZ_REQUIRE(r.apps.size() == sum_.apps.size(), "result layouts differ");
    for (std::size_t i = 0; i < r.apps.size(); ++i) {
      AppMetrics& a = sum_.apps[i];
      a.useful += r.apps[i].useful;
      a.io += r.apps[i].io;
      a.lost += r.apps[i].lost;
      a.restart += r.apps[i].restart;
      a.checkpoints += r.apps[i].checkpoints;
      a.proactive_checkpoints += r.apps[i].proactive_checkpoints;
      a.failures_hit += r.apps[i].failures_hit;
    }
    sum_.idle += r.idle;
    sum_.truncated += r.truncated;
    sum_.failures += r.failures;
    sum_.switches += r.switches;
    sum_.alarms += r.alarms;
    sum_.proactive_checkpoints += r.proactive_checkpoints;
    sum_.wall += r.wall;
  }
  ++reps_;
  for (std::size_t i = 0; i < r.apps.size(); ++i) {
    apps_[i].useful.add(r.apps[i].useful);
    apps_[i].io.add(r.apps[i].io);
    apps_[i].lost.add(r.apps[i].lost);
    apps_[i].restart.add(r.apps[i].restart);
  }
  total_useful_.add(r.total_useful());
  total_io_.add(r.total_io());
  total_lost_.add(r.total_lost());
  idle_.add(r.idle);
  failures_.add(static_cast<double>(r.failures));
  switches_.add(static_cast<double>(r.switches));
}

SimResult CampaignAccumulator::mean() const {
  SHIRAZ_REQUIRE(reps_ > 0, "cannot average zero results");
  SimResult mean = sum_;
  const double n = static_cast<double>(reps_);
  for (auto& a : mean.apps) {
    a.useful /= n;
    a.io /= n;
    a.lost /= n;
    a.restart /= n;
    a.checkpoints = static_cast<std::size_t>(static_cast<double>(a.checkpoints) / n);
    a.proactive_checkpoints =
        static_cast<std::size_t>(static_cast<double>(a.proactive_checkpoints) / n);
    a.failures_hit = static_cast<std::size_t>(static_cast<double>(a.failures_hit) / n);
  }
  mean.idle /= n;
  mean.truncated /= n;
  mean.wall /= n;
  mean.failures = static_cast<std::size_t>(static_cast<double>(mean.failures) / n);
  mean.switches = static_cast<std::size_t>(static_cast<double>(mean.switches) / n);
  mean.alarms = static_cast<std::size_t>(static_cast<double>(mean.alarms) / n);
  mean.proactive_checkpoints =
      static_cast<std::size_t>(static_cast<double>(mean.proactive_checkpoints) / n);
  return mean;
}

CampaignSummary CampaignAccumulator::summary() const {
  SHIRAZ_REQUIRE(reps_ > 0, "cannot summarize zero repetitions");
  CampaignSummary s;
  s.reps = reps_;
  s.mean = mean();
  s.apps.resize(apps_.size());
  for (std::size_t i = 0; i < apps_.size(); ++i) {
    s.apps[i].name = sum_.apps[i].name;
    s.apps[i].useful = to_summary(apps_[i].useful);
    s.apps[i].io = to_summary(apps_[i].io);
    s.apps[i].lost = to_summary(apps_[i].lost);
    s.apps[i].restart = to_summary(apps_[i].restart);
  }
  s.total_useful = to_summary(total_useful_);
  s.total_io = to_summary(total_io_);
  s.total_lost = to_summary(total_lost_);
  s.idle = to_summary(idle_);
  s.failures = to_summary(failures_);
  s.switches = to_summary(switches_);
  return s;
}

CampaignSummary summarize_campaign(const std::vector<SimResult>& per_rep) {
  CampaignAccumulator acc;
  for (const SimResult& r : per_rep) acc.add(r);
  return acc.summary();
}

}  // namespace shiraz::sim
