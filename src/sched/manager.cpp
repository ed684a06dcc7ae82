#include "sched/manager.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <optional>
#include <utility>

#include "common/error.h"
#include "obs/metrics.h"

namespace shiraz::sched {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Resolved registry handles for one run(); null registry = all null.
/// Counters are pure observers of decisions already taken — no campaign
/// branch reads them — and u64 sums commute, so totals are worker-invariant.
struct ManagerCounters {
  obs::Counter* submitted = nullptr;
  obs::Counter* completed = nullptr;
  obs::Counter* solve_analytical = nullptr;

  explicit ManagerCounters(obs::MetricsRegistry* registry) {
    if (registry == nullptr) return;
    submitted = &registry->counter("shiraz_sched_jobs_submitted_total",
                                   "jobs submitted across campaigns");
    completed = &registry->counter("shiraz_sched_jobs_completed_total",
                                   "jobs completed across campaigns");
    solve_analytical = &registry->counter(
        "shiraz_sched_solve_analytical_total",
        "pair solves routed through the analytical cache");
  }
};
}

WorkloadManager::WorkloadManager(const reliability::Distribution& failure_dist,
                                 const ManagerConfig& config)
    : WorkloadManager(failure_dist, config,
                      std::make_shared<core::SolverCache>()) {}

WorkloadManager::WorkloadManager(const reliability::Distribution& failure_dist,
                                 const ManagerConfig& config,
                                 std::shared_ptr<const core::SolverCache> cache)
    : failure_dist_(failure_dist.clone()), config_(config),
      cache_(std::move(cache)) {
  SHIRAZ_REQUIRE(config.horizon > 0.0, "horizon must be positive");
  SHIRAZ_REQUIRE(config.nominal_mtbf > 0.0, "nominal MTBF must be positive");
  SHIRAZ_REQUIRE(config.hw_stretch >= 1, "stretch must be >= 1");
  SHIRAZ_REQUIRE(config.restart_cost >= 0.0, "restart cost must be >= 0");
  SHIRAZ_REQUIRE(cache_ != nullptr, "solver cache must not be null");
}

core::SolverCacheKey WorkloadManager::cache_key(Seconds delta_lw,
                                                Seconds delta_hw) const {
  core::SolverCacheKey key;
  key.mtbf = config_.nominal_mtbf;
  key.weibull_shape = config_.weibull_shape;
  key.epsilon = config_.epsilon;
  key.t_total = config_.horizon;
  key.oci_formula = config_.oci_formula;
  key.delta_lw = delta_lw;
  key.delta_hw = delta_hw;
  key.hw_stretch = config_.hw_stretch;
  return key;
}

CampaignStats WorkloadManager::run(const std::vector<BatchJobSpec>& jobs,
                                   Policy policy, Rng& rng) const {
  SHIRAZ_REQUIRE(!jobs.empty(), "no jobs submitted");
  for (const BatchJobSpec& job : jobs) {
    SHIRAZ_REQUIRE(job.work > 0.0, "job work must be positive: " + job.name);
    SHIRAZ_REQUIRE(job.checkpoint_cost > 0.0,
                   "job checkpoint cost must be positive: " + job.name);
    SHIRAZ_REQUIRE(job.submit_time >= 0.0, "negative submit time: " + job.name);
  }

  const ManagerCounters counters(config_.metrics);
  if (counters.submitted != nullptr) counters.submitted->add(jobs.size());

  CampaignStats stats;
  stats.horizon = config_.horizon;
  stats.jobs.resize(jobs.size());
  std::vector<Seconds> remaining(jobs.size());
  std::vector<Seconds> interval(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    stats.jobs[i].name = jobs[i].name;
    stats.jobs[i].submit_time = jobs[i].submit_time;
    remaining[i] = jobs[i].work;
    interval[i] = checkpoint::optimal_interval(
        config_.nominal_mtbf, jobs[i].checkpoint_cost, config_.oci_formula);
  }

  // Pending jobs as a submit-sorted arrival list walked by a head cursor;
  // `taken` marks positions activated out of order (contrast slot-fill), so
  // queue operations stay O(1) amortized at 10k-job scale.
  const std::size_t n = jobs.size();
  std::vector<std::size_t> arrivals(n);
  std::iota(arrivals.begin(), arrivals.end(), std::size_t{0});
  std::stable_sort(arrivals.begin(), arrivals.end(),
                   [&](std::size_t a, std::size_t b) {
                     return jobs[a].submit_time < jobs[b].submit_time;
                   });
  std::vector<char> taken(n, 0);
  std::size_t head = 0;
  auto advance_head = [&]() {
    while (head < n && taken[head] != 0) ++head;
  };

  std::vector<std::size_t> active;  // at most two machine-sharing jobs
  active.reserve(2);
  std::optional<int> pair_k;  // Shiraz switch point; nullopt = alternate
  std::size_t gap_index = 0;
  // Checkpoints the pair's light member took in the current gap (the only
  // count the k-switch consults). Reset on failures and active-set changes.
  std::size_t gap_ckpts = 0;

  Seconds now = 0.0;
  Seconds next_fail = failure_dist_->sample(rng);

  auto light_of_pair = [&]() {
    return jobs[active[0]].checkpoint_cost <= jobs[active[1]].checkpoint_cost
               ? active[0]
               : active[1];
  };
  auto heavy_of_pair = [&]() {
    return jobs[active[0]].checkpoint_cost <= jobs[active[1]].checkpoint_cost
               ? active[1]
               : active[0];
  };

  auto resolve_pair = [&]() {
    if (policy != Policy::kShirazPairing || active.size() < 2) {
      pair_k = std::nullopt;
      return;
    }
    const std::size_t lw = light_of_pair();
    const std::size_t hw = heavy_of_pair();
    // The shared memo table: every distinct signature across this run, all
    // repetitions, and any co-owner of the cache is solved exactly once.
    pair_k = cache_
                 ->solve(cache_key(jobs[lw].checkpoint_cost,
                                   jobs[hw].checkpoint_cost))
                 .k;
    if (counters.solve_analytical != nullptr) counters.solve_analytical->add(1);
  };

  auto take = [&](std::size_t pos) {
    const std::size_t job = arrivals[pos];
    taken[pos] = 1;
    active.push_back(job);
    if (!stats.jobs[job].started()) stats.jobs[job].start_time = now;
    advance_head();
  };

  // The eligible arrival position that should fill the second machine slot,
  // given the occupant: FCFS takes the oldest, contrast the one maximizing
  // the checkpoint-cost ratio against the occupant (ties in queue order).
  auto pick_second = [&]() -> std::optional<std::size_t> {
    advance_head();
    if (head >= n || jobs[arrivals[head]].submit_time > now) return std::nullopt;
    if (config_.slot_fill == SlotFill::kFcfs) return head;
    const double occupant = jobs[active[0]].checkpoint_cost;
    std::size_t best = head;
    double best_contrast = -1.0;
    for (std::size_t p = head; p < n; ++p) {
      if (taken[p] != 0) continue;
      if (jobs[arrivals[p]].submit_time > now) break;
      const double contrast =
          std::abs(std::log(jobs[arrivals[p]].checkpoint_cost / occupant));
      if (contrast > best_contrast) {
        best_contrast = contrast;
        best = p;
      }
    }
    return best;
  };

  // Fills free machine slots from the eligible pending jobs; returns true
  // when the active set changed (which resets the within-gap switch state).
  auto activate = [&]() {
    bool changed = false;
    advance_head();
    if (active.empty() && head < n && jobs[arrivals[head]].submit_time <= now) {
      take(head);
      changed = true;
    }
    if (active.size() == 1) {
      if (const auto pos = pick_second()) {
        take(*pos);
        changed = true;
      }
    }
    if (changed) {
      gap_ckpts = 0;
      resolve_pair();
    }
    return changed;
  };

  auto next_arrival = [&]() {
    return head < n ? jobs[arrivals[head]].submit_time : kInf;
  };

  // Which active job runs right now, given the within-gap state.
  auto pick_current = [&]() -> std::size_t {
    if (active.size() == 1) return active[0];
    if (policy == Policy::kShirazPairing && pair_k) {
      if (*pair_k > 0 && gap_ckpts < static_cast<std::size_t>(*pair_k)) {
        return light_of_pair();
      }
      return heavy_of_pair();
    }
    // Baseline (and non-beneficial pairs): alternate at every failure.
    return active[gap_index % active.size()];
  };

  auto handle_failure = [&](std::optional<std::size_t> hit) {
    stats.failures += 1.0;
    ++gap_index;
    gap_ckpts = 0;
    next_fail = now + failure_dist_->sample(rng);
    if (hit) {
      stats.jobs[*hit].failures_hit += 1.0;
      // Restart downtime before the post-failure segment, charged as lost
      // time to the job that must roll back. An idle machine (hit == nullopt)
      // restarts nothing.
      if (config_.restart_cost > 0.0) {
        const Seconds until =
            std::min(now + config_.restart_cost, config_.horizon);
        stats.jobs[*hit].lost += until - now;
        now = until;
      }
    }
  };

  activate();
  while (now < config_.horizon) {
    if (active.empty()) {
      advance_head();
      if (head == n) break;  // queue drained: no work will ever arrive again
      const Seconds until = std::min({next_arrival(), next_fail, config_.horizon});
      stats.idle += until - now;
      now = until;
      if (now >= config_.horizon) break;
      if (now >= next_fail) handle_failure(std::nullopt);
      activate();
      continue;
    }

    const std::size_t job = pick_current();
    BatchJobRecord& rec = stats.jobs[job];

    // A failure due now (at a segment boundary, or during restart downtime)
    // hits whoever would run next, destroying nothing in flight.
    if (next_fail <= now) {
      handle_failure(job);
      activate();
      continue;
    }

    // Shiraz+ stretches the *heavy* member of an active pair; everyone else
    // runs at their OCI.
    Seconds job_interval = interval[job];
    if (policy == Policy::kShirazPairing && config_.hw_stretch > 1 &&
        active.size() == 2 && pair_k && job == heavy_of_pair()) {
      job_interval *= static_cast<double>(config_.hw_stretch);
    }

    // One segment: compute (capped by the remaining work) then checkpoint
    // (skipped on the completing segment — a finishing job just ends).
    const bool completing = remaining[job] <= job_interval;
    const Seconds run_time = completing ? remaining[job] : job_interval;
    const Seconds delta = completing ? 0.0 : jobs[job].checkpoint_cost;
    const Seconds seg_end = now + run_time + delta;

    if (config_.horizon <= std::min(seg_end, next_fail)) {
      rec.lost += config_.horizon - now;  // work in flight at the horizon
      now = config_.horizon;
      break;
    }
    if (next_fail < seg_end) {
      rec.lost += next_fail - now;
      now = next_fail;
      handle_failure(job);
      activate();
      continue;
    }

    now = seg_end;
    rec.useful += run_time;
    remaining[job] -= run_time;
    if (completing) {
      rec.completion_time = now;
      stats.makespan = std::max(stats.makespan, now);
      active.erase(std::find(active.begin(), active.end(), job));
      gap_ckpts = 0;
      activate();
      resolve_pair();
    } else {
      rec.io += delta;
      rec.checkpoints += 1.0;
      if (active.size() == 2 && job == light_of_pair()) ++gap_ckpts;
      activate();  // a new arrival may fill an empty second slot
    }
  }

  stats.elapsed = std::min(now, config_.horizon);
  // Jobs cut off by the horizon stretch the makespan to the horizon.
  std::uint64_t completed = 0;
  for (BatchJobRecord& rec : stats.jobs) {
    if (rec.started()) rec.started_reps = 1;
    if (rec.completed()) {
      rec.completed_reps = 1;
      ++completed;
    } else {
      stats.makespan = config_.horizon;
    }
  }
  if (counters.completed != nullptr) counters.completed->add(completed);
  return stats;
}

std::vector<CampaignStats> WorkloadManager::run_reps(
    const std::vector<BatchJobSpec>& jobs, Policy policy, std::size_t reps,
    std::uint64_t seed, const CampaignRunOptions& options) const {
  SHIRAZ_REQUIRE(reps >= 1, "need at least one repetition");
  std::vector<CampaignStats> per_rep(reps);
  const Rng master(seed);
  auto run_one = [&](std::size_t r) {
    Rng rng = master.fork(r);
    per_rep[r] = run(jobs, policy, rng);
  };
  if (options.workers <= 1 || reps == 1) {
    for (std::size_t r = 0; r < reps; ++r) run_one(r);
  } else {
    common::PoolHandle pool(options.pool, std::min(options.workers, reps));
    common::parallel_for_indexed(pool.get(), reps, run_one);
  }
  return per_rep;
}

CampaignStats WorkloadManager::run_many(const std::vector<BatchJobSpec>& jobs,
                                        Policy policy, std::size_t reps,
                                        std::uint64_t seed,
                                        const CampaignRunOptions& options) const {
  return mean_of_reps(run_reps(jobs, policy, reps, seed, options));
}

CampaignDistribution WorkloadManager::run_distribution(
    const std::vector<BatchJobSpec>& jobs, Policy policy, std::size_t reps,
    std::uint64_t seed, const CampaignRunOptions& options) const {
  return build_distribution(jobs, run_reps(jobs, policy, reps, seed, options));
}

}  // namespace shiraz::sched
