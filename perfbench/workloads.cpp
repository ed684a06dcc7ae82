// Batch workloads: kernel-search, event-loop and fleet. All three sit at the
// fig10 working point of the paper (Weibull beta 0.6, MTBF 5 h, 1000 h
// campaign, checkpoint costs 18 s / 1800 s at the optimal checkpoint
// interval) and run with two worker threads.
#include "workloads.h"

#include <array>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/solver_cache.h"
#include "obs/audit_sim.h"
#include "obs/metrics.h"
#include "predict/oracle.h"
#include "predict/policies.h"
#include "reliability/weibull.h"
#include "sched/arrivals.h"
#include "sched/manager.h"
#include "sim/optimizer.h"
#include "sim/trace.h"
#include "tail.h"

namespace perfbench {

using namespace shiraz;

void Outcome::check(bool ok, const std::string& what) {
  ++attempted;
  if (ok) return;
  ++failed;
  correct = false;
  std::printf("CHECK FAILED: %s\n", what.c_str());
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: Linux carries ru_maxrss across
  // execve, so it would report the launching process's peak when that was
  // larger.
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

namespace {

/// Round i of a run with seed s draws its inputs from Rng(s).fork(i), so
/// rounds differ and runs replay exactly.
std::uint64_t round_seed(std::uint64_t seed, std::uint64_t round) {
  return Rng(seed).fork(round).seed();
}

constexpr std::size_t kWorkers = 2;
constexpr std::size_t kSetupRepeats = 5;
/// Untraced runs time at least this many rounds.
constexpr std::size_t kMinRounds = 10;
/// A traced run times a few untraced rounds first (the overhead baseline).
constexpr double kUntracedShare = 0.35;
constexpr std::size_t kMinTracedRounds = 5;

const Seconds kMtbf = hours(5.0);

sim::EngineConfig fig10_config() {
  sim::EngineConfig cfg;
  cfg.t_total = hours(1000.0);
  return cfg;
}

double counter(obs::MetricsRegistry& reg, const char* name) {
  return static_cast<double>(reg.counter(name).value());
}

bool same_result(const sim::SimResult& a, const sim::SimResult& b) {
  if (a.apps.size() != b.apps.size()) return false;
  for (std::size_t i = 0; i < a.apps.size(); ++i) {
    const sim::AppMetrics& x = a.apps[i];
    const sim::AppMetrics& y = b.apps[i];
    if (x.useful != y.useful || x.io != y.io || x.lost != y.lost ||
        x.restart != y.restart || x.checkpoints != y.checkpoints ||
        x.proactive_checkpoints != y.proactive_checkpoints ||
        x.failures_hit != y.failures_hit) {
      return false;
    }
  }
  return a.wall == b.wall && a.idle == b.idle && a.truncated == b.truncated &&
         a.failures == b.failures && a.switches == b.switches &&
         a.alarms == b.alarms && a.proactive_checkpoints == b.proactive_checkpoints;
}

/// Builds a fixture kSetupRepeats times; returns the last and reports the
/// median build time.
template <class Fixture, class... Args>
std::unique_ptr<Fixture> set_up(double* setup_s, Args&&... args) {
  std::vector<double> times;
  std::unique_ptr<Fixture> fx;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    fx.reset();
    const double t0 = now_s();
    fx = std::make_unique<Fixture>(args...);
    times.push_back(now_s() - t0);
  }
  *setup_s = median(times);
  return fx;
}

/// Runs `round(i)` (which returns its units of work) until `seconds` have
/// passed and at least `min_rounds` rounds ran; returns per-round wall times
/// and, when `work` is given, per-round work.
template <class Round>
std::vector<double> timed_rounds(double seconds, std::size_t min_rounds, Round&& round,
                                 std::vector<double>* work = nullptr) {
  std::vector<double> times;
  const double t_end = now_s() + seconds;
  for (std::uint64_t i = 0; times.size() < min_rounds || now_s() < t_end; ++i) {
    const double t0 = now_s();
    const double w = round(i);
    times.push_back(now_s() - t0);
    if (work != nullptr) work->push_back(w);
  }
  return times;
}

/// Median duration of the spans named `name` (0 when there are none).
double median_span_s(const std::vector<Span>& spans, const std::string& name) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.name == name) d.push_back(s.end - s.start);
  }
  return median(d);
}

/// The end-to-end metrics every batch workload reports: work per second is
/// the median over rounds of each round's work over its wall time.
void batch_end_to_end(Outcome& out, const char* workload, double setup_s,
                      const std::vector<double>& round_s,
                      const std::vector<double>& round_work, const char* work_unit) {
  std::vector<double> rate;
  double total = 0.0;
  for (std::size_t i = 0; i < round_s.size(); ++i) {
    rate.push_back(round_work[i] / round_s[i]);
    total += round_s[i];
  }
  const Percentile p50 = percentile(round_s, 0.5);
  std::printf("%s: %zu rounds in %.3f s; round p50 %.3f ms (n=%zu, %zu beyond%s); "
              "median %.1f %s/s\n",
              workload, round_s.size(), total, p50.value * 1e3, p50.samples, p50.beyond,
              p50.reportable ? "" : ", too few to report", median(rate), work_unit);
  out.add("setup_s", setup_s, "s");
  out.add("work_per_s", median(rate), "1/s");
  out.add("peak_rss_mb", peak_rss_mb(), "MB");
}

/// Runs the traced part of a batch workload: untraced rounds for the
/// overhead baseline, then traced rounds under one window span.
template <class Round>
std::vector<double> traced_rounds(const Options& opt, SpanRecorder* rec,
                                  const char* workload, Round&& round,
                                  Outcome& out) {
  const std::vector<double> plain = timed_rounds(
      opt.seconds * kUntracedShare, kMinTracedRounds,
      [&](std::uint64_t i) { return round(i, nullptr, 0); });
  const std::uint32_t root = rec->open(std::string(workload) + ".window", 0);
  const std::vector<double> traced = timed_rounds(
      opt.seconds * (1.0 - kUntracedShare), kMinTracedRounds,
      [&](std::uint64_t i) { return round(i, rec, root); });
  rec->close(root);
  out.window_span = root;
  const double overhead = median(traced) / median(plain);
  std::printf("%s: tracing overhead %.4f (traced p50 round / untraced, "
              "%zu vs %zu rounds)\n",
              workload, overhead, traced.size(), plain.size());
  out.add("trace_overhead", overhead, "ratio");
  return traced;
}

void residual(Outcome& out, SpanRecorder* rec, const std::string& workload) {
  const std::vector<SelfTime> table = self_times(rec->spans(), out.window_span);
  out.add(workload + ".residual_s", table.front().self_s, "s");
}

// ---------------------------------------------------------------------------
// kernel-search
//
// Why: this is how the repo answers "which k". Trace materialization and the
// flat kernel do nearly all the work. core, sched and serve do none, so this
// workload is the bypass for solver and daemon changes.

constexpr std::size_t kSearchReps = 15000;  // the paper's statistical scale
constexpr int kKLo = 1;
constexpr int kKHi = 64;
constexpr std::size_t kSearchCheckReps = 400;

struct SearchOutput {
  sim::SimResult base;
  std::vector<sim::SweepUseful> sweep;
  std::optional<int> k;
  std::size_t gaps = 0;
  double resident_bytes = 0.0;  ///< registry gauge after ensure (armed only)
};

/// The fairness criterion of sim::find_fair_k_by_simulation: the k nearest
/// the delta_LW == delta_HW crossing, kept only when its total gain is
/// material.
std::optional<int> pick_fair_k(const sim::SimResult& base,
                               const std::vector<sim::SweepUseful>& sweep) {
  double best_gap = std::numeric_limits<double>::infinity();
  double best_total = 0.0;
  int best_k = 0;
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const double d_lw = sweep[i].lw - base.apps[0].useful;
    const double d_hw = sweep[i].hw - base.apps[1].useful;
    const double gap = std::fabs(d_lw - d_hw);
    if (gap < best_gap) {
      best_gap = gap;
      best_total = d_lw + d_hw;
      best_k = kKLo + static_cast<int>(i);
    }
  }
  const double materiality = 1e-4 * (base.apps[0].useful + base.apps[1].useful);
  if (sweep.empty() || best_total <= materiality) return std::nullopt;
  return best_k;
}

struct KernelSearch {
  sim::Engine fast{reliability::Weibull::from_mtbf(0.6, kMtbf), fig10_config()};
  sim::Engine loop{reliability::Weibull::from_mtbf(0.6, kMtbf), [] {
                     sim::EngineConfig c = fig10_config();
                     c.flat_kernel = false;
                     return c;
                   }()};
  sim::SimJob lw = sim::SimJob::at_oci("lw", 18.0, kMtbf);
  sim::SimJob hw = sim::SimJob::at_oci("hw", 1800.0, kMtbf);
  std::vector<sim::SimJob> jobs{lw, hw};
  common::ThreadPool pool{kWorkers};

  /// A tenth-size search warms the allocator, the pool and the code paths.
  KernelSearch() { search(fast, 7, kSearchReps / 10, &pool, nullptr, 0, nullptr); }

  /// One fair-k search: store build, baseline campaign, k sweep, pick.
  SearchOutput search(const sim::Engine& engine, std::uint64_t seed,
                      std::size_t reps, common::ThreadPool* p, SpanRecorder* rec,
                      std::uint32_t root, obs::MetricsRegistry* reg) {
    SearchOutput out;
    auto store = std::make_unique<sim::TraceStore>(engine, seed);
    if (reg != nullptr) store->set_metrics(reg);
    {
      const Scope s(rec, "sim.trace.ensure", root);
      store->ensure(reps);
    }
    if (reg != nullptr) {
      out.resident_bytes = reg->gauge("shiraz_trace_resident_bytes").value();
    }
    sim::CampaignOptions o;
    o.workers = p != nullptr ? kWorkers : 1;
    o.pool = p;
    o.traces = store.get();
    o.metrics = reg;
    {
      const Scope s(rec, "sim.kernel.baseline", root);
      out.base = engine.run_many(jobs, sim::AlternateAtFailure{}, reps, seed, o);
    }
    {
      const Scope s(rec, "sim.kernel.sweep", root);
      out.sweep = sim::replay_pair_sweep(engine, lw, hw, kKLo, kKHi, reps, *store,
                                         o.workers, p);
    }
    out.k = pick_fair_k(out.base, out.sweep);
    out.gaps = store->total_gaps();
    const Scope s(rec, "sim.trace.release", root);
    store.reset();
    return out;
  }
};

void check_search(Outcome& out, KernelSearch& ks, std::uint64_t seed) {
  const std::uint64_t s = round_seed(seed, 1u << 20);
  const SearchOutput kern = ks.search(ks.fast, s, kSearchCheckReps, &ks.pool,
                                      nullptr, 0, nullptr);
  const SearchOutput ref = ks.search(ks.loop, s, kSearchCheckReps, nullptr,
                                     nullptr, 0, nullptr);
  bool same = same_result(kern.base, ref.base) && kern.sweep.size() == ref.sweep.size();
  for (std::size_t i = 0; same && i < kern.sweep.size(); ++i) {
    same = kern.sweep[i].lw == ref.sweep[i].lw && kern.sweep[i].hw == ref.sweep[i].hw;
  }
  out.check(same, "kernel-search: per-k useful work differs from flat_kernel=false");
  out.check(kern.k == ref.k, "kernel-search: k* differs from flat_kernel=false");
  const sim::SimSwitchSolution lib = sim::find_fair_k_by_simulation(
      ks.loop, ks.lw, ks.hw, kKLo, kKHi, kSearchCheckReps, s, kWorkers);
  out.check(lib.k == kern.k,
            "kernel-search: k* differs from sim::find_fair_k_by_simulation");
  std::printf("kernel-search check: %zu reps, k* = %d on both paths\n",
              kSearchCheckReps, kern.k.value_or(-1));
}

}  // namespace

Outcome run_kernel_search(const Options& opt, SpanRecorder* rec) {
  Outcome out;
  double setup_s = 0.0;
  const auto ks = set_up<KernelSearch>(&setup_s);
  const double campaigns = static_cast<double>((kKHi - kKLo + 2) * kSearchReps);

  if (rec == nullptr) {
    std::vector<double> work;
    const auto rounds = timed_rounds(
        opt.seconds, kMinRounds,
        [&](std::uint64_t i) {
          ks->search(ks->fast, round_seed(opt.seed, i), kSearchReps, &ks->pool,
                     nullptr, 0, nullptr);
          return campaigns;
        },
        &work);
    out.attempted += rounds.size();
    batch_end_to_end(out, "kernel-search", setup_s, rounds, work, "campaigns");
  } else {
    obs::MetricsRegistry reg;
    std::size_t gaps = 0;
    double resident_mb = 0.0;
    const auto rounds = traced_rounds(
        opt, rec, "kernel-search",
        [&](std::uint64_t i, SpanRecorder* r, std::uint32_t root) {
          const SearchOutput o =
              ks->search(ks->fast, round_seed(opt.seed, i), kSearchReps,
                         &ks->pool, r, root, r != nullptr ? &reg : nullptr);
          if (r != nullptr && gaps == 0) {
            gaps = o.gaps;
            resident_mb = o.resident_bytes / (1024.0 * 1024.0);
          }
          return campaigns;
        },
        out);
    out.attempted += rounds.size();
    const std::vector<Span> spans = rec->spans();
    out.add("sim.trace.materialize_s", median_span_s(spans, "sim.trace.ensure"), "s");
    out.add("sim.trace.gaps", static_cast<double>(gaps), "count");
    out.add("sim.trace.resident_mb", resident_mb, "MB");
    out.add("sim.kernel.baseline_s", median_span_s(spans, "sim.kernel.baseline"), "s");
    out.add("sim.kernel.sweep_s", median_span_s(spans, "sim.kernel.sweep"), "s");
    const double kern = counter(reg, "shiraz_sim_kernel_replays_total");
    const double loop = counter(reg, "shiraz_sim_event_loop_runs_total");
    out.add("sim.kernel.replay_share", kern / (kern + loop), "ratio");
    residual(out, rec, "kernel-search");

    // Worker pool: the sweep's speed-up at two workers over one, halved.
    // Timed on its own stores, outside the window.
    std::vector<double> one, two;
    for (std::uint64_t i = 0; i < 3; ++i) {
      sim::TraceStore store(ks->fast, round_seed(opt.seed, i));
      store.ensure(kSearchReps);
      for (const std::size_t w : {std::size_t{1}, kWorkers}) {
        const double t0 = now_s();
        sim::replay_pair_sweep(ks->fast, ks->lw, ks->hw, kKLo, kKHi, kSearchReps,
                               store, w, w > 1 ? &ks->pool : nullptr);
        (w == 1 ? one : two).push_back(now_s() - t0);
      }
    }
    out.add("common.pool.efficiency",
            median(one) / median(two) / static_cast<double>(kWorkers), "ratio");
  }
  check_search(out, *ks, opt.seed);
  return out;
}

// ---------------------------------------------------------------------------
// event-loop
//
// Why: the same sim layer as kernel-search, used through the configs the
// flat kernel declines. A kernel gain should leave it flat; a rewrite of the
// evaluation paths must not slow it.

namespace {

constexpr std::size_t kSampledReps = 2000;
constexpr std::size_t kStretchReps = 1500;
constexpr std::size_t kCostlyReps = 40;
constexpr std::size_t kAlarmReps = 1500;
constexpr std::size_t kAuditReps = 8;
constexpr std::size_t kEventCheckReps = 200;
constexpr int kPairK = 26;

sim::EngineConfig costly_config(obs::MetricsRegistry* reg) {
  sim::EngineConfig c = fig10_config();
  c.restart_cost = 60.0;
  c.switch_cost = 30.0;
  c.metrics = reg;
  return c;
}

predict::OracleConfig oracle_config() {
  predict::OracleConfig c;
  c.mtbf = kMtbf;
  return c;
}

struct EventLoop {
  obs::MetricsRegistry reg;  ///< armed only on traced rounds
  obs::InvariantAuditor auditor;
  sim::Engine plain{reliability::Weibull::from_mtbf(0.6, kMtbf), fig10_config()};
  /// The Shiraz+ sweep runs on an engine with the kernel switched off: the
  /// kernel accepts stretched schedules (they are periodic), and this
  /// workload measures the event-loop sweep (sweep_one_rep).
  sim::Engine loop{reliability::Weibull::from_mtbf(0.6, kMtbf), [] {
                     sim::EngineConfig c = fig10_config();
                     c.flat_kernel = false;
                     return c;
                   }()};
  sim::Engine costly{reliability::Weibull::from_mtbf(0.6, kMtbf),
                     costly_config(nullptr)};
  sim::Engine costly_armed{reliability::Weibull::from_mtbf(0.6, kMtbf),
                           costly_config(&reg)};
  sim::Engine audited{reliability::Weibull::from_mtbf(0.6, kMtbf), [this] {
                        sim::EngineConfig c = fig10_config();
                        c.sink = &auditor;
                        return c;
                      }()};
  sim::SimJob lw = sim::SimJob::at_oci("lw", 18.0, kMtbf);
  sim::SimJob hw = sim::SimJob::at_oci("hw", 1800.0, kMtbf);
  sim::SimJob hw_plus = sim::SimJob::at_oci("hw", 1800.0, kMtbf, 2);
  std::vector<sim::SimJob> jobs{lw, hw};
  sim::ShirazPairScheduler shiraz{kPairK};
  predict::PredictiveShirazScheduler predictive{kPairK};
  predict::OraclePredictor oracle{oracle_config()};
  common::ThreadPool pool{kWorkers};

  /// A tenth-size round warms the allocator, the pool and the code paths.
  EventLoop() { round(7, nullptr, 0, nullptr, 10); }

  struct Counts {
    double campaigns = 0.0;
    std::size_t alarms = 0;
    std::size_t proactive = 0;
    std::size_t audited = 0;
    std::size_t audit_failures = 0;
  };

  Counts round(std::uint64_t seed, SpanRecorder* rec, std::uint32_t root,
               obs::MetricsRegistry* r, std::size_t scale = 1) {
    const std::size_t sampled = kSampledReps / scale;
    const std::size_t stretch = kStretchReps / scale;
    const std::size_t costly_reps = std::max<std::size_t>(kCostlyReps / scale, 2);
    const std::size_t alarm = kAlarmReps / scale;
    Counts c;
    sim::CampaignOptions o;
    o.workers = kWorkers;
    o.pool = &pool;
    o.metrics = r;
    {
      const Scope s(rec, "sim.engine.sampled", root);
      plain.run_many(jobs, shiraz, sampled, seed, o);
    }
    sim::TraceStore store(loop, seed);
    {
      const Scope s(rec, "sim.trace.ensure", root);
      store.ensure(stretch);
    }
    {
      const Scope s(rec, "sim.engine.stretched_sweep", root);
      sim::replay_pair_sweep(loop, lw, hw_plus, kKLo, kKHi, stretch, store,
                             kWorkers, &pool);
    }
    {
      const Scope s(rec, "sim.engine.replay", root);
      sim::find_fair_k_by_simulation(r != nullptr ? costly_armed : costly, lw, hw,
                                     kKLo, kKHi, costly_reps, seed, kWorkers);
    }
    {
      const Scope s(rec, "predict.campaign", root);
      sim::CampaignOptions a = o;
      a.alarms = &oracle;
      a.traces = &store;
      loop.run_many(jobs, predictive, alarm, seed, a);
    }
    {
      // Every audited repetition replays the alarm campaign's repetition r
      // with the auditor armed; its stream must reproduce the result's books.
      const Scope s(rec, "obs.audit", root);
      for (std::size_t rep = 0; rep < kAuditReps; ++rep) {
        auditor.clear();
        Rng rng = Rng(seed).fork(rep);
        const sim::SimResult res =
            audited.replay(jobs, predictive, store.trace(rep), rng, &oracle);
        ++c.audited;
        c.alarms += res.alarms;
        c.proactive += res.proactive_checkpoints;
        try {
          obs::verify_against(auditor, res);
        } catch (const std::exception& e) {
          ++c.audit_failures;
          std::printf("CHECK FAILED: event-loop audit, rep %zu: %s\n", rep, e.what());
        }
      }
    }
    c.campaigns = static_cast<double>(sampled + static_cast<std::size_t>(kKHi - kKLo + 1) * stretch +
                                      static_cast<std::size_t>(kKHi - kKLo + 2) * costly_reps +
                                      alarm + kAuditReps);
    return c;
  }
};

void check_event_loop(Outcome& out, EventLoop& el, std::uint64_t seed) {
  const std::uint64_t s = round_seed(seed, 1u << 20);
  sim::TraceStore store(el.loop, s);
  sim::CampaignOptions replay;
  replay.workers = kWorkers;
  replay.pool = &el.pool;
  replay.traces = &store;
  const sim::SimResult live = el.plain.run_many(el.jobs, el.shiraz, kEventCheckReps,
                                                s, kWorkers);
  const sim::SimResult replayed =
      el.loop.run_many(el.jobs, el.shiraz, kEventCheckReps, s, replay);
  out.check(same_result(live, replayed), "event-loop: replay differs from live sampling");
  const sim::SimResult live_alarm = el.plain.run_many(
      el.jobs, el.predictive, kEventCheckReps, s, kWorkers, &el.oracle);
  replay.alarms = &el.oracle;
  const sim::SimResult replay_alarm =
      el.loop.run_many(el.jobs, el.predictive, kEventCheckReps, s, replay);
  out.check(same_result(live_alarm, replay_alarm),
            "event-loop: alarm-campaign replay differs from live sampling");
  std::printf("event-loop check: replay == live on %zu reps, with and without "
              "alarms\n", kEventCheckReps);
}

}  // namespace

Outcome run_event_loop(const Options& opt, SpanRecorder* rec) {
  Outcome out;
  double setup_s = 0.0;
  const auto el = set_up<EventLoop>(&setup_s);
  auto account = [&](const EventLoop::Counts& c) {
    out.attempted += 5 + c.audited;  // five library calls plus the audits
    out.failed += c.audit_failures;
    if (c.audit_failures != 0) out.correct = false;
  };

  if (rec == nullptr) {
    std::vector<double> work;
    const auto rounds = timed_rounds(
        opt.seconds, kMinRounds,
        [&](std::uint64_t i) {
          const EventLoop::Counts c = el->round(round_seed(opt.seed, i), nullptr, 0, nullptr);
          account(c);
          return c.campaigns;
        },
        &work);
    batch_end_to_end(out, "event-loop", setup_s, rounds, work, "campaigns");
  } else {
    EventLoop::Counts first;
    bool have_first = false;
    double event_loop_runs = 0.0;
    traced_rounds(
        opt, rec, "event-loop",
        [&](std::uint64_t i, SpanRecorder* r, std::uint32_t root) {
          if (r != nullptr && !have_first) el->reg.reset();
          const EventLoop::Counts c = el->round(round_seed(opt.seed, i), r, root,
                                                r != nullptr ? &el->reg : nullptr);
          account(c);
          if (r != nullptr && !have_first) {
            first = c;
            have_first = true;
            event_loop_runs = counter(el->reg, "shiraz_sim_event_loop_runs_total");
          }
          return c.campaigns;
        },
        out);
    const std::vector<Span> spans = rec->spans();
    out.add("sim.engine.sampled_s", median_span_s(spans, "sim.engine.sampled"), "s");
    out.add("sim.engine.replay_s", median_span_s(spans, "sim.engine.replay"), "s");
    out.add("sim.engine.stretched_sweep_s",
            median_span_s(spans, "sim.engine.stretched_sweep"), "s");
    out.add("sim.engine.event_loop_runs", event_loop_runs, "count");
    out.add("sim.trace.materialize_s", median_span_s(spans, "sim.trace.ensure"), "s");
    const double kern = counter(el->reg, "shiraz_sim_kernel_replays_total");
    const double loop = counter(el->reg, "shiraz_sim_event_loop_runs_total");
    out.add("sim.kernel.replay_share", kern / (kern + loop), "ratio");
    out.add("predict.campaign_s", median_span_s(spans, "predict.campaign"), "s");
    out.add("predict.alarms", static_cast<double>(first.alarms), "count");
    out.add("predict.proactive_checkpoints", static_cast<double>(first.proactive),
            "count");
    out.add("obs.audit_s", median_span_s(spans, "obs.audit"), "s");
    residual(out, rec, "event-loop");
  }
  check_event_loop(out, *el, opt.seed);
  return out;
}

// ---------------------------------------------------------------------------
// fleet
//
// Why: the exp_fleet_campaign shape. The workload manager's event loop
// dominates; core::SolverCache solves a handful of catalog pairs once and
// then only hits; the flat kernel is unused.

namespace {

constexpr std::size_t kFleetJobs = 10'000;
constexpr std::size_t kFleetReps = 4;
constexpr double kInterarrivalHours = 10.0;
/// Arrival streams per regime. One stream makes a run's rate depend on how
/// heavy that one draw of 10k jobs is; rounds cycle through several.
constexpr std::uint64_t kStreams = 8;

struct FleetCell {
  sched::ArrivalRegime regime;
  sched::Policy policy;
  sched::SlotFill fill;
  const char* name;
};

const FleetCell kCells[] = {
    {sched::ArrivalRegime::kPoisson, sched::Policy::kBaselineAlternate,
     sched::SlotFill::kFcfs, "poisson/baseline"},
    {sched::ArrivalRegime::kPoisson, sched::Policy::kShirazPairing,
     sched::SlotFill::kFcfs, "poisson/random"},
    {sched::ArrivalRegime::kPoisson, sched::Policy::kShirazPairing,
     sched::SlotFill::kContrast, "poisson/extreme"},
    {sched::ArrivalRegime::kBursty, sched::Policy::kBaselineAlternate,
     sched::SlotFill::kFcfs, "bursty/baseline"},
    {sched::ArrivalRegime::kBursty, sched::Policy::kShirazPairing,
     sched::SlotFill::kFcfs, "bursty/random"},
    {sched::ArrivalRegime::kBursty, sched::Policy::kShirazPairing,
     sched::SlotFill::kContrast, "bursty/extreme"},
};

sched::ManagerConfig fleet_config(sched::SlotFill fill, obs::MetricsRegistry* reg) {
  sched::ManagerConfig c;
  c.horizon = hours(1.2 * kInterarrivalHours * static_cast<double>(kFleetJobs) + 2000.0);
  c.nominal_mtbf = kMtbf;
  c.slot_fill = fill;
  c.metrics = reg;
  return c;
}

struct Fleet {
  std::shared_ptr<obs::MetricsRegistry> reg = std::make_shared<obs::MetricsRegistry>();
  std::shared_ptr<const core::SolverCache> cache =
      std::make_shared<const core::SolverCache>(reg);
  std::unique_ptr<reliability::Distribution> failures =
      reliability::Weibull::from_mtbf(0.6, kMtbf).clone();
  /// streams[regime][k]: round i runs stream i % kStreams of each regime.
  std::array<std::vector<std::vector<sched::BatchJobSpec>>, 2> streams;
  double arrivals_s = 0.0;
  /// managers[cell][armed]: the armed copy counts into the registry.
  std::vector<std::array<std::unique_ptr<sched::WorkloadManager>, 2>> managers;
  common::ThreadPool pool{kWorkers};

  explicit Fleet(std::uint64_t seed) {
    const auto catalog = sched::fleet_catalog();
    const double t0 = now_s();
    for (const auto regime : {sched::ArrivalRegime::kPoisson, sched::ArrivalRegime::kBursty}) {
      sched::ArrivalConfig a;
      a.regime = regime;
      a.mean_interarrival = hours(kInterarrivalHours);
      const bool poisson = regime == sched::ArrivalRegime::kPoisson;
      for (std::uint64_t k = 0; k < kStreams; ++k) {
        Rng rng = Rng(seed).fork(poisson ? 101 : 102).fork(k);
        streams[poisson ? 0 : 1].push_back(
            sched::generate_arrivals(catalog, a, kFleetJobs, rng));
      }
    }
    arrivals_s = now_s() - t0;
    for (const FleetCell& cell : kCells) {
      managers.push_back({std::make_unique<sched::WorkloadManager>(
                              *failures, fleet_config(cell.fill, nullptr), cache),
                          std::make_unique<sched::WorkloadManager>(
                              *failures, fleet_config(cell.fill, reg.get()), cache)});
    }
    // Fill the solver cache with the catalog's pairs before timing.
    managers[1][0]->run_distribution(streams[0][0], sched::Policy::kShirazPairing, 1, seed,
                                     {kWorkers, &pool});
  }

  const std::vector<sched::BatchJobSpec>& stream(const FleetCell& c, std::uint64_t k) const {
    return streams[c.regime == sched::ArrivalRegime::kPoisson ? 0 : 1][k % kStreams];
  }

  /// Round `r`: every cell once. Returns (job, rep) completions.
  double round(std::uint64_t seed, std::uint64_t r, SpanRecorder* rec, std::uint32_t root,
               bool armed) {
    double completions = 0.0;
    for (std::size_t i = 0; i < std::size(kCells); ++i) {
      const Scope s(rec, "sched.run_distribution", root);
      const sched::CampaignDistribution d = managers[i][armed ? 1 : 0]->run_distribution(
          stream(kCells[i], r), kCells[i].policy, kFleetReps, seed, {kWorkers, &pool});
      completions += d.completion_rate * static_cast<double>(d.job_count * d.reps);
    }
    return completions;
  }
};

bool same_dist(const sched::CampaignDistribution& a, const sched::CampaignDistribution& b) {
  auto same = [](const sched::DistSummary& x, const sched::DistSummary& y) {
    return x.count == y.count && x.mean == y.mean && x.p50 == y.p50 &&
           x.p95 == y.p95 && x.p99 == y.p99 && x.max == y.max;
  };
  return a.completion_rate == b.completion_rate && same(a.turnaround, b.turnaround) &&
         same(a.slowdown, b.slowdown) && same(a.makespan, b.makespan) &&
         a.mean.elapsed == b.mean.elapsed && a.mean.idle == b.mean.idle &&
         a.mean.total_useful() == b.mean.total_useful() &&
         a.mean.total_io() == b.mean.total_io() &&
         a.mean.total_lost() == b.mean.total_lost();
}

void check_fleet(Outcome& out, Fleet& f, std::uint64_t seed) {
  const std::uint64_t s = round_seed(seed, 1u << 20);
  std::size_t runs = 0;
  for (std::size_t i = 0; i < std::size(kCells); ++i) {
    for (std::uint64_t r = 0; r < 2; ++r) {
      Rng rng = Rng(s).fork(r);
      const sched::CampaignStats st =
          f.managers[i][0]->run(f.stream(kCells[i], 0), kCells[i].policy, rng);
      const double booked = st.total_useful() + st.total_io() + st.total_lost() + st.idle;
      out.check(std::fabs(booked - st.elapsed) <= 1e-6 * std::max(1.0, st.elapsed) &&
                    st.elapsed == std::min(st.makespan, st.horizon),
                std::string("fleet: useful+io+lost+idle != elapsed on ") + kCells[i].name);
      ++runs;
    }
  }
  const FleetCell& cell = kCells[2];
  const auto two = f.managers[2][0]->run_distribution(f.stream(cell, 0), cell.policy, 2, s,
                                                      {kWorkers, &f.pool});
  const auto one = f.managers[2][0]->run_distribution(f.stream(cell, 0), cell.policy, 2, s,
                                                      {1, nullptr});
  out.check(same_dist(two, one), "fleet: results differ between 1 and 2 workers");
  std::printf("fleet check: accounting holds on %zu single runs; %s is "
              "worker-count invariant\n", runs, cell.name);
}

}  // namespace

Outcome run_fleet(const Options& opt, SpanRecorder* rec) {
  Outcome out;
  double setup_s = 0.0;
  const auto f = set_up<Fleet>(&setup_s, opt.seed);
  const double cells = static_cast<double>(std::size(kCells));

  if (rec == nullptr) {
    std::vector<double> work;
    const auto rounds = timed_rounds(
        opt.seconds, kMinRounds,
        [&](std::uint64_t i) {
          return f->round(round_seed(opt.seed, i), i, nullptr, 0, false);
        },
        &work);
    out.attempted += static_cast<std::uint64_t>(cells) * rounds.size();
    batch_end_to_end(out, "fleet", setup_s, rounds, work, "(job, rep) completions");
  } else {
    double completed = -1.0;
    std::map<std::string, double> routes;
    double hit_ratio = 0.0;
    const auto rounds = traced_rounds(
        opt, rec, "fleet",
        [&](std::uint64_t i, SpanRecorder* r, std::uint32_t root) {
          const bool first = r != nullptr && completed < 0.0;
          if (first) f->reg->reset();
          const double done = f->round(round_seed(opt.seed, i), i, r, root, r != nullptr);
          if (first) {
            completed = counter(*f->reg, "shiraz_sched_jobs_completed_total");
            for (const char* route : {"fixed", "sim", "analytical"}) {
              routes[route] = counter(*f->reg, (std::string("shiraz_sched_solve_") +
                                                route + "_total").c_str());
            }
            const double hits = counter(*f->reg, "shiraz_solver_cache_hits_total");
            const double misses = counter(*f->reg, "shiraz_solver_cache_misses_total");
            hit_ratio = hits / std::max(1.0, hits + misses);
          }
          return done;
        },
        out);
    out.attempted += static_cast<std::uint64_t>(cells) * rounds.size();
    const std::vector<Span> spans = rec->spans();
    out.add("sched.run_s", median_span_s(spans, "sched.run_distribution"), "s");
    out.add("sched.jobs_completed", completed, "count");
    for (const auto& [route, n] : routes) out.add("sched.solve_route." + route, n, "count");
    out.add("sched.arrivals_s", f->arrivals_s, "s");
    out.add("core.cache_hit_ratio", hit_ratio, "ratio");
    residual(out, rec, "fleet");
  }
  check_fleet(out, *f, opt.seed);
  return out;
}

}  // namespace perfbench
