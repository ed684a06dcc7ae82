// Metrics-registry overhead gate: arming obs::MetricsRegistry on the hot
// replay path must cost (nearly) nothing and change nothing.
//
// The workload is the fig10-shaped kernel sweep (MTBF 5 h Weibull beta=0.6,
// campaign 1000 h, pair delta 18 s / 1800 s at OCI, baseline + k in
// [20, 32]) run twice per timing round over the same sim::TraceStore:
//
//   unarmed  EngineConfig::metrics == nullptr — the historical path
//   armed    a fresh registry per sweep, wired through
//            CampaignOptions::metrics, counting every repetition
//
// After one warm-up sweep (which also materializes the store's traces), the
// modes are timed over `--repeat` windows. A window (bench::timing_window)
// alternates the modes sweep by sweep (unarmed, armed, unarmed, armed, ...)
// until each has run for at least bench::kMinWindowSeconds, so both see the
// same machine load; the reported time is the median sweep over all
// windows, so a sweep slowed by another process cannot fail the build.
// Three checks make this a gate rather than a report:
//
//   byte identity   every armed campaign's useful-work totals must equal the
//                   unarmed run's bit for bit (metrics are pure observers)
//   exact counts    the armed registry must read back exactly the expected
//                   repetition/dispatch/gap counts — in particular, arming
//                   metrics must NOT kick campaigns off the flat kernel
//   speed floor     with --check, armed throughput >= 0.97x unarmed
//                   (campaigns/s, median sweep times)
//
// `--json=FILE` emits the shared shiraz-bench-v1 document (BENCH_metrics.json
// in CI); the exit code is nonzero on any identity, count, or floor failure.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "reliability/weibull.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

using namespace shiraz;

namespace {

/// Committed floor enforced by --check: the armed mode must retain at least
/// this fraction of unarmed throughput. The real overhead is a handful of
/// relaxed u64 adds per repetition, buffered and applied on the campaign
/// thread — measured ~1.00x; 0.97 leaves room for timer noise only.
constexpr double kFloorArmedVsUnarmed = 0.97;

struct SweepUseful {
  double lw = 0.0;
  double hw = 0.0;
};

std::uint64_t counter_value(const obs::MetricsSnapshot& snap,
                            const std::string& name) {
  for (const obs::MetricsSnapshot::Entry& e : snap.entries) {
    if (e.name == name) return e.count;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double mtbf_hours = flags.get_double("mtbf", 5.0);
  const bench::RunFlags run = bench::run_flags(flags, 200, 20260808);
  const auto& [reps, seed, workers] = run;
  const int k_lo = static_cast<int>(flags.get_int("k-lo", 20));
  const int k_hi = static_cast<int>(flags.get_int("k-hi", 32));
  const bool check = flags.get_bool("check", false);
  const std::size_t repeat =
      static_cast<std::size_t>(flags.get_int("repeat", check ? 3 : 1));
  SHIRAZ_REQUIRE(1 <= k_lo && k_lo <= k_hi, "need 1 <= k-lo <= k-hi");
  SHIRAZ_REQUIRE(repeat >= 1, "need at least one timing repeat");

  const std::size_t n_campaigns = static_cast<std::size_t>(k_hi - k_lo + 2);
  const std::size_t campaigns = n_campaigns * reps;

  bench::banner(
      "Micro — metrics-registry overhead on the flat-kernel replay path",
      "fig10 working point: MTBF " + fmt(mtbf_hours, 0) +
          " h, campaign 1000 h, delta 18 s / 1800 s, baseline + k in [" +
          std::to_string(k_lo) + ", " + std::to_string(k_hi) + "], " +
          run.describe() +
          ", median sweep of " + std::to_string(repeat) + " windows of >= " +
          fmt(bench::kMinWindowSeconds, 1) + " s" + (check ? ", --check" : ""));

  const Seconds mtbf = hours(mtbf_hours);
  sim::EngineConfig ecfg;
  ecfg.t_total = hours(1000.0);
  const sim::Engine engine(reliability::Weibull::from_mtbf(0.6, mtbf), ecfg);
  const sim::SimJob lw = sim::SimJob::at_oci("lw", 18.0, mtbf);
  const sim::SimJob hw = sim::SimJob::at_oci("hw", 1800.0, mtbf);
  const std::vector<sim::SimJob> jobs{lw, hw};
  const sim::AlternateAtFailure baseline;

  bench::BenchCampaigns pool(workers, reps);
  const sim::TraceStore traces(engine, seed);

  // One full sweep: baseline + every k, replayed over the shared store.
  // `registry` null = the unarmed mode; non-null = every campaign counts.
  auto run_sweep = [&](obs::MetricsRegistry* registry) {
    std::vector<SweepUseful> useful;
    useful.reserve(n_campaigns);
    sim::CampaignOptions copts = pool.replay(traces);
    copts.metrics = registry;
    const sim::SimResult base =
        engine.run_many(jobs, baseline, reps, seed, copts);
    useful.push_back({base.apps[0].useful, base.apps[1].useful});
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::ShirazPairScheduler shiraz(k);
      const sim::SimResult r = engine.run_many(jobs, shiraz, reps, seed, copts);
      useful.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    return useful;
  };

  std::vector<SweepUseful> unarmed_useful = run_sweep(nullptr);  // warm-up
  std::vector<SweepUseful> armed_useful;
  obs::MetricsSnapshot last_armed_snap;
  bench::WindowTimer unarmed_timing;
  bench::WindowTimer armed_timing;
  for (std::size_t round = 0; round < repeat; ++round) {
    bench::timing_window(
        {{unarmed_timing, [&] { unarmed_useful = run_sweep(nullptr); }},
         {armed_timing, [&] {
            // Fresh registry per sweep so the exact-count check below sees
            // one sweep's increments, not an accumulation across sweeps.
            obs::MetricsRegistry registry;
            armed_useful = run_sweep(&registry);
            last_armed_snap = registry.snapshot();
          }}});
  }
  const double unarmed_secs = unarmed_timing.secs();
  const double armed_secs = armed_timing.secs();

  // Gate 1 — byte identity: armed campaigns are pure observations.
  bool bit_identical = unarmed_useful.size() == armed_useful.size();
  for (std::size_t i = 0; bit_identical && i < unarmed_useful.size(); ++i) {
    bit_identical = unarmed_useful[i].lw == armed_useful[i].lw &&
                    unarmed_useful[i].hw == armed_useful[i].hw;
  }
  if (!bit_identical) {
    std::printf("BIT-IDENTITY FAILURE: armed sweep diverges from unarmed\n");
  }

  // Gate 2 — exact counts: one sweep armed exactly `campaigns` repetitions,
  // every one of them on the flat kernel (arming metrics must not change
  // the dispatch decision), drawing failures+1 gaps per repetition.
  const std::uint64_t reps_total =
      counter_value(last_armed_snap, "shiraz_sim_reps_total");
  const std::uint64_t kernel_total =
      counter_value(last_armed_snap, "shiraz_sim_kernel_replays_total");
  const std::uint64_t loop_total =
      counter_value(last_armed_snap, "shiraz_sim_event_loop_runs_total");
  const std::uint64_t gaps_total =
      counter_value(last_armed_snap, "shiraz_sim_gaps_total");
  bool counts_exact = true;
  auto expect = [&](const char* what, std::uint64_t got, std::uint64_t want) {
    if (got == want) return;
    counts_exact = false;
    std::printf("COUNT FAILURE: %s = %llu, expected %llu\n", what,
                static_cast<unsigned long long>(got),
                static_cast<unsigned long long>(want));
  };
  expect("shiraz_sim_reps_total", reps_total,
         static_cast<std::uint64_t>(campaigns));
  expect("shiraz_sim_kernel_replays_total", kernel_total,
         static_cast<std::uint64_t>(campaigns));
  expect("shiraz_sim_event_loop_runs_total", loop_total, 0);
  if (gaps_total <= static_cast<std::uint64_t>(campaigns)) {
    // At least one failure draw beyond the final horizon-crossing gap per
    // repetition is guaranteed at these parameters (MTBF 5 h over 1000 h).
    counts_exact = false;
    std::printf("COUNT FAILURE: shiraz_sim_gaps_total = %llu, expected > %llu\n",
                static_cast<unsigned long long>(gaps_total),
                static_cast<unsigned long long>(campaigns));
  }

  const double unarmed_rate = static_cast<double>(campaigns) / unarmed_secs;
  const double armed_rate = static_cast<double>(campaigns) / armed_secs;
  const double ratio = armed_rate / unarmed_rate;
  Table table({"mode", "time (s)", "spread", "sweeps/window", "campaigns/s",
               "vs unarmed"});
  table.add_row({"unarmed", fmt(unarmed_secs, 4),
                 fmt(100.0 * unarmed_timing.spread(), 1) + "%",
                 std::to_string(unarmed_timing.fewest_calls()),
                 fmt(unarmed_rate, 0), "1.00x"});
  table.add_row({"armed", fmt(armed_secs, 4),
                 fmt(100.0 * armed_timing.spread(), 1) + "%",
                 std::to_string(armed_timing.fewest_calls()), fmt(armed_rate, 0),
                 fmt(ratio, 3) + "x"});
  bench::print_table(table, flags);

  std::printf("\n%zu campaigns (%zu policies x %zu reps); bit identity: %s; "
              "exact counts: %s (%llu reps, %llu kernel, %llu gaps).\n",
              campaigns, n_campaigns, reps, bit_identical ? "OK" : "FAILED",
              counts_exact ? "OK" : "FAILED",
              static_cast<unsigned long long>(reps_total),
              static_cast<unsigned long long>(kernel_total),
              static_cast<unsigned long long>(gaps_total));
  bench::note("Arming the registry adds a few relaxed u64 increments per "
              "repetition, buffered per rep and applied in repetition order "
              "on the campaign thread — observation, never participation.");

  // Gate 3 — the --check speed floor.
  bool floor_ok = true;
  if (check) {
    floor_ok = ratio >= kFloorArmedVsUnarmed;
    std::printf("\nSpeed floor (--check): armed_vs_unarmed %.3fx (floor "
                "%.2fx)  %s\n", ratio, kFloorArmedVsUnarmed,
                floor_ok ? "ok" : "REGRESSION");
  }

  bench::BenchJson json("micro_metrics_overhead", run);
  json.config("mtbf_hours", mtbf_hours);
  json.config("horizon_hours", 1000.0);
  json.config("delta_lw_s", 18.0);
  json.config("delta_hw_s", 1800.0);
  json.config("k_lo", k_lo);
  json.config("k_hi", k_hi);
  json.config("timing_repeats", static_cast<std::int64_t>(repeat));
  json.config("floor_armed_vs_unarmed", kFloorArmedVsUnarmed);
  json.metric("unarmed_campaigns_per_sec", "campaigns/s", unarmed_rate);
  json.metric("armed_campaigns_per_sec", "campaigns/s", armed_rate);
  json.metric("armed_vs_unarmed", "ratio", ratio);
  json.metric("bit_identical", "bool", bit_identical ? 1.0 : 0.0);
  json.metric("counts_exact", "bool", counts_exact ? 1.0 : 0.0);
  const bool wrote = json.write(flags);

  return bit_identical && counts_exact && floor_ok && wrote ? 0 : 1;
}
