// Engine throughput micro-benchmark: what are the failure-trace replay cache
// and the flat replay kernel worth on the fig10-shaped switch-point sweep?
//
// The workload is the paper's working point (MTBF 5 h Weibull beta=0.6,
// campaign 1000 h, pair delta 18 s / 1800 s at OCI) swept over the baseline
// plus k in [20, 32] — one baseline campaign and 13 Shiraz campaigns over the
// same `reps` failure streams. Three evaluation modes, all bit-identical
// (checked here and enforced by tests/sim/trace_replay_test.cpp and
// tests/sim/kernel_test.cpp):
//
//   sampled   every campaign re-samples its failure streams: each
//             repetition batch-samples its own trace, replays it through
//             the event loop and drops it (no store, per-campaign pools)
//   replayed  a sim::TraceStore samples each stream once (in the first
//             campaign's workers; charged to this mode) and every campaign
//             replays plain arrays through the event loop (flat_kernel off)
//   kernel    TraceStore + the flat replay kernel (sim/kernel.h): baseline
//             campaigns through sim::try_flat_replay, the k range through
//             sim::replay_pair_sweep — one replayed pass sharing each gap's
//             light-weight prefix, batched over the trace's prefix-sum
//             arrays, no virtual dispatch in the inner loops
//
// Reported: wall seconds, campaigns/s (campaign = one policy x one rep run)
// and effective gaps/s (failure draws the equivalent sampled campaigns
// perform). `--json=FILE` dumps the numbers for CI trend tracking, with a
// `host` record (nproc, compiler, build type, the git sha at configure time)
// and the process's peak RSS.
//
// Each mode is timed over `--repeat` windows after one warm-up sweep. A
// window (bench::timing_window) runs whole sweeps until each of its modes
// has run for at least bench::kMinWindowSeconds, so even the
// few-millisecond kernel sweep is timed over a span that outlasts scheduler
// noise; the sampled and replayed modes alternate sweep by sweep in one
// window. The reported time is the median sweep over all windows, printed
// with the spread of the windows' mean sweeps.
//
// `--check` turns the report into a gate: the exit code is nonzero if any
// mode's output diverges bit-wise from the sampled mode OR any committed
// speedup floor is missed by the ratio of medians. The floors are on
// mode-vs-mode ratios of back-to-back runs of the same workload on the same
// machine — load-insensitive, unlike absolute campaigns/s. CI runs this on
// every push, so a change that slows the kernel below its floor fails the
// build exactly like a correctness bug.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "reliability/weibull.h"
#include "sim/optimizer.h"
#include "sim/trace.h"

using namespace shiraz;

namespace {

// Committed speedup floors enforced by --check, set below the observed
// steady-state ratios (see DESIGN.md §10) so only a real regression — not
// machine noise on the median timings — can cross them. Replay saves the
// RNG draws but still walks the event loop, so its steady-state gain is
// modest (~1.2x); its floor just pins "replay is never slower than
// sampling". The kernel runs ~20-40x over sampled; its floor is the product
// of the two it replaced (the event-loop pair sweep >= 5x sampled, the
// kernel >= 3x that sweep), so its bar is no lower than before.
constexpr double kFloorReplayVsSampled = 1.05;
constexpr double kFloorKernelVsSampled = 15.0;

struct SweepUsefulByK {
  double baseline_lw = 0.0;
  double baseline_hw = 0.0;
  std::vector<sim::SweepUseful> by_k;
};

struct ModeResult {
  const char* name;
  bench::WindowTimer timing;  // per-sweep times over the --repeat windows
  SweepUsefulByK useful;
};

/// The process's resident high-water mark (VmHWM), or 0 where
/// /proc/self/status has none.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  return 0.0;
}

bool identical(const SweepUsefulByK& a, const SweepUsefulByK& b) {
  if (a.baseline_lw != b.baseline_lw || a.baseline_hw != b.baseline_hw) {
    return false;
  }
  if (a.by_k.size() != b.by_k.size()) return false;
  for (std::size_t i = 0; i < a.by_k.size(); ++i) {
    if (a.by_k[i].lw != b.by_k[i].lw || a.by_k[i].hw != b.by_k[i].hw) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const double mtbf_hours = flags.get_double("mtbf", 5.0);
  const bench::RunFlags run = bench::run_flags(flags, 200, 20181111);
  const auto& [reps, seed, workers] = run;
  const int k_lo = static_cast<int>(flags.get_int("k-lo", 20));
  const int k_hi = static_cast<int>(flags.get_int("k-hi", 32));
  const bool check = flags.get_bool("check", false);
  const std::size_t repeat = static_cast<std::size_t>(
      flags.get_int("repeat", check ? 3 : 1));
  const std::string json_path = flags.get("json", "");
  SHIRAZ_REQUIRE(1 <= k_lo && k_lo <= k_hi, "need 1 <= k-lo <= k-hi");
  SHIRAZ_REQUIRE(repeat >= 1, "need at least one timing repeat");

  const std::size_t n_k = static_cast<std::size_t>(k_hi - k_lo + 1);
  const std::size_t campaigns_per_sweep = (n_k + 1) * reps;

  bench::banner(
      "Micro — engine throughput, sampled vs replayed vs flat-kernel sweeps",
      "fig10 working point: MTBF " + fmt(mtbf_hours, 0) +
          " h, campaign 1000 h, delta 18 s / 1800 s, baseline + k in [" +
          std::to_string(k_lo) + ", " + std::to_string(k_hi) + "], " +
          run.describe() +
          ", median sweep of " + std::to_string(repeat) + " windows of >= " +
          fmt(bench::kMinWindowSeconds, 1) + " s" + (check ? ", --check" : ""));

  const Seconds mtbf = hours(mtbf_hours);
  // Two engines over the same failure process: `loop` pins the historical
  // event loop (the sampled/replayed modes it has always measured);
  // `fast` leaves the default flat-kernel dispatch on for the kernel mode.
  sim::EngineConfig ecfg;
  ecfg.t_total = hours(1000.0);
  ecfg.flat_kernel = false;
  const sim::Engine loop(reliability::Weibull::from_mtbf(0.6, mtbf), ecfg);
  ecfg.flat_kernel = true;
  const sim::Engine fast(reliability::Weibull::from_mtbf(0.6, mtbf), ecfg);
  const sim::SimJob lw = sim::SimJob::at_oci("lw", 18.0, mtbf);
  const sim::SimJob hw = sim::SimJob::at_oci("hw", 1800.0, mtbf);
  const std::vector<sim::SimJob> jobs{lw, hw};
  const sim::AlternateAtFailure baseline;

  bench::BenchCampaigns campaigns(workers, reps);
  std::size_t gaps_per_rep_total = 0;

  // -- sampled: a trace per repetition per campaign, fresh pool per campaign.
  auto run_sampled = [&]() {
    SweepUsefulByK u;
    const sim::SimResult base = loop.run_many(jobs, baseline, reps, seed, workers);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::ShirazPairScheduler shiraz(k);
      const sim::SimResult r = loop.run_many(jobs, shiraz, reps, seed, workers);
      u.by_k.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    return u;
  };

  // -- replayed: sample once into a store (build time charged here), then
  //    run the same campaigns as event-loop array walks on one shared pool.
  auto run_replayed = [&]() {
    SweepUsefulByK u;
    const sim::TraceStore traces(loop, seed);
    const sim::CampaignOptions copts = campaigns.replay(traces);
    const sim::SimResult base = loop.run_many(jobs, baseline, reps, seed, copts);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    for (int k = k_lo; k <= k_hi; ++k) {
      const sim::ShirazPairScheduler shiraz(k);
      const sim::SimResult r = loop.run_many(jobs, shiraz, reps, seed, copts);
      u.by_k.push_back({r.apps[0].useful, r.apps[1].useful});
    }
    gaps_per_rep_total = traces.total_gaps();
    return u;
  };

  // -- kernel: store + flat kernel for everything — the baseline campaigns
  //    dispatch to sim::try_flat_replay, the k range to the kernel sweep.
  auto run_kernel = [&]() {
    SweepUsefulByK u;
    const sim::TraceStore traces(fast, seed);
    const sim::CampaignOptions copts = campaigns.replay(traces);
    const sim::SimResult base = fast.run_many(jobs, baseline, reps, seed, copts);
    u.baseline_lw = base.apps[0].useful;
    u.baseline_hw = base.apps[1].useful;
    u.by_k = sim::replay_pair_sweep(fast, lw, hw, k_lo, k_hi, reps, traces,
                                    workers, copts.pool);
    return u;
  };

  std::vector<ModeResult> modes{{"sampled"}, {"replayed"}, {"kernel"}};
  ModeResult& sampled = modes[0];
  ModeResult& replayed = modes[1];
  ModeResult& kernel = modes[2];
  // Warm-up; every sweep produces the same bits.
  sampled.useful = run_sampled();
  replayed.useful = run_replayed();
  kernel.useful = run_kernel();
  for (std::size_t t = 0; t < repeat; ++t) {
    // Sampled and replayed sweeps take about as long as each other, so they
    // alternate in one window; the kernel sweep, ~25x shorter, gets its own.
    bench::timing_window(
        {{sampled.timing, [&] { sampled.useful = run_sampled(); }},
         {replayed.timing, [&] { replayed.useful = run_replayed(); }}});
    bench::timing_window({{kernel.timing, [&] { kernel.useful = run_kernel(); }}});
  }

  // Every mode must produce the same bits — replay and the kernel are
  // optimizations, never approximations.
  bool bit_identical = true;
  for (std::size_t i = 1; i < modes.size(); ++i) {
    if (!identical(modes[i].useful, modes[0].useful)) {
      bit_identical = false;
      std::printf("BIT-IDENTITY FAILURE: mode '%s' diverges from 'sampled'\n",
                  modes[i].name);
    }
  }

  const double gaps_per_sweep =
      static_cast<double>(gaps_per_rep_total) * static_cast<double>(n_k + 1);
  Table table({"mode", "time (s)", "spread", "sweeps/window", "window (s)",
               "campaigns/s", "eff. gaps/s", "speedup"});
  const double sampled_secs = sampled.timing.secs();
  for (const ModeResult& m : modes) {
    const double secs = m.timing.secs();
    table.add_row({m.name, fmt(secs, 4), fmt(100.0 * m.timing.spread(), 1) + "%",
                   std::to_string(m.timing.fewest_calls()),
                   fmt(m.timing.shortest_window(), 3),
                   fmt(static_cast<double>(campaigns_per_sweep) / secs, 0),
                   fmt(gaps_per_sweep / secs, 0),
                   fmt(sampled_secs / secs, 2) + "x"});
  }
  bench::print_table(table, flags);

  const double speedup_replay = sampled_secs / replayed.timing.secs();
  const double speedup_kernel = sampled_secs / kernel.timing.secs();
  const double speedup_store = std::max(speedup_replay, speedup_kernel);
  std::printf("\n%zu campaigns (%zu policies x %zu reps), %zu gaps per "
              "repetition set; bit-identity across modes: %s.\n",
              campaigns_per_sweep, n_k + 1, reps, gaps_per_rep_total,
              bit_identical ? "OK" : "FAILED");
  bench::note("Replay samples each failure stream once, not once per "
              "campaign; the flat kernel strips the per-segment virtual "
              "dispatch and event bookkeeping into a batched pass over the "
              "trace's failure-time array, and its pair sweep shares each "
              "gap's light-weight prefix across the whole k range.");

  // The --check gate: committed floors on mode-vs-mode ratios.
  bool floors_ok = true;
  if (check) {
    struct Floor {
      const char* name;
      double value;
      double floor;
    };
    const Floor floors[] = {
        {"replayed_vs_sampled", speedup_replay, kFloorReplayVsSampled},
        {"kernel_vs_sampled", speedup_kernel, kFloorKernelVsSampled},
    };
    std::printf("\nSpeedup floors (--check):\n");
    for (const Floor& f : floors) {
      const bool ok = f.value >= f.floor;
      floors_ok = floors_ok && ok;
      std::printf("  %-20s %6.2fx  (floor %.2fx)  %s\n", f.name, f.value,
                  f.floor, ok ? "ok" : "REGRESSION");
    }
  }

  if (!json_path.empty()) {
    // Historical document shape (BENCH_engine.json predates the shared
    // "shiraz-bench-v1" schema): the top-level keys below are trended by CI,
    // so they stay as they are; only the rendering moved to JsonWriter.
    JsonWriter w;
    w.begin_object();
    w.kv("bench", "micro_engine_throughput");
    w.key("config").begin_object();
    w.kv("mtbf_hours", mtbf_hours);
    w.kv("horizon_hours", 1000);
    w.kv("delta_lw_s", 18);
    w.kv("delta_hw_s", 1800);
    w.kv("k_lo", k_lo);
    w.kv("k_hi", k_hi);
    w.kv("reps", static_cast<std::uint64_t>(reps));
    w.kv("jobs", static_cast<std::uint64_t>(workers));
    w.kv("seed", seed);
    w.kv("timing_repeats", static_cast<std::uint64_t>(repeat));
    w.end_object();
    w.kv("campaigns_per_sweep", static_cast<std::uint64_t>(campaigns_per_sweep));
    w.kv("gaps_per_rep_set", static_cast<std::uint64_t>(gaps_per_rep_total));
    w.key("modes").begin_array();
    for (const ModeResult& m : modes) {
      w.begin_object();
      w.kv("name", m.name);
      const double secs = m.timing.secs();
      w.kv("seconds", secs);
      w.kv("spread", m.timing.spread());
      w.kv("sweeps_per_window",
           static_cast<std::uint64_t>(m.timing.fewest_calls()));
      w.kv("window_seconds", m.timing.shortest_window());
      w.kv("campaigns_per_sec", static_cast<double>(campaigns_per_sweep) / secs);
      w.kv("gaps_per_sec", gaps_per_sweep / secs);
      w.end_object();
    }
    w.end_array();
    w.kv("speedup_replay_vs_sampled", speedup_replay);
    w.kv("speedup_kernel_vs_sampled", speedup_kernel);
    w.kv("speedup_store_vs_sampled", speedup_store);
    w.kv("bit_identical", bit_identical);
    w.key("check").begin_object();
    w.kv("enabled", check);
    w.kv("floor_replayed_vs_sampled", kFloorReplayVsSampled);
    w.kv("floor_kernel_vs_sampled", kFloorKernelVsSampled);
    w.kv("pass", bit_identical && floors_ok);
    w.end_object();
    // Where the numbers came from: they only compare across runs of the
    // same host record.
    w.key("host").begin_object();
    w.kv("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    w.kv("compiler", SHIRAZ_COMPILER);
    w.kv("build_type", SHIRAZ_BUILD_TYPE);
    w.kv("git_sha", SHIRAZ_GIT_SHA);
    w.end_object();
    w.kv("peak_rss_mb", peak_rss_mb());
    w.end_object();

    const std::string& doc = w.str();
    FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    std::fputc('\n', f);
    if (n != doc.size() || std::fclose(f) != 0) {
      std::fprintf(stderr, "short write to %s\n", json_path.c_str());
      return 1;
    }
    std::printf("Wrote %s.\n", json_path.c_str());
  }

  return bit_identical && floors_ok ? 0 : 1;
}
