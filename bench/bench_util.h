// Shared plumbing for the figure/table bench harnesses.
//
// Every bench prints: a banner naming the paper artifact it regenerates, the
// parameters and seed in use (all overridable via --flags), the paper's
// expected numbers where applicable, and the measured table — optionally as
// CSV (--csv) for replotting.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <variant>
#include <vector>

#include "common/cli.h"
#include "common/json.h"
#include "common/statistics.h"
#include "common/table.h"
#include "common/thread_pool.h"
#include "sim/engine.h"
#include "sim/metrics.h"
#include "sim/trace.h"

namespace shiraz::bench {

inline void banner(const std::string& artifact, const std::string& description) {
  std::printf("================================================================\n");
  std::printf("%s\n", artifact.c_str());
  std::printf("%s\n", description.c_str());
  std::printf("================================================================\n");
}

inline void print_table(const Table& table, const Flags& flags) {
  std::fputs(table.render().c_str(), stdout);
  if (flags.get_bool("csv", false)) {
    std::printf("\n--- CSV ---\n%s", table.render_csv().c_str());
  }
}

inline void note(const std::string& text) { std::printf("%s\n", text.c_str()); }

/// Worker threads for parallel Monte-Carlo campaigns: `--jobs=N` (default 1,
/// `--jobs=0` = all hardware threads). Campaign output is bit-identical for
/// every value, so this only changes wall-clock time — but don't run builds
/// concurrently with the wall-clock benches (fig03/fig16) either way.
inline std::size_t workers_flag(const Flags& flags) {
  const std::size_t n = flags.get_count("jobs", 1);
  if (n > 0) return n;
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

/// The repetition flags every Monte-Carlo bench takes, parsed in one place:
/// `--reps=N`, `--seed=S`, `--jobs=N` (see workers_flag). Benches used to
/// hand-roll this triple; run_flags() keeps defaults per bench but the
/// spelling, validation and banner suffix shared.
struct RunFlags {
  std::size_t reps;
  std::uint64_t seed;
  std::size_t workers;

  /// "reps=N, seed=S, jobs=J" — the banner suffix every bench prints.
  std::string describe() const {
    return "reps=" + std::to_string(reps) + ", seed=" + std::to_string(seed) +
           ", jobs=" + std::to_string(workers);
  }
};

inline RunFlags run_flags(const Flags& flags, std::size_t default_reps,
                          std::uint64_t default_seed) {
  return RunFlags{flags.get_count("reps", default_reps),
                  flags.get_seed("seed", default_seed), workers_flag(flags)};
}

/// Unified machine-readable telemetry: `--json=FILE` dumps a
/// "shiraz-bench-v1" document with the bench id, repetition flags, bench
/// parameters, wall-clock, and one mean/stddev/ci95 record per headline
/// metric. CI runs every --json bench and trends the BENCH_*.json artifacts;
/// keep metric names stable.
class BenchJson {
 public:
  BenchJson(std::string bench, const RunFlags& run)
      : bench_(std::move(bench)), run_(run),
        start_(std::chrono::steady_clock::now()) {}

  /// Records a bench parameter for the "config" object (numbers or strings).
  void config(const std::string& key, double v) { config_.emplace_back(key, v); }
  void config(const std::string& key, std::int64_t v) { config_.emplace_back(key, v); }
  void config(const std::string& key, int v) { config(key, static_cast<std::int64_t>(v)); }
  void config(const std::string& key, std::string v) {
    config_.emplace_back(key, std::move(v));
  }

  /// Records one metric record. The MetricSummary form is the common case;
  /// scalars (model outputs, wall-clock splits) pass stddev = ci95 = 0.
  void metric(const std::string& name, const std::string& unit,
              const sim::MetricSummary& m) {
    metrics_.push_back({name, unit, m.mean, m.stddev, m.ci95});
  }
  void metric(const std::string& name, const std::string& unit, double mean,
              double stddev = 0.0, double ci95 = 0.0) {
    metrics_.push_back({name, unit, mean, stddev, ci95});
  }

  /// Writes the document to --json=FILE when the flag is set (no-op
  /// otherwise). Returns false — after printing a diagnostic — only when the
  /// file cannot be written, so benches can forward it into their exit code.
  bool write(const Flags& flags) const {
    const std::string path = flags.get("json", "");
    if (path.empty()) return true;
    const std::string doc = render();
    FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path.c_str());
      return false;
    }
    const std::size_t n = std::fwrite(doc.data(), 1, doc.size(), f);
    const bool ok = n == doc.size() && std::fclose(f) == 0;
    if (ok) std::printf("Wrote %s.\n", path.c_str());
    else std::fprintf(stderr, "short write to %s\n", path.c_str());
    return ok;
  }

  /// The document itself (tests consume this without touching the
  /// filesystem).
  std::string render() const {
    const double wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
            .count();
    JsonWriter w;
    w.begin_object();
    w.kv("schema", "shiraz-bench-v1");
    w.kv("bench", bench_);
    w.kv("seed", run_.seed);
    w.kv("reps", static_cast<std::uint64_t>(run_.reps));
    w.kv("jobs", static_cast<std::uint64_t>(run_.workers));
    w.kv("wall_seconds", wall);
    w.key("config").begin_object();
    for (const auto& [key, v] : config_) {
      w.key(key);
      if (const double* d = std::get_if<double>(&v)) w.value(*d);
      else if (const std::int64_t* i = std::get_if<std::int64_t>(&v)) w.value(*i);
      else w.value(std::get<std::string>(v));
    }
    w.end_object();
    w.key("metrics").begin_array();
    for (const Metric& m : metrics_) {
      w.begin_object();
      w.kv("name", m.name);
      w.kv("unit", m.unit);
      w.kv("mean", m.mean);
      w.kv("stddev", m.stddev);
      w.kv("ci95", m.ci95);
      w.end_object();
    }
    w.end_array();
    w.end_object();
    return w.str();
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double mean;
    double stddev;
    double ci95;
  };
  using ConfigValue = std::variant<double, std::int64_t, std::string>;

  std::string bench_;
  RunFlags run_;
  std::chrono::steady_clock::time_point start_;
  std::vector<std::pair<std::string, ConfigValue>> config_;
  std::vector<Metric> metrics_;
};

/// Shared campaign plumbing for replay-based benches: one thread pool for the
/// whole bench (spawned only when --jobs > 1 and reps > 1) plus a
/// CampaignOptions factory binding a failure-trace store — and optionally an
/// alarm source — to it. Sweep benches sample each repetition's failure
/// stream once into a sim::TraceStore and replay it across every policy they
/// compare; replay is bit-identical to live sampling, so no reported number
/// changes.
class BenchCampaigns {
 public:
  BenchCampaigns(std::size_t workers, std::size_t reps) : workers_(workers) {
    if (workers > 1 && reps > 1) pool_.emplace(std::min(workers, reps));
  }

  sim::CampaignOptions replay(const sim::TraceStore& traces,
                              const sim::AlarmSource* alarms = nullptr) {
    sim::CampaignOptions opts;
    opts.workers = workers_;
    opts.alarms = alarms;
    opts.traces = &traces;
    opts.pool = pool_ ? &*pool_ : nullptr;
    return opts;
  }

 private:
  std::size_t workers_;
  std::optional<common::ThreadPool> pool_;
};

/// Shortest time a mode runs in one timing window of a speed gate, so even
/// a few-millisecond call is timed over a span that outlasts scheduler noise.
constexpr double kMinWindowSeconds = 0.1;

/// Wall-clock timing of one bench mode over repeated windows (see
/// timing_window). The gates compare the median call: a call slowed by
/// another process moves a mean, not a median. The spread shows how far the
/// windows' mean calls disagree.
class WindowTimer {
 public:
  /// Records one call of the current window.
  void add_call(double secs) {
    calls_.push_back(secs);
    window_secs_ += secs;
    ++window_calls_;
  }

  /// Closes the current window.
  void end_window() {
    fewest_calls_ = std::min(fewest_calls_, window_calls_);
    shortest_window_ = std::min(shortest_window_, window_secs_);
    window_means_.push_back(window_secs_ / static_cast<double>(window_calls_));
    window_secs_ = 0.0;
    window_calls_ = 0;
  }

  /// Median seconds per call over every window.
  double secs() const { return percentile(calls_, 0.5); }
  /// (max - min) / median of the windows' mean call times.
  double spread() const {
    return (*std::max_element(window_means_.begin(), window_means_.end()) -
            *std::min_element(window_means_.begin(), window_means_.end())) /
           percentile(window_means_, 0.5);
  }
  /// Fewest calls in any window.
  std::size_t fewest_calls() const { return fewest_calls_; }
  /// Shortest time the mode ran in any window, in seconds.
  double shortest_window() const { return shortest_window_; }

 private:
  std::vector<double> calls_;
  std::vector<double> window_means_;
  double window_secs_ = 0.0;
  std::size_t window_calls_ = 0;
  std::size_t fewest_calls_ = std::numeric_limits<std::size_t>::max();
  double shortest_window_ = std::numeric_limits<double>::infinity();
};

/// One mode of a timing window: the call to repeat and where its time goes.
struct TimedMode {
  WindowTimer& timer;
  std::function<void()> call;
};

/// Runs one timing window: rounds call every mode once, in order, until each
/// mode has run for at least kMinWindowSeconds. Modes that a gate compares
/// with each other belong in one window: alternating call by call puts them
/// under the same machine load, so their ratio does not depend on which of
/// them ran when the load changed.
inline void timing_window(std::initializer_list<TimedMode> modes) {
  std::vector<double> secs(modes.size(), 0.0);
  while (*std::min_element(secs.begin(), secs.end()) < kMinWindowSeconds) {
    std::size_t i = 0;
    for (const TimedMode& m : modes) {
      const auto t0 = std::chrono::steady_clock::now();
      m.call();
      const double call_secs =
          std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
              .count();
      m.timer.add_call(call_secs);
      secs[i++] += call_secs;
    }
  }
  for (const TimedMode& m : modes) m.timer.end_window();
}

/// "123.4 +- 5.6" cell for a mean and its 95% CI half-width (ASCII so the
/// byte-width table alignment stays exact).
inline std::string fmt_mean_ci(double mean, double ci95, int digits = 1) {
  return fmt(mean, digits) + " +- " + fmt(ci95, digits);
}

/// fmt_mean_ci over a MetricSummary holding seconds, rendered in hours.
inline std::string fmt_hours_ci(const sim::MetricSummary& m, int digits = 1) {
  return fmt_mean_ci(as_hours(m.mean), as_hours(m.ci95), digits);
}

}  // namespace shiraz::bench
