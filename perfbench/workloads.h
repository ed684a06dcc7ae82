// The benchmark's four workloads. Each is a client of the shiraz libraries:
// it generates its inputs from the seed, times calls into public library
// functions, checks the outputs, and reports metrics by name and unit.
//
// An untraced run (trace == false) reports the end-to-end metrics. A traced
// run records spans around the library calls into `rec` and reports the
// per-layer metrics, the layer self-time table and the tracing overhead.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "spans.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;  ///< length of the measured window
  bool trace = false;
  double p99_limit_ms = 0.0;  ///< serve latency limit on p99
  std::string out_dir = ".";  ///< where the serve socket and trace file go
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// The traced window's root span (0 when untraced); its subtree feeds the
  /// self-time table.
  std::uint32_t window_span = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back(Metric{std::move(name), value, std::move(unit)});
  }
  /// Records one checked operation; a mismatch marks the run incorrect.
  void check(bool ok, const std::string& what);
};

Outcome run_kernel_search(const Options& opt, SpanRecorder* rec);
Outcome run_event_loop(const Options& opt, SpanRecorder* rec);
Outcome run_fleet(const Options& opt, SpanRecorder* rec);
Outcome run_serve(const Options& opt, SpanRecorder* rec);

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

}  // namespace perfbench
