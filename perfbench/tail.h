// Tail statistics and open-loop latency accounting.
//
// Percentile rule: a percentile is reported only when at least ten samples
// lie beyond it, and always together with its sample count. A failed request
// is a sample of infinite latency: it counts as missing any latency limit.
//
// Open-loop accounting: every request has a due time fixed by the arrival
// schedule before the run starts. Latency runs from the due time, not from
// the send, so a stall that delays later sends is charged to each request it
// delays.
#pragma once

#include <cstddef>
#include <limits>
#include <vector>

namespace perfbench {

inline constexpr double kInf = std::numeric_limits<double>::infinity();

struct Percentile {
  double value = 0.0;        ///< nearest-rank value (kInf when it is a failure)
  std::size_t samples = 0;   ///< sample count it was taken over
  std::size_t beyond = 0;    ///< samples strictly after its rank
  bool reportable = false;   ///< beyond >= 10
};

/// Nearest-rank q-quantile of `samples` (rank ceil(q n)), with the tail rule.
Percentile percentile(std::vector<double> samples, double q);

/// Median of `samples` (0 when empty), for per-round timings.
double median(std::vector<double> samples);

/// One open-loop request. Times are seconds on one clock; a negative `sent`
/// means the request was never sent, a negative `done` that no answer came.
struct OpenLoopRequest {
  double due = 0.0;
  double sent = -1.0;
  double done = -1.0;
  bool ok = false;  ///< answered, and the answer is not an error
};

struct OpenLoopSummary {
  std::size_t attempted = 0;
  std::size_t failed = 0;   ///< unsent, unanswered or error answers
  std::size_t within = 0;   ///< answered ok within the latency limit
  double goodput_rps = 0.0; ///< within / window
  Percentile p50;           ///< latency from due time, failures as kInf
  Percentile p99;
  Percentile queue_p99;     ///< due -> send, over sent requests
};

/// Summarizes requests due in a window of `window_s` seconds against the
/// latency limit `limit_s`.
OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopRequest>& requests,
                                    double limit_s, double window_s);

}  // namespace perfbench
