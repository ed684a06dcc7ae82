#include "tail.h"

#include <algorithm>
#include <cmath>

namespace perfbench {

Percentile percentile(std::vector<double> samples, double q) {
  Percentile p;
  p.samples = samples.size();
  if (samples.empty()) return p;
  const std::size_t n = samples.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(rank - 1),
                   samples.end());
  p.value = samples[rank - 1];
  p.beyond = n - rank;
  p.reportable = p.beyond >= 10;
  return p;
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2] : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

OpenLoopSummary summarize_open_loop(const std::vector<OpenLoopRequest>& requests,
                                    double limit_s, double window_s) {
  OpenLoopSummary s;
  std::vector<double> latency;
  std::vector<double> queue;
  latency.reserve(requests.size());
  for (const OpenLoopRequest& r : requests) {
    ++s.attempted;
    const bool answered = r.sent >= 0.0 && r.done >= 0.0 && r.ok;
    if (r.sent >= 0.0) queue.push_back(r.sent - r.due);
    if (!answered) {
      ++s.failed;
      latency.push_back(kInf);
      continue;
    }
    const double l = r.done - r.due;
    latency.push_back(l);
    if (l <= limit_s) ++s.within;
  }
  s.goodput_rps = window_s > 0.0 ? static_cast<double>(s.within) / window_s : 0.0;
  s.p50 = percentile(latency, 0.50);
  s.p99 = percentile(std::move(latency), 0.99);
  s.queue_p99 = percentile(std::move(queue), 0.99);
  return s;
}

}  // namespace perfbench
