// In-memory span recorder for the benchmark's traced runs.
//
// A span is one call into a layer, recorded by the benchmark around a public
// library function: name, start, end, the span that caused it and, for serve
// requests, the request id. Spans stay in memory until the run ends, when
// they are written as Chrome trace-event JSON (opens in ui.perfetto.dev) and
// folded into a per-layer self-time table.
//
// Self time: a span's duration minus the part of it its child spans cover.
// Where spans overlap without nesting (concurrent serve requests), the wall
// time they share is split equally between them, so the self times of every
// span under a root always add up to the root's duration. The root's own
// self time is the residual: window time no recorded layer explains.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (monotonic, process-local origin).
double now_s();

struct Span {
  std::string name;
  double start = 0.0;  ///< seconds, now_s() clock
  double end = 0.0;
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< 0 for a root
  std::int64_t request = -1; ///< serve request id, -1 when none
  std::uint32_t track = 0;   ///< display lane (thread or connection)
};

/// Self time of one span name under one root, summed over its spans.
struct SelfTime {
  std::string name;
  double self_s = 0.0;
  double total_s = 0.0;   ///< summed span durations (children included)
  std::size_t count = 0;  ///< spans of this name
};

/// Per-name self times of every span in `spans` under root `root` (the
/// root's own entry is its residual). Spans must lie within their parent.
/// Entries come back in first-seen order, root first.
std::vector<SelfTime> self_times(const std::vector<Span>& spans,
                                 std::uint32_t root);

/// Chrome trace-event JSON for `spans`: complete ("X") events for spans
/// without a request id, async begin/end pairs keyed by request id for the
/// rest, so overlapping requests on one lane still render.
std::string chrome_trace_json(const std::vector<Span>& spans,
                              const std::string& process_name);

/// Thread-safe span store. A null recorder pointer means "untraced": every
/// helper below accepts nullptr and then records nothing.
class SpanRecorder {
 public:
  /// Records a finished span; returns its id.
  std::uint32_t add(std::string name, double start, double end,
                    std::uint32_t parent, std::int64_t request = -1,
                    std::uint32_t track = 0);
  /// Opens a span now; close() sets its end.
  std::uint32_t open(std::string name, std::uint32_t parent);
  void close(std::uint32_t id);

  std::vector<Span> spans() const;

 private:
  mutable std::mutex mu_;  ///< guards spans_
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a no-op when
/// the recorder is null.
class Scope {
 public:
  Scope(SpanRecorder* rec, std::string name, std::uint32_t parent)
      : rec_(rec), id_(rec ? rec->open(std::move(name), parent) : 0) {}
  ~Scope() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanRecorder* rec_;
  std::uint32_t id_;
};

}  // namespace perfbench
