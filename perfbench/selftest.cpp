// Self-tests of the benchmark's own arithmetic: the percentile sample-count
// rule, self times over nested and overlapping spans, and open-loop latency
// accounting. Run with `python3 perfbench/run.py --selftest`.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>

#include "common/json_parse.h"
#include "spans.h"
#include "tail.h"

namespace perfbench {
namespace {

std::vector<double> one_to(int n) {
  std::vector<double> v(static_cast<std::size_t>(n));
  std::iota(v.begin(), v.end(), 1.0);
  std::shuffle(v.begin(), v.end(), std::mt19937(7));
  return v;
}

TEST(Percentile, NearestRankValue) {
  EXPECT_EQ(percentile(one_to(100), 0.99).value, 99.0);
  EXPECT_EQ(percentile(one_to(100), 0.50).value, 50.0);
  EXPECT_EQ(percentile(one_to(1), 0.99).value, 1.0);
}

TEST(Percentile, ReportableOnlyWithTenSamplesBeyond) {
  const Percentile p99 = percentile(one_to(1000), 0.99);
  EXPECT_EQ(p99.samples, 1000u);
  EXPECT_EQ(p99.beyond, 10u);
  EXPECT_TRUE(p99.reportable);
  const Percentile short99 = percentile(one_to(999), 0.99);
  EXPECT_EQ(short99.beyond, 9u);
  EXPECT_FALSE(short99.reportable);

  EXPECT_TRUE(percentile(one_to(20), 0.5).reportable);
  EXPECT_FALSE(percentile(one_to(19), 0.5).reportable);
  EXPECT_FALSE(percentile({}, 0.5).reportable);
}

TEST(Percentile, FailuresSortBeyondEveryLatency) {
  std::vector<double> v = one_to(1000);
  for (int i = 0; i < 11; ++i) v[static_cast<std::size_t>(i)] = kInf;
  EXPECT_EQ(percentile(v, 0.99).value, kInf);
  EXPECT_LT(percentile(v, 0.50).value, kInf);
}

double self_of(const std::vector<SelfTime>& t, const std::string& name) {
  for (const SelfTime& s : t) {
    if (s.name == name) return s.self_s;
  }
  ADD_FAILURE() << "no span " << name;
  return -1.0;
}

double sum_of(const std::vector<SelfTime>& t) {
  double s = 0.0;
  for (const SelfTime& x : t) s += x.self_s;
  return s;
}

TEST(SelfTime, NestedSpansSubtractTheirChildren) {
  SpanRecorder rec;
  const auto root = rec.add("window", 0.0, 10.0, 0);
  const auto a = rec.add("a", 1.0, 4.0, root);
  rec.add("a.inner", 2.0, 3.0, a);
  rec.add("b", 5.0, 9.0, root);
  const auto t = self_times(rec.spans(), root);
  EXPECT_EQ(t.front().name, "window");
  EXPECT_DOUBLE_EQ(self_of(t, "window"), 3.0);  // the residual
  EXPECT_DOUBLE_EQ(self_of(t, "a"), 2.0);
  EXPECT_DOUBLE_EQ(self_of(t, "a.inner"), 1.0);
  EXPECT_DOUBLE_EQ(self_of(t, "b"), 4.0);
  EXPECT_DOUBLE_EQ(sum_of(t), 10.0);
}

TEST(SelfTime, OverlappingSiblingsShareTheirCommonTime) {
  SpanRecorder rec;
  const auto root = rec.add("window", 0.0, 10.0, 0);
  rec.add("r1", 1.0, 5.0, root, 1);
  rec.add("r2", 3.0, 7.0, root, 2);
  const auto t = self_times(rec.spans(), root);
  EXPECT_DOUBLE_EQ(self_of(t, "r1"), 3.0);  // 2 alone + half of [3, 5]
  EXPECT_DOUBLE_EQ(self_of(t, "r2"), 3.0);
  EXPECT_DOUBLE_EQ(self_of(t, "window"), 4.0);
  EXPECT_DOUBLE_EQ(sum_of(t), 10.0);
}

TEST(SelfTime, OverlapWithNestedChildren) {
  SpanRecorder rec;
  const auto root = rec.add("window", 0.0, 5.0, 0);
  const auto r1 = rec.add("req", 0.0, 4.0, root, 1);
  rec.add("queue", 0.0, 2.0, r1, 1);
  rec.add("other", 1.0, 3.0, root, 2);
  const auto t = self_times(rec.spans(), root);
  // [0,1] queue alone; [1,2] queue and other; [2,3] req and other;
  // [3,4] req alone; [4,5] the window alone.
  EXPECT_DOUBLE_EQ(self_of(t, "queue"), 1.5);
  EXPECT_DOUBLE_EQ(self_of(t, "other"), 1.0);
  EXPECT_DOUBLE_EQ(self_of(t, "req"), 1.5);
  EXPECT_DOUBLE_EQ(self_of(t, "window"), 1.0);
  EXPECT_DOUBLE_EQ(sum_of(t), 5.0);
}

TEST(SelfTime, SameNameSpansAggregateAndChildrenAreClipped) {
  SpanRecorder rec;
  const auto root = rec.add("window", 0.0, 4.0, 0);
  rec.add("call", 0.0, 1.0, root);
  rec.add("call", 2.0, 6.0, root);  // runs past the window: clipped to 4
  rec.add("elsewhere", 0.0, 9.0, 0);  // another root: not counted
  const auto t = self_times(rec.spans(), root);
  ASSERT_EQ(t.size(), 2u);
  EXPECT_EQ(t[1].count, 2u);
  EXPECT_DOUBLE_EQ(t[1].total_s, 3.0);
  EXPECT_DOUBLE_EQ(self_of(t, "call"), 3.0);
  EXPECT_DOUBLE_EQ(self_of(t, "window"), 1.0);
}

TEST(ChromeTrace, ParsesAndKeepsEverySpan) {
  SpanRecorder rec;
  const auto root = rec.add("window", 1.0, 2.0, 0);
  rec.add("call \"quoted\"", 1.1, 1.2, root);
  rec.add("serve.request", 1.3, 1.4, root, 42, 1);
  const shiraz::JsonValue doc = shiraz::parse_json(chrome_trace_json(rec.spans(), "test"));
  const shiraz::JsonValue& events = doc.at("traceEvents");
  // metadata + two complete events + a begin/end pair for the request
  ASSERT_EQ(events.array.size(), 5u);
  EXPECT_EQ(events.at(1).at("ph").string, "X");
  EXPECT_EQ(events.at(1).at("ts").number, 0.0);
  EXPECT_EQ(events.at(3).at("ph").string, "b");
  EXPECT_EQ(events.at(3).at("id").number, 42.0);
}

TEST(OpenLoop, LatencyRunsFromTheDueTime) {
  // Two requests on one connection: the second falls due while the first is
  // in flight and waits for it. Timed from its send it would take 1 ms and
  // meet a 2 ms limit; timed from its due time it takes 2.3 ms and misses.
  const std::vector<OpenLoopRequest> reqs = {
      {0.0000, 0.0000, 0.0015, true},
      {0.0002, 0.0015, 0.0025, true},
  };
  const OpenLoopSummary s = summarize_open_loop(reqs, 0.002, 1.0);
  EXPECT_EQ(s.attempted, 2u);
  EXPECT_EQ(s.failed, 0u);
  EXPECT_EQ(s.within, 1u);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 1.0);
  EXPECT_DOUBLE_EQ(s.p99.value, 0.0025 - 0.0002);
  EXPECT_DOUBLE_EQ(s.queue_p99.value, 0.0015 - 0.0002);
}

TEST(OpenLoop, UnsentUnansweredAndErrorsFailAndMissTheLimit) {
  std::vector<OpenLoopRequest> reqs;
  for (int i = 0; i < 1000; ++i) {
    reqs.push_back({i * 1e-3, i * 1e-3, i * 1e-3 + 1e-4, true});
  }
  reqs[0].sent = -1.0;  // never sent
  reqs[0].done = -1.0;
  reqs[1].done = -1.0;  // sent, never answered
  reqs[2].ok = false;   // answered with an error
  const OpenLoopSummary s = summarize_open_loop(reqs, 1e-3, 2.0);
  EXPECT_EQ(s.attempted, 1000u);
  EXPECT_EQ(s.failed, 3u);
  EXPECT_EQ(s.within, 997u);
  EXPECT_DOUBLE_EQ(s.goodput_rps, 997.0 / 2.0);
  EXPECT_NEAR(s.p50.value, 1e-4, 1e-12);
  EXPECT_LT(s.p99.value, kInf);  // 3 failures sit beyond p99 of 1000
  EXPECT_EQ(s.queue_p99.samples, 999u);  // the unsent request has no queue time

  for (int i = 3; i < 11; ++i) reqs[static_cast<std::size_t>(i)].ok = false;
  EXPECT_EQ(summarize_open_loop(reqs, 1e-3, 2.0).p99.value, kInf);
}

}  // namespace
}  // namespace perfbench
