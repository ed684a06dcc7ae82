// perfbench: the repository benchmark's measuring program.
//
//   perfbench --workload=<kernel-search|event-loop|fleet|serve> --seed=<n>
//             --seconds=<s> --trace=<0|1> --p99-limit-ms=<ms>
//             [--out-dir=<dir>] [--source-id=<sha>]
//
// Prints a host fingerprint, what it measured, and as its last line
// `PERFBENCH-RESULT {...}`: correctness, operations attempted and failed,
// and every metric by name and unit (end-to-end metrics untraced, per-layer
// metrics traced). A traced run also prints the per-layer self-time table
// and writes the spans as Chrome trace-event JSON into --out-dir.
#include <algorithm>
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/json.h"
#include "spans.h"
#include "workloads.h"

#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using perfbench::Outcome;

std::map<std::string, std::string> parse_args(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    if (a.rfind("--", 0) != 0) throw std::invalid_argument("unexpected argument: " + a);
    const std::size_t eq = a.find('=');
    if (eq == std::string::npos) throw std::invalid_argument("expected --name=value: " + a);
    args[a.substr(2, eq - 2)] = a.substr(eq + 1);
  }
  return args;
}

std::string arg(const std::map<std::string, std::string>& args, const char* name,
                const char* fallback = nullptr) {
  const auto it = args.find(name);
  if (it != args.end()) return it->second;
  if (fallback == nullptr) throw std::invalid_argument(std::string("missing --") + name);
  return fallback;
}

void print_self_times(const std::vector<perfbench::Span>& spans, std::uint32_t root) {
  const auto table = perfbench::self_times(spans, root);
  const perfbench::Span& r = spans.at(root - 1);
  const double window = r.end - r.start;
  double sum = 0.0;
  std::printf("\nper-layer self time over the traced window (%s, %.6f s):\n",
              r.name.c_str(), window);
  std::printf("  %-28s %12s %8s %12s %8s\n", "span", "self (s)", "share", "total (s)",
              "count");
  for (const auto& st : table) {
    sum += st.self_s;
    std::printf("  %-28s %12.6f %7.2f%% %12.6f %8zu\n",
                st.name == r.name ? "residual" : st.name.c_str(), st.self_s,
                100.0 * st.self_s / window, st.total_s, st.count);
  }
  std::printf("  self times + residual = %.6f s; window = %.6f s\n\n", sum, window);
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const auto args = parse_args(argc, argv);
    perfbench::Options opt;
    opt.workload = arg(args, "workload");
    opt.seed = std::stoull(arg(args, "seed"));
    opt.seconds = std::stod(arg(args, "seconds"));
    opt.trace = arg(args, "trace") == "1";
    opt.p99_limit_ms = std::stod(arg(args, "p99-limit-ms"));
    opt.out_dir = arg(args, "out-dir", ".");
    if (opt.seconds <= 0.0 || opt.p99_limit_ms <= 0.0) {
      throw std::invalid_argument("--seconds and --p99-limit-ms must be positive");
    }

    std::printf("host: nproc=%u compiler=%s build=%s source=%s\n",
                std::thread::hardware_concurrency(), PERFBENCH_COMPILER,
                PERFBENCH_BUILD_TYPE, arg(args, "source-id", "unknown").c_str());
    std::printf("run: workload=%s seed=%llu seconds=%g trace=%d p99_limit_ms=%g\n",
                opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
                opt.seconds, opt.trace ? 1 : 0, opt.p99_limit_ms);
    std::fflush(stdout);

    using Runner = Outcome (*)(const perfbench::Options&, perfbench::SpanRecorder*);
    const std::map<std::string, Runner> runners{
        {"kernel-search", perfbench::run_kernel_search},
        {"event-loop", perfbench::run_event_loop},
        {"fleet", perfbench::run_fleet},
        {"serve", perfbench::run_serve},
    };
    const auto runner = runners.find(opt.workload);
    if (runner == runners.end()) throw std::invalid_argument("unknown workload " + opt.workload);

    perfbench::SpanRecorder recorder;
    Outcome out = runner->second(opt, opt.trace ? &recorder : nullptr);
    if (opt.trace) {
      out.add("failed_ratio",
              static_cast<double>(out.failed) / static_cast<double>(std::max<std::uint64_t>(out.attempted, 1)),
              "ratio");
      const auto spans = recorder.spans();
      print_self_times(spans, out.window_span);
      const std::string path = opt.out_dir + "/perfbench-trace-" + opt.workload + ".json";
      std::ofstream f(path);
      f << perfbench::chrome_trace_json(spans, "perfbench " + opt.workload);
      f.close();
      if (!f) throw std::runtime_error("cannot write " + path);
      std::printf("wrote %zu spans to %s (Chrome trace-event JSON)\n", spans.size(),
                  path.c_str());
    }

    std::printf("\n%-34s %16s  %s\n", "metric", "value", "unit");
    for (const auto& m : out.metrics) {
      std::printf("%-34s %16.6f  %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("correct=%s attempted=%llu failed=%llu\n", out.correct ? "true" : "false",
                static_cast<unsigned long long>(out.attempted),
                static_cast<unsigned long long>(out.failed));

    shiraz::JsonWriter w(0);
    w.begin_object();
    w.kv("correct", out.correct);
    w.kv("attempted", static_cast<std::uint64_t>(out.attempted));
    w.kv("failed", static_cast<std::uint64_t>(out.failed));
    w.key("metrics").begin_object();
    for (const auto& m : out.metrics) {
      w.key(m.name).begin_object().kv("value", m.value).kv("unit", m.unit).end_object();
    }
    w.end_object().end_object();
    std::printf("PERFBENCH-RESULT %s\n", w.str().c_str());
    return out.correct ? 0 : 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
