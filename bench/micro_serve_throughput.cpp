// Serve throughput micro-benchmark: what does the shirazctl serve daemon
// sustain, and does it ever answer differently from the library?
//
// Boots an in-process serve::Server on a temp Unix-domain socket, then
// drives it with `--clients` concurrent client connections (default 4),
// each issuing `--reps` requests (default 200) from a deterministic mix of
// solve_k / oci / checkpoint_now / pair_whatif over a small set of shared
// parameter combinations — shared on purpose, so the solver cache sees the
// hit pattern a fleet of operators would produce.
//
// Reported: requests/s, exact p50/p95/p99/max per-request latency
// (sched::summarize_samples order statistics over every request; a
// percentile with fewer than ten samples beyond it prints n/a), and the
// daemon's cache hit ratio from its own `stats` op. `--json=FILE` dumps the
// numbers for CI trend tracking (BENCH_serve.json).
//
// The divergence check is the point: every response the daemon sent over
// the socket is re-computed through a FRESH serve::Service (direct library
// call, its own empty cache) and compared byte for byte. solve_k, oci,
// checkpoint_now and pair_whatif responses are pure functions of the
// request (the whatif seed is explicit), so any daemon-vs-library
// difference — cache corruption, interleaving bug, lost framing — fails
// the bench with a nonzero exit.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "common/json.h"
#include "common/json_parse.h"
#include "sched/distribution.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/service.h"

using namespace shiraz;

namespace {

double now_secs() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// The deterministic request line for (client, index). A small pool of
/// parameter combinations repeats across all clients, so the daemon's
/// shared cache converges to a high hit ratio — the serving scenario.
std::string request_line(std::size_t client, std::size_t index) {
  struct Combo {
    double mtbf_hours;
    double delta_lw;
    double delta_hw;
  };
  static const Combo kCombos[] = {
      {5.0, 18.0, 1800.0},  {5.0, 72.0, 1800.0},  {5.0, 18.0, 7200.0},
      {20.0, 18.0, 1800.0}, {20.0, 72.0, 7200.0}, {5.0, 6.0, 600.0},
      {20.0, 6.0, 600.0},   {5.0, 36.0, 3600.0},
  };
  const std::size_t serial = client * 1000003 + index;  // unique request id
  const Combo& c = kCombos[(client + index) % std::size(kCombos)];
  JsonWriter w(0);
  w.begin_object();
  switch (index % 8) {
    case 0:
    case 1:
    case 2:
    case 3:
      w.kv("op", "solve_k");
      w.kv("mtbf_hours", c.mtbf_hours);
      w.kv("delta_lw_s", c.delta_lw);
      w.kv("delta_hw_s", c.delta_hw);
      break;
    case 4:
    case 5:
      w.kv("op", "oci");
      w.kv("mtbf_hours", c.mtbf_hours);
      w.kv("delta_s", c.delta_hw);
      break;
    case 6:
      w.kv("op", "checkpoint_now");
      w.kv("mtbf_hours", c.mtbf_hours);
      w.kv("delta_s", c.delta_hw);
      w.kv("since_ckpt_s", static_cast<double>(index % 3) * 900.0);
      break;
    default:
      w.kv("op", "pair_whatif");
      w.kv("mtbf_hours", c.mtbf_hours);
      w.kv("t_total_hours", 100.0);  // short horizon keeps the sim cheap
      w.kv("delta_lw_s", c.delta_lw);
      w.kv("delta_hw_s", c.delta_hw);
      w.kv("k", 26);
      w.kv("reps", std::uint64_t{2});
      w.kv("seed", std::uint64_t{client + 1});
      break;
  }
  w.kv("id", static_cast<double>(serial));
  w.end_object();
  return w.str();
}

struct Exchange {
  std::string request;
  std::string response;
};

}  // namespace

int main(int argc, char** argv) {
  const Flags flags(argc, argv);
  const bench::RunFlags run = bench::run_flags(flags, /*reps=*/200, /*seed=*/1);
  const std::size_t clients = flags.get_count("clients", 4);
  const std::size_t per_client = run.reps;

  const std::string socket_path =
      (std::filesystem::temp_directory_path() /
       ("shiraz_serve_bench_" + std::to_string(::getpid()) + ".sock"))
          .string();

  bench::banner("micro: serve daemon throughput",
                "shirazctl serve vs direct library calls — requests/s, exact "
                "latency percentiles, cache hit ratio, byte divergence check");
  std::printf("clients=%zu, requests/client=%zu, socket=%s\n\n", clients,
              per_client, socket_path.c_str());

  bench::BenchJson json("micro_serve_throughput", run);
  json.config("clients", static_cast<std::int64_t>(clients));
  json.config("requests_per_client", static_cast<std::int64_t>(per_client));

  serve::ServerConfig scfg;
  scfg.socket_path = socket_path;
  scfg.threads = std::max<std::size_t>(clients, 1);
  serve::Server server(std::move(scfg));
  server.serve_async();
  if (!serve::wait_for_server(socket_path)) {
    std::fprintf(stderr, "daemon did not come up on %s\n", socket_path.c_str());
    return 1;
  }

  // Drive the daemon: one thread per client, recording every exchange and
  // its latency. Threads (not the engine pool) because each client is an
  // independent blocking connection.
  std::vector<std::vector<Exchange>> exchanges(clients);
  std::vector<std::vector<double>> latencies(clients);
  const double t0 = now_secs();
  {
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (std::size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        serve::Client client(socket_path);
        exchanges[c].reserve(per_client);
        latencies[c].reserve(per_client);
        for (std::size_t i = 0; i < per_client; ++i) {
          const std::string line = request_line(c, i);
          const double start = now_secs();
          std::string response = client.request(line);
          latencies[c].push_back(now_secs() - start);
          exchanges[c].push_back(Exchange{line, std::move(response)});
        }
      });
    }
    for (std::thread& t : threads) t.join();
  }
  const double wall = now_secs() - t0;

  // Cache stats from the daemon itself, then stop it.
  serve::Client admin(socket_path);
  const std::string stats_line = admin.request(R"({"op":"stats"})");
  admin.request(R"({"op":"shutdown"})");
  server.wait();

  const JsonValue stats = parse_json(stats_line);
  const JsonValue& cache = stats.at("cache");
  const double hit_ratio = cache.at("hit_ratio").number;
  const double cache_entries = cache.at("entries").number;

  // Divergence check: replay every request through a fresh Service.
  std::size_t total_requests = 0;
  std::size_t divergent = 0;
  serve::Service direct;
  for (std::size_t c = 0; c < clients; ++c) {
    for (const Exchange& e : exchanges[c]) {
      ++total_requests;
      const std::string expected = direct.handle(e.request);
      if (expected != e.response && divergent++ == 0) {
        std::printf("DIVERGENCE: daemon response differs from library\n"
                    "  request:  %s\n  daemon:   %s\n  library:  %s\n",
                    e.request.c_str(), e.response.c_str(), expected.c_str());
      }
    }
  }

  std::vector<double> all_latencies;
  all_latencies.reserve(total_requests);
  for (const std::vector<double>& l : latencies) {
    all_latencies.insert(all_latencies.end(), l.begin(), l.end());
  }
  const sched::DistSummary lat = sched::summarize_samples(all_latencies);
  const double rps = wall > 0.0 ? static_cast<double>(total_requests) / wall : 0.0;

  Table table({"metric", "value"});
  table.add_row({"requests", std::to_string(total_requests)});
  table.add_row({"wall (s)", fmt(wall, 3)});
  table.add_row({"requests/s", fmt(rps, 0)});
  json.metric("requests_per_sec", "1/s", rps);
  // Tail rule: a percentile is reported only when at least kMinBeyond
  // samples lie beyond it; otherwise the table says n/a with the sample
  // count and how many lie beyond, and the JSON carries those two counts.
  constexpr std::size_t kMinBeyond = 10;
  const auto percentile_row = [&](const char* label, const char* key, double value) {
    const auto beyond = static_cast<std::size_t>(std::count_if(
        all_latencies.begin(), all_latencies.end(), [&](double x) { return x > value; }));
    if (beyond >= kMinBeyond) {
      table.add_row({label, fmt(value * 1e3, 3)});
      json.metric(key, "s", value);
      return;
    }
    table.add_row({label, "n/a (n=" + std::to_string(all_latencies.size()) + ", " +
                              std::to_string(beyond) + " beyond)"});
    json.metric(std::string(key) + "_samples", "count",
                static_cast<double>(all_latencies.size()));
    json.metric(std::string(key) + "_beyond", "count", static_cast<double>(beyond));
  };
  percentile_row("latency p50 (ms)", "latency_p50", lat.p50);
  percentile_row("latency p95 (ms)", "latency_p95", lat.p95);
  percentile_row("latency p99 (ms)", "latency_p99", lat.p99);
  table.add_row({"latency max (ms)", fmt(lat.max * 1e3, 3)});
  table.add_row({"cache hit ratio", fmt(hit_ratio, 4)});
  table.add_row({"cache entries", fmt(cache_entries, 0)});
  table.add_row({"divergent responses", std::to_string(divergent)});
  bench::print_table(table, flags);

  json.metric("latency_max", "s", lat.max);
  json.metric("cache_hit_ratio", "ratio", hit_ratio);
  json.metric("cache_entries", "count", cache_entries);
  json.metric("divergent_responses", "count", static_cast<double>(divergent));
  if (!json.write(flags)) return 1;

  if (divergent != 0) {
    std::printf("\nDIVERGENCE FAILURE: %zu of %zu daemon responses differ "
                "from direct library calls.\n", divergent, total_requests);
    return 1;
  }
  std::printf("\nAll %zu daemon responses byte-identical to direct library "
              "calls.\n", total_requests);
  return 0;
}
