// serve: an in-process serve::Server (two worker threads) on an AF_UNIX
// socket inside the build directory, driven by the benchmark's own load
// generator (one thread, at most three connections).
//
// Why: the protocol, socket and cache-hit path set the median; cold solves,
// pair_whatif and queueing set the tail.
//
// Load: seeded Poisson arrivals at a fixed offered rate over two persistent
// connections. Each connection carries one request at a time, as
// serve::Client does, so a request due while its connection is busy waits
// client-side; its latency still runs from its due time. The mix follows
// micro_serve_throughput: solve_k, oci and checkpoint_now on a hot key pool,
// a small share of solve_k on never-seen keys (cold solves) and short-horizon
// pair_whatif. Every second a `metrics` scrape runs on a fresh connection,
// as `shirazctl metrics` does. Each connection pins a server worker, so with
// two workers and two load connections a scrape waits for a free worker; a
// scrape not answered within a second counts as failed.
//
// The end-to-end rate is the goodput at the fixed rate: answers within the
// p99 limit per second. A traced run adds the daemon's capacity (a closed
// loop over pipelined connections) and a ladder of offered rates that finds
// the highest rate meeting the p99 limit with no growing backlog.
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <thread>

#include "common/json.h"
#include "common/rng.h"
#include "core/solver_cache.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "serve/service.h"
#include "tail.h"
#include "workloads.h"

namespace perfbench {

using namespace shiraz;

namespace {

constexpr std::size_t kServerThreads = 2;
constexpr double kWhatifHours = 100.0;  ///< short horizon keeps the sim cheap
constexpr std::size_t kConnections = 2;
constexpr double kRate = 2000.0;          ///< offered requests/s, fixed point
constexpr double kScrapeEvery = 1.0;      ///< s between metrics scrapes
constexpr double kScrapeDeadline = 1.0;   ///< s a scrape may take
constexpr double kDrain = 2.0;            ///< s past the last due time
constexpr double kSpin = 200e-6;          ///< s the generator spins before a send
/// Requests a closed-loop connection keeps in flight. The protocol answers
/// in order per connection; a full pipeline keeps the daemon's workers from
/// sleeping between requests, so the closed loop measures its capacity.
constexpr std::size_t kPipelineDepth = 16;
constexpr std::size_t kSetupRepeats = 5;
/// Ladder rates as multiples of kRate; each step lasts long enough for its
/// p99 to have ten samples beyond it.
constexpr double kLadder[] = {1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 8.0};
constexpr double kLadderStepMin = 1.0;
/// An untraced run spends its whole window at the fixed rate. A traced run
/// splits it: untraced fixed rate (the overhead baseline), traced fixed
/// rate, closed loop after a warm-up, then the ladder.
constexpr double kTracedPlainShare = 0.2;
constexpr double kTracedFixedShare = 0.3;
constexpr double kCapacityShare = 0.1;
constexpr double kWarmup = 1.5;  ///< s of closed loop before measuring

/// The hot key pool: the parameter combinations micro_serve_throughput
/// shares between its clients. It is fixed, so the cost of the mix does not
/// change with the seed; the seed draws arrival times, ops, keys from the
/// pool and the never-seen keys.
struct HotKey {
  double mtbf_hours;
  double delta_lw;
  double delta_hw;
};
constexpr HotKey kHotPool[] = {
    {5.0, 18.0, 1800.0},  {5.0, 72.0, 1800.0},  {5.0, 18.0, 7200.0},
    {20.0, 18.0, 1800.0}, {20.0, 72.0, 7200.0}, {5.0, 6.0, 600.0},
    {20.0, 6.0, 600.0},   {5.0, 36.0, 3600.0},
};

struct Exchange {
  std::string line;
  const char* op = "";
  std::size_t conn = 0;
  double due = 0.0;  ///< offset from the phase start; absolute once it runs
  double sent = -1.0;
  double done = -1.0;
  double lag = 0.0;  ///< generator lateness: send time minus ready time
  bool ok = false;
  std::uint64_t response_hash = 0;  ///< hash_line() of the answer
};

struct Scrape {
  double start = 0.0;
  double end = 0.0;
  bool ok = false;
};

/// The seeded request mix: solve_k, oci and checkpoint_now on the hot pool,
/// solve_k on never-seen keys, short-horizon pair_whatif. Ids are unique
/// across phases (each phase has its own id base), so every response is a
/// pure function of its request line.
class RequestMix {
 public:
  RequestMix(std::uint64_t seed, std::uint64_t id_base) : rng_(seed), id_(id_base) {}

  Exchange next() {
    const HotKey& h = kHotPool[static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(std::size(kHotPool)) - 1))];
    const double u = rng_.uniform();
    JsonWriter w(0);
    w.begin_object();
    Exchange e;
    if (u < 0.45) {
      e.op = "solve_k";
      w.kv("op", "solve_k").kv("mtbf_hours", h.mtbf_hours);
      w.kv("delta_lw_s", h.delta_lw).kv("delta_hw_s", h.delta_hw);
    } else if (u < 0.50) {
      // A never-seen key: a fractional checkpoint cost no other request uses.
      e.op = "solve_k";
      w.kv("op", "solve_k").kv("mtbf_hours", h.mtbf_hours);
      w.kv("delta_lw_s", rng_.uniform(6.0, 120.0)).kv("delta_hw_s", h.delta_hw);
    } else if (u < 0.70) {
      e.op = "oci";
      w.kv("op", "oci").kv("mtbf_hours", h.mtbf_hours).kv("delta_s", h.delta_hw);
    } else if (u < 0.90) {
      e.op = "checkpoint_now";
      w.kv("op", "checkpoint_now").kv("mtbf_hours", h.mtbf_hours);
      w.kv("delta_s", h.delta_hw);
      w.kv("since_ckpt_s", static_cast<double>(rng_.uniform_int(0, 8)) * 900.0);
    } else {
      e.op = "pair_whatif";
      w.kv("op", "pair_whatif").kv("mtbf_hours", h.mtbf_hours);
      w.kv("t_total_hours", kWhatifHours);
      w.kv("delta_lw_s", h.delta_lw).kv("delta_hw_s", h.delta_hw);
      w.kv("k", static_cast<int>(rng_.uniform_int(16, 32)));
      w.kv("reps", std::uint64_t{2});
      w.kv("seed", static_cast<std::uint64_t>(rng_.uniform_int(1, 1000)));
    }
    w.kv("id", static_cast<double>(id_++));
    w.end_object();
    e.line = w.str();
    return e;
  }

  /// Poisson due times at `rate` over `seconds`, round-robin over the
  /// connections.
  std::vector<Exchange> schedule(double rate, double seconds) {
    std::vector<Exchange> out;
    for (double t = -std::log1p(-rng_.uniform()) / rate; t < seconds;
         t += -std::log1p(-rng_.uniform()) / rate) {
      Exchange e = next();
      e.conn = out.size() % kConnections;
      e.due = t;
      out.push_back(std::move(e));
    }
    return out;
  }

 private:
  Rng rng_;
  std::uint64_t id_;
};

int connect_unix(const std::string& path, bool nonblocking) {
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return -1;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  const int fd = ::socket(AF_UNIX, SOCK_STREAM | (nonblocking ? SOCK_NONBLOCK : 0), 0);
  if (fd < 0) return -1;
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 &&
      errno != EINPROGRESS && errno != EAGAIN) {
    ::close(fd);
    return -1;
  }
  return fd;
}

bool send_line(int fd, const std::string& line) {
  const std::string framed = line + "\n";
  std::size_t off = 0;
  while (off < framed.size()) {
    const ssize_t n = ::send(fd, framed.data() + off, framed.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      if (errno == EAGAIN) {
        pollfd p{fd, POLLOUT, 0};
        ::poll(&p, 1, 100);
        continue;
      }
      return false;
    }
    off += static_cast<std::size_t>(n);
  }
  return true;
}

/// Reads what is available on `fd` into `buf`; false on EOF or error.
bool drain_into(int fd, std::string& buf) {
  char chunk[8192];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof chunk, MSG_DONTWAIT);
    if (n > 0) {
      buf.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) return false;
    return errno == EAGAIN || errno == EINTR;
  }
}

std::optional<std::string> take_line(std::string& buf) {
  const std::size_t nl = buf.find('\n');
  if (nl == std::string::npos) return std::nullopt;
  std::string line = buf.substr(0, nl);
  buf.erase(0, nl + 1);
  return line;
}

/// FNV-1a: the replay check compares answers by hash, so a run need not
/// keep every response in memory.
std::uint64_t hash_line(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : s) h = (h ^ static_cast<unsigned char>(c)) * 0x100000001b3ULL;
  return h;
}

bool is_ok(const std::string& response) {
  return response.rfind("{\"ok\":true", 0) == 0;
}

struct Phase {
  std::vector<Exchange> ex;
  std::vector<Scrape> scrapes;
  double start = 0.0;  ///< absolute time of offset 0
  double end = 0.0;    ///< when the generator stopped
  double seconds = 0.0;
  std::size_t backlog_end = 0;  ///< due but unsent at start + seconds
  /// Closed loop only: a copy of the request mix as it stood at the start.
  /// Closed-loop exchanges drop their line once sent (memory stays flat
  /// whatever the throughput); the replay check regenerates them from this.
  std::optional<RequestMix> regen;
};

/// Drives one phase against the daemon and fills in every exchange. Open
/// loop: each exchange in `ex` is sent at its due time, or when its
/// connection frees up. Closed loop (`closed` non-null, `ex` empty): each
/// connection sends the mix's next request as soon as the previous answer
/// arrives, until `seconds` pass; latency runs from the send.
Phase run_phase(const std::string& sock, std::vector<Exchange> ex, double seconds,
                bool scrapes, RequestMix* closed = nullptr) {
  struct Conn {
    int fd = -1;
    std::deque<std::size_t> pending;
    std::deque<std::size_t> inflight;  ///< sent, unanswered, in send order
    double free_at = 0.0;
    std::string buf;

    Conn() = default;
    Conn(const Conn&) = delete;
    Conn& operator=(const Conn&) = delete;
    ~Conn() {
      if (fd >= 0) ::close(fd);
    }
  };
  Phase ph;
  ph.seconds = seconds;
  std::vector<Conn> conns(kConnections);
  for (std::size_t c = 0; c < kConnections; ++c) {
    // Blocking handshake: the first answer proves a worker owns the
    // connection before the clock starts.
    conns[c].fd = connect_unix(sock, false);
    if (conns[c].fd < 0 || !send_line(conns[c].fd, R"({"op":"oci","delta_s":60})")) {
      throw std::runtime_error("serve: cannot open a load connection");
    }
    std::string buf;
    std::optional<std::string> line;
    while (!(line = take_line(buf))) {
      char chunk[4096];
      const ssize_t n = ::recv(conns[c].fd, chunk, sizeof chunk, 0);
      if (n <= 0) throw std::runtime_error("serve: load connection closed");
      buf.append(chunk, static_cast<std::size_t>(n));
    }
  }
  for (std::size_t i = 0; i < ex.size(); ++i) conns[ex[i].conn].pending.push_back(i);

  ph.start = now_s() + 0.005;
  for (Exchange& e : ex) e.due += ph.start;
  const double send_until = closed != nullptr ? ph.start + seconds : kInf;
  const std::size_t depth = closed != nullptr ? kPipelineDepth : 1;
  const double last_due = ex.empty() ? ph.start : ex.back().due;
  const double stop_at = std::max(last_due, ph.start + seconds) + kDrain;
  bool backlog_taken = false;

  double next_scrape = ph.start + 0.5 * kScrapeEvery;
  int scrape_fd = -1;
  std::string scrape_buf;
  Scrape current;
  auto finish_scrape = [&](bool ok, double t) {
    current.end = t;
    current.ok = ok;
    ph.scrapes.push_back(current);
    if (scrape_fd >= 0) ::close(scrape_fd);
    scrape_fd = -1;
    scrape_buf.clear();
  };
  std::uint64_t scrape_id = 0;

  for (;;) {
    double now = now_s();
    if (!backlog_taken && now >= ph.start + seconds) {
      backlog_taken = true;
      for (const Conn& c : conns) {
        for (const std::size_t i : c.pending) ph.backlog_end += ex[i].due <= now;
      }
    }
    bool work_left = false;
    for (std::size_t ci = 0; ci < conns.size(); ++ci) {
      Conn& c = conns[ci];
      while (c.fd >= 0 && c.inflight.size() < depth && now < send_until) {
        if (closed != nullptr && c.pending.empty()) {
          ex.push_back(closed->next());
          ex.back().conn = ci;
          ex.back().due = now;
          c.pending.push_back(ex.size() - 1);
        }
        if (c.pending.empty() || ex[c.pending.front()].due > now) break;
        Exchange& e = ex[c.pending.front()];
        c.pending.pop_front();
        e.sent = now_s();
        if (closed != nullptr) e.due = e.sent;
        e.lag = e.sent - std::max(e.due, c.free_at);
        if (!send_line(c.fd, e.line)) {
          ::close(c.fd);
          c.fd = -1;
          break;
        }
        c.inflight.push_back(static_cast<std::size_t>(&e - ex.data()));
        if (closed != nullptr) std::string().swap(e.line);
      }
      work_left = work_left ||
                  (c.fd >= 0 && (!c.inflight.empty() || (!c.pending.empty() && now < send_until)));
    }
    if (scrapes && scrape_fd < 0 && now >= next_scrape &&
        next_scrape < ph.start + seconds) {
      next_scrape += kScrapeEvery;
      current = Scrape{now, 0.0, false};
      scrape_fd = connect_unix(sock, true);
      JsonWriter w(0);
      w.begin_object().kv("op", "metrics").kv("id", static_cast<double>(scrape_id++));
      w.end_object();
      if (scrape_fd < 0 || !send_line(scrape_fd, w.str())) finish_scrape(false, now);
    }
    if (scrape_fd >= 0 && now >= current.start + kScrapeDeadline) finish_scrape(false, now);
    const bool scrapes_left =
        scrapes && (scrape_fd >= 0 || next_scrape < ph.start + seconds);
    if ((!work_left && !scrapes_left) || now >= stop_at) break;

    double wake = stop_at;
    for (const Conn& c : conns) {
      if (c.fd >= 0 && c.inflight.size() < depth && !c.pending.empty()) {
        wake = std::min(wake, ex[c.pending.front()].due);
      }
    }
    if (scrapes && scrape_fd < 0) wake = std::min(wake, next_scrape);
    if (scrape_fd >= 0) wake = std::min(wake, current.start + kScrapeDeadline);
    if (!backlog_taken) wake = std::min(wake, ph.start + seconds);
    if (now < send_until) wake = std::min(wake, send_until);

    std::vector<pollfd> fds;
    std::vector<std::ptrdiff_t> owner;  // conn index, or -1 for the scrape
    for (std::size_t c = 0; c < conns.size(); ++c) {
      if (conns[c].fd >= 0 && !conns[c].inflight.empty()) {
        fds.push_back({conns[c].fd, POLLIN, 0});
        owner.push_back(static_cast<std::ptrdiff_t>(c));
      }
    }
    if (scrape_fd >= 0) {
      fds.push_back({scrape_fd, POLLIN, 0});
      owner.push_back(-1);
    }
    // Open loop: spin while a request is in flight or one falls due within
    // kSpin, so the generator's own wake-up latency stays out of the
    // latencies; sleep otherwise. The closed loop sleeps until an answer
    // frees a pipeline slot, leaving the processors to the daemon.
    bool in_flight = false;
    for (const Conn& c : conns) in_flight = in_flight || (c.fd >= 0 && !c.inflight.empty());
    const double wait = in_flight && closed == nullptr
                            ? 0.0
                            : std::max(0.0, wake - kSpin - now_s());
    timespec ts{static_cast<time_t>(wait),
                static_cast<long>((wait - std::floor(wait)) * 1e9)};
    const int n = ::ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n <= 0) continue;
    for (std::size_t f = 0; f < fds.size(); ++f) {
      if (fds[f].revents == 0) continue;
      if (owner[f] < 0) {
        const bool open = drain_into(scrape_fd, scrape_buf);
        if (const auto line = take_line(scrape_buf)) {
          finish_scrape(is_ok(*line), now_s());
        } else if (!open) {
          finish_scrape(false, now_s());
        }
        continue;
      }
      Conn& c = conns[static_cast<std::size_t>(owner[f])];
      const bool open = drain_into(c.fd, c.buf);
      while (!c.inflight.empty()) {
        const auto line = take_line(c.buf);
        if (!line) break;
        Exchange& e = ex[c.inflight.front()];
        e.done = now_s();
        e.ok = is_ok(*line);
        e.response_hash = hash_line(*line);
        c.free_at = e.done;
        c.inflight.pop_front();
      }
      if (!open) {
        ::close(c.fd);
        c.fd = -1;
      }
    }
  }
  ph.end = now_s();
  if (scrape_fd >= 0) finish_scrape(false, ph.end);
  ph.ex = std::move(ex);
  return ph;
}

std::vector<OpenLoopRequest> requests_of(const Phase& ph) {
  std::vector<OpenLoopRequest> out;
  out.reserve(ph.ex.size());
  for (const Exchange& e : ph.ex) out.push_back({e.due, e.sent, e.done, e.ok});
  return out;
}

/// Records a finished phase as spans: the window, one request span per
/// exchange (queue and round trip as its children) and one per scrape.
std::uint32_t record_phase(SpanRecorder* rec, const char* name, const Phase& ph,
                           std::int64_t rid_base) {
  const std::uint32_t root = rec->add(name, ph.start, ph.end, 0);
  for (std::size_t i = 0; i < ph.ex.size(); ++i) {
    const Exchange& e = ph.ex[i];
    const std::int64_t rid = rid_base + static_cast<std::int64_t>(i);
    const auto track = static_cast<std::uint32_t>(e.conn + 1);
    const double sent = e.sent >= 0.0 ? e.sent : ph.end;
    const double done = e.done >= 0.0 ? e.done : ph.end;
    const std::uint32_t req = rec->add("serve.request", e.due, done, root, rid, track);
    rec->add("serve.queue", e.due, sent, req, rid, track);
    if (e.sent >= 0.0) rec->add("serve.roundtrip", sent, done, req, rid, track);
  }
  for (std::size_t i = 0; i < ph.scrapes.size(); ++i) {
    rec->add("serve.scrape", ph.scrapes[i].start, ph.scrapes[i].end, root,
             rid_base + 1'000'000'000 + static_cast<std::int64_t>(i),
             static_cast<std::uint32_t>(kConnections + 1));
  }
  return root;
}

struct ServeFixture {
  std::string sock;
  std::unique_ptr<serve::Server> server;

  ServeFixture(const Options& opt)
      : sock(opt.out_dir + "/perfbench-" + std::to_string(::getpid()) + ".sock") {
    serve::ServerConfig cfg;
    cfg.socket_path = sock;
    cfg.threads = kServerThreads;
    server = std::make_unique<serve::Server>(std::move(cfg));
    server->serve_async();
    if (!serve::wait_for_server(sock)) throw std::runtime_error("serve: daemon did not start");
    // Fill the cache with the hot pool before timing, for solve_k and for
    // pair_whatif's model comparison: a daemon in service has seen its
    // regular keys.
    serve::Client warm(sock);
    for (const HotKey& h : kHotPool) {
      for (const double t_total_hours : {1000.0, kWhatifHours}) {
        JsonWriter w(0);
        w.begin_object().kv("op", "solve_k").kv("mtbf_hours", h.mtbf_hours);
        w.kv("t_total_hours", t_total_hours);
        w.kv("delta_lw_s", h.delta_lw).kv("delta_hw_s", h.delta_hw).end_object();
        warm.request(w.str());
      }
    }
  }
};

/// Replays every answered exchange through a fresh in-process Service:
/// responses must match byte for byte. Times parse_request and handle on
/// the same lines.
struct Replay {
  std::vector<double> parse_us;
  std::map<std::string, std::vector<double>> handle_us;
  std::vector<double> socket_us;
  std::size_t compared = 0;
  std::size_t divergent = 0;
};

/// Two threads share the fresh Service: its answers are pure functions of
/// the request, so the order they run in does not matter.
Replay replay_check(const std::vector<std::unique_ptr<Phase>>& phases) {
  constexpr std::size_t kThreads = 2;
  serve::Service direct;
  std::vector<Replay> part(kThreads);
  for (const auto& ph : phases) {
    std::vector<std::string> lines;
    lines.reserve(ph->ex.size());
    for (const Exchange& e : ph->ex) lines.push_back(ph->regen ? ph->regen->next().line : e.line);
    auto work = [&](std::size_t w) {
      Replay& r = part[w];
      for (std::size_t i = w; i < ph->ex.size(); i += kThreads) {
        const Exchange& e = ph->ex[i];
        if (e.done < 0.0) continue;
        double t0 = now_s();
        try {
          serve::parse_request(lines[i]);
        } catch (const std::exception&) {
        }
        r.parse_us.push_back((now_s() - t0) * 1e6);
        t0 = now_s();
        const std::string expected = direct.handle(lines[i]);
        const double handle = now_s() - t0;
        r.handle_us[e.op].push_back(handle * 1e6);
        // A pipelined answer also waits behind the ones ahead of it.
        if (!ph->regen) r.socket_us.push_back((e.done - e.sent - handle) * 1e6);
        ++r.compared;
        if (hash_line(expected) != e.response_hash && r.divergent++ == 0) {
          std::printf("DIVERGENCE: daemon response differs from library\n"
                      "  request: %s\n  library: %s\n",
                      lines[i].c_str(), expected.c_str());
        }
      }
    };
    std::thread helper(work, 1);
    work(0);
    helper.join();
  }
  Replay r = std::move(part[0]);
  for (std::size_t w = 1; w < kThreads; ++w) {
    const Replay& p = part[w];
    r.parse_us.insert(r.parse_us.end(), p.parse_us.begin(), p.parse_us.end());
    for (const auto& [op, v] : p.handle_us) {
      r.handle_us[op].insert(r.handle_us[op].end(), v.begin(), v.end());
    }
    r.socket_us.insert(r.socket_us.end(), p.socket_us.begin(), p.socket_us.end());
    r.compared += p.compared;
    r.divergent += p.divergent;
  }
  return r;
}

core::SolverCacheKey solve_key(const std::string& line) {
  const serve::Request req = serve::parse_request(line);
  const auto& r = std::get<serve::SolveKRequest>(req.op);
  core::SolverCacheKey key;
  key.mtbf = hours(r.model.mtbf_hours);
  key.weibull_shape = r.model.beta;
  key.epsilon = r.model.epsilon;
  key.t_total = hours(r.model.t_total_hours);
  key.oci_formula = r.model.formula;
  key.delta_lw = r.delta_lw_s;
  key.delta_hw = r.delta_hw_s;
  key.hw_stretch = r.stretch;
  return key;
}

/// Median over half-second buckets of answers within the limit per second:
/// a host stall of a few hundred milliseconds moves one bucket, not the
/// result.
double median_goodput(const Phase& ph, double limit_s) {
  constexpr double kBucket = 0.5;
  std::vector<double> per(static_cast<std::size_t>(ph.seconds / kBucket), 0.0);
  for (const Exchange& e : ph.ex) {
    if (!e.ok || e.done < 0.0 || e.done - e.due > limit_s) continue;
    const auto b = static_cast<std::size_t>((e.done - ph.start) / kBucket);
    if (b < per.size()) per[b] += 1.0 / kBucket;
  }
  return median(per);
}

void print_phase(const char* label, const OpenLoopSummary& s, const Phase& ph) {
  std::size_t scrape_failed = 0;
  for (const Scrape& sc : ph.scrapes) scrape_failed += !sc.ok;
  std::printf("serve %s: %zu requests due in %.1f s, %zu failed, goodput %.1f/s; "
              "p50 %.4f ms (n=%zu, %zu beyond), p99 %s%.4f ms (n=%zu, %zu beyond); "
              "scrapes %zu, failed %zu\n",
              label, s.attempted, ph.seconds, s.failed, s.goodput_rps,
              s.p50.value * 1e3, s.p50.samples, s.p50.beyond,
              s.p99.reportable ? "" : "(too few samples) ", s.p99.value * 1e3,
              s.p99.samples, s.p99.beyond, ph.scrapes.size(), scrape_failed);
}

}  // namespace

Outcome run_serve(const Options& opt, SpanRecorder* rec) {
  Outcome out;
  const double limit_s = opt.p99_limit_ms * 1e-3;
  std::vector<double> setup_times;
  std::unique_ptr<ServeFixture> fx;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    fx.reset();
    const double t0 = now_s();
    fx = std::make_unique<ServeFixture>(opt);
    setup_times.push_back(now_s() - t0);
  }

  std::vector<std::unique_ptr<Phase>> phases;
  // rate > 0: open loop at that rate; rate == 0: closed loop.
  auto run = [&](const char* label, std::uint64_t stream, double rate, double seconds,
                 bool scrapes) -> std::pair<const Phase*, OpenLoopSummary> {
    RequestMix mix(Rng(opt.seed).fork(stream).seed(), stream << 32);
    const RequestMix start = mix;
    phases.push_back(std::make_unique<Phase>(
        rate > 0.0 ? run_phase(fx->sock, mix.schedule(rate, seconds), seconds, scrapes)
                   : run_phase(fx->sock, {}, seconds, scrapes, &mix)));
    if (rate <= 0.0) phases.back()->regen.emplace(start);
    const Phase& ph = *phases.back();
    const OpenLoopSummary s = summarize_open_loop(requests_of(ph), limit_s, seconds);
    if (label != nullptr) print_phase(label, s, ph);
    out.attempted += s.attempted + ph.scrapes.size();
    out.failed += s.failed;
    for (const Scrape& sc : ph.scrapes) out.failed += !sc.ok;
    return {&ph, s};
  };

  // Open loop at the fixed rate, with scrapes. Its goodput, the answers
  // within the limit per second, is the end-to-end rate. A traced run
  // repeats it untraced first (the overhead baseline), then measures the
  // closed-loop capacity and the ladder.
  const double fixed_s = opt.seconds * (rec == nullptr ? 1.0 : kTracedFixedShare);
  const auto [plain, ps] =
      rec == nullptr ? std::pair<const Phase*, OpenLoopSummary>{}
                     : run("fixed rate, untraced", 1, kRate, opt.seconds * kTracedPlainShare, true);
  const serve::ServiceCounters c0 = fx->server->service().counters();
  const core::SolverCache::Stats k0 = fx->server->service().cache()->stats();
  const auto [fixed, fs] = run("fixed rate", 2, kRate, fixed_s, true);
  const serve::ServiceCounters c1 = fx->server->service().counters();
  const core::SolverCache::Stats k1 = fx->server->service().cache()->stats();

  if (rec == nullptr) {
    out.add("setup_s", median(setup_times), "s");
    out.add("work_per_s", fs.goodput_rps, "1/s");
    out.add("peak_rss_mb", peak_rss_mb(), "MB");
  } else {
    out.window_span = record_phase(rec, "serve.window", *fixed, 0);
    const double overhead = ps.goodput_rps / fs.goodput_rps;
    std::printf("serve: tracing overhead %.4f (untraced / traced goodput)\n", overhead);

    // Capacity: both connections' pipelines full. It reaches its steady
    // rate only after a second or so of load; the warm-up absorbs that.
    run("closed loop, warm-up", 3, 0.0, kWarmup, false);
    const double capacity_s = opt.seconds * kCapacityShare;
    const auto [sat, ss] = run("closed loop", 4, 0.0, capacity_s, false);
    const double capacity = median_goodput(*sat, limit_s);
    std::printf("serve closed loop: median goodput %.1f/s over half-second buckets\n",
                capacity);

    std::size_t scrape_failed = 0;
    for (const Phase* ph : {plain, fixed}) {
      for (const Scrape& sc : ph->scrapes) scrape_failed += !sc.ok;
    }
    std::vector<double> lag;
    for (const Exchange& e : fixed->ex) {
      if (e.sent >= 0.0) lag.push_back(e.lag);
    }

    // Ladder: the highest offered rate meeting the limit with no growing
    // backlog, each step long enough for its p99 to be reportable.
    double max_rps = 0.0;
    const double ladder_s = opt.seconds * (1.0 - kTracedPlainShare - kTracedFixedShare -
                                           kCapacityShare) - kWarmup;
    double spent = 0.0;
    for (std::size_t step = 0; step < std::size(kLadder); ++step) {
      const double rate = kRate * kLadder[step];
      const double secs = std::max(kLadderStepMin, 1200.0 / rate);
      if (step > 0 && spent + secs > ladder_s) {
        std::printf("serve ladder: out of time after %.0f/s\n", kRate * kLadder[step - 1]);
        break;
      }
      spent += secs;
      const auto [ph, s] = run(nullptr, 100 + step, rate, secs, false);
      const bool meets = s.p99.reportable && s.p99.value <= limit_s && s.failed == 0 &&
                         ph->backlog_end <= 2 * kConnections;
      std::printf("serve ladder %.0f/s: %zu requests, p99 %.4f ms (n=%zu, %zu beyond), "
                  "failed %zu, backlog %zu -> %s\n",
                  rate, s.attempted, s.p99.value * 1e3, s.p99.samples, s.p99.beyond,
                  s.failed, ph->backlog_end, meets ? "meets" : "misses");
      if (!meets) break;
      max_rps = rate;
    }

    // Solver: cold and warm SolverCache::solve on the fixed phase's keys.
    core::SolverCache cache;
    std::vector<double> cold, warm;
    std::map<core::SolverCacheKey, bool> seen;
    for (const Exchange& e : fixed->ex) {
      if (std::strcmp(e.op, "solve_k") != 0) continue;
      const core::SolverCacheKey key = solve_key(e.line);
      if (!seen.emplace(key, true).second) continue;
      double t0 = now_s();
      cache.solve(key);
      cold.push_back((now_s() - t0) * 1e3);
      t0 = now_s();
      cache.solve(key);
      warm.push_back((now_s() - t0) * 1e6);
    }

    out.add("serve.p50_ms", fs.p50.value * 1e3, "ms");
    out.add("serve.p99_ms", fs.p99.value * 1e3, "ms");
    out.add("serve.max_rps", max_rps, "1/s");
    out.add("serve.capacity_rps", capacity, "1/s");
    out.add("serve.queue_ms", fs.queue_p99.value * 1e3, "ms");
    out.add("serve.generator_lag_ms", percentile(lag, 0.99).value * 1e3, "ms");
    out.add("serve.scrape_failed", static_cast<double>(scrape_failed), "count");
    out.add("core.solve_cold_ms", median(cold), "ms");
    out.add("core.solve_warm_us", median(warm), "us");
    const double lookups = static_cast<double>(k1.lookups() - k0.lookups());
    out.add("core.cache_hit_ratio",
            lookups > 0 ? static_cast<double>(k1.hits - k0.hits) / lookups : 0.0, "ratio");
    out.add("obs.audited_reps", static_cast<double>(c1.audited_reps - c0.audited_reps),
            "count");
    out.add("trace_overhead", overhead, "ratio");
    const std::vector<SelfTime> table = self_times(rec->spans(), out.window_span);
    out.add("serve.residual_s", table.front().self_s, "s");
  }

  const double replay_t0 = now_s();
  const Replay r = replay_check(phases);
  const double replay_s = now_s() - replay_t0;
  out.attempted += r.compared;
  out.failed += r.divergent;
  if (r.divergent != 0) out.correct = false;
  std::printf("serve check: %zu socket responses compared with a fresh "
              "serve::Service in %.2f s, %zu divergent\n", r.compared, replay_s, r.divergent);
  if (rec != nullptr) {
    out.add("serve.parse_us", median(r.parse_us), "us");
    for (const auto& [op, v] : r.handle_us) out.add("serve.handle_us." + op, median(v), "us");
    out.add("serve.socket_us", median(r.socket_us), "us");
  }
  return out;
}

}  // namespace perfbench
