#include "sim/trace.h"

#include <sys/mman.h>

#include <algorithm>
#include <new>

#include "obs/metrics.h"

namespace shiraz::sim {

namespace {
EngineConfig horizon_config(Seconds horizon) {
  EngineConfig config;
  config.t_total = horizon;
  return config;
}

/// Samples one repetition into the calling thread's reused buffer.
const std::vector<Seconds>& scratch_gaps(const FailureProcess& process, Rng& rng,
                                         Seconds horizon) {
  thread_local std::vector<Seconds> scratch;
  scratch.clear();
  process(rng, horizon, scratch);
  return scratch;
}

/// Size of one TraceStore chunk: hundreds of fig10 traces, and only the
/// pages a store fills become resident.
constexpr std::size_t kChunkBytes = std::size_t{1} << 20;
}  // namespace

FailureTrace::FailureTrace(std::pmr::vector<Seconds> gaps, Seconds horizon)
    : fail_times_(std::move(gaps)), horizon_(horizon) {
  SHIRAZ_REQUIRE(horizon_ > 0.0, "trace horizon must be positive");
  SHIRAZ_REQUIRE(!fail_times_.empty(), "trace needs at least one gap");
  Seconds t = 0.0;
  for (Seconds& f : fail_times_) {
    t += f;
    f = t;
  }
  // The running sum crosses the horizon at the last gap and not before.
  if (fail_times_.size() >= 2) {
    SHIRAZ_REQUIRE(fail_times_[fail_times_.size() - 2] < horizon_,
                   "trace has draws past the horizon");
  }
  SHIRAZ_REQUIRE(fail_times_.back() >= horizon_,
                 "trace stops short of the horizon");
}

FailureTrace FailureTrace::sample(const FailureProcess& process, Rng& rng,
                                  Seconds horizon) {
  const std::vector<Seconds>& gaps = scratch_gaps(process, rng, horizon);
  return FailureTrace(std::pmr::vector<Seconds>(gaps.begin(), gaps.end()), horizon);
}

TraceStore::Chunks::~Chunks() {
  for (const auto& [base, length] : mapped_) munmap(base, length);
}

void* TraceStore::Chunks::do_allocate(std::size_t bytes, std::size_t align) {
  std::size_t at = (used_ + align - 1) / align * align;
  if (mapped_.empty() || at + bytes > mapped_.back().second) {
    const std::size_t length = std::max(bytes, kChunkBytes);
    void* base = mmap(nullptr, length, PROT_READ | PROT_WRITE,
                      MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base == MAP_FAILED) throw std::bad_alloc();
    mapped_.emplace_back(static_cast<std::byte*>(base), length);
    at = 0;
  }
  used_ = at + bytes;
  return mapped_.back().first + at;
}

TraceStore::TraceStore(const Engine& engine, std::uint64_t seed)
    : TraceStore(engine, seed, engine.config().t_total) {}

TraceStore::TraceStore(const Engine& engine, std::uint64_t seed, Seconds horizon)
    : process_(engine.failure_process()), master_(seed), horizon_(horizon) {
  SHIRAZ_REQUIRE(horizon_ > 0.0, "trace horizon must be positive");
}

TraceStore::TraceStore(const reliability::FailureRegime& regime,
                       std::uint64_t seed, Seconds horizon)
    : TraceStore(Engine(regime, horizon_config(horizon)), seed, horizon) {}

void TraceStore::set_metrics(obs::MetricsRegistry* registry) {
  if (registry == nullptr) {
    traces_metric_ = gaps_metric_ = hits_metric_ = nullptr;
    resident_metric_ = nullptr;
    return;
  }
  traces_metric_ = &registry->counter("shiraz_trace_traces_materialized_total",
                                      "failure traces materialized");
  gaps_metric_ = &registry->counter("shiraz_trace_gaps_materialized_total",
                                    "inter-failure gaps materialized");
  hits_metric_ = &registry->counter("shiraz_trace_replay_hits_total",
                                    "trace lookups served from the cache");
  resident_metric_ = &registry->gauge("shiraz_trace_resident_bytes",
                                      "bytes held by materialized traces");
}

void TraceStore::note_materialized(const FailureTrace& trace) const {
  if (traces_metric_ == nullptr) return;
  traces_metric_->add(1);
  gaps_metric_->add(trace.size());
  // Each trace holds one exact-size array: its failure times.
  resident_metric_->add(static_cast<double>(sizeof(Seconds) * trace.size()));
}

void TraceStore::ensure(std::size_t reps) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (traces_.size() < reps) traces_.resize(reps);
}

const FailureTrace& TraceStore::trace(std::size_t rep) const {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    if (traces_.size() <= rep) traces_.resize(rep + 1);
    if (traces_[rep]) {
      if (hits_metric_ != nullptr) hits_metric_->add(1);
      return *traces_[rep];
    }
  }
  // Sampled off the lock, on the stream campaigns assign to repetition `rep`
  // (see Engine::run_campaign). Threads racing on one repetition draw the
  // same doubles; the first to publish wins, and a loser's call counts as a
  // hit, so the counters match a serial fill.
  Rng rng = master_.fork(rep);
  const std::vector<Seconds>& gaps = scratch_gaps(process_, rng, horizon_);
  const std::lock_guard<std::mutex> lock(mu_);
  std::optional<FailureTrace>& slot = traces_[rep];
  if (!slot) {
    slot.emplace(std::pmr::vector<Seconds>(gaps.begin(), gaps.end(), &chunks_),
                 horizon_);
    note_materialized(*slot);
  } else if (hits_metric_ != nullptr) {
    hits_metric_->add(1);
  }
  return *slot;
}

std::size_t TraceStore::materialized() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const std::optional<FailureTrace>& t : traces_) {
    if (t) ++n;
  }
  return n;
}

std::size_t TraceStore::total_gaps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const std::optional<FailureTrace>& t : traces_) {
    if (t) n += t->size();
  }
  return n;
}

}  // namespace shiraz::sim
