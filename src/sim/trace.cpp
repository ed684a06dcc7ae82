#include "sim/trace.h"

#include "obs/metrics.h"

namespace shiraz::sim {

namespace {
EngineConfig horizon_config(Seconds horizon) {
  EngineConfig config;
  config.t_total = horizon;
  return config;
}
}  // namespace

FailureTrace::FailureTrace(std::vector<Seconds> gaps, Seconds horizon)
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
  std::vector<Seconds> gaps;
  process(rng, horizon, gaps);
  return FailureTrace(std::move(gaps), horizon);
}

TraceStore::TraceStore(const Engine& engine, std::uint64_t seed)
    : TraceStore(engine, seed, engine.config().t_total) {}

TraceStore::TraceStore(const Engine& engine, std::uint64_t seed, Seconds horizon)
    : process_(engine.failure_process()), seed_(seed), horizon_(horizon) {
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
  for (std::size_t r = 0; r < reps; ++r) {
    if (!traces_[r]) {
      traces_[r] = materialize(r);
      note_materialized(*traces_[r]);
    }
  }
}

const FailureTrace& TraceStore::trace(std::size_t rep) const {
  const std::lock_guard<std::mutex> lock(mu_);
  if (traces_.size() <= rep) traces_.resize(rep + 1);
  if (!traces_[rep]) {
    traces_[rep] = materialize(rep);
    note_materialized(*traces_[rep]);
  } else if (hits_metric_ != nullptr) {
    hits_metric_->add(1);
  }
  return *traces_[rep];
}

std::size_t TraceStore::materialized() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const std::unique_ptr<FailureTrace>& t : traces_) {
    if (t) ++n;
  }
  return n;
}

std::size_t TraceStore::total_gaps() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::size_t n = 0;
  for (const std::unique_ptr<FailureTrace>& t : traces_) {
    if (t) n += t->size();
  }
  return n;
}

std::unique_ptr<FailureTrace> TraceStore::materialize(std::size_t rep) const {
  // The stream campaigns assign to repetition `rep` (see Engine::run_campaign).
  Rng rng = Rng(seed_).fork(rep);
  // The process appends into the reused scratch buffer, so its growth slack
  // stays there; the resident trace gets one allocation of exactly its size.
  scratch_.clear();
  process_(rng, horizon_, scratch_);
  return std::make_unique<FailureTrace>(
      std::vector<Seconds>(scratch_.begin(), scratch_.end()), horizon_);
}

}  // namespace shiraz::sim
