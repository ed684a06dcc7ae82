// Invariant auditing: replay an event stream against the run's reported
// aggregates.
//
// The simulator's SimResult is a sum over thousands of per-event
// contributions; the InvariantAuditor recomputes every headline aggregate
// (useful/io/lost/restart per app, idle, truncation, failure / checkpoint /
// switch / alarm counts, accounted() == wall) independently from the event
// stream and throws AuditError on any divergence. Arming it as the engine's
// sink turns any traced test into an accounting audit: a bug that, say,
// double-charges a wiped segment now fails loudly instead of nudging a mean.
//
// The auditor expects the events of ONE run (rep ids are ignored); call
// clear() between runs when looping repetitions. The SimResult-facing
// convenience wrapper lives in obs/audit_sim.h so this module stays below
// sim in the dependency order.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.h"
#include "obs/event.h"

namespace shiraz::obs {

/// The event stream disagrees with the reported aggregates (or is internally
/// inconsistent). The message names the first diverging quantity.
class AuditError : public Error {
 public:
  explicit AuditError(const std::string& what) : Error(what) {}
};

/// The aggregates a run reported, in plain values so the auditor does not
/// depend on sim::SimResult (see obs/audit_sim.h for the bridge).
struct ExpectedTotals {
  struct App {
    double useful = 0.0;
    double io = 0.0;
    double lost = 0.0;
    double restart = 0.0;
    std::size_t checkpoints = 0;
    std::size_t proactive_checkpoints = 0;
    std::size_t failures_hit = 0;
  };
  std::vector<App> apps;
  double wall = 0.0;
  double idle = 0.0;
  double truncated = 0.0;
  std::size_t failures = 0;
  std::size_t switches = 0;
  std::size_t alarms = 0;
  std::size_t proactive_checkpoints = 0;
};

class InvariantAuditor final : public EventSink {
 public:
  void on_event(const Event& event) override;

  /// Throws AuditError unless every aggregate recomputed from the stream
  /// matches `expected` (counts exactly; time sums within the rounding
  /// bound of the run, which grows with its event count and its wall) and
  /// the expected decomposition itself satisfies accounted() == wall.
  void verify(const ExpectedTotals& expected) const;

  /// Forgets the recorded stream so the auditor can audit the next run.
  void clear();

  std::size_t events_seen() const { return events_seen_; }

 private:
  struct AppTotals {
    double useful = 0.0;
    double io = 0.0;
    double lost = 0.0;
    double restart = 0.0;
    std::size_t checkpoints = 0;
    std::size_t proactive_checkpoints = 0;
    std::size_t failures_hit = 0;
  };

  AppTotals& app(std::int32_t index);

  std::vector<AppTotals> apps_;
  double truncated_ = 0.0;
  std::size_t failures_ = 0;
  std::size_t switches_ = 0;
  std::size_t alarms_delivered_ = 0;
  std::size_t checkpoint_begins_ = 0;
  std::size_t events_seen_ = 0;
};

}  // namespace shiraz::obs
