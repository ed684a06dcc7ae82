#include "obs/audit.h"

#include <cmath>
#include <limits>
#include <sstream>

namespace shiraz::obs {

namespace {

/// `source` names where `got` comes from ("from events" for a stream sum).
[[noreturn]] void fail(const std::string& quantity, double got, double want,
                       const char* source = "from events") {
  std::ostringstream os;
  os.precision(std::numeric_limits<double>::max_digits10);
  os << "event stream diverges from reported result: " << quantity
     << " = " << got << " " << source << ", " << want << " reported";
  throw AuditError(os.str());
}

[[noreturn]] void fail_count(const std::string& quantity, std::size_t got,
                             std::size_t want) {
  std::ostringstream os;
  os << "event stream diverges from reported result: " << quantity << " = "
     << got << " from events, " << want << " reported";
  throw AuditError(os.str());
}

}  // namespace

InvariantAuditor::AppTotals& InvariantAuditor::app(std::int32_t index) {
  SHIRAZ_REQUIRE(index >= 0, "event kind requires an application index");
  const auto i = static_cast<std::size_t>(index);
  if (i >= apps_.size()) apps_.resize(i + 1);
  return apps_[i];
}

void InvariantAuditor::on_event(const Event& e) {
  ++events_seen_;
  switch (e.kind) {
    case EventKind::kFailure:
      ++failures_;
      if (e.app != kNoApp) ++app(e.app).failures_hit;
      break;
    case EventKind::kRestart:
      app(e.app).restart += e.duration;
      break;
    case EventKind::kCheckpointBegin:
      ++checkpoint_begins_;
      break;
    case EventKind::kCheckpointCommit: {
      AppTotals& a = app(e.app);
      a.useful += e.value;
      a.io += e.duration;
      ++a.checkpoints;
      break;
    }
    case EventKind::kSegmentWiped:
      app(e.app).lost += e.duration;
      break;
    case EventKind::kProactiveCheckpoint: {
      AppTotals& a = app(e.app);
      a.useful += e.value;
      a.io += e.duration;
      ++a.proactive_checkpoints;
      break;
    }
    case EventKind::kAppSwitch:
      ++switches_;
      app(e.app).restart += e.duration;
      break;
    case EventKind::kAlarmDelivered:
      ++alarms_delivered_;
      break;
    case EventKind::kAlarmExpired:
      break;
    case EventKind::kHorizonTruncated:
      truncated_ += e.duration;
      break;
  }
}

void InvariantAuditor::verify(const ExpectedTotals& expected) const {
  SHIRAZ_REQUIRE(expected.wall > 0.0, "expected totals need a positive wall");
  // The stream may legitimately never mention a trailing app that saw no
  // events, so only require that it names no app beyond the layout.
  if (apps_.size() > expected.apps.size()) {
    fail_count("application count", apps_.size(), expected.apps.size());
  }

  // Rounding bound on every time sum. All time terms are non-negative and
  // tile `wall`, so each floating-point operation behind a sum (advancing
  // the clock, differencing two instants, adding a term to an accumulator)
  // errs by at most eps/2 * wall. An event stands for at most four of them
  // (a commit: two clock advances, two accumulator additions) plus two for
  // an idle stretch before it (idle emits no event, and every idle stretch
  // but the last ends at an event); the tiling sums below add four per app
  // and two more. So n = 6 * (events + 1) + 4 * apps + 2 operations drift
  // by at most n * eps/2 * wall, and n * eps * wall keeps a factor of two.
  const double n = 6.0 * static_cast<double>(events_seen_ + 1) +
                   4.0 * static_cast<double>(expected.apps.size()) + 2.0;
  const double tolerance =
      n * std::numeric_limits<double>::epsilon() * expected.wall;
  const auto near = [&](double a, double b) {
    return std::abs(a - b) <= tolerance;
  };

  double busy = 0.0;
  std::size_t proactive_total = 0;
  for (std::size_t i = 0; i < expected.apps.size(); ++i) {
    const ExpectedTotals::App& want = expected.apps[i];
    const AppTotals got = i < apps_.size() ? apps_[i] : AppTotals{};
    const std::string tag = "app " + std::to_string(i) + " ";
    if (!near(got.useful, want.useful)) fail(tag + "useful", got.useful, want.useful);
    if (!near(got.io, want.io)) fail(tag + "io", got.io, want.io);
    if (!near(got.lost, want.lost)) fail(tag + "lost", got.lost, want.lost);
    if (!near(got.restart, want.restart)) {
      fail(tag + "restart", got.restart, want.restart);
    }
    if (got.checkpoints != want.checkpoints) {
      fail_count(tag + "checkpoints", got.checkpoints, want.checkpoints);
    }
    if (got.proactive_checkpoints != want.proactive_checkpoints) {
      fail_count(tag + "proactive checkpoints", got.proactive_checkpoints,
                 want.proactive_checkpoints);
    }
    if (got.failures_hit != want.failures_hit) {
      fail_count(tag + "failures hit", got.failures_hit, want.failures_hit);
    }
    busy += want.useful + want.io + want.lost + want.restart;
    proactive_total += got.proactive_checkpoints;
  }

  if (failures_ != expected.failures) {
    fail_count("failures", failures_, expected.failures);
  }
  if (switches_ != expected.switches) {
    fail_count("switches", switches_, expected.switches);
  }
  if (alarms_delivered_ != expected.alarms) {
    fail_count("alarms delivered", alarms_delivered_, expected.alarms);
  }
  if (proactive_total != expected.proactive_checkpoints) {
    fail_count("proactive checkpoints (total)", proactive_total,
               expected.proactive_checkpoints);
  }
  if (!near(truncated_, expected.truncated)) {
    fail("truncated", truncated_, expected.truncated);
  }

  // Every scheduled commit was preceded by exactly one write start; wiped
  // writes leave extra begins, so begins can only exceed commits.
  std::size_t commits = 0;
  for (const AppTotals& a : apps_) commits += a.checkpoints;
  if (checkpoint_begins_ < commits) {
    fail_count("checkpoint begins", checkpoint_begins_, commits);
  }

  // The reported decomposition must tile the horizon: busy + idle + truncated
  // == wall — the accounted() invariant, recomputed from first principles —
  // and the event-derived busy time implies the same idle the run reported.
  const double accounted = busy + expected.idle + expected.truncated;
  if (!near(accounted, expected.wall)) {
    fail("accounted horizon", accounted, expected.wall, "from reported totals");
  }
  double busy_events = 0.0;
  for (const AppTotals& a : apps_) {
    busy_events += a.useful + a.io + a.lost + a.restart;
  }
  const double idle_events = expected.wall - busy_events - truncated_;
  if (!near(idle_events, expected.idle)) {
    fail("idle", idle_events, expected.idle);
  }
}

void InvariantAuditor::clear() {
  apps_.clear();
  truncated_ = 0.0;
  failures_ = switches_ = alarms_delivered_ = checkpoint_begins_ = 0;
  events_seen_ = 0;
}

}  // namespace shiraz::obs
