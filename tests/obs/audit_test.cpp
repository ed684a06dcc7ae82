// InvariantAuditor: every headline aggregate recomputed from the event
// stream must match the engine's reported SimResult — across policies,
// restart/switch costs, and alarm-driven proactive checkpointing — and a
// corrupted stream must be detected, not silently absorbed.
#include <cstdint>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "obs/audit.h"
#include "obs/audit_sim.h"
#include "obs/event.h"
#include "predict/oracle.h"
#include "predict/policies.h"
#include "reliability/weibull.h"
#include "sim/engine.h"

namespace shiraz::obs {
namespace {

constexpr std::uint64_t kSeed = 20180666;
constexpr double kMtbfHours = 5.0;

struct TracedRun {
  sim::SimResult result;
  std::vector<Event> events;
};

/// One traced Shiraz-pair run under the given engine config; predictive=true
/// swaps in the alarm-aware policy plus an oracle predictor so the stream
/// contains alarm and proactive-checkpoint events.
TracedRun traced_run(sim::EngineConfig cfg, bool predictive = false) {
  const Seconds mtbf = hours(kMtbfHours);
  EventRecorder recorder;
  cfg.sink = &recorder;
  const sim::Engine engine(reliability::Weibull::from_mtbf(0.6, mtbf), cfg);
  const std::vector<sim::SimJob> jobs{sim::SimJob::at_oci("lw", 18.0, mtbf),
                                      sim::SimJob::at_oci("hw", 1800.0, mtbf)};
  Rng rng = Rng(kSeed).fork(0);
  TracedRun run;
  if (predictive) {
    predict::OracleConfig ocfg;
    ocfg.precision = 0.9;
    ocfg.recall = 0.8;
    ocfg.lead = minutes(10.0);
    ocfg.mtbf = mtbf;
    const predict::OraclePredictor oracle(ocfg);
    const predict::PredictiveShirazScheduler policy(26);
    run.result = engine.run(jobs, policy, rng, &oracle);
  } else {
    const sim::ShirazPairScheduler policy(26);
    run.result = engine.run(jobs, policy, rng);
  }
  run.events = recorder.events();
  return run;
}

void audit(const std::vector<Event>& events, const sim::SimResult& result) {
  InvariantAuditor auditor;
  for (const Event& e : events) auditor.on_event(e);
  verify_against(auditor, result);
}

TEST(InvariantAudit, PassesOnPlainRun) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const TracedRun run = traced_run(cfg);
  ASSERT_FALSE(run.events.empty());
  EXPECT_NO_THROW(audit(run.events, run.result));
}

TEST(InvariantAudit, PassesWithRestartAndSwitchCosts) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  cfg.restart_cost = 120.0;
  cfg.switch_cost = 30.0;
  const TracedRun run = traced_run(cfg);
  EXPECT_NO_THROW(audit(run.events, run.result));
}

TEST(InvariantAudit, PassesOnPredictiveRunWithAlarmsAndProactiveWrites) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const TracedRun run = traced_run(cfg, /*predictive=*/true);
  EXPECT_GT(run.result.alarms, 0u) << "scenario must actually deliver alarms";
  EXPECT_GT(run.result.proactive_checkpoints, 0u)
      << "scenario must actually checkpoint proactively";
  EXPECT_NO_THROW(audit(run.events, run.result));
}

TEST(InvariantAudit, DetectsTamperedCommitValue) {
  // The rounding bound grows with the run, but a year-long run still catches
  // a 1 s tamper (and passes untampered).
  struct Case {
    double t_total_hours;
    double tamper_seconds;
  };
  for (const Case c : {Case{200.0, 100.0}, Case{8760.0, 1.0}}) {
    sim::EngineConfig cfg;
    cfg.t_total = hours(c.t_total_hours);
    TracedRun run = traced_run(cfg);
    EXPECT_NO_THROW(audit(run.events, run.result)) << c.t_total_hours << " h";
    for (Event& e : run.events) {
      if (e.kind == EventKind::kCheckpointCommit) {
        e.value += c.tamper_seconds;  // inflate the sealed compute of one segment
        break;
      }
    }
    EXPECT_THROW(audit(run.events, run.result), AuditError)
        << c.t_total_hours << " h";
  }
}

TEST(InvariantAudit, DetectsDroppedFailureEvent) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  TracedRun run = traced_run(cfg);
  for (std::size_t i = 0; i < run.events.size(); ++i) {
    if (run.events[i].kind == EventKind::kFailure) {
      run.events.erase(run.events.begin() + static_cast<std::ptrdiff_t>(i));
      break;
    }
  }
  EXPECT_THROW(audit(run.events, run.result), AuditError);
}

TEST(InvariantAudit, DetectsMissingCheckpointBegins) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  TracedRun run = traced_run(cfg);
  // Dropping a single begin can hide behind the extra begins that wiped
  // writes legitimately leave, so corrupt harder: a stream with commits but
  // no begins at all violates begins >= commits unambiguously.
  std::vector<Event> stripped;
  for (const Event& e : run.events) {
    if (e.kind != EventKind::kCheckpointBegin) stripped.push_back(e);
  }
  ASSERT_LT(stripped.size(), run.events.size());
  EXPECT_THROW(audit(stripped, run.result), AuditError);
}

TEST(InvariantAudit, DetectsMisreportedIdle) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const TracedRun run = traced_run(cfg);
  InvariantAuditor auditor;
  for (const Event& e : run.events) auditor.on_event(e);
  ExpectedTotals expected = expected_totals(run.result);
  expected.idle += 1.0;  // the decomposition no longer tiles the wall
  EXPECT_THROW(auditor.verify(expected), AuditError);
}

TEST(InvariantAudit, DetectsStreamNamingAppBeyondLayout) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  TracedRun run = traced_run(cfg);
  Event rogue;
  rogue.kind = EventKind::kSegmentWiped;
  rogue.app = static_cast<std::int32_t>(run.result.apps.size());
  run.events.push_back(rogue);
  EXPECT_THROW(audit(run.events, run.result), AuditError);
}

TEST(InvariantAudit, ClearResetsForTheNextRun) {
  sim::EngineConfig cfg;
  cfg.t_total = hours(200.0);
  const TracedRun run = traced_run(cfg);
  InvariantAuditor auditor;
  for (const Event& e : run.events) auditor.on_event(e);
  EXPECT_EQ(auditor.events_seen(), run.events.size());
  EXPECT_NO_THROW(verify_against(auditor, run.result));

  // Without clear() the second pass double-counts and must fail ...
  for (const Event& e : run.events) auditor.on_event(e);
  EXPECT_THROW(verify_against(auditor, run.result), AuditError);

  // ... and after clear() the same stream audits cleanly again.
  auditor.clear();
  EXPECT_EQ(auditor.events_seen(), 0u);
  for (const Event& e : run.events) auditor.on_event(e);
  EXPECT_NO_THROW(verify_against(auditor, run.result));
}

TEST(InvariantAudit, RejectsInvalidConstructionAndInput) {
  InvariantAuditor auditor;
  Event negative_app;
  negative_app.kind = EventKind::kRestart;
  negative_app.app = kNoApp;
  EXPECT_THROW(auditor.on_event(negative_app), InvalidArgument);
  ExpectedTotals no_wall;
  EXPECT_THROW(auditor.verify(no_wall), InvalidArgument);
}

}  // namespace
}  // namespace shiraz::obs
