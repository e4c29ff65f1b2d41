// Multi-tenant MonitorService suite (ctest label: multitenant).
//
// Three layers, from unit to acceptance:
//   1. Admission: the session table is bounded and every refusal is a
//      typed AdmitError, never a silently-degraded sink.
//   2. Per-tenant quotas/backpressure: an over-quota tenant throttles
//      ITSELF (sample-down + drop + Degraded) while a neighbor session on
//      the same shards keeps full, Healthy checking.
//   3. The noisy-neighbor isolation proof from the issue: with
//      MonitorStall / QueueCorrupt / ReportDrop / TargetedFlip injected
//      into exactly one session of a concurrent multi-tenant run, every
//      OTHER session's verdicts, health, and program output are
//      byte-identical to its solo-run baseline.
//
// Everything here also runs under TSan (reproduce.sh --tsan): the
// isolation proofs drive real concurrent execute_in_session calls against
// one shared service.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "pipeline/pipeline.h"
#include "runtime/monitor_service.h"

namespace {

using namespace bw;
using namespace bw::runtime;

// ---------------------------------------------------------------------------
// Raw-report helpers (mirroring monitor_stress_test.cpp).
// ---------------------------------------------------------------------------

/// A consistent report: every thread derives the same outcome from
/// (branch, iteration), so a correct monitor never flags it.
BranchReport consistent_report(std::uint32_t thread, std::uint32_t branch,
                               std::uint64_t iter) {
  BranchReport r;
  r.thread = thread;
  r.static_id = 1 + branch;
  r.ctx_hash = 0xc0ffee00ULL + branch;
  r.iter_hash = iter;
  r.kind = ReportKind::Outcome;
  r.check = CheckCode::SharedOutcome;
  r.outcome = ((branch ^ iter) & 1) != 0;
  return r;
}

/// Send `branches x iters` consistent reports from every thread of the
/// session (single-caller; per-thread order preserved), flipping thread
/// `flip_thread`'s outcome on (flip_branch, flip_iter) when >= 0.
void send_stream(MonitorSession& session, std::uint32_t branches,
                 std::uint64_t iters, int flip_thread = -1,
                 std::uint32_t flip_branch = 0, std::uint64_t flip_iter = 0) {
  for (std::uint64_t i = 0; i < iters; ++i) {
    for (std::uint32_t b = 0; b < branches; ++b) {
      for (unsigned t = 0; t < session.num_threads(); ++t) {
        BranchReport r = consistent_report(t, b, i);
        if (static_cast<int>(t) == flip_thread && b == flip_branch &&
            i == flip_iter) {
          r.outcome = !r.outcome;
        }
        session.send(r);
      }
    }
  }
  for (unsigned t = 0; t < session.num_threads(); ++t) session.flush(t);
}

bool violation_less(const Violation& a, const Violation& b) {
  return std::tie(a.static_id, a.ctx_hash, a.iter_hash, a.suspect_thread) <
         std::tie(b.static_id, b.ctx_hash, b.iter_hash, b.suspect_thread);
}

std::vector<Violation> sorted_violations(std::vector<Violation> v) {
  std::sort(v.begin(), v.end(), violation_less);
  return v;
}

void expect_same_violations(const std::vector<Violation>& got,
                            const std::vector<Violation>& want,
                            const char* label) {
  ASSERT_EQ(got.size(), want.size()) << label;
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].static_id, want[i].static_id) << label << " #" << i;
    EXPECT_EQ(got[i].ctx_hash, want[i].ctx_hash) << label << " #" << i;
    EXPECT_EQ(got[i].iter_hash, want[i].iter_hash) << label << " #" << i;
    EXPECT_EQ(got[i].suspect_thread, want[i].suspect_thread)
        << label << " #" << i;
  }
}

// ---------------------------------------------------------------------------
// 1. Admission.
// ---------------------------------------------------------------------------

TEST(MonitorServiceAdmission, SessionTableIsBoundedWithTypedErrors) {
  MonitorServiceOptions options;
  options.num_shards = 2;
  options.max_sessions = 2;
  MonitorService service(options);
  service.start();

  MonitorService::Admission a = service.admit();
  MonitorService::Admission b = service.admit();
  ASSERT_EQ(a.error, AdmitError::None);
  ASSERT_EQ(b.error, AdmitError::None);
  ASSERT_NE(a.session, nullptr);
  ASSERT_NE(b.session, nullptr);
  EXPECT_NE(a.session->id(), b.session->id());
  EXPECT_EQ(service.active_sessions(), 2u);

  // Table full: typed refusal, no session handle.
  MonitorService::Admission c = service.admit();
  EXPECT_EQ(c.error, AdmitError::TableFull);
  EXPECT_EQ(c.session, nullptr);
  EXPECT_STREQ(to_string(c.error), "table-full");

  // Zero program threads can never be a valid tenant.
  SessionOptions bad;
  bad.num_threads = 0;
  EXPECT_EQ(service.admit(bad).error, AdmitError::BadConfig);

  // Teardown frees the slot; admission succeeds again.
  a.session->close();
  EXPECT_EQ(service.active_sessions(), 1u);
  MonitorService::Admission d = service.admit();
  EXPECT_EQ(d.error, AdmitError::None);

  ServiceStats stats = service.stats();
  EXPECT_EQ(stats.sessions_admitted, 3u);
  EXPECT_EQ(stats.sessions_rejected, 2u);
  EXPECT_EQ(stats.sessions_evicted, 1u);
  EXPECT_EQ(stats.active_sessions, 2u);

  service.stop();
  EXPECT_EQ(service.admit().error, AdmitError::ServiceStopped);
  // Handles outlive stop(): stats stay readable, close() is a no-op.
  EXPECT_TRUE(b.session->violations().empty());
  b.session->close();
}

TEST(MonitorServiceAdmission, AdmitBeforeStartIsRefused) {
  MonitorService service;
  EXPECT_EQ(service.admit().error, AdmitError::ServiceStopped);
  EXPECT_EQ(service.stats().sessions_rejected, 1u);
}

// ---------------------------------------------------------------------------
// 2. Verdicts and recovery through a session.
// ---------------------------------------------------------------------------

TEST(MonitorServiceVerdicts, CleanSessionNeverFlagsAndCountsExactly) {
  MonitorServiceOptions options;
  options.num_shards = 4;
  MonitorService service(options);
  service.start();
  SessionOptions sopts;
  sopts.num_threads = 4;
  MonitorService::Admission a = service.admit(sopts);
  ASSERT_EQ(a.error, AdmitError::None);

  send_stream(*a.session, /*branches=*/8, /*iters=*/100);
  a.session->close();

  MonitorStats stats = a.session->stats();
  EXPECT_TRUE(a.session->violations().empty());  // false_alarms == 0
  EXPECT_EQ(stats.violations, 0u);
  EXPECT_EQ(a.session->health(), MonitorHealth::Healthy);
  EXPECT_EQ(stats.reports_processed, 4u * 8u * 100u);
  EXPECT_EQ(stats.instances_checked, 8u * 100u);
  EXPECT_EQ(stats.dropped_reports, 0u);
  EXPECT_EQ(stats.reports_throttled, 0u);
}

TEST(MonitorServiceVerdicts, InjectedDeviationIsDetectedAndAttributed) {
  MonitorService service;
  service.start();
  SessionOptions sopts;
  sopts.num_threads = 4;
  MonitorService::Admission a = service.admit(sopts);
  ASSERT_EQ(a.error, AdmitError::None);

  send_stream(*a.session, /*branches=*/4, /*iters=*/50, /*flip_thread=*/2,
              /*flip_branch=*/1, /*flip_iter=*/17);
  ASSERT_TRUE(a.session->quiesce());
  EXPECT_TRUE(a.session->violation_detected());
  a.session->close();

  ASSERT_EQ(a.session->violations().size(), 1u);
  EXPECT_EQ(a.session->violations()[0].suspect_thread, 2u);
  EXPECT_EQ(a.session->violations()[0].static_id, 2u);  // branch b=1
  EXPECT_EQ(a.session->violations()[0].iter_hash, 17u);
}

TEST(MonitorServiceVerdicts, ConcurrentSessionsKeepIndependentVerdicts) {
  MonitorServiceOptions options;
  options.num_shards = 2;
  MonitorService service(options);
  service.start();
  SessionOptions sopts;
  sopts.num_threads = 2;
  MonitorService::Admission clean = service.admit(sopts);
  MonitorService::Admission faulty = service.admit(sopts);
  ASSERT_EQ(clean.error, AdmitError::None);
  ASSERT_EQ(faulty.error, AdmitError::None);

  std::thread clean_thread(
      [&] { send_stream(*clean.session, 8, 200); });
  std::thread faulty_thread([&] {
    // (3 ^ 100) & 1 == 1: the consistent outcome is `true`, so the
    // flipped thread lands alone on the `false` side and the 2-thread
    // tie-break in check_shared indicts exactly it.
    send_stream(*faulty.session, 8, 200, /*flip_thread=*/1,
                /*flip_branch=*/3, /*flip_iter=*/100);
  });
  clean_thread.join();
  faulty_thread.join();
  clean.session->close();
  faulty.session->close();

  EXPECT_TRUE(clean.session->violations().empty());
  EXPECT_EQ(clean.session->health(), MonitorHealth::Healthy);
  ASSERT_EQ(faulty.session->violations().size(), 1u);
  EXPECT_EQ(faulty.session->violations()[0].suspect_thread, 1u);
}

TEST(MonitorServiceVerdicts, ResetEpochDiscardsOnlyThisSessionsTimeline) {
  MonitorServiceOptions options;
  options.num_shards = 2;
  MonitorService service(options);
  service.start();
  SessionOptions sopts;
  sopts.num_threads = 2;
  MonitorService::Admission victim = service.admit(sopts);
  MonitorService::Admission neighbor = service.admit(sopts);
  ASSERT_EQ(victim.error, AdmitError::None);
  ASSERT_EQ(neighbor.error, AdmitError::None);

  // Neighbor sends a real deviation BEFORE the victim's rollback; its
  // verdict must survive the victim's reset untouched.
  send_stream(*neighbor.session, 4, 20, /*flip_thread=*/0,
              /*flip_branch=*/2, /*flip_iter=*/5);

  send_stream(*victim.session, 4, 20, /*flip_thread=*/1,
              /*flip_branch=*/1, /*flip_iter=*/3);
  ASSERT_TRUE(victim.session->quiesce());
  EXPECT_TRUE(victim.session->violation_detected());

  // A run the victim staged but never published belongs to the rolled
  // back timeline too: fewer reports than a stride per (thread, shard)
  // lane, with thread 1 deviating, none flushed.
  constexpr std::uint64_t kStaged = 5;
  for (std::uint64_t i = 0; i < kStaged; ++i) {
    for (std::uint32_t t = 0; t < 2; ++t) {
      BranchReport r = consistent_report(t, 0, 1000 + i);
      if (t == 1) r.outcome = !r.outcome;
      victim.session->send(r);
    }
  }

  // Rollback the victim's epoch: its detection flag and tables clear, and
  // the staged run is discarded unfiled.
  ASSERT_TRUE(victim.session->reset_epoch());
  EXPECT_FALSE(victim.session->violation_detected());

  // A clean retry of the epoch stays clean.
  send_stream(*victim.session, 4, 20);
  ASSERT_TRUE(victim.session->quiesce());
  EXPECT_FALSE(victim.session->violation_detected());

  victim.session->close();
  neighbor.session->close();
  EXPECT_TRUE(victim.session->violations().empty());
  // Every published report was filed before the reset (quiesce), so the
  // staged run is all that was rolled back, and it was never filed.
  const MonitorStats vstats = victim.session->stats();
  EXPECT_EQ(vstats.reports_rolled_back, 2 * kStaged);
  EXPECT_EQ(vstats.reports_processed, 2u * 2u * 4u * 20u);
  ASSERT_EQ(neighbor.session->violations().size(), 1u);
  EXPECT_EQ(neighbor.session->violations()[0].suspect_thread, 0u);
}

// ---------------------------------------------------------------------------
// 3. Per-tenant quota and backpressure.
// ---------------------------------------------------------------------------

TEST(MonitorServiceQuota, OverQuotaTenantThrottlesItselfOnly) {
  // One shard so routing is pinned; the victim's first popped report
  // stalls its tenant slot, so its queued reports never drain and its
  // tiny quota fills deterministically. The fast bounded ladder then
  // fails every further flush -> throttle. The neighbor session shares
  // the shard and must stay Healthy with zero throttling.
  MonitorServiceOptions options;
  options.num_shards = 1;
  options.backoff.spins = 4;
  // Enough yield budget that the HEALTHY neighbor never ring-drops on a
  // single core, small enough that the victim's doomed quota ladder
  // (its tenant is stalled, so quota can never free) fails fast.
  options.backoff.yields = 512;
  options.backoff.bounded = true;
  options.watchdog.stall_timeout_ns = 60'000'000'000ULL;  // stay Degraded
  MonitorService service(options);
  service.start();

  SessionOptions noisy;
  noisy.num_threads = 1;
  noisy.report_quota = 4;
  noisy.fault_hooks.stall_after_reports = 1;
  SessionOptions quiet;
  quiet.num_threads = 1;
  MonitorService::Admission victim = service.admit(noisy);
  MonitorService::Admission neighbor = service.admit(quiet);
  ASSERT_EQ(victim.error, AdmitError::None);
  ASSERT_EQ(neighbor.error, AdmitError::None);

  std::thread victim_thread([&] {
    for (std::uint64_t i = 0; i < 64; ++i) {
      victim.session->send(consistent_report(0, 0, i));
      victim.session->flush(0);
    }
  });
  std::thread neighbor_thread([&] {
    for (std::uint64_t i = 0; i < 2000; ++i) {
      neighbor.session->send(consistent_report(0, 0, i));
      if (i % 8 == 0) neighbor.session->flush(0);
    }
    neighbor.session->flush(0);
  });
  victim_thread.join();
  neighbor_thread.join();
  victim.session->close();
  neighbor.session->close();

  MonitorStats vstats = victim.session->stats();
  EXPECT_GT(vstats.reports_throttled, 0u);
  EXPECT_GE(vstats.throttle_events, 1u);
  EXPECT_LE(vstats.quota_peak, 4u);
  EXPECT_NE(victim.session->health(), MonitorHealth::Healthy);
  EXPECT_TRUE(victim.session->violations().empty());  // throttling != alarm

  // The noisy neighbor degraded only itself.
  MonitorStats nstats = neighbor.session->stats();
  EXPECT_EQ(neighbor.session->health(), MonitorHealth::Healthy);
  EXPECT_EQ(nstats.reports_throttled, 0u);
  EXPECT_EQ(nstats.throttle_events, 0u);
  EXPECT_EQ(nstats.dropped_reports, 0u);
  EXPECT_EQ(nstats.reports_processed, 2000u);
  EXPECT_TRUE(neighbor.session->violations().empty());
}

TEST(MonitorServiceQuota, QuotaReleasesAsShardsDrain) {
  // No stall: a quota far below the total stream length must NOT
  // throttle, because the shard keeps draining and the producer-side
  // ladder absorbs transient fullness. Proves quota gates in-flight
  // depth, not throughput. A quota below one stride (4) caps every run
  // at the quota, so a run can always claim it.
  for (const std::uint64_t quota : {std::uint64_t{64}, std::uint64_t{4}}) {
    MonitorServiceOptions options;
    options.num_shards = 2;
    MonitorService service(options);
    service.start();
    SessionOptions sopts;
    sopts.num_threads = 2;
    sopts.report_quota = quota;  // stream is 2 * 4 * 400 = 3200 reports
    MonitorService::Admission a = service.admit(sopts);
    ASSERT_EQ(a.error, AdmitError::None);

    send_stream(*a.session, 4, 400);
    a.session->close();

    MonitorStats stats = a.session->stats();
    EXPECT_EQ(stats.reports_processed, 2u * 4u * 400u) << "quota " << quota;
    EXPECT_EQ(stats.reports_throttled, 0u) << "quota " << quota;
    EXPECT_EQ(stats.dropped_reports, 0u) << "quota " << quota;
    EXPECT_LE(stats.quota_peak, quota);
    EXPECT_EQ(a.session->health(), MonitorHealth::Healthy)
        << "quota " << quota;
  }
}

// A tenant frozen by its own stall pays one backoff ladder at the quota
// gate, not one per flush: once released_reports and the shard's beat for
// the session have both stood still past the give-up grace, the gate
// drops at once, and a beat frozen for the watchdog deadline fails the
// session as a full ring would.
TEST(MonitorServiceQuota, StalledTenantPaysOneLadderThenFails) {
  MonitorServiceOptions options;
  options.num_shards = 1;
  options.backoff.spins = 4;
  options.backoff.yields = 1u << 19;  // tens of milliseconds per ladder
  options.watchdog.stall_timeout_ns = 100'000'000;  // give-up grace 25 ms
  MonitorService service(options);
  service.start();
  SessionOptions sopts;
  sopts.num_threads = 1;
  sopts.report_quota = 4;
  sopts.fault_hooks.stall_after_reports = 1;
  MonitorService::Admission a = service.admit(sopts);
  ASSERT_EQ(a.error, AdmitError::None);
  MonitorSession& session = *a.session;

  // Every send is flushed, so each goes through the gate alone. The
  // quota fills after five sends. A gate that re-ran its ladder on every
  // later flush would make nearly all of these 64 flushes slow.
  using Clock = std::chrono::steady_clock;
  int slow_flushes = 0;
  std::uint64_t iter = 0;
  for (; iter < 64; ++iter) {
    const auto start = Clock::now();
    session.send(consistent_report(0, 0, iter));
    session.flush(0);
    if (Clock::now() - start > std::chrono::milliseconds(10)) ++slow_flushes;
  }
  EXPECT_LE(slow_flushes, 2);

  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (session.health() != MonitorHealth::Failed &&
         Clock::now() < deadline) {
    session.send(consistent_report(0, 0, iter++));
    session.flush(0);
  }
  EXPECT_EQ(session.health(), MonitorHealth::Failed);
  session.close();
  MonitorStats stats = session.stats();
  EXPECT_GT(stats.reports_throttled, 0u);
  EXPECT_EQ(stats.hooks_fired, 1u);
  EXPECT_TRUE(session.violations().empty());
}

// ---------------------------------------------------------------------------
// 4. The isolation proof (issue acceptance criterion): faults injected
//    into exactly one session; every other session byte-identical to its
//    solo-run baseline.
// ---------------------------------------------------------------------------

constexpr const char* kKernel = R"BWC(
global int n = 32;
global int data[32];
func init() {
  for (int i = 0; i < n; i = i + 1) { data[i] = i; }
}
func slave() {
  int p = nthreads();
  for (int i = tid(); i < n; i = i + p) {
    data[i] = data[i] * 2;
  }
  barrier();
  if (tid() == 0) {
    int s = 0;
    for (int i = 0; i < n; i = i + 1) { s = s + data[i]; }
    print_i(s);
  }
}
)BWC";

/// What the isolation proof compares: everything a tenant could observe
/// about its own run. Collapsed to strings/sorted vectors so "byte
/// identical" is literal.
struct SessionOutcome {
  std::vector<Violation> violations;  // sorted
  MonitorHealth health = MonitorHealth::Healthy;
  bool detected = false;
  std::string output;
  std::uint64_t reports_processed = 0;
  std::uint64_t instances_checked = 0;
  std::uint64_t dropped_reports = 0;
  AdmitError admit_error = AdmitError::None;
};

SessionOutcome outcome_of(const pipeline::ExecutionResult& result) {
  SessionOutcome o;
  o.violations = sorted_violations(result.violations);
  o.health = result.monitor_health;
  o.detected = result.detected;
  o.output = result.run.output;
  o.reports_processed = result.monitor_stats.reports_processed;
  o.instances_checked = result.monitor_stats.instances_checked;
  o.dropped_reports = result.monitor_stats.dropped_reports;
  o.admit_error = result.admit_error;
  return o;
}

void expect_byte_identical(const SessionOutcome& got,
                           const SessionOutcome& want, const char* label) {
  EXPECT_EQ(got.admit_error, want.admit_error) << label;
  expect_same_violations(got.violations, want.violations, label);
  EXPECT_EQ(got.health, want.health) << label;
  EXPECT_EQ(got.detected, want.detected) << label;
  EXPECT_EQ(got.output, want.output) << label;  // byte-identical program IO
  EXPECT_EQ(got.reports_processed, want.reports_processed) << label;
  EXPECT_EQ(got.instances_checked, want.instances_checked) << label;
  EXPECT_EQ(got.dropped_reports, want.dropped_reports) << label;
}

MonitorServiceOptions isolation_service_options() {
  MonitorServiceOptions options;
  options.num_shards = 2;
  options.max_sessions = 8;
  return options;
}

/// A clean tenant's execution config. Deterministic end to end: sampling
/// off, run-to-completion, interpreter-independent verdicts. 4 program
/// threads: the kernel's strided-loop branch is a threadID-monotone
/// check, which needs >= 3 observers to single out a deviant.
pipeline::ExecutionConfig clean_config() {
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.stop_on_detection = false;
  return config;
}

/// A tenant whose PROGRAM carries a genuine targeted flip: its verdict is
/// a non-empty violation list, so "byte-identical to baseline" proves
/// verdict stability, not just absence of false alarms.
pipeline::ExecutionConfig flipped_config() {
  pipeline::ExecutionConfig config = clean_config();
  config.fault.active = true;
  config.fault.thread = 1;
  config.fault.target_branch = 3;
  config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
  config.fault.targeted = true;
  config.fault.targeted_flips = 2;
  return config;
}

/// Solo baseline: the same config run as the ONLY session of a fresh
/// service with identical shape.
SessionOutcome solo_baseline(const pipeline::CompiledProgram& program,
                             const pipeline::ExecutionConfig& config) {
  MonitorService service(isolation_service_options());
  service.start();
  SessionOutcome out =
      outcome_of(pipeline::execute_in_session(program, config, service));
  service.stop();
  return out;
}

class MonitorServiceIsolation : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    program_ = new pipeline::CompiledProgram(
        pipeline::protect_program(kKernel));
    clean_baseline_ = new SessionOutcome(
        solo_baseline(*program_, clean_config()));
    flipped_baseline_ = new SessionOutcome(
        solo_baseline(*program_, flipped_config()));
  }
  static void TearDownTestSuite() {
    delete flipped_baseline_;
    delete clean_baseline_;
    delete program_;
    flipped_baseline_ = nullptr;
    clean_baseline_ = nullptr;
    program_ = nullptr;
  }

  /// Run the victim config + three neighbors (two clean, one with the
  /// targeted program flip) CONCURRENTLY against one shared service,
  /// then require every neighbor byte-identical to its solo baseline.
  void run_isolation_case(const pipeline::ExecutionConfig& victim_config,
                          SessionOutcome* victim_out = nullptr) {
    ASSERT_FALSE(clean_baseline_->detected);
    ASSERT_TRUE(flipped_baseline_->detected);
    ASSERT_FALSE(flipped_baseline_->violations.empty());

    MonitorService service(isolation_service_options());
    service.start();
    const pipeline::ExecutionConfig configs[4] = {
        victim_config, clean_config(), clean_config(), flipped_config()};
    SessionOutcome outcomes[4];
    std::vector<std::thread> tenants;
    for (int i = 0; i < 4; ++i) {
      tenants.emplace_back([&, i] {
        outcomes[i] = outcome_of(
            pipeline::execute_in_session(*program_, configs[i], service));
      });
    }
    for (auto& t : tenants) t.join();
    service.stop();

    expect_byte_identical(outcomes[1], *clean_baseline_, "clean neighbor 1");
    expect_byte_identical(outcomes[2], *clean_baseline_, "clean neighbor 2");
    expect_byte_identical(outcomes[3], *flipped_baseline_,
                          "flipped neighbor");
    if (victim_out != nullptr) *victim_out = outcomes[0];
  }

  static pipeline::CompiledProgram* program_;
  static SessionOutcome* clean_baseline_;
  static SessionOutcome* flipped_baseline_;
};

pipeline::CompiledProgram* MonitorServiceIsolation::program_ = nullptr;
SessionOutcome* MonitorServiceIsolation::clean_baseline_ = nullptr;
SessionOutcome* MonitorServiceIsolation::flipped_baseline_ = nullptr;

TEST_F(MonitorServiceIsolation, MonitorStallInOneSessionDoesNotLeak) {
  pipeline::ExecutionConfig victim = clean_config();
  victim.monitor_options.fault_hooks.stall_after_reports = 5;
  SessionOutcome out;
  run_isolation_case(victim, &out);
  // The victim's tenant froze: its own health degrades (drops counted at
  // detach), nobody else's does.
  EXPECT_NE(out.health, MonitorHealth::Healthy);
  EXPECT_GT(out.dropped_reports, 0u);
  EXPECT_TRUE(out.violations.empty());  // a stall never fabricates alarms
}

TEST_F(MonitorServiceIsolation, QueueCorruptInOneSessionDoesNotLeak) {
  pipeline::ExecutionConfig victim = clean_config();
  victim.monitor_options.validate_reports = true;
  victim.monitor_options.fault_hooks.corrupt_report_index = 7;
  victim.monitor_options.fault_hooks.corrupt_bit = 13;
  SessionOutcome out;
  run_isolation_case(victim, &out);
  // Validation catches the flipped bit: one rejected report, Degraded,
  // and no fabricated verdict.
  EXPECT_EQ(out.health, MonitorHealth::Degraded);
  EXPECT_TRUE(out.violations.empty());
}

TEST_F(MonitorServiceIsolation, ReportDropInOneSessionDoesNotLeak) {
  pipeline::ExecutionConfig victim = clean_config();
  victim.monitor_options.fault_hooks.drop_report_index = 7;
  SessionOutcome out;
  run_isolation_case(victim, &out);
  EXPECT_EQ(out.health, MonitorHealth::Degraded);
  EXPECT_GT(out.dropped_reports, 0u);
  EXPECT_TRUE(out.violations.empty());  // degraded-skip rules hold
}

TEST_F(MonitorServiceIsolation, TargetedFlipInOneSessionDoesNotLeak) {
  // The victim's fault is in its own PROGRAM (the adversarial targeted
  // flip); its detection must fire and still not leak.
  SessionOutcome out;
  run_isolation_case(flipped_config(), &out);
  EXPECT_TRUE(out.detected);
  ASSERT_FALSE(out.violations.empty());
  // Same program + same fault plan as the flipped baseline: the victim
  // itself must ALSO be byte-identical to that baseline (its neighbors'
  // faults are... nonexistent; this is the symmetric sanity check).
  expect_byte_identical(out, *flipped_baseline_, "victim");
}

}  // namespace
