// MonitorService session suite (ctest label: multitenant).
//
// Four layers, from unit to acceptance:
//   1. Admission: one session is live at a time, and every refusal is a
//      typed AdmitError, never a silently-degraded sink.
//   2. Verdicts and recovery through a session, and sessions run one
//      after another on one service keeping independent verdicts.
//   3. Per-session quotas/backpressure: an over-quota session throttles
//      itself (sample-down + drop + Degraded) without fabricating alarms.
//   4. Isolation across sequential sessions: with MonitorStall /
//      QueueCorrupt / ReportDrop / TargetedFlip injected into one
//      session, every session that follows it on the same service (rings
//      and tables recycled through BlockCache) is byte-identical to its
//      solo-run baseline.
//   5. Consumer-thread lifecycle: a session's consumer threads live
//      exactly as long as the session, a Monitor's as long as its run.
//
// Everything here also runs under TSan (reproduce.sh --tsan): the
// sessions' producers race their consumer threads, and every session
// spawns and joins its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
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

/// A deviating stream: thread 1 flips (branch 3, iter 100), where the
/// consistent outcome (3 ^ 100) & 1 == 1 is `true`, so the flipped thread
/// lands alone on the `false` side and the 2-thread tie-break in
/// check_shared indicts exactly it.
void send_faulty_stream(MonitorSession& session) {
  send_stream(session, 8, 200, /*flip_thread=*/1, /*flip_branch=*/3,
              /*flip_iter=*/100);
}

MonitorServiceOptions two_shards() {
  MonitorServiceOptions options;
  options.num_shards = 2;
  return options;
}

SessionOptions two_threads() {
  SessionOptions sopts;
  sopts.num_threads = 2;
  return sopts;
}

TEST(MonitorServiceAdmission, OneLiveSessionWithTypedErrors) {
  // Solo reference for the live session's verdict and accounting.
  MonitorService solo(two_shards());
  solo.start();
  MonitorService::Admission ref = solo.admit(two_threads());
  ASSERT_EQ(ref.error, AdmitError::None);
  send_faulty_stream(*ref.session);
  ref.session->close();
  solo.stop();

  MonitorService service(two_shards());
  service.start();
  MonitorService::Admission a = service.admit(two_threads());
  ASSERT_EQ(a.error, AdmitError::None);
  ASSERT_NE(a.session, nullptr);

  // A session is live: typed refusal, no session handle.
  MonitorService::Admission busy = service.admit(two_threads());
  EXPECT_EQ(busy.error, AdmitError::Busy);
  EXPECT_EQ(busy.session, nullptr);
  EXPECT_STREQ(to_string(busy.error), "busy");

  // Zero program threads can never be a valid session, busy or not.
  SessionOptions bad;
  bad.num_threads = 0;
  EXPECT_EQ(service.admit(bad).error, AdmitError::BadConfig);

  // The refused admissions left the live session untouched: its verdict
  // and accounting match the solo run.
  send_faulty_stream(*a.session);
  a.session->close();
  expect_same_violations(sorted_violations(a.session->violations()),
                         sorted_violations(ref.session->violations()),
                         "live session");
  const MonitorStats got = a.session->stats();
  const MonitorStats want = ref.session->stats();
  EXPECT_EQ(got.reports_processed, want.reports_processed);
  EXPECT_EQ(got.instances_checked, want.instances_checked);
  EXPECT_EQ(got.dropped_reports, 0u);
  EXPECT_EQ(a.session->health(), ref.session->health());

  // Teardown frees the slot; admission succeeds again.
  MonitorService::Admission d = service.admit(two_threads());
  ASSERT_EQ(d.error, AdmitError::None);
  EXPECT_NE(d.session->id(), a.session->id());

  service.stop();
  EXPECT_EQ(service.admit().error, AdmitError::ServiceStopped);
  // Handles outlive stop(): stats stay readable, close() is a no-op.
  EXPECT_TRUE(d.session->violations().empty());
  EXPECT_EQ(d.session->stats().reports_processed, 0u);
  d.session->close();
}

TEST(MonitorServiceAdmission, AdmitBeforeStartIsRefused) {
  MonitorService service;
  EXPECT_EQ(service.admit().error, AdmitError::ServiceStopped);
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

TEST(MonitorServiceVerdicts, SequentialSessionsKeepIndependentVerdicts) {
  // Clean, faulty, clean on one service: a verdict never carries over
  // into the next session.
  MonitorService service(two_shards());
  service.start();
  for (const bool faulty : {false, true, false}) {
    MonitorService::Admission a = service.admit(two_threads());
    ASSERT_EQ(a.error, AdmitError::None);
    if (faulty) {
      send_faulty_stream(*a.session);
    } else {
      send_stream(*a.session, 8, 200);
    }
    a.session->close();
    EXPECT_EQ(a.session->stats().reports_processed, 2u * 8u * 200u);
    if (faulty) {
      ASSERT_EQ(a.session->violations().size(), 1u);
      EXPECT_EQ(a.session->violations()[0].suspect_thread, 1u);
    } else {
      EXPECT_TRUE(a.session->violations().empty());
      EXPECT_EQ(a.session->health(), MonitorHealth::Healthy);
    }
  }
  service.stop();
}

TEST(MonitorServiceVerdicts, ResetEpochDiscardsOnlyThisSessionsTimeline) {
  MonitorService service(two_shards());
  service.start();
  MonitorService::Admission victim = service.admit(two_threads());
  ASSERT_EQ(victim.error, AdmitError::None);

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
  EXPECT_TRUE(victim.session->violations().empty());
  // Every published report was filed before the reset (quiesce), so the
  // staged run is all that was rolled back, and it was never filed.
  const MonitorStats vstats = victim.session->stats();
  EXPECT_EQ(vstats.reports_rolled_back, 2 * kStaged);
  EXPECT_EQ(vstats.reports_processed, 2u * 2u * 4u * 20u);

  // The next session on the same service starts from an empty timeline
  // and keeps its own deviation.
  MonitorService::Admission next = service.admit(two_threads());
  ASSERT_EQ(next.error, AdmitError::None);
  send_stream(*next.session, 4, 20, /*flip_thread=*/0, /*flip_branch=*/2,
              /*flip_iter=*/5);
  next.session->close();
  ASSERT_EQ(next.session->violations().size(), 1u);
  EXPECT_EQ(next.session->violations()[0].suspect_thread, 0u);
  EXPECT_EQ(next.session->stats().reports_rolled_back, 0u);
}

// ---------------------------------------------------------------------------
// 3. Per-tenant quota and backpressure.
// ---------------------------------------------------------------------------

TEST(MonitorServiceQuota, OverQuotaTenantThrottlesItselfOnly) {
  // One shard so routing is pinned; the victim's first popped report
  // stalls its tenant slot, so its queued reports never drain and its
  // tiny quota fills deterministically. The fast bounded ladder then
  // fails every further flush -> throttle.
  MonitorServiceOptions options;
  options.num_shards = 1;
  options.backoff.spins = 4;
  // The victim's doomed quota ladder (its tenant is stalled, so quota can
  // never free) fails fast.
  options.backoff.yields = 512;
  options.backoff.bounded = true;
  options.watchdog.stall_timeout_ns = 60'000'000'000ULL;  // stay Degraded
  MonitorService service(options);
  service.start();

  SessionOptions noisy;
  noisy.num_threads = 1;
  noisy.report_quota = 4;
  noisy.fault_hooks.stall_after_reports = 1;
  MonitorService::Admission victim = service.admit(noisy);
  ASSERT_EQ(victim.error, AdmitError::None);

  for (std::uint64_t i = 0; i < 64; ++i) {
    victim.session->send(consistent_report(0, 0, i));
    victim.session->flush(0);
  }
  victim.session->close();

  MonitorStats vstats = victim.session->stats();
  EXPECT_GT(vstats.reports_throttled, 0u);
  EXPECT_GE(vstats.throttle_events, 1u);
  EXPECT_LE(vstats.quota_peak, 4u);
  EXPECT_NE(victim.session->health(), MonitorHealth::Healthy);
  EXPECT_TRUE(victim.session->violations().empty());  // throttling != alarm
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
// 4. Isolation across sequential sessions: faults injected into one
//    session; every session that follows it on the same service is
//    byte-identical to its solo-run baseline.
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

/// What the isolation proof compares: everything a session could observe
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

/// A clean session's execution config. Deterministic end to end: sampling
/// off, run-to-completion, interpreter-independent verdicts. 4 program
/// threads: the kernel's strided-loop branch is a threadID-monotone
/// check, which needs >= 3 observers to single out a deviant.
pipeline::ExecutionConfig clean_config() {
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.stop_on_detection = false;
  return config;
}

/// A session whose PROGRAM carries a genuine targeted flip: its verdict is
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
  MonitorService service(two_shards());
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

  /// Run the victim config, then three neighbors (two clean, one with the
  /// targeted program flip) one after another on the same service, then
  /// require every neighbor byte-identical to its solo baseline.
  void run_isolation_case(const pipeline::ExecutionConfig& victim_config,
                          SessionOutcome* victim_out = nullptr) {
    ASSERT_FALSE(clean_baseline_->detected);
    ASSERT_TRUE(flipped_baseline_->detected);
    ASSERT_FALSE(flipped_baseline_->violations.empty());

    MonitorService service(two_shards());
    service.start();
    const pipeline::ExecutionConfig configs[4] = {
        victim_config, clean_config(), clean_config(), flipped_config()};
    SessionOutcome outcomes[4];
    for (int i = 0; i < 4; ++i) {
      outcomes[i] = outcome_of(
          pipeline::execute_in_session(*program_, configs[i], service));
    }
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
  // detach), no later session's does.
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
  // itself must also be byte-identical to that baseline.
  expect_byte_identical(out, *flipped_baseline_, "victim");
}

// ---------------------------------------------------------------------------
// 5. Consumer-thread lifecycle.
// ---------------------------------------------------------------------------

#if defined(__linux__)
/// The process's thread count, from /proc/self/status.
int thread_count() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Polls (up to 5 s) until the process runs `want` threads and returns
/// the last count: a joined thread can stay in the count for a moment
/// while the kernel finishes its exit.
int settled_thread_count(int want) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  int count = thread_count();
  while (count != want && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
    count = thread_count();
  }
  return count;
}
#endif

TEST(MonitorServiceLifecycle, ConsumerThreadsLiveOnlyWithTheirSink) {
#if !defined(__linux__)
  GTEST_SKIP() << "counts threads through /proc/self/status";
#else
  // Counted from inside a first thread: a sanitizer runtime may start a
  // helper thread of its own with the process's first thread.
  int with_one_more = 0;
  std::thread([&] { with_one_more = thread_count(); }).join();
  const int base = settled_thread_count(with_one_more - 1);
  ASSERT_EQ(base, with_one_more - 1);

  MonitorService service(two_shards());
  service.start();
  EXPECT_EQ(settled_thread_count(base), base)
      << "a started service with no session runs a thread";

  MonitorService::Admission a = service.admit(two_threads());
  ASSERT_EQ(a.error, AdmitError::None);
  EXPECT_EQ(thread_count(), base + 2) << "one consumer per shard";
  send_stream(*a.session, 8, 200);
  a.session->close();
  EXPECT_EQ(settled_thread_count(base), base) << "after close()";
  EXPECT_EQ(a.session->stats().reports_processed, 2u * 8u * 200u);

  // Tenants frozen on the stall hook still serve the detach: close()
  // returns with their threads joined, the queued reports counted as
  // drops under degraded health.
  SessionOptions stalled = two_threads();
  stalled.fault_hooks.stall_after_reports = 1;
  MonitorService::Admission b = service.admit(stalled);
  ASSERT_EQ(b.error, AdmitError::None);
  EXPECT_EQ(thread_count(), base + 2);
  send_stream(*b.session, 4, 50);
  b.session->close();
  EXPECT_EQ(settled_thread_count(base), base) << "after a stalled close()";
  EXPECT_EQ(b.session->health(), MonitorHealth::Degraded);
  EXPECT_GT(b.session->stats().hooks_fired, 0u);
  EXPECT_GT(b.session->stats().dropped_reports, 0u);

  // stop() force-detaches a live session and joins its threads.
  MonitorService::Admission c = service.admit(two_threads());
  ASSERT_EQ(c.error, AdmitError::None);
  EXPECT_EQ(thread_count(), base + 2);
  service.stop();
  EXPECT_EQ(settled_thread_count(base), base) << "after stop()";
  c.session->close();

  Monitor monitor(2);
  EXPECT_EQ(thread_count(), base) << "an unstarted Monitor";
  monitor.start();
  EXPECT_EQ(thread_count(), base + 1);
  monitor.send(consistent_report(0, 0, 0));
  monitor.send(consistent_report(1, 0, 0));
  monitor.stop();
  EXPECT_EQ(settled_thread_count(base), base) << "after Monitor::stop()";
  EXPECT_EQ(monitor.stats().instances_checked, 1u);
#endif
}

}  // namespace
