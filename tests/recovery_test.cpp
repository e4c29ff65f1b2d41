// Detection-triggered recovery tests: barrier-aligned checkpoints, forced
// and fault-driven rollbacks, determinism of snapshot/restore (the replay
// after a rollback must be bit-identical to an undisturbed run), retry
// budget termination, the campaign's recovered outcome, and the identity
// of the barrier cut that rollback and phase entry both resume from.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "test_support.h"
#include "kernel_generator.h"

namespace {

using namespace bw;

// A multi-phase kernel with barriers, data-dependent branches, PRNG use in
// init, and a final reduction — enough structure that a sloppy restore
// (wrong barrier phase, stale register, lost heap word) changes the output.
constexpr const char* kPhasedKernel = R"BWC(
global int n = 64;
global int data[64];
global int aux[64];
global int sums[8];
func init() {
  for (int i = 0; i < n; i = i + 1) {
    data[i] = hashrand(i) % 100;
    aux[i] = hashrand(i + 500) % 50;
  }
}
func slave() {
  int p = nthreads();
  int id = tid();
  int s = 0;
  for (int i = id; i < n; i = i + p) {
    if (data[i] % 2 == 0) { s = s + data[i]; }
    else { s = s + aux[i]; }
  }
  barrier();
  for (int i = id; i < n; i = i + p) {
    aux[i] = aux[i] + s % 7;
  }
  barrier();
  for (int i = id; i < n; i = i + p) {
    if (aux[i] > 25) { s = s + 1; }
  }
  sums[id] = s;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + sums[t]; }
    print_i(total);
  }
}
)BWC";

// Lock ownership and barrier phase must survive a rollback: the critical
// section updates a shared accumulator under lock(1), and the checkpoint
// cut sits between two lock phases.
constexpr const char* kLockKernel = R"BWC(
global int n = 32;
global int data[32];
global int shared_acc[1];
global int sums[8];
func init() {
  for (int i = 0; i < n; i = i + 1) { data[i] = hashrand(i) % 40; }
  shared_acc[0] = 0;
}
func slave() {
  int p = nthreads();
  int id = tid();
  int s = 0;
  for (int i = id; i < n; i = i + p) { s = s + data[i]; }
  lock(1);
  shared_acc[0] = shared_acc[0] + s % 13;
  unlock(1);
  barrier();
  for (int i = id; i < n; i = i + p) {
    if (data[i] % 3 == 0) { s = s + 2; }
  }
  lock(1);
  shared_acc[0] = shared_acc[0] + s % 5;
  unlock(1);
  barrier();
  sums[id] = s;
  barrier();
  if (id == 0) { print_i(shared_acc[0] + sums[0] + sums[p - 1]); }
}
)BWC";

pipeline::ExecutionConfig recovery_config(unsigned threads = 4,
                                          unsigned shards = 0) {
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.monitor_shards = shards;
  config.recovery.enabled = true;
  config.recovery.checkpoint_interval = 1;
  config.recovery.ring_capacity = 2;
  config.recovery.max_retries = 3;
  return config;
}

std::string reference_output(const pipeline::CompiledProgram& program,
                             unsigned threads, unsigned shards) {
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.monitor_shards = shards;
  pipeline::ExecutionResult r = pipeline::execute(program, config);
  EXPECT_TRUE(r.run.ok);
  return r.run.output;
}

TEST(Recovery, CleanRunTakesCheckpointsAndNeverRollsBack) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  const std::string golden = reference_output(program, 4, 0);

  pipeline::ExecutionConfig config = recovery_config();
  pipeline::ExecutionResult r = pipeline::execute(program, config);
  EXPECT_TRUE(r.run.ok);
  EXPECT_FALSE(r.recovered);
  EXPECT_FALSE(r.detected);
  EXPECT_GT(r.recovery.checkpoints_taken, 0u);
  EXPECT_EQ(r.recovery.rollbacks, 0u);
  EXPECT_EQ(r.recovery.retries_used, 0u);
  EXPECT_EQ(r.run.output, golden);
}

TEST(Recovery, CheckpointIntervalThinsCheckpoints) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  pipeline::ExecutionConfig every = recovery_config();
  pipeline::ExecutionResult dense = pipeline::execute(program, every);
  pipeline::ExecutionConfig sparse = recovery_config();
  sparse.recovery.checkpoint_interval = 2;
  pipeline::ExecutionResult thin = pipeline::execute(program, sparse);
  ASSERT_TRUE(dense.run.ok);
  ASSERT_TRUE(thin.run.ok);
  EXPECT_LT(thin.recovery.checkpoints_taken, dense.recovery.checkpoints_taken);
}

// The core determinism property: force a rollback at a checkpoint commit
// (no fault at all) and require the replayed run to produce bit-identical
// output. Runs across generated kernels and both monitor backends; any
// restore bug — wrong barrier phase, stale register, missed heap word,
// broken PRNG stream, lost lock owner — shows up as an output diff, a
// violation (false alarm), or a hang (caught by the test timeout).
TEST(Recovery, ForcedRollbackReplaysBitIdentically) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    test::ProgramGenerator generator(seed);
    const std::string source = generator.generate();
    pipeline::CompiledProgram program = pipeline::protect_program(source);
    for (unsigned shards : {0u, 2u}) {
      const std::string golden = reference_output(program, 4, shards);
      pipeline::ExecutionConfig config = recovery_config(4, shards);
      config.recovery.force_rollback_after_checkpoint = 1;
      // lag 0: restore the NEWEST checkpoint — the strongest determinism
      // exercise (a lagged rollback would retreat to the section start).
      config.recovery.rollback_lag = 0;
      pipeline::ExecutionResult r = pipeline::execute(program, config);
      EXPECT_TRUE(r.run.ok) << "seed " << seed << " shards " << shards;
      EXPECT_FALSE(r.detected) << "seed " << seed << " shards " << shards;
      EXPECT_GE(r.recovery.rollbacks, 1u);
      EXPECT_EQ(r.run.output, golden)
          << "seed " << seed << " shards " << shards;
    }
  }
}

TEST(Recovery, LockOwnershipAndBarrierPhaseSurviveRollback) {
  pipeline::CompiledProgram program = pipeline::protect_program(kLockKernel);
  const std::string golden = reference_output(program, 4, 0);
  for (unsigned force_at : {1u, 2u}) {
    pipeline::ExecutionConfig config = recovery_config();
    config.recovery.force_rollback_after_checkpoint = force_at;
    config.recovery.rollback_lag = 0;  // restore the just-committed one
    pipeline::ExecutionResult r = pipeline::execute(program, config);
    EXPECT_TRUE(r.run.ok) << "forced at checkpoint " << force_at;
    EXPECT_GE(r.recovery.rollbacks, 1u);
    EXPECT_EQ(r.run.output, golden) << "forced at checkpoint " << force_at;
  }
}

/// Sweep dynamic branch indices of thread `thread` until one BranchFlip is
/// detected by the monitor without recovery; returns 0 if none is.
std::uint64_t find_detected_branch(const pipeline::CompiledProgram& program,
                                   unsigned thread, std::uint64_t limit) {
  for (std::uint64_t target = 1; target <= limit; ++target) {
    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    config.fault.active = true;
    config.fault.thread = thread;
    config.fault.target_branch = target;
    config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
    pipeline::ExecutionResult r = pipeline::execute(program, config);
    if (r.detected && r.run.fault_applied) return target;
  }
  return 0;
}

TEST(Recovery, DetectedBranchFlipRecoversWithGoldenOutput) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  const std::uint64_t target = find_detected_branch(program, 1, 40);
  ASSERT_NE(target, 0u) << "no detectable BranchFlip in sweep";
  for (unsigned shards : {0u, 2u}) {
    const std::string golden = reference_output(program, 4, shards);
    pipeline::ExecutionConfig config = recovery_config(4, shards);
    config.fault.active = true;
    config.fault.thread = 1;
    config.fault.target_branch = target;
    config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
    pipeline::ExecutionResult r = pipeline::execute(program, config);
    EXPECT_TRUE(r.run.ok) << "shards " << shards;
    EXPECT_TRUE(r.recovered) << "shards " << shards;
    EXPECT_GE(r.recovery.rollbacks, 1u);
    EXPECT_EQ(r.run.output, golden) << "shards " << shards;
  }
}

// rollback_lag skips the newest (possibly latently-corrupt) checkpoints:
// forcing a rollback after the 3rd commit with lag 2 must land on the 1st
// checkpoint (not the baseline, not the newest) and still replay to
// golden output. The evicted window is recommitted during the replay.
TEST(Recovery, RollbackLagSkipsSuspectCheckpoints) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  const std::string golden = reference_output(program, 4, 0);
  pipeline::ExecutionConfig config = recovery_config();
  config.recovery.ring_capacity = 4;
  config.recovery.rollback_lag = 2;
  config.recovery.force_rollback_after_checkpoint = 3;
  pipeline::ExecutionResult r = pipeline::execute(program, config);
  EXPECT_TRUE(r.run.ok);
  EXPECT_GE(r.recovery.rollbacks, 1u);
  EXPECT_EQ(r.recovery.rollbacks_to_section_start, 0u);
  // Generations 2 and 3 were evicted and re-committed on replay.
  EXPECT_GE(r.recovery.checkpoints_taken, 5u);
  EXPECT_EQ(r.run.output, golden);
}

// A persistent (recurring) fault re-fires on every retry: the budget must
// burn down and the run must degrade to detect-and-report, never livelock.
TEST(Recovery, RecurringFaultExhaustsRetryBudgetAndTerminates) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  const std::uint64_t target = find_detected_branch(program, 1, 40);
  ASSERT_NE(target, 0u);
  pipeline::ExecutionConfig config = recovery_config();
  config.recovery.max_retries = 2;
  config.fault.active = true;
  config.fault.thread = 1;
  config.fault.target_branch = target;
  config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
  config.fault.recurring = true;
  pipeline::ExecutionResult r = pipeline::execute(program, config);
  EXPECT_FALSE(r.run.ok);
  EXPECT_TRUE(r.detected);
  EXPECT_FALSE(r.recovered);
  EXPECT_TRUE(r.recovery.retries_exhausted);
  EXPECT_EQ(r.recovery.rollbacks, 2u);
  EXPECT_EQ(r.recovery.retries_used, 2u);
}

// A violation raised before the first checkpoint commit must roll back to
// the section-start baseline (heap as of entry, thread state from scratch).
TEST(Recovery, RollbackBeforeFirstCheckpointRestoresBaseline) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  const std::string golden = reference_output(program, 4, 0);
  const std::uint64_t target = find_detected_branch(program, 1, 6);
  if (target == 0) GTEST_SKIP() << "no early detectable branch";
  pipeline::ExecutionConfig config = recovery_config();
  // An interval so sparse no checkpoint commits before the fault's branch.
  config.recovery.checkpoint_interval = 1000;
  config.fault.active = true;
  config.fault.thread = 1;
  config.fault.target_branch = target;
  config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
  pipeline::ExecutionResult r = pipeline::execute(program, config);
  EXPECT_TRUE(r.run.ok);
  EXPECT_TRUE(r.recovered);
  EXPECT_GE(r.recovery.rollbacks_to_section_start, 1u);
  EXPECT_EQ(r.run.output, golden);
}

// Campaign with recovery: the partition must extend cleanly (benign +
// detected + recovered + crashed + hung + sdc == activated), every
// recovered run must match golden byte-for-byte, and flagged runs should
// overwhelmingly recover (transient faults + clean checkpoints).
TEST(RecoveryCampaign, RecoveredOutcomeJoinsThePartition) {
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 60;
  options.seed = 1234;
  options.protect = true;
  options.recovery.enabled = true;
  options.recovery.checkpoint_interval = 1;
  fault::CampaignResult r = fault::run_campaign(kPhasedKernel, options);
  EXPECT_EQ(r.injected, 60);
  EXPECT_EQ(r.benign + r.detected + r.recovered + r.crashed + r.hung + r.sdc,
            r.activated);
  EXPECT_EQ(r.recovered_mismatch, 0);
  EXPECT_EQ(r.false_alarms, 0);
  EXPECT_GT(r.recovered, 0);
  EXPECT_GT(r.checkpoints, 0u);
  EXPECT_GE(r.rollbacks, static_cast<std::uint64_t>(r.recovered));
  EXPECT_GE(r.coverage_with_recovery(), r.coverage() - 1.0);  // well-formed
  EXPECT_GT(r.run_ns_max, 0u);
  EXPECT_GE(r.run_ns_mean, static_cast<double>(r.run_ns_min));
}

TEST(RecoveryCampaign, RecoveryConvertsDetectionsWithoutLosingCoverage) {
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 60;
  options.seed = 77;
  options.protect = true;
  fault::CampaignResult plain = fault::run_campaign(kPhasedKernel, options);
  options.recovery.enabled = true;
  options.recovery.checkpoint_interval = 1;
  fault::CampaignResult rec = fault::run_campaign(kPhasedKernel, options);
  // Same seed, same fault sample: what was detected either recovers or
  // stays detected; coverage cannot drop.
  EXPECT_EQ(plain.activated, rec.activated);
  EXPECT_EQ(plain.detected, rec.detected + rec.recovered);
  EXPECT_GE(rec.coverage(), plain.coverage());
  EXPECT_GT(rec.recovery_rate(), 0.9);
  EXPECT_GT(rec.coverage_with_recovery(), plain.coverage_with_recovery());
}

TEST(RecoveryCampaign, ExplicitInstructionBudgetIsHonored) {
  // Long enough that every thread crosses the VM's poll window (8192
  // instructions), so a tight explicit budget is guaranteed to trap.
  constexpr const char* kLongKernel = R"BWC(
global int n = 2000;
global int sums[8];
func slave() {
  int p = nthreads();
  int id = tid();
  int acc = 0;
  for (int i = 0; i < n; i = i + 1) {
    if ((i + id) % 3 == 0) { acc = acc + i; } else { acc = acc + 1; }
  }
  sums[id] = acc;
  barrier();
  if (id == 0) { print_i(sums[0] + sums[p - 1]); }
}
)BWC";
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 10;
  options.protect = true;
  // Absurdly tight: every run budget-traps at its first poll, so nothing
  // can complete (early faults still activate first, and the end-of-run
  // finalize may still flag them). If the option failed to reach the VM,
  // runs would complete and classify benign.
  options.instruction_budget = 1;
  fault::CampaignResult r = fault::run_campaign(kLongKernel, options);
  EXPECT_GT(r.activated, 0);
  EXPECT_EQ(r.hung + r.detected, r.activated);
  EXPECT_EQ(r.benign + r.sdc + r.crashed + r.recovered, 0);
}

// Recovery against a stalled monitor must degrade, not hang: quiesce times
// out, checkpoints are discarded, and the run still terminates.
TEST(Recovery, StalledMonitorDegradesRecoveryWithoutHanging) {
  pipeline::CompiledProgram program = pipeline::protect_program(kPhasedKernel);
  pipeline::ExecutionConfig config = recovery_config();
  config.monitor_options.fault_hooks.stall_after_reports = 20;
  config.monitor_options.watchdog.stall_timeout_ns = 20'000'000;  // 20 ms
  pipeline::ExecutionResult r = pipeline::execute(program, config);
  // The run must finish (ok, or detected-without-recovery); the invariant
  // under test is termination: every checkpoint commit's quiesce times out
  // against the wedged consumer and is discarded rather than waited on.
  EXPECT_FALSE(r.recovered);
  EXPECT_GT(r.recovery.checkpoints_discarded, 0u);
}

// Rollback and phase entry are two consumers of one barrier cut. From a
// golden phase trace, entering the phase at trace[g] and rolling back to
// the checkpoint committed at generation g must both finish on the golden
// timeline: the same output and, per thread, the same retired
// instruction and branch counts (the resume pre-deducts the re-executed
// Barrier and pending Calls exactly). The trace is captured once on the
// interpreter tier, as the compositional engine does, and resumed on both
// tiers.
TEST(CutIdentity, RollbackAndPhaseEntryResumeTheSameCut) {
  for (const char* name : {"fft", "radix"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    ASSERT_NE(bench, nullptr) << name;
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench->source);

    std::vector<vm::Checkpoint> trace;
    pipeline::ExecutionConfig golden_config;
    golden_config.num_threads = 4;
    golden_config.exec_tier = vm::ExecTier::Interpreter;
    golden_config.monitor = pipeline::MonitorMode::Off;
    golden_config.phase.active = true;
    golden_config.phase.trace = &trace;
    const pipeline::ExecutionResult golden =
        pipeline::execute(program, golden_config);
    ASSERT_TRUE(golden.run.ok) << name;
    ASSERT_GE(trace.size(), 2u) << name;
    std::string golden_section;
    for (const vm::ThreadOutcome& t : golden.run.threads) {
      golden_section += t.output;
    }

    auto expect_golden_counts = [&](const vm::RunResult& run,
                                    const std::string& where) {
      ASSERT_EQ(run.threads.size(), golden.run.threads.size()) << where;
      for (std::size_t t = 0; t < run.threads.size(); ++t) {
        EXPECT_EQ(run.threads[t].instructions,
                  golden.run.threads[t].instructions)
            << where << " thread " << t;
        EXPECT_EQ(run.threads[t].branches, golden.run.threads[t].branches)
            << where << " thread " << t;
      }
    };

    for (vm::ExecTier tier : {vm::ExecTier::Interpreter,
                              vm::ExecTier::Threaded}) {
      for (std::uint64_t g = 1; g < trace.size(); ++g) {
        const std::string where = std::string(name) + " tier " +
                                  vm::to_string(tier) + " generation " +
                                  std::to_string(g);

        pipeline::ExecutionConfig entry;
        entry.num_threads = 4;
        entry.exec_tier = tier;
        entry.monitor = pipeline::MonitorMode::Off;
        entry.phase.active = true;
        entry.phase.entry = &trace[g];
        const pipeline::ExecutionResult phased =
            pipeline::execute(program, entry);
        EXPECT_TRUE(phased.run.ok) << where;
        EXPECT_EQ(phased.run.output, golden_section) << where;
        expect_golden_counts(phased.run, where + " (phase entry)");

        pipeline::ExecutionConfig rollback = recovery_config();
        rollback.exec_tier = tier;
        rollback.recovery.ring_capacity = 4;
        rollback.recovery.rollback_lag = 0;
        rollback.recovery.force_rollback_after_checkpoint = g;
        const pipeline::ExecutionResult replayed =
            pipeline::execute(program, rollback);
        EXPECT_TRUE(replayed.run.ok) << where;
        EXPECT_FALSE(replayed.detected) << where;
        EXPECT_EQ(replayed.recovery.rollbacks, 1u) << where;
        EXPECT_EQ(replayed.run.output, golden.run.output) << where;
        expect_golden_counts(replayed.run, where + " (rollback)");
      }
    }
  }
}

}  // namespace
