// Compositional-campaign suite (ctest label "compositional"): the proof
// obligations behind fault/compositional.h.
//   * Unit layer: largest-remainder apportionment, the per-phase watchdog
//     budget, and the state/code fingerprints (counter-insensitivity,
//     lock-order insensitivity, block-set sensitivity) that the phase
//     cache keys on.
//   * Delta classification: a phase whose faults are provably overwritten
//     before the cut composes to all-Benign; a phase whose faults flow
//     straight into the printed output composes to all-SDC; protected
//     runs surface in-phase detections.
//   * The headline differential: on EVERY registry kernel, for flip AND
//     cond faults, the composed SDC/coverage estimates agree with the
//     monolithic engine within overlapping Wilson 95% CIs.
//   * Engine determinism: byte-identical results for worker counts
//     {1, 2, 8}; kill-and-resume through the v3 checkpoint reproduces the
//     uninterrupted run; a semantics-preserving one-phase source edit
//     re-injects that phase plus only the continuation-dependent slots of
//     phases upstream of it, while every other slot is served from cache
//     with verdicts identical to a cold run of the edited kernel; a
//     SEMANTIC downstream edit invalidates upstream continuation verdicts
//     (the stale-cache regression); a warm serve that already satisfies
//     halt_after executes nothing.
//   * Telemetry: in both engines the per-verdict counters sum to
//     FaultActivated and to the result's activated count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "fault/compositional.h"
#include "pipeline/pipeline.h"
#include "support/diagnostics.h"
#include "support/telemetry/telemetry.h"
#include "vm/dispatch.h"

namespace {

using namespace bw;

// ---------------------------------------------------------------------------
// Kernels.
// ---------------------------------------------------------------------------

/// Four barrier phases with data-dependent (shared-similar) branches in
/// each; the mirror of the monolithic campaign-suite kernels.
const char* kPhasedKernel = R"BWC(
global int n = 96;
global int data[96];
global int sums[8];
func init() {
  for (int i = 0; i < n; i = i + 1) { data[i] = hashrand(i) % 100; }
}
func slave() {
  int p = nthreads();
  int id = tid();
  int s = 0;
  for (int i = id; i < n; i = i + p) {
    if (data[i] > 40) { s = s + data[i]; } else { s = s + 1; }
  }
  sums[id] = s;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + sums[t]; }
    print_i(total);
  }
  barrier();
  sums[id] = s / 2;
  barrier();
  if (id == 1) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + sums[t]; }
    print_i(total);
  }
}
)BWC";

/// One helper function per phase, so a single-phase source edit changes
/// exactly one phase's code fingerprint (the cache-invalidation case).
const char* kHelperKernel = R"BWC(
global int n = 64;
global int data[64];
global int sums[8];
global int out[8];
func init() {
  for (int i = 0; i < n; i = i + 1) { data[i] = hashrand(i) % 100; }
}
func phase_one(int id, int p) -> int {
  int s = 0;
  for (int i = id; i < n; i = i + p) {
    if (data[i] > 40) { s = s + data[i]; } else { s = s + 1; }
  }
  return s;
}
func phase_two(int id, int p) -> int {
  int s = 0;
  for (int i = id; i < n; i = i + p) {
    if (data[i] % 3 == 0) { s = s + 2; } else { s = s + data[i] % 5; }
  }
  return s;
}
func phase_three(int id) -> int {
  int s = sums[id];
  if (s > 100) { s = s - 50; } else { s = s + 7; }
  return s;
}
func slave() {
  int p = nthreads();
  int id = tid();
  sums[id] = phase_one(id, p);
  barrier();
  out[id] = phase_two(id, p) + sums[(id + 1) % p];
  barrier();
  out[id] = out[id] + phase_three(id);
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + out[t]; }
    print_i(total);
  }
}
)BWC";

fault::CampaignOptions base_options() {
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 40;
  options.type = fault::FaultType::BranchFlip;
  options.seed = 0xc0de5eed;
  options.protect = true;
  options.campaign_workers = 4;
  return options;
}

/// Golden capture identical to the engine's: compile unprotected, run the
/// interpreter tier once with the phase trace + block profile hooks on.
struct GoldenCapture {
  pipeline::CompiledProgram program;
  std::shared_ptr<const vm::ProgramCode> code;
  std::vector<vm::Checkpoint> trace;
  std::vector<std::vector<std::pair<std::uint32_t, std::uint32_t>>> profile;

  explicit GoldenCapture(const char* source, unsigned threads = 4)
      : program(pipeline::compile_program(source)),
        code(vm::acquire_program_code(*program.module)) {
    pipeline::ExecutionConfig config;
    config.num_threads = threads;
    config.exec_tier = vm::ExecTier::Interpreter;
    config.monitor = pipeline::MonitorMode::Off;
    config.phase.active = true;
    config.phase.trace = &trace;
    config.phase.block_profile = &profile;
    pipeline::ExecutionResult run = pipeline::execute(program, config);
    EXPECT_TRUE(run.run.ok);
    EXPECT_FALSE(trace.empty());
  }

  const vm::DecodedProgram& decoded() const { return code->decoded; }
};

void expect_equal_composition(const fault::CompositionalResult& a,
                              const fault::CompositionalResult& b) {
  EXPECT_EQ(a.composed.injected, b.composed.injected);
  EXPECT_EQ(a.composed.activated, b.composed.activated);
  EXPECT_EQ(a.composed.benign, b.composed.benign);
  EXPECT_EQ(a.composed.detected, b.composed.detected);
  EXPECT_EQ(a.composed.crashed, b.composed.crashed);
  EXPECT_EQ(a.composed.hung, b.composed.hung);
  EXPECT_EQ(a.composed.sdc, b.composed.sdc);
  EXPECT_EQ(a.composed.verdicts, b.composed.verdicts);
  EXPECT_EQ(a.null_injections, b.null_injections);
  ASSERT_EQ(a.phases.size(), b.phases.size());
  for (std::size_t p = 0; p < a.phases.size(); ++p) {
    EXPECT_EQ(a.phases[p].injections, b.phases[p].injections) << "phase " << p;
    EXPECT_EQ(a.phases[p].tally.verdicts, b.phases[p].tally.verdicts)
        << "phase " << p;
    EXPECT_EQ(a.phases[p].code_fp, b.phases[p].code_fp) << "phase " << p;
    EXPECT_EQ(a.phases[p].entry_fp, b.phases[p].entry_fp) << "phase " << p;
    EXPECT_EQ(a.phases[p].cont_fp, b.phases[p].cont_fp) << "phase " << p;
  }
  // Derived headline numbers follow from the tallies, but compare the CI
  // bounds bit-for-bit anyway: they are what EXPERIMENTS.md publishes.
  EXPECT_EQ(a.composed.sdc_interval().lo, b.composed.sdc_interval().lo);
  EXPECT_EQ(a.composed.sdc_interval().hi, b.composed.sdc_interval().hi);
  EXPECT_EQ(a.composed.coverage_interval().lo,
            b.composed.coverage_interval().lo);
  EXPECT_EQ(a.composed.coverage_interval().hi,
            b.composed.coverage_interval().hi);
}

void expect_exact_partition(const fault::CampaignResult& r) {
  EXPECT_EQ(r.benign + r.detected + r.recovered + r.crashed + r.hung + r.sdc +
                r.false_alarms,
            r.activated);
  EXPECT_LE(r.activated, r.injected);
}

bool overlaps(const fault::ConfidenceInterval& a,
              const fault::ConfidenceInterval& b) {
  return a.lo <= b.hi && b.lo <= a.hi;
}

std::string temp_path(const char* name) {
  return ::testing::TempDir() + name;
}

// ---------------------------------------------------------------------------
// Apportionment.
// ---------------------------------------------------------------------------

TEST(Apportionment, SumsToTotalAndTiesBreakTowardLowerIndex) {
  // Quotas 10/3 each: floors give 3+3+3, the single leftover goes to the
  // lowest index among the equal remainders.
  std::vector<int> plan = fault::apportion_injections({3, 3, 3}, 0, 10);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[0], 4);
  EXPECT_EQ(plan[1], 3);
  EXPECT_EQ(plan[2], 3);
  EXPECT_EQ(plan[3], 0);  // null bucket has zero weight
}

TEST(Apportionment, ZeroWeightBucketsNeverReceiveInjections) {
  std::vector<int> plan = fault::apportion_injections({0, 5, 0, 7}, 0, 9);
  ASSERT_EQ(plan.size(), 5u);
  EXPECT_EQ(plan[0], 0);
  EXPECT_EQ(plan[2], 0);
  EXPECT_EQ(plan[1] + plan[3], 9);
}

TEST(Apportionment, NullBucketTakesItsProportionalShare) {
  // Two phases of weight 1 each plus a null bucket of weight 2: half the
  // plan is NotActivated-by-construction.
  std::vector<int> plan = fault::apportion_injections({1, 1}, 2, 8);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0], 2);
  EXPECT_EQ(plan[1], 2);
  EXPECT_EQ(plan[2], 4);
}

TEST(Apportionment, AllZeroWeightsRouteEverythingToNull) {
  std::vector<int> plan = fault::apportion_injections({0, 0, 0}, 0, 5);
  ASSERT_EQ(plan.size(), 4u);
  EXPECT_EQ(plan[3], 5);
  EXPECT_EQ(plan[0] + plan[1] + plan[2], 0);
}

TEST(Apportionment, HugeWeightsDoNotOverflow) {
  // Products weight*total would overflow 64 bits; the engine works in
  // 128-bit arithmetic, so the split must stay exact.
  const std::uint64_t w = ~std::uint64_t{0} / 2;
  std::vector<int> plan = fault::apportion_injections({w, w}, 0, 1001);
  ASSERT_EQ(plan.size(), 3u);
  EXPECT_EQ(plan[0] + plan[1] + plan[2], 1001);
  EXPECT_EQ(plan[0], 501);  // tie toward the lower index
  EXPECT_EQ(plan[1], 500);
}

// ---------------------------------------------------------------------------
// Per-phase watchdog budget (the auto_instruction_budget() scope fix).
// ---------------------------------------------------------------------------

TEST(PhaseBudget, EntryCostIsChargedOnceAndDeltaIsScaled) {
  // A phase run retires the restored entry count exactly once, so only
  // the phase's own delta gets the 10x hang headroom.
  EXPECT_EQ(fault::auto_phase_instruction_budget(1000, 1),
            1000u + 10u + 1'000'000u);
  EXPECT_EQ(fault::auto_phase_instruction_budget(0, 0), 1'000'000u);
  EXPECT_GT(fault::auto_phase_instruction_budget(0, 0), 0u);
}

TEST(PhaseBudget, SaturatesInsteadOfWrapping) {
  const std::uint64_t huge = ~std::uint64_t{0} / 2;
  EXPECT_GE(fault::auto_phase_instruction_budget(huge, huge), huge);
  EXPECT_GE(fault::auto_phase_instruction_budget(0, ~std::uint64_t{0}), huge);
}

TEST(PhaseBudget, SingleInstructionPhaseDoesNotInheritWholeProgramScope) {
  // The regression auto_instruction_budget() had: scaling 10x the WHOLE
  // program hands a one-instruction phase a watchdog window the size of
  // the entire kernel, so a hung phase run burns the full program budget
  // before tripping. The per-phase budget must stay proportional to the
  // phase, not the program.
  fault::GoldenRun golden;
  golden.max_thread_instructions = 50'000'000;
  const std::uint64_t whole = fault::auto_instruction_budget(golden);
  const std::uint64_t phase = fault::auto_phase_instruction_budget(200'000, 1);
  EXPECT_LT(phase, whole / 100);
}

TEST(PhaseBudget, EngineAssignsTighterBudgetsToShorterPhases) {
  // In the 4-phase kernel, phase 0 (the data sweep) dwarfs phase 2 (one
  // store per thread); the engine must give phase 2 a budget derived from
  // ITS delta, strictly below what phase 0's delta demands on top of the
  // same entry cost.
  fault::CampaignOptions options = base_options();
  options.injections = 4;  // budgets come from the golden capture alone
  fault::CompositionalResult comp =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(comp.refused);
  ASSERT_EQ(comp.phase_count, 4u);
  // budget(p) = entry_p + 10*delta_p + slack, and entry_2 > entry_0 while
  // delta_2 << delta_0 — the short phase still lands a smaller budget.
  EXPECT_LT(comp.phases[2].budget, comp.phases[0].budget);
  for (const fault::PhaseOutcomeSummary& p : comp.phases) {
    EXPECT_GT(p.budget, 0u) << "phase " << p.phase;
  }
}

// ---------------------------------------------------------------------------
// Fingerprints (the cache keys).
// ---------------------------------------------------------------------------

TEST(StateFingerprint, IgnoresRetiredCountersButSeesStateEdits) {
  GoldenCapture golden(kPhasedKernel);
  ASSERT_GE(golden.trace.size(), 2u);
  const vm::Checkpoint& cp = golden.trace[1];
  const std::uint64_t base = fault::fingerprint_state(cp, golden.decoded());
  EXPECT_EQ(base, fault::fingerprint_state(cp, golden.decoded()));

  // Counter drift (what an upstream code-size edit causes) is invisible:
  // the cache must survive edits that leave the computed state intact.
  vm::Checkpoint counters = cp;
  counters.threads[0].instructions += 12345;
  counters.threads[0].branches += 7;
  counters.threads[0].barriers_crossed += 1;
  counters.generation += 1;
  EXPECT_EQ(base, fault::fingerprint_state(counters, golden.decoded()));

  // Real state edits are not.
  vm::Checkpoint heap = cp;
  heap.heap[0] += 1;
  EXPECT_NE(base, fault::fingerprint_state(heap, golden.decoded()));

  vm::Checkpoint output = cp;
  output.threads[0].output += "x";
  EXPECT_NE(base, fault::fingerprint_state(output, golden.decoded()));

  ASSERT_FALSE(cp.threads[0].frames.empty());
  ASSERT_FALSE(cp.threads[0].frames[0].regs.empty());
  vm::Checkpoint regs = cp;
  regs.threads[0].frames[0].regs[0] ^= 1;
  EXPECT_NE(base, fault::fingerprint_state(regs, golden.decoded()));
}

TEST(StateFingerprint, LockOwnerOrderIsNotPartOfTheState) {
  GoldenCapture golden(kPhasedKernel);
  vm::Checkpoint a = golden.trace[1];
  a.coordinator.lock_owners = {{1, 0}, {2, 3}};
  vm::Checkpoint b = golden.trace[1];
  b.coordinator.lock_owners = {{2, 3}, {1, 0}};
  EXPECT_EQ(fault::fingerprint_state(a, golden.decoded()),
            fault::fingerprint_state(b, golden.decoded()));
  // But the SET of held locks is.
  vm::Checkpoint c = golden.trace[1];
  c.coordinator.lock_owners = {{1, 0}};
  EXPECT_NE(fault::fingerprint_state(a, golden.decoded()),
            fault::fingerprint_state(c, golden.decoded()));
}

TEST(CodeFingerprint, BlockSetSensitiveButOrderAndDuplicateInsensitive) {
  GoldenCapture golden(kPhasedKernel);
  ASSERT_GE(golden.profile.size(), 2u);
  ASSERT_FALSE(golden.profile[0].empty());
  const std::uint64_t fp0 =
      fault::fingerprint_phase_code(golden.decoded(), golden.profile[0]);

  // The profile is a set: reversing it or double-counting a block (a
  // thread-count change does both) must not change the fingerprint.
  auto reversed = golden.profile[0];
  std::reverse(reversed.begin(), reversed.end());
  reversed.push_back(golden.profile[0].front());
  EXPECT_EQ(fp0, fault::fingerprint_phase_code(golden.decoded(), reversed));

  // Different phases run different block sets.
  EXPECT_NE(fp0, fault::fingerprint_phase_code(golden.decoded(),
                                               golden.profile[1]));

  // Dropping a block from the set changes the fingerprint.
  auto trimmed = golden.profile[0];
  trimmed.pop_back();
  EXPECT_NE(fp0, fault::fingerprint_phase_code(golden.decoded(), trimmed));
}

// ---------------------------------------------------------------------------
// Delta classification.
// ---------------------------------------------------------------------------

TEST(DeltaClassification, OverwrittenFaultsComposeToBenign) {
  // Phase 0's only branch feeds a value that is unconditionally
  // overwritten before the cut, so every flip of it is masked: either the
  // exit fingerprint already matches golden, or the continuation prints
  // the identical output. No phase-0 injection may escalate.
  const char* kMasked = R"BWC(
global int out[8];
func slave() {
  int id = tid();
  int p = nthreads();
  int s = 0;
  if (id % 2 == 0) { s = 1; } else { s = 2; }
  s = 7;
  barrier();
  out[id] = s + id;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + out[t]; }
    print_i(total);
  }
}
)BWC";
  fault::CampaignOptions options = base_options();
  options.protect = false;
  options.injections = 32;
  fault::CompositionalResult comp =
      fault::run_compositional_campaign(kMasked, options);
  ASSERT_FALSE(comp.refused);
  ASSERT_EQ(comp.phase_count, 3u);
  const fault::CampaignResult& p0 = comp.phases[0].tally;
  EXPECT_GT(p0.activated, 0);
  EXPECT_EQ(p0.benign, p0.activated);
  EXPECT_EQ(p0.sdc, 0);
  EXPECT_EQ(p0.crashed, 0);
  EXPECT_EQ(p0.hung, 0);
  expect_exact_partition(comp.composed);
}

TEST(DeltaClassification, SilentDeltaEscalatesThroughTheContinuation) {
  // Phase 0's branch decides the value each thread publishes; with no
  // monitor, every activated phase-0 flip must cross the cut as a silent
  // delta and be convicted as an SDC by the continuation run.
  const char* kTainted = R"BWC(
global int out[8];
func slave() {
  int id = tid();
  int p = nthreads();
  int v = 0;
  if (id % 2 == 0) { v = 10; } else { v = 20; }
  barrier();
  out[id] = v;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + out[t] * (t + 1); }
    print_i(total);
  }
}
)BWC";
  fault::CampaignOptions options = base_options();
  options.protect = false;
  options.injections = 32;
  fault::CompositionalResult comp =
      fault::run_compositional_campaign(kTainted, options);
  ASSERT_FALSE(comp.refused);
  ASSERT_EQ(comp.phase_count, 3u);
  const fault::CampaignResult& p0 = comp.phases[0].tally;
  EXPECT_GT(p0.activated, 0);
  EXPECT_EQ(p0.sdc, p0.activated);
  EXPECT_EQ(p0.benign, 0);
  expect_exact_partition(comp.composed);
}

TEST(DeltaClassification, ProtectedRunsDetectInsideThePhase) {
  fault::CampaignOptions options = base_options();
  options.injections = 48;
  fault::CompositionalResult comp =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(comp.refused);
  expect_exact_partition(comp.composed);
  EXPECT_GT(comp.composed.activated, 0);
  // The data sweep's branches are shared-similar, so the monitor catches
  // a nonzero share in-phase; detection short-circuits before any state
  // comparison, exactly like the monolithic classifier.
  EXPECT_GT(comp.composed.detected, 0);
}

TEST(DeltaClassification, BranchlessThreadsFillTheNullBucket) {
  // A straight-line slave never branches: every thread's weight routes to
  // the null bucket and the whole plan is NotActivated without running a
  // single injection.
  const char* kBranchless = R"BWC(
global int out[8];
func slave() {
  out[tid()] = tid() * 3;
}
)BWC";
  fault::CampaignOptions options = base_options();
  options.protect = false;
  options.injections = 24;
  fault::CompositionalResult comp =
      fault::run_compositional_campaign(kBranchless, options);
  ASSERT_FALSE(comp.refused);
  EXPECT_EQ(comp.null_injections, 24);
  EXPECT_EQ(comp.injections_executed, 0);
  EXPECT_EQ(comp.composed.injected, 24);
  EXPECT_EQ(comp.composed.activated, 0);
}

// ---------------------------------------------------------------------------
// Composed vs monolithic: the acceptance differential.
// ---------------------------------------------------------------------------

TEST(ComposedVsMonolithic, RegistryKernelsAgreeWithinWilsonCIsFlipAndCond) {
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    for (fault::FaultType type :
         {fault::FaultType::BranchFlip, fault::FaultType::BranchCondition}) {
      fault::CampaignOptions options = base_options();
      options.num_threads = std::min(4u, bench.max_threads);
      options.injections = 36;
      options.type = type;
      options.campaign_workers = 0;  // hardware concurrency

      fault::CompositionalResult comp =
          fault::run_compositional_campaign(bench.source, options);
      ASSERT_FALSE(comp.refused) << bench.name;
      EXPECT_EQ(comp.composed.injected, options.injections) << bench.name;
      expect_exact_partition(comp.composed);

      fault::CampaignResult mono = fault::run_campaign(bench.source, options);
      expect_exact_partition(mono);

      const char* type_name = fault::to_string(type);
      EXPECT_TRUE(
          overlaps(comp.composed.sdc_interval(), mono.sdc_interval()))
          << bench.name << "/" << type_name << ": composed sdc CI ["
          << comp.composed.sdc_interval().lo << ", "
          << comp.composed.sdc_interval().hi << "] vs monolithic ["
          << mono.sdc_interval().lo << ", " << mono.sdc_interval().hi << "]";
      EXPECT_TRUE(overlaps(comp.composed.coverage_interval(),
                           mono.coverage_interval()))
          << bench.name << "/" << type_name << ": composed coverage CI ["
          << comp.composed.coverage_interval().lo << ", "
          << comp.composed.coverage_interval().hi << "] vs monolithic ["
          << mono.coverage_interval().lo << ", "
          << mono.coverage_interval().hi << "]";
    }
  }
}

// ---------------------------------------------------------------------------
// Engine determinism.
// ---------------------------------------------------------------------------

TEST(WorkerInvariance, OneTwoAndEightWorkersAreByteIdentical) {
  fault::CompositionalResult reference;
  bool have_reference = false;
  for (unsigned workers : {1u, 2u, 8u}) {
    fault::CampaignOptions options = base_options();
    options.campaign_workers = workers;
    fault::CompositionalResult comp =
        fault::run_compositional_campaign(kPhasedKernel, options);
    ASSERT_FALSE(comp.refused);
    if (!have_reference) {
      reference = comp;
      have_reference = true;
      continue;
    }
    expect_equal_composition(reference, comp);
  }
}

TEST(KillAndResume, CheckpointV3ReproducesTheUninterruptedRun) {
  const std::string ckpt = temp_path("compositional_resume.ckpt");
  std::remove(ckpt.c_str());

  fault::CampaignOptions options = base_options();
  fault::CompositionalResult reference =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(reference.refused);

  // Simulated kill partway through the plan.
  options.checkpoint_file = ckpt;
  options.checkpoint_every = 4;
  options.halt_after = 9;
  fault::CompositionalResult halted =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(halted.refused);
  EXPECT_TRUE(halted.interrupted);
  EXPECT_LT(halted.composed.injected, options.injections);

  // Resume from the v3 file: the completed prefix is served from the
  // phase cache, the remainder executes, and the final composition is
  // identical to never having been killed.
  options.halt_after = 0;
  options.resume_file = ckpt;
  fault::CompositionalResult resumed =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(resumed.refused);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_GT(resumed.injections_cached, 0);
  EXPECT_LT(resumed.injections_executed,
            options.injections - resumed.null_injections);
  expect_equal_composition(reference, resumed);
  std::remove(ckpt.c_str());
}

TEST(KillAndResume, ResumeFromForeignCampaignThrows) {
  const std::string ckpt = temp_path("compositional_foreign.ckpt");
  std::remove(ckpt.c_str());
  fault::CampaignOptions options = base_options();
  options.checkpoint_file = ckpt;
  fault::CompositionalResult first =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(first.refused);

  fault::CampaignOptions other = base_options();
  other.seed ^= 1;  // different campaign identity
  other.resume_file = ckpt;
  EXPECT_THROW(fault::run_compositional_campaign(kPhasedKernel, other),
               support::CompileError);
  std::remove(ckpt.c_str());
}

TEST(PhaseCache, WarmRerunServesEverythingWithIdenticalVerdicts) {
  const std::string ckpt = temp_path("compositional_warm.ckpt");
  std::remove(ckpt.c_str());
  fault::CampaignOptions options = base_options();
  options.checkpoint_file = ckpt;

  fault::CompositionalResult cold =
      fault::run_compositional_campaign(kHelperKernel, options);
  ASSERT_FALSE(cold.refused);
  EXPECT_EQ(cold.injections_cached, 0);
  EXPECT_EQ(cold.phase_cache_hits, 0);
  EXPECT_GT(cold.injections_executed, 0);

  fault::CompositionalResult warm =
      fault::run_compositional_campaign(kHelperKernel, options);
  ASSERT_FALSE(warm.refused);
  EXPECT_EQ(warm.injections_executed, 0);
  EXPECT_GT(warm.phase_cache_hits, 0);
  EXPECT_EQ(warm.phase_cache_misses, 0);
  EXPECT_EQ(warm.injections_cached, cold.injections_executed);
  expect_equal_composition(cold, warm);
  std::remove(ckpt.c_str());
}

TEST(PhaseCache, EditingOnePhaseReinjectsItAndUpstreamContinuationSlots) {
  const std::string ckpt = temp_path("compositional_invalidate.ckpt");
  std::remove(ckpt.c_str());
  fault::CampaignOptions options = base_options();
  options.checkpoint_file = ckpt;

  fault::CompositionalResult original =
      fault::run_compositional_campaign(kHelperKernel, options);
  ASSERT_FALSE(original.refused);
  ASSERT_EQ(original.phase_count, 4u);

  // Edit ONLY phase_two's body, semantics-preserving so downstream entry
  // states stay identical (optimize is off by default, so the extra add
  // survives to the IR and changes phase 1's code fingerprint).
  std::string edited(kHelperKernel);
  const std::string from = "s = s + 2;";
  const std::size_t at = edited.find(from);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, from.size(), "s = s + 1 + 1;");

  fault::CompositionalResult incremental =
      fault::run_compositional_campaign(edited, options);
  ASSERT_FALSE(incremental.refused);
  ASSERT_EQ(incremental.phase_count, 4u);
  for (const fault::PhaseOutcomeSummary& p : incremental.phases) {
    if (p.phase == 1) {
      // The edited phase: stale by code fingerprint, fully re-injected.
      EXPECT_EQ(p.cached, 0);
      EXPECT_NE(p.code_fp, original.phases[1].code_fp);
      EXPECT_EQ(p.entry_fp, original.phases[1].entry_fp);
    } else if (p.phase > 1) {
      // Untouched DOWNSTREAM phases: the edit preserved their entry
      // states AND their continuation (only code before them changed),
      // so every slot is served from cache.
      EXPECT_EQ(p.cached, p.injections) << "phase " << p.phase;
      EXPECT_EQ(p.code_fp, original.phases[p.phase].code_fp);
      EXPECT_EQ(p.entry_fp, original.phases[p.phase].entry_fp);
      EXPECT_EQ(p.cont_fp, original.phases[p.phase].cont_fp)
          << "phase " << p.phase;
    } else {
      // Phase 0 is UPSTREAM of the edit: its own code and entry state are
      // untouched, but its continuation fingerprint shifted (phase 1's
      // code is part of it), so exactly the slots whose verdicts flowed
      // through a continuation run re-inject; in-phase verdicts
      // (NotActivated, in-phase detections, Benign via exit-fingerprint
      // match) are still served.
      EXPECT_EQ(p.code_fp, original.phases[0].code_fp);
      EXPECT_EQ(p.entry_fp, original.phases[0].entry_fp);
      EXPECT_NE(p.cont_fp, original.phases[0].cont_fp);
      EXPECT_LE(p.cached, p.injections);
    }
  }
  EXPECT_EQ(incremental.injections_executed,
            incremental.phases[1].injections +
                (incremental.phases[0].injections -
                 incremental.phases[0].cached));
  EXPECT_GE(incremental.phase_cache_misses, 1);

  // The cache never serves a stale slot: the incremental result must be
  // byte-identical to a cold (cache-free) campaign over the edited
  // kernel.
  fault::CampaignOptions cold_options = base_options();
  fault::CompositionalResult cold =
      fault::run_compositional_campaign(edited, cold_options);
  ASSERT_FALSE(cold.refused);
  expect_equal_composition(cold, incremental);
  std::remove(ckpt.c_str());
}

TEST(PhaseCache, DownstreamSemanticEditInvalidatesContinuationVerdicts) {
  // The stale-cache regression: phase 0's verdicts are classified by a
  // continuation run through the LAST phase and compared against the
  // whole-program golden output. A semantics-CHANGING edit to that last
  // phase leaves phase 0's (code_fp, entry_fp) untouched — if the cache
  // keyed on those alone, phase 0's all-SDC verdicts would be served
  // stale even though the edited program masks every one of them.
  const char* kChained = R"BWC(
global int out[8];
func slave() {
  int id = tid();
  int p = nthreads();
  int v = 0;
  if (id % 2 == 0) { v = 10; } else { v = 20; }
  barrier();
  out[id] = v;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + out[t] * (t + 1); }
    print_i(total);
  }
}
)BWC";
  const std::string ckpt = temp_path("compositional_downstream.ckpt");
  std::remove(ckpt.c_str());
  fault::CampaignOptions options = base_options();
  options.protect = false;  // every phase-0 flip crosses the cut silently
  options.injections = 32;
  options.checkpoint_file = ckpt;

  fault::CompositionalResult original =
      fault::run_compositional_campaign(kChained, options);
  ASSERT_FALSE(original.refused);
  ASSERT_EQ(original.phase_count, 3u);
  // Every activated phase-0 flip is convicted through the continuation.
  EXPECT_GT(original.phases[0].tally.activated, 0);
  EXPECT_EQ(original.phases[0].tally.sdc, original.phases[0].tally.activated);

  // Make the print phase ignore the corrupted data: the OLD phase-0 SDC
  // verdicts are now wrong (every flip is masked), while phase 0's own
  // code and entry state are byte-identical.
  std::string edited(kChained);
  const std::string from = "print_i(total);";
  const std::size_t at = edited.find(from);
  ASSERT_NE(at, std::string::npos);
  edited.replace(at, from.size(), "print_i(0);");

  fault::CompositionalResult incremental =
      fault::run_compositional_campaign(edited, options);
  ASSERT_FALSE(incremental.refused);
  ASSERT_EQ(incremental.phase_count, 3u);
  // Phase 0: same code, same entry state, different continuation — its
  // continuation-dependent verdicts (all of them here) must re-inject.
  EXPECT_EQ(incremental.phases[0].code_fp, original.phases[0].code_fp);
  EXPECT_EQ(incremental.phases[0].entry_fp, original.phases[0].entry_fp);
  EXPECT_NE(incremental.phases[0].cont_fp, original.phases[0].cont_fp);
  EXPECT_EQ(incremental.phases[0].cached, 0);
  // And the fresh phase-0 classification agrees with a cold run of the
  // edited kernel: no phase-0 SDC survives (the stale cache would have
  // reported all of them). Flips inside the edited print phase itself can
  // still corrupt output, so only phase 0 must go clean.
  EXPECT_EQ(incremental.phases[0].tally.sdc, 0);
  EXPECT_GT(incremental.phases[0].tally.activated, 0);
  EXPECT_EQ(incremental.phases[0].tally.benign,
            incremental.phases[0].tally.activated);
  fault::CampaignOptions cold_options = base_options();
  cold_options.protect = false;
  cold_options.injections = 32;
  fault::CompositionalResult cold =
      fault::run_compositional_campaign(edited, cold_options);
  ASSERT_FALSE(cold.refused);
  expect_equal_composition(cold, incremental);
  std::remove(ckpt.c_str());
}

TEST(PhaseCache, WarmServeAloneSatisfiesHaltAfter) {
  // halt_after must account for cache-served injections BEFORE any worker
  // claims a task: a warm serve that already meets the quota executes
  // nothing (the regression: every worker ran one extra injection).
  const std::string ckpt = temp_path("compositional_halt_warm.ckpt");
  std::remove(ckpt.c_str());
  fault::CampaignOptions options = base_options();
  options.checkpoint_file = ckpt;
  options.checkpoint_every = 4;
  options.halt_after = 9;

  fault::CompositionalResult first =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(first.refused);
  EXPECT_TRUE(first.interrupted);
  EXPECT_GE(first.injections_executed, 9);

  fault::CompositionalResult second =
      fault::run_compositional_campaign(kPhasedKernel, options);
  ASSERT_FALSE(second.refused);
  EXPECT_GE(second.injections_cached, 9);
  EXPECT_EQ(second.injections_executed, 0);
  std::remove(ckpt.c_str());
}

TEST(PhaseCache, PcLinesRoundTripContinuationFingerprintAndBits) {
  // v3 `pc` line round-trip: the continuation fingerprint and the
  // per-slot via_continuation bits (verdict | via << 3, one lowercase
  // hex digit per slot) must survive to_text/from_text unchanged.
  fault::CampaignCheckpoint cp;
  cp.seed = 0xabcdef;
  cp.type = fault::FaultType::BranchFlip;
  cp.injections = 8;
  cp.num_threads = 4;
  fault::PhaseCacheEntry entry;
  entry.phase = 2;
  entry.code_fp = 0x1122334455667788ULL;
  entry.entry_fp = 0x99aabbccddeeff00ULL;
  entry.cont_fp = 0x0123456789abcdefULL;
  entry.verdicts = {fault::Verdict::NotActivated, fault::Verdict::Sdc,
                    fault::Verdict::Benign, fault::Verdict::Detected,
                    fault::Verdict::Hung};
  entry.via_continuation = {0, 1, 0, 1, 1};
  cp.phase_cache.push_back(entry);

  fault::CampaignCheckpoint parsed;
  std::string error;
  ASSERT_TRUE(
      fault::CampaignCheckpoint::from_text(cp.to_text(), parsed, &error))
      << error;
  ASSERT_EQ(parsed.phase_cache.size(), 1u);
  const fault::PhaseCacheEntry& back = parsed.phase_cache[0];
  EXPECT_EQ(back.phase, entry.phase);
  EXPECT_EQ(back.code_fp, entry.code_fp);
  EXPECT_EQ(back.entry_fp, entry.entry_fp);
  EXPECT_EQ(back.cont_fp, entry.cont_fp);
  EXPECT_EQ(back.verdicts, entry.verdicts);
  EXPECT_EQ(back.via_continuation, entry.via_continuation);
}

#if !defined(BW_TELEMETRY_DISABLED)
TEST(EngineTelemetry, VerdictCountersSumToActivatedInBothEngines) {
  // Both engines record every injection through one classifier, so the
  // per-verdict counters partition FaultActivated, which equals the
  // result's activated count (the regression: compositional campaigns
  // ticked FaultActivated but no verdict counter).
  using telemetry::Counter;
  const fault::CampaignOptions options = base_options();
  for (bool compositional : {false, true}) {
    SCOPED_TRACE(compositional ? "compositional" : "monolithic");
    telemetry::set_enabled(true);
    telemetry::reset();
    const int activated =
        compositional
            ? fault::run_compositional_campaign(kPhasedKernel, options)
                  .composed.activated
            : fault::run_campaign(kPhasedKernel, options).activated;
    const telemetry::Snapshot snapshot = telemetry::scrape();
    telemetry::set_enabled(false);
    telemetry::reset();

    std::uint64_t verdicts = 0;
    for (Counter c : {Counter::FaultBenign, Counter::FaultDetected,
                      Counter::FaultRecovered, Counter::FaultCrashed,
                      Counter::FaultHung, Counter::FaultSdc,
                      Counter::FaultFalseAlarm}) {
      verdicts += snapshot.counter(c);
    }
    EXPECT_GT(activated, 0);
    EXPECT_EQ(snapshot.counter(Counter::FaultActivated),
              static_cast<std::uint64_t>(activated));
    EXPECT_EQ(verdicts, static_cast<std::uint64_t>(activated));
  }
}
#endif  // !BW_TELEMETRY_DISABLED

// ---------------------------------------------------------------------------
// Conditional barriers: faults that steer a thread past a barrier.
// ---------------------------------------------------------------------------

TEST(ConditionalBarrier, BarrierSkippingFaultsComposeLikeMonolithic) {
  // A barrier guarded by a data-dependent condition: a phase-0 flip can
  // steer the victim past the cut entirely, desynchronizing its barrier
  // census from the cut the engine wants to capture. The coordinator's
  // full-census release turns most of these into in-phase hangs; whatever
  // the classification, it must agree with the monolithic engine's
  // end-to-end verdict distribution and never violate the partition.
  const char* kCondBarrier = R"BWC(
global int out[8];
func slave() {
  int id = tid();
  int p = nthreads();
  int v = id + 1;
  if (v > 0) { barrier(); }
  out[id] = v * 3;
  barrier();
  if (id == 0) {
    int total = 0;
    for (int t = 0; t < p; t = t + 1) { total = total + out[t]; }
    print_i(total);
  }
}
)BWC";
  fault::CampaignOptions options = base_options();
  options.protect = false;
  options.injections = 32;
  fault::CompositionalResult comp =
      fault::run_compositional_campaign(kCondBarrier, options);
  ASSERT_FALSE(comp.refused);
  ASSERT_EQ(comp.phase_count, 3u);
  expect_exact_partition(comp.composed);
  // The conditional-barrier phase got injections and some flip skipped
  // the barrier (the peers then starve at the full-census release).
  EXPECT_GT(comp.phases[0].tally.activated, 0);
  EXPECT_GT(comp.composed.hung, 0);

  fault::CampaignResult mono = fault::run_campaign(kCondBarrier, options);
  expect_exact_partition(mono);
  EXPECT_TRUE(overlaps(comp.composed.sdc_interval(), mono.sdc_interval()));
  EXPECT_TRUE(overlaps(comp.composed.coverage_interval(),
                       mono.coverage_interval()));

  // Worker-count invariance holds through the hang path too.
  fault::CampaignOptions solo = options;
  solo.campaign_workers = 1;
  fault::CompositionalResult comp1 =
      fault::run_compositional_campaign(kCondBarrier, solo);
  ASSERT_FALSE(comp1.refused);
  expect_equal_composition(comp, comp1);
}

// ---------------------------------------------------------------------------
// Refusals.
// ---------------------------------------------------------------------------

TEST(Refusals, UncomposableConfigurationsAreRefusedNotMisestimated) {
  {
    fault::CampaignOptions options = base_options();
    options.type = fault::FaultType::TargetedFlip;
    fault::CompositionalResult r =
        fault::run_compositional_campaign(kPhasedKernel, options);
    EXPECT_TRUE(r.refused);
    EXPECT_FALSE(r.refusal_reason.empty());
    EXPECT_EQ(r.composed.injected, 0);
  }
  {
    fault::CampaignOptions options = base_options();
    options.type = fault::FaultType::MonitorStall;
    fault::CompositionalResult r =
        fault::run_compositional_campaign(kPhasedKernel, options);
    EXPECT_TRUE(r.refused);
    EXPECT_FALSE(r.refusal_reason.empty());
  }
  {
    fault::CampaignOptions options = base_options();
    options.recovery.enabled = true;
    fault::CompositionalResult r =
        fault::run_compositional_campaign(kPhasedKernel, options);
    EXPECT_TRUE(r.refused);
    EXPECT_FALSE(r.refusal_reason.empty());
  }
}

}  // namespace
