// Differential suite for the VM's two execution tiers: the interpreter
// (the oracle) and the direct-threaded dispatcher (vm/dispatch.h) must be
// observationally identical on every verified module — same outputs, same
// per-thread retired-instruction and dynamic-branch counts, same traps,
// same monitor verdicts, same recovery partitions, same campaign
// checkpoints. Any divergence is a decoder or handler bug by definition:
// the threaded tier may only be FASTER, never different.
//
// Coverage matrix (rotated across 50 generated kernels so each seed stays
// cheap): {legacy, sharded} monitor backends x {clean, branch-flip,
// targeted-flip} runs x recovery on/off x pinned sampling rates, plus
// fixed-kernel campaign differentials, cross-tier checkpoint resume, and
// the BudgetWatchdogParity regression referenced by
// fault::auto_instruction_budget().
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <map>
#include <string>
#include <utility>

#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "kernel_generator.h"
#include "pipeline/pipeline.h"
#include "runtime/checker.h"
#include "test_support.h"
#include "vm/dispatch.h"

namespace {

using namespace bw;

constexpr const char* kKernel = R"BWC(
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
}
)BWC";

pipeline::ExecutionResult run_tier(const pipeline::CompiledProgram& program,
                                   pipeline::ExecutionConfig config,
                                   vm::ExecTier tier) {
  config.exec_tier = tier;
  return pipeline::execute(program, config);
}

/// The full deterministic surface of a CLEAN (undetected, untrapped) run.
/// Everything here is scheduling-independent for race-free kernels, so the
/// tiers must match it byte for byte.
void expect_clean_runs_identical(const pipeline::ExecutionResult& interp,
                                 const pipeline::ExecutionResult& threaded,
                                 const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(interp.run.tier, vm::ExecTier::Interpreter);
  EXPECT_EQ(threaded.run.tier, vm::ExecTier::Threaded);
  EXPECT_EQ(interp.run.ok, threaded.run.ok);
  EXPECT_EQ(interp.run.hang, threaded.run.hang);
  EXPECT_EQ(interp.run.crash, threaded.run.crash);
  EXPECT_EQ(interp.run.detected, threaded.run.detected);
  EXPECT_EQ(interp.run.output, threaded.run.output);
  EXPECT_EQ(interp.run.total_instructions, threaded.run.total_instructions);
  EXPECT_EQ(interp.run.total_branches, threaded.run.total_branches);
  ASSERT_EQ(interp.run.threads.size(), threaded.run.threads.size());
  for (std::size_t t = 0; t < interp.run.threads.size(); ++t) {
    const vm::ThreadOutcome& a = interp.run.threads[t];
    const vm::ThreadOutcome& b = threaded.run.threads[t];
    EXPECT_EQ(a.trap, b.trap) << "thread " << t;
    EXPECT_EQ(a.instructions, b.instructions) << "thread " << t;
    EXPECT_EQ(a.branches, b.branches) << "thread " << t;
    EXPECT_EQ(a.output, b.output) << "thread " << t;
  }
  EXPECT_EQ(interp.detected, threaded.detected);
  EXPECT_EQ(interp.violations.size(), threaded.violations.size());
  // The VM emits an identical report stream under either tier, and a clean
  // run drains it completely, so the monitor-side tallies match too.
  EXPECT_EQ(interp.monitor_stats.reports_processed,
            threaded.monitor_stats.reports_processed);
  EXPECT_EQ(interp.monitor_stats.instances_checked,
            threaded.monitor_stats.instances_checked);
  EXPECT_EQ(interp.monitor_stats.reports_sampled_out,
            threaded.monitor_stats.reports_sampled_out);
}

/// cmd_inject's outcome taxonomy, shared by the fault differentials below.
enum class Outcome { NotActivated, Recovered, Detected, Crash, Hang,
                     Benign, Sdc };

Outcome classify(const pipeline::ExecutionResult& result,
                 const std::string& golden_output) {
  if (!result.run.fault_applied) return Outcome::NotActivated;
  if (result.recovered) return Outcome::Recovered;
  if (result.detected) return Outcome::Detected;
  if (result.run.crash) return Outcome::Crash;
  if (result.run.hang) return Outcome::Hang;
  return result.run.output == golden_output ? Outcome::Benign : Outcome::Sdc;
}

/// One injected run under both tiers. Detection aborts victim threads at a
/// scheduling-dependent point, so the comparable surface is the VERDICT;
/// runs that complete undetected are fully deterministic and must match
/// output and counters exactly.
void expect_fault_verdicts_identical(
    const pipeline::CompiledProgram& program,
    const pipeline::ExecutionConfig& config,
    const std::string& golden_output, const char* what) {
  SCOPED_TRACE(what);
  pipeline::ExecutionResult interp =
      run_tier(program, config, vm::ExecTier::Interpreter);
  pipeline::ExecutionResult threaded =
      run_tier(program, config, vm::ExecTier::Threaded);
  EXPECT_EQ(interp.run.fault_applied, threaded.run.fault_applied);
  EXPECT_EQ(classify(interp, golden_output),
            classify(threaded, golden_output));
  if (!interp.detected && !interp.run.crash && !interp.run.hang &&
      !threaded.detected && !threaded.run.crash && !threaded.run.hang) {
    EXPECT_EQ(interp.run.output, threaded.run.output);
    EXPECT_EQ(interp.run.total_instructions,
              threaded.run.total_instructions);
    EXPECT_EQ(interp.run.total_branches, threaded.run.total_branches);
  }
}

/// The deterministic surface of a CampaignResult (mirrors
/// campaign_parallel_test.cpp): partition, recovery tallies, verdict list.
void expect_campaigns_identical(const fault::CampaignResult& a,
                                const fault::CampaignResult& b,
                                const char* what) {
  SCOPED_TRACE(what);
  EXPECT_EQ(a.injected, b.injected);
  EXPECT_EQ(a.activated, b.activated);
  EXPECT_EQ(a.benign, b.benign);
  EXPECT_EQ(a.detected, b.detected);
  EXPECT_EQ(a.recovered, b.recovered);
  EXPECT_EQ(a.crashed, b.crashed);
  EXPECT_EQ(a.hung, b.hung);
  EXPECT_EQ(a.sdc, b.sdc);
  EXPECT_EQ(a.false_alarms, b.false_alarms);
  EXPECT_EQ(a.recovered_mismatch, b.recovered_mismatch);
  EXPECT_EQ(a.retry_exhausted_runs, b.retry_exhausted_runs);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.coverage(), b.coverage());
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i], b.verdicts[i]) << "verdict " << i;
  }
}

fault::CampaignResult run_campaign_tier(const std::string& source,
                                        fault::CampaignOptions options,
                                        vm::ExecTier tier) {
  options.exec_tier = tier;
  return fault::run_campaign(source, options);
}

// ---------------------------------------------------------------------------
// Generated-kernel sweep: 50 seeds, matrix dimensions rotated per seed.
// ---------------------------------------------------------------------------

class TierDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TierDifferential, TiersAreObservationallyIdentical) {
  const std::uint64_t seed = GetParam();
  test::ProgramGenerator generator(seed);
  const std::string source = generator.generate();
  SCOPED_TRACE(source);

  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::protect_program(source));

  // Clean differential under BOTH monitor backends; a pinned sampling rate
  // rotates in every fifth seed (forced 1-in-N is the deterministic
  // sampling path, so its skip pattern must be tier-invariant too).
  for (bool sharded : {false, true}) {
    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    if (sharded) config.monitor_shards = 1u << (seed % 3);  // 1, 2, 4
    if (seed % 5 == 0) config.monitor_options.sampling.forced_rate = 4;
    pipeline::ExecutionResult interp =
        run_tier(program, config, vm::ExecTier::Interpreter);
    pipeline::ExecutionResult threaded =
        run_tier(program, config, vm::ExecTier::Threaded);
    ASSERT_TRUE(interp.run.ok);
    EXPECT_EQ(interp.violations.size(), 0u);
    expect_clean_runs_identical(interp, threaded,
                                sharded ? "clean, sharded backend"
                                        : "clean, legacy backend");
  }

  // Golden profiles must agree before any fault targeting can.
  fault::GoldenRun golden_i =
      fault::golden_run(program, 4, vm::ExecTier::Interpreter);
  fault::GoldenRun golden_t =
      fault::golden_run(program, 4, vm::ExecTier::Threaded);
  EXPECT_EQ(golden_i.output, golden_t.output);
  EXPECT_EQ(golden_i.max_thread_instructions,
            golden_t.max_thread_instructions);
  ASSERT_EQ(golden_i.branches_per_thread, golden_t.branches_per_thread);

  // Fault differentials: one one-shot flip and one targeted barrage per
  // seed, aimed at a seed-derived dynamic branch; recovery rides along on
  // every third seed.
  const unsigned victim = static_cast<unsigned>(seed % 4);
  const std::uint64_t dyn_branches =
      golden_i.branches_per_thread[victim];
  if (dyn_branches == 0) return;  // nothing to flip on this seed
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.instruction_budget = fault::auto_instruction_budget(golden_i);
  config.fault.active = true;
  config.fault.thread = victim;
  config.fault.target_branch = 1 + (seed * 7919) % dyn_branches;
  config.recovery.enabled = (seed % 3 == 0);
  if (seed % 2) {
    config.monitor_shards = 2;  // the fault matrix covers sharded too
  }

  config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
  expect_fault_verdicts_identical(program, config, golden_i.output,
                                  "one-shot branch flip");

  config.fault.targeted = true;
  config.fault.targeted_flips = 3;
  expect_fault_verdicts_identical(program, config, golden_i.output,
                                  "targeted flip barrage");
}

INSTANTIATE_TEST_SUITE_P(Seeds, TierDifferential,
                         ::testing::Range<std::uint64_t>(1, 51));

// ---------------------------------------------------------------------------
// Fixed-kernel campaign differentials.
// ---------------------------------------------------------------------------

fault::CampaignOptions campaign_options(fault::FaultType type) {
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 32;
  options.type = type;
  options.seed = 0x7137D1FFULL;
  options.campaign_workers = 2;
  return options;
}

TEST(TierCampaign, BranchFlipVerdictsAreTierInvariant) {
  fault::CampaignOptions options =
      campaign_options(fault::FaultType::BranchFlip);
  expect_campaigns_identical(
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter),
      run_campaign_tier(kKernel, options, vm::ExecTier::Threaded),
      "branch-flip campaign");
}

TEST(TierCampaign, ConditionBitVerdictsAreTierInvariant) {
  fault::CampaignOptions options =
      campaign_options(fault::FaultType::BranchCondition);
  expect_campaigns_identical(
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter),
      run_campaign_tier(kKernel, options, vm::ExecTier::Threaded),
      "condition-bit campaign");
}

TEST(TierCampaign, TargetedFlipVerdictsAreTierInvariant) {
  fault::CampaignOptions options =
      campaign_options(fault::FaultType::TargetedFlip);
  options.targeted_flips = 3;
  expect_campaigns_identical(
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter),
      run_campaign_tier(kKernel, options, vm::ExecTier::Threaded),
      "targeted-flip campaign");
}

TEST(TierCampaign, RecoveryPartitionIsTierInvariant) {
  fault::CampaignOptions options =
      campaign_options(fault::FaultType::BranchFlip);
  options.recovery.enabled = true;
  options.recovery.checkpoint_interval = 1;
  expect_campaigns_identical(
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter),
      run_campaign_tier(kKernel, options, vm::ExecTier::Threaded),
      "recovery campaign");
}

TEST(TierCampaign, SampledCampaignIsTierInvariant) {
  fault::CampaignOptions options =
      campaign_options(fault::FaultType::BranchFlip);
  options.monitor.sampling.forced_rate = 4;
  expect_campaigns_identical(
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter),
      run_campaign_tier(kKernel, options, vm::ExecTier::Threaded),
      "sampled campaign (forced 1-in-4)");
}

// A campaign checkpointed under one tier must resume under the other and
// still reproduce the uninterrupted result: checkpoints record verdicts,
// not execution machinery, so the tier is free to change across the kill.
TEST(TierCampaign, CheckpointWrittenByInterpreterResumesUnderThreaded) {
  const std::string ckpt =
      ::testing::TempDir() + "bw_tier_resume_test.ckpt";
  fault::CampaignOptions options =
      campaign_options(fault::FaultType::BranchFlip);

  fault::CampaignResult reference =
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter);
  ASSERT_FALSE(reference.interrupted);

  options.checkpoint_file = ckpt;
  options.checkpoint_every = 4;
  options.halt_after = 11;
  fault::CampaignResult partial =
      run_campaign_tier(kKernel, options, vm::ExecTier::Interpreter);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_LT(partial.injected, options.injections);

  options.halt_after = 0;
  options.checkpoint_file.clear();
  options.resume_file = ckpt;
  fault::CampaignResult resumed =
      run_campaign_tier(kKernel, options, vm::ExecTier::Threaded);
  EXPECT_EQ(resumed.resumed, partial.injected);
  EXPECT_FALSE(resumed.interrupted);
  expect_campaigns_identical(reference, resumed,
                             "interpreter checkpoint -> threaded resume");
  std::remove(ckpt.c_str());
}

// ---------------------------------------------------------------------------
// Muted sites: below a check's min_reporters the VM sends none of its
// reports, identically on both tiers.
// ---------------------------------------------------------------------------

/// One tier's report stream, counted per (check, static site).
struct SiteCounts {
  std::map<std::pair<int, std::uint32_t>, std::uint64_t> per_site;
  std::array<std::uint64_t, 4> per_code{};
  std::uint64_t muted = 0;
};

SiteCounts record_reports(const pipeline::CompiledProgram& program,
                          unsigned threads, vm::ExecTier tier) {
  test::RecorderSink sink(threads);
  vm::RunOptions options;
  options.num_threads = threads;
  options.tier = tier;
  options.monitor = &sink;
  vm::RunResult run = vm::run_program(*program.module, options);
  EXPECT_TRUE(run.ok) << vm::to_string(tier) << " threads=" << threads;
  SiteCounts counts;
  counts.muted = run.reports_muted;
  for (const auto& stream : sink.streams()) {
    for (const runtime::BranchReport& r : stream) {
      const int code = static_cast<int>(r.check);
      ++counts.per_site[{code, r.static_id}];
      ++counts.per_code[static_cast<std::size_t>(code)];
    }
  }
  return counts;
}

// fft carries monotone sites, water and fmm ThreadIdEq sites; together
// they carry all four check codes. At 1-3 threads the codes that cannot
// fire send nothing on either tier, the rest arrive site for site alike,
// and at 4 threads nothing is muted.
TEST(TierMute, MutedChecksSendNothingAndTiersAgree) {
  std::array<std::uint64_t, 4> at_four{};
  for (const char* name : {"fft", "water_nsq", "fmm"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    ASSERT_NE(bench, nullptr) << name;
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench->source);
    for (unsigned threads : {1u, 2u, 3u, 4u}) {
      SCOPED_TRACE(std::string(name) + " threads=" + std::to_string(threads));
      const SiteCounts interp =
          record_reports(program, threads, vm::ExecTier::Interpreter);
      const SiteCounts threaded =
          record_reports(program, threads, vm::ExecTier::Threaded);
      const std::uint8_t mask = runtime::unfireable_checks(threads);
      for (std::size_t code = 0; code < 4; ++code) {
        if ((mask >> code & 1u) != 0) {
          EXPECT_EQ(interp.per_code[code], 0u) << "code " << code;
          EXPECT_EQ(threaded.per_code[code], 0u) << "code " << code;
        }
      }
      EXPECT_EQ(interp.per_site, threaded.per_site);
      EXPECT_EQ(interp.muted, threaded.muted);
      if (mask == 0) {
        EXPECT_EQ(interp.muted, 0u);
        for (std::size_t code = 0; code < 4; ++code) {
          at_four[code] += interp.per_code[code];
        }
      } else {
        EXPECT_GT(interp.muted, 0u);
      }
    }
  }
  for (std::size_t code = 0; code < 4; ++code) {
    EXPECT_GT(at_four[code], 0u) << "code " << code << " never reported";
  }
}

// ---------------------------------------------------------------------------
// Watchdog parity: the regression test auto_instruction_budget() cites.
// ---------------------------------------------------------------------------

// Both tiers charge the same LOGICAL retired-instruction stream (the
// threaded tier folds phi retirement into its pre-resolved edges but
// charges identical totals), so a budget profiled under either tier trips
// the watchdog at the same logical point under both. Single-threaded so
// no peer-abort timing can blur the trap site. The kernel loops long
// enough (~120k retired instructions) that several poll points — where
// the budget is actually checked — fall beyond the halved budget.
constexpr const char* kLongKernel = R"BWC(
global int out[4];
func slave() {
  int id = tid();
  int acc = 0;
  for (int i = 0; i < 20000; i = i + 1) {
    if (i % 7 == 0) { acc = acc + i; } else { acc = acc + 1; }
  }
  out[id] = acc;
  if (id == 0) { print_i(acc); }
}
)BWC";

TEST(BudgetWatchdogParity, BothTiersTripAtTheSameLogicalInstruction) {
  pipeline::CompiledProgram program = pipeline::protect_program(kLongKernel);

  fault::GoldenRun golden_i =
      fault::golden_run(program, 1, vm::ExecTier::Interpreter);
  fault::GoldenRun golden_t =
      fault::golden_run(program, 1, vm::ExecTier::Threaded);
  EXPECT_EQ(golden_i.max_thread_instructions,
            golden_t.max_thread_instructions);
  EXPECT_EQ(fault::auto_instruction_budget(golden_i),
            fault::auto_instruction_budget(golden_t));

  pipeline::ExecutionConfig config;
  config.num_threads = 1;
  config.instruction_budget = golden_i.max_thread_instructions / 2;
  ASSERT_GT(config.instruction_budget, 0u);
  pipeline::ExecutionResult interp =
      run_tier(program, config, vm::ExecTier::Interpreter);
  pipeline::ExecutionResult threaded =
      run_tier(program, config, vm::ExecTier::Threaded);

  ASSERT_FALSE(interp.run.ok);
  ASSERT_FALSE(threaded.run.ok);
  EXPECT_TRUE(interp.run.hang);
  EXPECT_TRUE(threaded.run.hang);
  ASSERT_EQ(interp.run.threads.size(), 1u);
  ASSERT_EQ(threaded.run.threads.size(), 1u);
  EXPECT_EQ(interp.run.threads[0].trap, vm::TrapKind::InstructionBudget);
  EXPECT_EQ(threaded.run.threads[0].trap, vm::TrapKind::InstructionBudget);
  // The trap fires at the poll cadence, which both tiers share, so the
  // retired count AT the trap is identical — the parity that makes
  // auto budgets portable across tiers.
  EXPECT_EQ(interp.run.threads[0].instructions,
            threaded.run.threads[0].instructions);
  EXPECT_EQ(interp.run.total_instructions, threaded.run.total_instructions);
}

// ---------------------------------------------------------------------------
// Tier selection plumbing and the decode cache.
// ---------------------------------------------------------------------------

TEST(ExecTierApi, ParseResolveAndReport) {
  vm::ExecTier tier = vm::ExecTier::Auto;
  EXPECT_TRUE(vm::parse_exec_tier("interpreter", tier));
  EXPECT_EQ(tier, vm::ExecTier::Interpreter);
  EXPECT_TRUE(vm::parse_exec_tier("threaded", tier));
  EXPECT_EQ(tier, vm::ExecTier::Threaded);
  EXPECT_TRUE(vm::parse_exec_tier("auto", tier));
  EXPECT_EQ(tier, vm::ExecTier::Auto);
  EXPECT_FALSE(vm::parse_exec_tier("jit", tier));
  EXPECT_EQ(tier, vm::ExecTier::Auto);  // untouched on failure

  EXPECT_EQ(vm::resolve_tier(vm::ExecTier::Auto), vm::ExecTier::Threaded);
  EXPECT_EQ(vm::resolve_tier(vm::ExecTier::Interpreter),
            vm::ExecTier::Interpreter);
  EXPECT_STREQ(vm::to_string(vm::ExecTier::Threaded), "threaded");

  // The pipeline reports the RESOLVED tier, never Auto.
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 2;
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  EXPECT_EQ(result.run.tier, vm::ExecTier::Threaded);
}

TEST(DecodeCache, SecondRunOfAModuleHitsTheCache) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  vm::decode_cache_clear();

  pipeline::ExecutionConfig config;
  config.num_threads = 2;
  config.exec_tier = vm::ExecTier::Threaded;
  pipeline::ExecutionResult first = pipeline::execute(program, config);
  ASSERT_TRUE(first.run.ok);
  vm::DecodeCacheStats after_first = vm::decode_cache_stats();
  EXPECT_EQ(after_first.misses, 1u);
  EXPECT_EQ(after_first.hits, 0u);
  EXPECT_EQ(after_first.entries, 1u);

  pipeline::ExecutionResult second = pipeline::execute(program, config);
  ASSERT_TRUE(second.run.ok);
  vm::DecodeCacheStats after_second = vm::decode_cache_stats();
  EXPECT_EQ(after_second.misses, 1u);
  EXPECT_EQ(after_second.hits, 1u);
  EXPECT_EQ(after_second.entries, 1u);
  EXPECT_EQ(first.run.output, second.run.output);

  // Both tiers run off the same cached ProgramCode (the interpreter reads
  // its DecodedProgram half), so an interpreter run of the same module is
  // a hit too — decoding is never repeated just to switch tiers.
  config.exec_tier = vm::ExecTier::Interpreter;
  pipeline::ExecutionResult interp = pipeline::execute(program, config);
  ASSERT_TRUE(interp.run.ok);
  EXPECT_EQ(interp.run.output, first.run.output);
  EXPECT_EQ(vm::decode_cache_stats().hits, after_second.hits + 1);
}

}  // namespace
