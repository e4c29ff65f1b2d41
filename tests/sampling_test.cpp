// Adaptive sampled monitoring (src/runtime/sampling.h): the escalation
// ladder, snap-back, and the differential evidence the feature rests on —
//   * rate 1 through the sampling path produces verdicts identical to
//     full checking on BOTH monitor backends, clean and faulted;
//   * every degraded rate stays false-alarm-free on clean runs (sampling
//     skips whole instances, so it can hide divergence but never invent
//     it), including over the fuzz generator's randomized kernels;
//   * a degraded monitor snaps back on its first violation and then
//     catches a targeted adversary that keeps flipping one branch;
//   * targeted-flip campaigns are byte-identical across worker counts,
//     and a campaign checkpoint refuses to resume under a different
//     sampling configuration or adversary budget.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "fault/checkpoint.h"
#include "kernel_generator.h"
#include "pipeline/pipeline.h"
#include "runtime/sampling.h"

namespace {

using namespace bw;

// Every hot branch in this kernel is a shared branch executed by all
// threads (loop condition + data-dependent body branch), so a targeted
// adversary anchored in the main loop always lands on instances the
// monitor cross-checks. Used by the snap-back and campaign tests, where
// the guarantee under test only covers checked instances.
constexpr const char* kSharedHeavyKernel = R"BWC(
global int N = 2048;
global int data[2048];
global int out_c[32];

func init() {
  for (int i = 0; i < N; i = i + 1) {
    data[i] = hashrand(i) % 100;
  }
}

func slave() {
  int p = nthreads();
  int id = tid();
  int acc = 0;
  for (int i = 0; i < N; i = i + 1) {
    if (data[i] > 50) {
      acc = acc + 1;
    } else {
      acc = acc + 2;
    }
  }
  out_c[id] = acc;
  barrier();
  if (id == 0) {
    int s = 0;
    for (int t = 0; t < p; t = t + 1) {
      s = s + out_c[t];
    }
    print_i(s);
  }
}
)BWC";

// ---------------------------------------------------------------------------
// SamplingController unit behavior (deterministic, no threads).

TEST(SamplingController, InactiveByDefaultAndChecksEverything) {
  runtime::SamplingController controller{runtime::SamplingOptions{}};
  EXPECT_FALSE(controller.active());
  EXPECT_EQ(controller.current_rate(), 1u);
  for (std::uint64_t i = 0; i < 100; ++i) {
    EXPECT_TRUE(controller.should_check(i * 97, 3, i));
  }
  EXPECT_EQ(controller.stats().sampled_out, 0u);
}

TEST(SamplingController, ForcedRateIsDeterministicAndProportional) {
  runtime::SamplingOptions options;
  options.forced_rate = 8;
  runtime::SamplingController controller{options};
  ASSERT_TRUE(controller.active());

  std::uint64_t checked = 0;
  const std::uint64_t kInstances = 20000;
  for (std::uint64_t i = 0; i < kInstances; ++i) {
    const bool first = controller.should_check(i * 0x9e3779b9, 7, i);
    // Same instance identity -> same verdict, on every thread, every time.
    EXPECT_EQ(first, controller.should_check(i * 0x9e3779b9, 7, i));
    if (first) ++checked;
  }
  // Hash-based 1-in-8 thinning: allow generous slack around 1/8.
  EXPECT_GT(checked, kInstances / 16);
  EXPECT_LT(checked, kInstances / 4);
  // Forced mode never adapts, whatever the signals say.
  for (int i = 0; i < 1000; ++i) controller.note_pressure();
  controller.note_violation();
  EXPECT_EQ(controller.current_rate(), 8u);
  EXPECT_EQ(controller.stats().snap_backs, 0u);
}

TEST(SamplingController, PressureClimbsTheEscalationLadder) {
  runtime::SamplingOptions options;
  options.enabled = true;
  options.degrade_threshold = 4;
  options.escalation_factor = 8;
  options.max_rate = 64;
  runtime::SamplingController controller{options};
  EXPECT_EQ(controller.current_rate(), 1u);

  for (int i = 0; i < 4; ++i) controller.note_pressure();
  EXPECT_EQ(controller.current_rate(), 8u);
  for (int i = 0; i < 4; ++i) controller.note_pressure();
  EXPECT_EQ(controller.current_rate(), 64u);
  // At the ceiling the ladder saturates instead of wrapping.
  for (int i = 0; i < 8; ++i) controller.note_pressure();
  EXPECT_EQ(controller.current_rate(), 64u);

  runtime::SamplingStats stats = controller.stats();
  EXPECT_EQ(stats.degrades, 2u);
  EXPECT_EQ(stats.peak_rate, 64u);
}

TEST(SamplingController, ViolationSnapsBackAndHoldsFullChecking) {
  runtime::SamplingOptions options;
  options.enabled = true;
  options.degrade_threshold = 2;
  options.escalation_factor = 8;
  options.max_rate = 64;
  options.snapback_hold = 32;
  runtime::SamplingController controller{options};

  for (int i = 0; i < 4; ++i) controller.note_pressure();
  ASSERT_EQ(controller.current_rate(), 64u);

  controller.note_violation();
  EXPECT_EQ(controller.current_rate(), 1u);
  EXPECT_EQ(controller.stats().snap_backs, 1u);
  // Idempotent at rate 1.
  controller.note_violation();
  EXPECT_EQ(controller.stats().snap_backs, 1u);

  // During the hold, pressure cannot re-degrade the monitor...
  for (int i = 0; i < 16; ++i) controller.note_pressure();
  EXPECT_EQ(controller.current_rate(), 1u);
  // ...until `snapback_hold` further decisions have elapsed.
  for (int i = 0; i < 32; ++i) controller.should_check(i, 1, i);
  for (int i = 0; i < 2; ++i) controller.note_pressure();
  EXPECT_EQ(controller.current_rate(), 8u);
}

TEST(SamplingController, HealthTransitionAndAnomalySnapBack) {
  runtime::SamplingOptions options;
  options.enabled = true;
  options.degrade_threshold = 2;
  options.anomaly_threshold = 3;
  runtime::SamplingController controller{options};

  for (int i = 0; i < 2; ++i) controller.note_pressure();
  ASSERT_GT(controller.current_rate(), 1u);
  controller.note_health_transition();
  EXPECT_EQ(controller.current_rate(), 1u);
  EXPECT_EQ(controller.stats().snap_backs, 1u);

  // Drain the hold, re-degrade, then hit the anomaly threshold.
  for (int i = 0; i < (1 << 15); ++i) controller.should_check(i, 2, i);
  for (int i = 0; i < 2; ++i) controller.note_pressure();
  ASSERT_GT(controller.current_rate(), 1u);
  controller.note_anomaly();
  controller.note_anomaly();
  EXPECT_GT(controller.current_rate(), 1u) << "below anomaly threshold";
  controller.note_anomaly();
  EXPECT_EQ(controller.current_rate(), 1u);
  EXPECT_EQ(controller.stats().snap_backs, 2u);
}

TEST(SamplingController, CalmPeriodStepsBackDown) {
  runtime::SamplingOptions options;
  options.enabled = true;
  options.degrade_threshold = 2;
  options.escalation_factor = 8;
  options.max_rate = 64;
  options.calm_period = 64;
  runtime::SamplingController controller{options};

  for (int i = 0; i < 4; ++i) controller.note_pressure();
  ASSERT_EQ(controller.current_rate(), 64u);
  for (int i = 0; i < 64; ++i) controller.should_check(i, 4, i);
  EXPECT_EQ(controller.current_rate(), 8u);
  for (int i = 0; i < 64; ++i) controller.should_check(i, 4, i);
  EXPECT_EQ(controller.current_rate(), 1u);
  EXPECT_EQ(controller.stats().step_downs, 2u);
}

TEST(SamplingController, TriggerNamesAreStable) {
  EXPECT_STREQ(runtime::to_string(runtime::SamplingTrigger::Pressure),
               "pressure");
  EXPECT_STREQ(runtime::to_string(runtime::SamplingTrigger::Calm), "calm");
  EXPECT_STREQ(runtime::to_string(runtime::SamplingTrigger::Violation),
               "violation");
  EXPECT_STREQ(runtime::to_string(runtime::SamplingTrigger::Health),
               "health");
  EXPECT_STREQ(runtime::to_string(runtime::SamplingTrigger::Anomaly),
               "anomaly");
}

// ---------------------------------------------------------------------------
// Differential: rate 1 through the sampling path is byte-identical to full
// checking with sampling off, on both monitor backends, clean and faulted.

pipeline::ExecutionConfig backend_config(bool sharded) {
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  if (sharded) config.monitor_shards = 2;
  return config;
}

TEST(SamplingDifferential, RateOneMatchesFullCheckingOnBothBackends) {
  for (const char* kernel : {"auth_check", "dispatch"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(kernel);
    ASSERT_NE(bench, nullptr);
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench->source);
    fault::GoldenRun golden = fault::golden_run(program, 4);
    const std::uint64_t budget = fault::auto_instruction_budget(golden);

    for (bool sharded : {false, true}) {
      SCOPED_TRACE(std::string(kernel) +
                   (sharded ? " sharded" : " legacy"));
      // Clean run plus a spread of single-flip faulted runs.
      for (std::uint64_t target : {0ull, 3ull, 17ull, 55ull, 140ull}) {
        pipeline::ExecutionConfig off = backend_config(sharded);
        off.instruction_budget = budget;
        if (target != 0) {
          off.fault.active = true;
          off.fault.thread = 1;
          off.fault.target_branch = target;
        }
        pipeline::ExecutionConfig rate1 = off;
        rate1.monitor_options.sampling.forced_rate = 1;

        pipeline::ExecutionResult a = pipeline::execute(program, off);
        pipeline::ExecutionResult b = pipeline::execute(program, rate1);
        EXPECT_EQ(a.detected, b.detected) << "target=" << target;
        // A detected run aborts the victim threads at a schedule-dependent
        // point, so how much output was printed and how many follow-on
        // violations drained first vary between any two executions — even
        // two with identical monitor configs. Only undetected runs have a
        // deterministic output/violation surface.
        if (!a.detected && !b.detected) {
          EXPECT_EQ(a.violations.size(), b.violations.size())
              << "target=" << target;
          EXPECT_EQ(a.run.output, b.run.output) << "target=" << target;
        }
        // Rate 1 never thins. Report volume is only comparable on clean
        // runs: a detected run aborts mid-stream, so how many reports
        // drained first is schedule-dependent.
        if (target == 0) {
          EXPECT_EQ(a.monitor_stats.reports_processed,
                    b.monitor_stats.reports_processed);
        }
        EXPECT_EQ(b.monitor_stats.reports_sampled_out, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Soundness: no sampled rate can manufacture a violation on a clean run.
// Service kernels at fixed rates, plus the fuzz generator's randomized
// race-free kernels (alternating backends like the main fuzz suite).

TEST(SamplingFalseAlarms, ServiceKernelsStayQuietAtEveryRate) {
  for (const char* kernel : {"auth_check", "dispatch"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(kernel);
    ASSERT_NE(bench, nullptr);
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench->source);
    for (bool sharded : {false, true}) {
      for (std::uint32_t rate : {2u, 8u, 64u}) {
        pipeline::ExecutionConfig config = backend_config(sharded);
        config.monitor_options.sampling.forced_rate = rate;
        config.stop_on_detection = false;
        pipeline::ExecutionResult result = pipeline::execute(program, config);
        EXPECT_TRUE(result.run.ok);
        EXPECT_EQ(result.violations.size(), 0u)
            << kernel << " rate=" << rate
            << (sharded ? " sharded" : " legacy");
        if (rate > 1) {
          EXPECT_GT(result.monitor_stats.reports_sampled_out, 0u);
        }
      }
    }
  }
}

class SampledFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(SampledFuzz, GeneratedKernelsNeverFalseAlarmWhenSampled) {
  const std::uint64_t seed = GetParam();
  test::ProgramGenerator generator(seed);
  std::string source = generator.generate();
  SCOPED_TRACE(source);

  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::protect_program(source));

  const bool sharded = (seed % 2) == 1;
  for (std::uint32_t rate : {2u, 8u, 64u}) {
    pipeline::ExecutionConfig config = backend_config(sharded);
    config.monitor_options.sampling.forced_rate = rate;
    fault::CleanRunResult clean =
        fault::run_clean_campaign(program, config, /*runs=*/2, /*workers=*/2);
    ASSERT_EQ(clean.runs, 2) << "rate=" << rate;
    ASSERT_EQ(clean.failures, 0) << "rate=" << rate;
    EXPECT_EQ(clean.violations, 0)
        << "FALSE POSITIVE under 1-in-" << rate << " sampling, "
        << (sharded ? "sharded" : "legacy") << " backend";
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, SampledFuzz,
                         ::testing::Range<std::uint64_t>(1, 13));

// ---------------------------------------------------------------------------
// The robustness story: a monitor that starts degraded snaps back on its
// first violation and then catches the targeted adversary in full.

TEST(SamplingSnapBack, DegradedMonitorSnapsBackAndCatchesTargetedFlips) {
  pipeline::CompiledProgram program =
      pipeline::protect_program(kSharedHeavyKernel);
  fault::GoldenRun golden = fault::golden_run(program, 4);

  for (bool sharded : {false, true}) {
    SCOPED_TRACE(sharded ? "sharded" : "legacy");
    pipeline::ExecutionConfig config = backend_config(sharded);
    config.instruction_budget = fault::auto_instruction_budget(golden);
    config.stop_on_detection = false;
    // Start the adaptive controller already degraded to the coarsest rate.
    config.monitor_options.sampling.enabled = true;
    config.monitor_options.sampling.initial_rate = 64;
    config.monitor_options.sampling.max_rate = 64;
    // Unbounded adversary anchored on the main loop's data branch (branch
    // order per iteration is [loop-cond, data-branch], so dynamic index 8
    // is the 4th data branch — a shared, cross-checked site that keeps
    // executing after the flip). At 1-in-64 the first flips may be thinned
    // away, but one checked instance is enough to trigger the snap-back,
    // after which every remaining flip lands on a checked instance.
    config.fault.active = true;
    config.fault.thread = 1;
    config.fault.target_branch = 8;
    config.fault.targeted = true;
    config.fault.targeted_flips = 0;

    pipeline::ExecutionResult result = pipeline::execute(program, config);
    ASSERT_TRUE(result.run.fault_applied);
    EXPECT_TRUE(result.detected);
    EXPECT_GE(result.violations.size(), 1u);
    EXPECT_GE(result.monitor_stats.sampling_snap_backs, 1u);
    EXPECT_EQ(result.monitor_stats.sampling_rate_final, 1u);
    EXPECT_EQ(result.monitor_stats.sampling_rate_peak, 64u);
  }
}

// ---------------------------------------------------------------------------
// Campaign determinism and checkpoint identity.

TEST(SamplingCampaign, TargetedCampaignIsWorkerCountInvariant) {
  const benchmarks::Benchmark* bench =
      benchmarks::find_benchmark("auth_check");
  ASSERT_NE(bench, nullptr);

  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 16;
  options.type = fault::FaultType::TargetedFlip;
  options.targeted_flips = 4;
  options.seed = 0x7a96e7ed;
  options.monitor.sampling.forced_rate = 16;  // sampled campaigns too

  options.campaign_workers = 1;
  fault::CampaignResult serial = fault::run_campaign(bench->source, options);
  ASSERT_EQ(static_cast<int>(serial.verdicts.size()), options.injections);
  EXPECT_EQ(serial.activated, options.injections)
      << "targeted flips always anchor";

  for (unsigned workers : {2u, 8u}) {
    options.campaign_workers = workers;
    fault::CampaignResult parallel =
        fault::run_campaign(bench->source, options);
    EXPECT_EQ(serial.verdicts, parallel.verdicts)
        << "verdicts diverged at " << workers << " workers";
  }
}

TEST(SamplingCampaign, FullCheckingCoversUnboundedTargetedInjections) {
  // With full checking, every targeted flip that lands on a cross-checked
  // instance is detected, and the kernel above makes (almost) every
  // instance cross-checked — so no unbounded adversary can reach a silent
  // corruption. (Detected/crashed/hung all count as covered; only SDC is
  // an escape.)
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 16;
  options.type = fault::FaultType::TargetedFlip;
  options.targeted_flips = 0;  // unbounded: keep flipping until caught
  options.seed = 0x7a96e7ee;
  fault::CampaignResult r = fault::run_campaign(kSharedHeavyKernel, options);
  EXPECT_EQ(r.activated, options.injections);
  EXPECT_EQ(r.sdc, 0) << "an unbounded targeted adversary escaped";
}

TEST(SamplingCheckpoint, IdentityCoversSamplingAndAdversaryBudget) {
  fault::CampaignOptions options;
  options.injections = 8;
  options.type = fault::FaultType::TargetedFlip;
  options.targeted_flips = 4;
  options.monitor.sampling.enabled = true;
  options.monitor.sampling.forced_rate = 0;
  options.monitor.sampling.max_rate = 64;

  fault::CampaignCheckpoint cp;
  cp.seed = options.seed;
  cp.type = options.type;
  cp.injections = options.injections;
  cp.num_threads = options.num_threads;
  cp.protect = options.protect;
  cp.sampling_enabled = true;
  cp.sampling_forced_rate = 0;
  cp.sampling_max_rate = 64;
  cp.targeted_flips = 4;
  ASSERT_TRUE(cp.matches(options));

  // The sampling fields round-trip through the text format.
  fault::CampaignCheckpoint parsed;
  std::string error;
  ASSERT_TRUE(
      fault::CampaignCheckpoint::from_text(cp.to_text(), parsed, &error))
      << error;
  EXPECT_TRUE(parsed.matches(options));
  EXPECT_EQ(parsed.sampling_enabled, true);
  EXPECT_EQ(parsed.sampling_max_rate, 64u);
  EXPECT_EQ(parsed.targeted_flips, 4u);

  // Any drift in the sampling setup or adversary budget breaks identity.
  fault::CampaignOptions changed = options;
  changed.monitor.sampling.enabled = false;
  EXPECT_FALSE(cp.matches(changed));
  changed = options;
  changed.monitor.sampling.forced_rate = 8;
  EXPECT_FALSE(cp.matches(changed));
  changed = options;
  changed.monitor.sampling.max_rate = 16;
  EXPECT_FALSE(cp.matches(changed));
  changed = options;
  changed.targeted_flips = 1;
  EXPECT_FALSE(cp.matches(changed));
}

TEST(SamplingCheckpoint, ResumeRejectsAMismatchedSamplingSetup) {
  const benchmarks::Benchmark* bench =
      benchmarks::find_benchmark("dispatch");
  ASSERT_NE(bench, nullptr);
  const std::string path =
      ::testing::TempDir() + "/bw_sampling_checkpoint.txt";

  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 6;
  options.type = fault::FaultType::TargetedFlip;
  options.monitor.sampling.forced_rate = 8;
  options.checkpoint_file = path;
  options.checkpoint_every = 1;
  options.campaign_workers = 1;
  fault::run_campaign(bench->source, options);

  // Same campaign resumes fine...
  options.checkpoint_file.clear();
  options.resume_file = path;
  EXPECT_NO_THROW(fault::run_campaign(bench->source, options));
  // ...but a different sampling rate or flip budget is refused.
  fault::CampaignOptions wrong_rate = options;
  wrong_rate.monitor.sampling.forced_rate = 2;
  EXPECT_THROW(fault::run_campaign(bench->source, wrong_rate),
               support::CompileError);
  fault::CampaignOptions wrong_flips = options;
  wrong_flips.targeted_flips = 9;
  EXPECT_THROW(fault::run_campaign(bench->source, wrong_flips),
               support::CompileError);
  std::remove(path.c_str());
}

}  // namespace
