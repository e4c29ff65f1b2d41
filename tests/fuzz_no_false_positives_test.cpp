// Property fuzz test for BLOCKWATCH's headline guarantee: on race-free
// SPMD programs the monitor NEVER reports a violation in a fault-free run
// (paper Section V: 100 clean runs, zero false positives). A deterministic
// generator (tests/kernel_generator.h) assembles random-but-race-free BW-C
// kernels; each seed becomes one test case that compiles, instruments, and
// runs under the full monitor.
//
// The suite alternates monitor backends per seed — even seeds run the
// legacy single-consumer Monitor, odd seeds a one-session MonitorService
// whose shard count also rotates with the seed — so the clean-run
// guarantee covers both the legacy and the sharded check paths.
// The VM execution tier rotates on a different cadence (seed/2 parity:
// interpreter vs direct-threaded, vm/dispatch.h), decorrelated from the
// backend choice so all four backend x tier combinations appear; zero
// false positives must hold under every one of them.
// Clean runs execute through the campaign worker pool
// (fault::run_clean_campaign, two workers) so the fuzz lane also covers
// concurrent pipeline::execute calls over one shared CompiledProgram.
#include <gtest/gtest.h>

#include <string>

#include "benchmarks/registry.h"
#include "fault/campaign.h"
#include "kernel_generator.h"
#include "pipeline/pipeline.h"

namespace {

using namespace bw;

class FuzzNoFalsePositives : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(FuzzNoFalsePositives, CleanRunNeverFlagged) {
  const std::uint64_t seed = GetParam();
  test::ProgramGenerator generator(seed);
  std::string source = generator.generate();
  SCOPED_TRACE(source);

  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::protect_program(source));

  const bool sharded = (seed % 2) == 1;
  const unsigned shards = 1u << (seed % 3);           // 1, 2, 4
  const vm::ExecTier tier = ((seed / 2) % 2) == 0
                                ? vm::ExecTier::Interpreter
                                : vm::ExecTier::Threaded;

  for (unsigned threads : {2u, 4u, 8u}) {
    pipeline::ExecutionConfig config;
    config.num_threads = threads;
    config.exec_tier = tier;
    if (sharded) config.monitor_shards = shards;
    fault::CleanRunResult clean =
        fault::run_clean_campaign(program, config, /*runs=*/2, /*workers=*/2);
    ASSERT_EQ(clean.runs, 2) << "threads=" << threads;
    ASSERT_EQ(clean.failures, 0) << "threads=" << threads;
    EXPECT_EQ(clean.violations, 0)
        << "FALSE POSITIVE at " << threads << " threads, "
        << (sharded ? "sharded" : "legacy") << " backend (shards=" << shards
        << "), " << vm::to_string(tier) << " tier";
    EXPECT_EQ(clean.failed_health, 0) << "threads=" << threads;
    EXPECT_EQ(clean.dropped, 0u) << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzNoFalsePositives,
                         ::testing::Range<std::uint64_t>(1, 41));

// The request-processing service kernels (auth_check, dispatch) join the
// fuzz lane alongside the generated programs: they are the workloads
// `bwc serve` runs as service sessions, so the clean-run guarantee must
// hold for them on both monitor backends too.
class ServiceKernelNoFalsePositives
    : public ::testing::TestWithParam<const char*> {};

TEST_P(ServiceKernelNoFalsePositives, CleanRunNeverFlagged) {
  const benchmarks::Benchmark* bench =
      benchmarks::find_benchmark(GetParam());
  ASSERT_NE(bench, nullptr);

  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::protect_program(bench->source));

  for (unsigned shards : {0u, 2u}) {  // legacy backend, then sharded
    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    config.monitor_shards = shards;
    fault::CleanRunResult clean =
        fault::run_clean_campaign(program, config, /*runs=*/2, /*workers=*/2);
    ASSERT_EQ(clean.runs, 2) << bench->name << " shards=" << shards;
    ASSERT_EQ(clean.failures, 0) << bench->name << " shards=" << shards;
    EXPECT_EQ(clean.violations, 0)
        << "FALSE POSITIVE on service kernel " << bench->name
        << " (shards=" << shards << ")";
    EXPECT_EQ(clean.failed_health, 0) << bench->name;
    EXPECT_EQ(clean.dropped, 0u) << bench->name;
  }
}

INSTANTIATE_TEST_SUITE_P(ServiceKernels, ServiceKernelNoFalsePositives,
                         ::testing::Values("auth_check", "dispatch"));

}  // namespace
