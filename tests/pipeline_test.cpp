// Pipeline tests: the public protect/execute API, monitor modes, and the
// end-to-end detection path.
#include <gtest/gtest.h>

#include "pipeline/pipeline.h"
#include "support/diagnostics.h"
#include "test_support.h"

namespace {

using namespace bw;

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

TEST(Pipeline, CompileProgramLeavesModuleClean) {
  pipeline::CompiledProgram program = pipeline::compile_program(kKernel);
  EXPECT_FALSE(program.instrumented);
  EXPECT_EQ(program.instrument_stats.instrumented_branches, 0);
  for (const auto& func : program.module->functions()) {
    for (ir::Instruction* inst : func->all_instructions()) {
      EXPECT_FALSE(inst->is_bw_instrumentation());
    }
  }
}

TEST(Pipeline, ProtectProgramInstrumentsAndVerifies) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  EXPECT_TRUE(program.instrumented);
  EXPECT_GT(program.instrument_stats.instrumented_branches, 0);
}

TEST(Pipeline, MonitorModesBehaveDistinctly) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;

  config.monitor = pipeline::MonitorMode::Off;
  pipeline::ExecutionResult off = pipeline::execute(program, config);
  EXPECT_EQ(off.monitor_stats.reports_processed, 0u);

  config.monitor = pipeline::MonitorMode::DrainOnly;
  pipeline::ExecutionResult drain = pipeline::execute(program, config);
  EXPECT_GT(drain.monitor_stats.reports_processed, 0u);
  EXPECT_EQ(drain.monitor_stats.instances_checked, 0u);

  config.monitor = pipeline::MonitorMode::Full;
  pipeline::ExecutionResult full = pipeline::execute(program, config);
  EXPECT_GT(full.monitor_stats.instances_checked, 0u);

  // All three modes produce identical program output.
  EXPECT_EQ(off.run.output, drain.run.output);
  EXPECT_EQ(off.run.output, full.run.output);
}

TEST(Pipeline, ZeroThreadsIsRefusedOnEveryMonitorPath) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  struct Path {
    pipeline::MonitorMode mode;
    unsigned shards;
  };
  // Unmonitored, the legacy Monitor, and a one-shard service session.
  for (const Path path : {Path{pipeline::MonitorMode::Off, 0},
                          Path{pipeline::MonitorMode::Full, 0},
                          Path{pipeline::MonitorMode::Full, 1}}) {
    pipeline::ExecutionConfig config;
    config.num_threads = 0;
    config.monitor = path.mode;
    config.monitor_shards = path.shards;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    EXPECT_EQ(result.admit_error, runtime::AdmitError::BadConfig)
        << "shards " << path.shards;
    EXPECT_TRUE(result.run.threads.empty());  // nothing ran
    EXPECT_TRUE(result.run.output.empty());
    EXPECT_FALSE(result.detected);
    EXPECT_EQ(result.monitor_stats.reports_processed, 0u);
  }
}

TEST(Pipeline, DetectionPathEndToEnd) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  // Flip a mid-loop branch in thread 1: the strided loop is
  // threadID-checked, so the monitor must flag it.
  config.fault.active = true;
  config.fault.thread = 1;
  config.fault.target_branch = 3;
  config.fault.mode = vm::FaultPlan::Mode::BranchFlip;
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  EXPECT_TRUE(result.run.fault_applied);
  EXPECT_TRUE(result.detected);
  ASSERT_FALSE(result.violations.empty());
  EXPECT_GT(result.violations[0].static_id, 0u);
}

TEST(Pipeline, StopOnDetectionAbortsEarly) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  config.fault.active = true;
  config.fault.thread = 2;
  config.fault.target_branch = 2;
  config.stop_on_detection = true;
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  EXPECT_TRUE(result.detected);
}

TEST(Pipeline, CustomParallelEntryName) {
  pipeline::PipelineOptions options;
  options.similarity.parallel_entry = "worker";
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int n = 4;
global int out[8];
func worker() {
  if (n > 0) { out[tid()] = 1; }
}
)BWC",
                                                                options);
  EXPECT_EQ(program.instrument_stats.instrumented_branches, 1);

  pipeline::ExecutionConfig config;
  config.num_threads = 2;
  config.parallel_entry = "worker";
  pipeline::ExecutionResult result = pipeline::execute(program, config);
  EXPECT_TRUE(result.run.ok);
  EXPECT_FALSE(result.detected);
}

TEST(Pipeline, CompileErrorsPropagate) {
  EXPECT_THROW(pipeline::protect_program("func slave() { oops; }"),
               support::CompileError);
}

// A condition fault corrupts the operand inside cond_br, after bw.send_cond
// hashed the clean one. The edge report must carry that pre-branch value:
// then the victim stays in its peers' value group with the other outcome
// and is caught. Re-reading the corrupted operand on the edge would put it
// in a group of its own, which can never fire.
TEST(Pipeline, ConditionFaultIsCheckedAgainstThePreBranchValue) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int gp[64];
global int out[64];
func slave() {
  if (gp[tid()] > 0) { out[tid()] = 1; }
}
)BWC");
  std::uint32_t partial_site = 0;
  for (const analysis::BranchInfo& info : program.analysis.branches) {
    if (info.check == analysis::CheckKind::PartialValue) {
      partial_site = info.static_id;
    }
  }
  ASSERT_NE(partial_site, 0u);
  for (vm::ExecTier tier : {vm::ExecTier::Interpreter,
                            vm::ExecTier::Threaded}) {
    SCOPED_TRACE(vm::to_string(tier));
    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    config.exec_tier = tier;
    config.stop_on_detection = false;
    // Every gp[t] is 0: one value group of four, all not taken. Bit 3
    // turns thread 2's operand into 8, so its branch is taken.
    config.fault.active = true;
    config.fault.thread = 2;
    config.fault.target_branch = 1;
    config.fault.mode = vm::FaultPlan::Mode::CondBit;
    config.fault.bit = 3;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    EXPECT_TRUE(result.run.fault_applied);
    ASSERT_EQ(result.violations.size(), 1u);
    EXPECT_EQ(result.violations[0].static_id, partial_site);
    EXPECT_EQ(result.violations[0].check, runtime::CheckCode::PartialValue);
    EXPECT_EQ(result.violations[0].suspect_thread, 2u);
  }
}

}  // namespace
