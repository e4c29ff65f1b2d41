// Instrumentation-pass tests: placement of send/loop-tracking
// instructions, edge splitting, the nesting cutoff, and call-site ids.
#include <gtest/gtest.h>

#include <set>
#include <tuple>

#include "benchmarks/registry.h"
#include "instrument/instrument.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "pipeline/pipeline.h"
#include "test_support.h"
#include "vm/machine.h"

namespace {

using namespace bw;

int count_opcode(const ir::Module& module, ir::Opcode op) {
  int count = 0;
  for (const auto& func : module.functions()) {
    for (ir::Instruction* inst : func->all_instructions()) {
      if (inst->opcode() == op) ++count;
    }
  }
  return count;
}

TEST(Instrument, OutcomeSendsOnBothEdgesOfEachCheckedBranch) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int n = 4;
global int out[8];
func slave() {
  if (n > 0) { out[0] = 1; }
}
)BWC");
  EXPECT_EQ(program.instrument_stats.instrumented_branches, 1);
  EXPECT_EQ(count_opcode(*program.module, ir::Opcode::BwSendOutcome), 2);
  // Shared check: no condition data.
  EXPECT_EQ(count_opcode(*program.module, ir::Opcode::BwSendCond), 0);
  EXPECT_TRUE(ir::verify_module(*program.module).empty());
}

TEST(Instrument, PartialBranchGetsConditionSend) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int gp[64];
global int out[8];
func slave() {
  if (gp[tid()] > 0) { out[0] = 1; }   // none -> promoted partial
}
)BWC");
  EXPECT_EQ(count_opcode(*program.module, ir::Opcode::BwSendCond), 1);
  EXPECT_EQ(count_opcode(*program.module, ir::Opcode::BwSendOutcome), 2);
}

TEST(Instrument, LoopTrackingTripletsArePlaced) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int n = 8;
global int out[8];
func slave() {
  for (int i = 0; i < n; i = i + 1) {
    out[i % 8] = i;
  }
}
)BWC");
  EXPECT_EQ(program.instrument_stats.loops_instrumented, 1);
  EXPECT_EQ(count_opcode(*program.module, ir::Opcode::BwLoopIter), 1);
  EXPECT_GE(count_opcode(*program.module, ir::Opcode::BwLoopEnter), 1);
  // One exit per exit edge.
  EXPECT_GE(count_opcode(*program.module, ir::Opcode::BwLoopExit), 1);
  EXPECT_TRUE(ir::verify_module(*program.module).empty());
}

TEST(Instrument, LoopWithBreakGetsExitOnEveryExitEdge) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int n = 8;
global int out[8];
func slave() {
  for (int i = 0; i < n; i = i + 1) {
    if (i == 5) { break; }
    out[i % 8] = i;
  }
}
)BWC");
  EXPECT_EQ(count_opcode(*program.module, ir::Opcode::BwLoopExit), 2);
}

TEST(Instrument, NestingCutoffSkipsDeepBranches) {
  // Seven nested loops: the innermost loop branch sits at depth 7.
  const char* source = R"BWC(
global int s = 0;
func slave() {
  for (int a = 0; a < 2; a = a + 1) {
    for (int b = 0; b < 2; b = b + 1) {
      for (int c = 0; c < 2; c = c + 1) {
        for (int d = 0; d < 2; d = d + 1) {
          for (int e = 0; e < 2; e = e + 1) {
            for (int f = 0; f < 2; f = f + 1) {
              for (int g = 0; g < 2; g = g + 1) {
                s = s + 1;
              }
            }
          }
        }
      }
    }
  }
}
)BWC";
  pipeline::CompiledProgram paper_cutoff =
      pipeline::protect_program(source);
  // Depth-6 and depth-7 loop branches are skipped with the default cutoff.
  EXPECT_EQ(paper_cutoff.instrument_stats.skipped_depth, 2);
  EXPECT_EQ(paper_cutoff.instrument_stats.instrumented_branches, 5);

  pipeline::PipelineOptions deep;
  deep.instrumentation.max_nesting_depth = 100;
  pipeline::CompiledProgram no_cutoff =
      pipeline::protect_program(source, deep);
  EXPECT_EQ(no_cutoff.instrument_stats.skipped_depth, 0);
  EXPECT_EQ(no_cutoff.instrument_stats.instrumented_branches, 7);
}

TEST(Instrument, CallSitesGetUniqueIds) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int out[8];
func leaf(int x) { out[x % 8] = x; }
func slave() {
  leaf(1);
  leaf(2);
  leaf(3);
}
)BWC");
  EXPECT_EQ(program.instrument_stats.callsites_assigned, 3);
  std::set<std::uint32_t> seen;
  for (const auto& func : program.module->functions()) {
    for (ir::Instruction* inst : func->all_instructions()) {
      if (inst->opcode() == ir::Opcode::Call) {
        EXPECT_NE(inst->imm(), 0u);
        EXPECT_TRUE(seen.insert(inst->imm()).second) << "duplicate id";
      }
    }
  }
}

TEST(Instrument, SerialFunctionsAreUntouched) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int out[8];
func init() {
  for (int i = 0; i < 8; i = i + 1) { out[i] = i; }
}
func slave() {
  if (out[0] == 0) { out[1] = 1; }
}
)BWC");
  const ir::Function* init = program.module->find_function("init");
  for (ir::Instruction* inst : init->all_instructions()) {
    EXPECT_FALSE(inst->is_bw_instrumentation());
    if (inst->opcode() == ir::Opcode::Call) EXPECT_EQ(inst->imm(), 0u);
  }
  EXPECT_EQ(program.instrument_stats.skipped_serial, 1);
}

TEST(Instrument, InstrumentationPreservesProgramSemantics) {
  // The instrumented binary must print exactly what the original does.
  for (const auto& bench : benchmarks::all_benchmarks()) {
    SCOPED_TRACE(bench.name);
    pipeline::CompiledProgram baseline =
        pipeline::compile_program(bench.source);
    pipeline::CompiledProgram instrumented =
        pipeline::protect_program(bench.source);

    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    config.monitor = pipeline::MonitorMode::Off;
    std::string base_out = pipeline::execute(baseline, config).run.output;

    config.monitor = pipeline::MonitorMode::Full;
    pipeline::ExecutionResult result =
        pipeline::execute(instrumented, config);
    EXPECT_EQ(result.run.output, base_out);
    EXPECT_FALSE(result.detected);
  }
}

TEST(Instrument, DedupSkipsDominatedSameConditionBranches) {
  const char* source = R"BWC(
global int n = 4;
global int out[8];
func slave() {
  int big = 0;
  if (n > 2) { big = 1; }
  if (n > 2) { out[0] = big; }    // same condition value, dominated
  if (n > 3) { out[1] = 1; }      // different condition: still checked
}
)BWC";
  pipeline::CompiledProgram plain = pipeline::protect_program(source);
  EXPECT_EQ(plain.instrument_stats.instrumented_branches, 3);
  EXPECT_EQ(plain.instrument_stats.skipped_dedup, 0);

  pipeline::PipelineOptions options;
  options.instrumentation.dedup_same_condition = true;
  pipeline::CompiledProgram dedup =
      pipeline::protect_program(source, options);
  // The BW-C front-end re-evaluates `n > 2` into distinct SSA values per
  // textual occurrence, so dedup keys on the *value*: hoist via a local.
  // (Direct re-tests of one SSA value occur in compiler-generated code —
  // exercised below via IR.)
  EXPECT_LE(dedup.instrument_stats.instrumented_branches,
            plain.instrument_stats.instrumented_branches);

  // Hand-written IR where both branches test the same SSA value.
  auto module = ir::parse_module(R"(module "m"
global @n : i64 = 4

func @slave() -> void {
entry:
  %v = load i64, @n
  %c = icmp gt %v, 2
  cond_br %c, a, b
a:
  br b
b:
  cond_br %c, d, e
d:
  br e
e:
  ret
}
)");
  analysis::SimilarityResult result = analysis::analyze_similarity(*module);
  instrument::InstrumentOptions iopts;
  iopts.dedup_same_condition = true;
  instrument::InstrumentStats stats =
      instrument::instrument_module(*module, result, iopts);
  EXPECT_EQ(stats.instrumented_branches, 1);
  EXPECT_EQ(stats.skipped_dedup, 1);
  EXPECT_TRUE(ir::verify_module(*module).empty());
}

TEST(Instrument, DedupKeepsCleanRunsViolationFree) {
  pipeline::PipelineOptions options;
  options.instrumentation.dedup_same_condition = true;
  for (const auto& bench : benchmarks::all_benchmarks()) {
    SCOPED_TRACE(bench.name);
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench.source, options);
    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    pipeline::ExecutionResult result = pipeline::execute(program, config);
    EXPECT_TRUE(result.run.ok);
    EXPECT_FALSE(result.detected);
  }
}

TEST(Instrument, ImmEncodesIdAndCheckKind) {
  pipeline::CompiledProgram program = pipeline::protect_program(R"BWC(
global int gp[64];
global int out[8];
func slave() {
  if (gp[tid()] > 0) { out[0] = 1; }   // partial check (code 3)
}
)BWC");
  bool found = false;
  for (const auto& func : program.module->functions()) {
    for (ir::Instruction* inst : func->all_instructions()) {
      if (inst->opcode() == ir::Opcode::BwSendOutcome) {
        found = true;
        EXPECT_EQ(inst->imm() >> 24, 3u);          // CheckCode::PartialValue
        EXPECT_GT(inst->imm() & 0xffffffu, 0u);    // non-zero static id
      }
    }
  }
  EXPECT_TRUE(found);
}

// The report census over every registry kernel: each checked branch
// instance costs one report per thread, sent from the edge, and partial
// reports carry the condition data latched before the branch.
TEST(Instrument, EveryKernelSendsOneReportPerThreadPerInstance) {
  using runtime::CheckCode;
  std::size_t partial_reports = 0;
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench.source);
    for (unsigned threads : {2u, 4u}) {
      SCOPED_TRACE(bench.name + " threads=" + std::to_string(threads));
      test::RecorderSink recorder(threads);
      vm::RunOptions options;
      options.num_threads = threads;
      options.monitor = &recorder;
      options.stop_on_detection = false;
      ASSERT_TRUE(vm::run_program(*program.module, options).ok);
      std::set<std::tuple<std::uint64_t, std::uint32_t, std::uint64_t,
                          std::uint32_t>>
          seen;
      for (const auto& stream : recorder.streams()) {
        for (const runtime::BranchReport& r : stream) {
          ASSERT_EQ(r.kind, runtime::ReportKind::Outcome);
          ASSERT_TRUE(
              seen.emplace(r.ctx_hash, r.static_id, r.iter_hash, r.thread)
                  .second)
              << "second report for static_id " << r.static_id;
          if (r.check == CheckCode::PartialValue) {
            ++partial_reports;
            // The operand hash is never 0; a missing latch would be.
            ASSERT_NE(r.value, 0u) << "static_id " << r.static_id;
          } else {
            ASSERT_EQ(r.value, 0u) << "static_id " << r.static_id;
          }
        }
      }
    }
  }
  EXPECT_GT(partial_reports, 0u);
}

}  // namespace
