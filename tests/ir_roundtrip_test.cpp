// Round-trip tests: Module::to_string -> parse_module -> to_string must be
// a fixpoint, both on hand-written IR and on every benchmark kernel's
// compiled (and instrumented) output.
#include <gtest/gtest.h>

#include "benchmarks/registry.h"
#include "frontend/compiler.h"
#include "ir/parser.h"
#include "ir/verifier.h"
#include "pipeline/pipeline.h"
#include "support/diagnostics.h"

namespace {

using namespace bw;
using bw::support::CompileError;

void expect_roundtrip(const std::string& text) {
  auto reparsed = ir::parse_module(text);
  EXPECT_EQ(reparsed->to_string(), text);
  ir::verify_module_or_throw(*reparsed);
}

TEST(IrRoundtrip, HandWrittenModule) {
  const char* text = R"(module "hand"
global @n : i64 = 5
global @a : f64[4]
global @b : i64[3] = [7, 8, 9]

func @helper(%x: i64) -> i64 {
entry:
  %y = add %x, 1
  ret %y
}

func @slave() -> void {
entry:
  %t = tid
  %c = icmp eq %t, 0
  cond_br %c, then, done
then:
  %n0 = load i64, @n
  %v = call @helper(%n0) !callsite 3
  %p = gep @a, %t
  %f = load f64, %p
  %g = fmul %f, 2.5
  store %g, %p
  print_i64 %v
  br done
done:
  barrier
  ret
}
)";
  auto module = ir::parse_module(text);
  ir::verify_module_or_throw(*module);
  EXPECT_EQ(module->to_string(), text);
}

TEST(IrRoundtrip, PhisAndLoops) {
  const char* text = R"(module "loops"
global @sum : i64

func @slave() -> void {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %next, header ]
  %s = phi i64 [ 0, entry ], [ %s2, header ]
  %s2 = add %s, %i
  %next = add %i, 1
  %c = icmp lt %next, 10
  cond_br %c, header, exit
exit:
  store %s2, @sum
  ret
}
)";
  expect_roundtrip(text);
}

TEST(IrRoundtrip, InstrumentationOpcodes) {
  const char* text = R"(module "instr"
global @x : i64

func @slave() -> void {
entry:
  %v = load i64, @x
  %c = icmp gt %v, 0
  bw.send_cond 50331653, %v, 3
  bw.loop_enter 1
  bw.loop_iter 1
  bw.loop_exit 1
  cond_br %c, a, b
a:
  bw.send_outcome 50331653, taken
  br b
b:
  ret
}
)";
  expect_roundtrip(text);
}

TEST(IrRoundtrip, FloatConstantsSurviveExactly) {
  const char* text = R"(module "floats"
func @slave() -> void {
entry:
  %a = fadd 0.1, 2.5e-07
  %b = fmul %a, -3.25
  print_f64 %b
  ret
}
)";
  auto module = ir::parse_module(text);
  std::string once = module->to_string();
  auto again = ir::parse_module(once);
  EXPECT_EQ(again->to_string(), once);
}

TEST(IrRoundtrip, AllBenchmarksCompiledIr) {
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    SCOPED_TRACE(bench.name);
    auto module = frontend::compile(bench.source);
    expect_roundtrip(module->to_string());
  }
}

TEST(IrRoundtrip, AllBenchmarksInstrumentedIr) {
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    SCOPED_TRACE(bench.name);
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench.source);
    expect_roundtrip(program.module->to_string());
  }
}

TEST(IrParser, RejectsMalformedInput) {
  EXPECT_THROW(ir::parse_module("not a module"), CompileError);
  EXPECT_THROW(ir::parse_module("module \"m\"\nglobal @x : badtype\n"),
               CompileError);
  EXPECT_THROW(ir::parse_module(R"(module "m"
func @f() -> void {
entry:
  %v = bogus_opcode 1, 2
}
)"),
               CompileError);
  EXPECT_THROW(ir::parse_module(R"(module "m"
func @f() -> void {
entry:
  br nowhere
}
)"),
               CompileError);
  // Undefined value reference.
  EXPECT_THROW(ir::parse_module(R"(module "m"
func @f() -> void {
entry:
  %a = add %ghost, 1
  ret
}
)"),
               CompileError);
}

TEST(IrParser, ResolvesForwardCallsAndValues) {
  const char* text = R"(module "fwd"
func @a() -> i64 {
entry:
  %v = call @b()
  ret %v
}

func @b() -> i64 {
entry:
  ret 7
}
)";
  auto module = ir::parse_module(text);
  const ir::Function* a = module->find_function("a");
  const ir::Instruction* call = a->entry()->front();
  EXPECT_EQ(call->opcode(), ir::Opcode::Call);
  EXPECT_EQ(call->callee()->name(), "b");
  EXPECT_EQ(call->type(), ir::Type::I64);  // refined after resolution
}

TEST(IrParser, VerifierRejectsUnknownCheckCode) {
  // 67108869 = check code 4 << 24 | static id 5. It parses, but the
  // monitor has no check for code 4, so the instance would never be
  // checked.
  auto module = ir::parse_module(R"(module "m"
func @slave() -> void {
entry:
  %c = icmp gt 1, 0
  cond_br %c, a, b
a:
  bw.send_outcome 67108869, taken
  br b
b:
  ret
}
)");
  const std::vector<std::string> errors = ir::verify_module(*module);
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_EQ(errors[0],
            "@slave: check code 4 is not 0-3 (bw.send_outcome in 'a')");
}

}  // namespace
