// VM tests: opcode semantics and edge cases, traps, SPMD coordination
// (barriers, locks, hang detection), and the fault-injection hooks.
#include <gtest/gtest.h>

#include "ir/parser.h"
#include "test_support.h"
#include "vm/machine.h"

namespace {

using namespace bw;
using bw::test::run_output;

vm::RunResult run_ir(const char* body, unsigned threads = 1,
                     vm::FaultPlan fault = {}) {
  auto module = ir::parse_module(std::string("module \"m\"\n") + body);
  vm::RunOptions options;
  options.num_threads = threads;
  options.init_function.clear();
  options.fault = fault;
  options.instruction_budget = 50'000'000;
  return vm::run_program(*module, options);
}

// --- Arithmetic edge cases -----------------------------------------------------

TEST(VmArithmetic, DivisionByZeroTraps) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %z = sub 1, 1
  %v = sdiv 10, %z
  print_i64 %v
  ret
}
)");
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.crash);
  EXPECT_EQ(r.threads[0].trap, vm::TrapKind::DivideByZero);
}

TEST(VmArithmetic, RemainderByZeroTraps) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %z = sub 3, 3
  %v = srem 10, %z
  ret
}
)");
  EXPECT_EQ(r.threads[0].trap, vm::TrapKind::DivideByZero);
}

TEST(VmArithmetic, IntMinDivMinusOneWrapsNotTraps) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %min = shl 1, 63
  %m1 = sub 0, 1
  %v = sdiv %min, %m1
  print_i64 %v
  %w = srem %min, %m1
  print_i64 %w
  ret
}
)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.output, "-9223372036854775808\n0\n");
}

TEST(VmArithmetic, ShiftCountsAreMasked) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %a = shl 1, 65
  print_i64 %a
  %b = ashr 256, 66
  print_i64 %b
  ret
}
)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.output, "2\n64\n");  // counts masked mod 64
}

TEST(VmArithmetic, SignedOverflowWraps) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %a = shl 1, 62
  %v = mul %a, 4
  print_i64 %v
  %b = add %a, %a
  %c = add %b, %b
  print_i64 %c
  ret
}
)");
  EXPECT_TRUE(r.ok);  // wraps, never UB-traps
  EXPECT_EQ(r.output, "0\n0\n");
}

TEST(VmArithmetic, FpToSiSaturatesAndNanIsZero) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %inf = fdiv 1.0, 0.0
  %a = fptosi %inf
  print_i64 %a
  %ninf = fdiv -1.0, 0.0
  %b = fptosi %ninf
  print_i64 %b
  %nan = fdiv 0.0, 0.0
  %c = fptosi %nan
  print_i64 %c
  ret
}
)");
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.output,
            "9223372036854775807\n-9223372036854775808\n0\n");
}

// --- Memory ---------------------------------------------------------------------

TEST(VmMemory, OutOfBoundsLoadTraps) {
  vm::RunResult r = run_ir(R"(
global @a : i64[4]

func @slave() -> void {
entry:
  %p = gep @a, 100000
  %v = load i64, %p
  ret
}
)");
  EXPECT_EQ(r.threads[0].trap, vm::TrapKind::OutOfBounds);
}

TEST(VmMemory, NegativeAddressTraps) {
  vm::RunResult r = run_ir(R"(
global @a : i64[4]

func @slave() -> void {
entry:
  %p = gep @a, -50
  store 1, %p
  ret
}
)");
  // A negative offset wraps into the tagged local range or lands outside
  // the heap — either way the access must trap, never corrupt memory.
  EXPECT_TRUE(r.crash);
  EXPECT_TRUE(r.threads[0].trap == vm::TrapKind::OutOfBounds ||
              r.threads[0].trap == vm::TrapKind::BadPointer);
}

TEST(VmMemory, GlobalInitializersAreApplied) {
  vm::RunResult r = run_ir(R"(
global @n : i64 = 41
global @a : i64[3] = [10, 20, 30]

func @slave() -> void {
entry:
  %v = load i64, @n
  print_i64 %v
  %p = gep @a, 2
  %w = load i64, %p
  print_i64 %w
  ret
}
)");
  EXPECT_EQ(r.output, "41\n30\n");
}

TEST(VmMemory, AllocaSlotsAreThreadPrivate) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %slot = alloca i64
  %t = tid
  store %t, %slot
  barrier
  %v = load i64, %slot
  %ok = icmp eq %v, %t
  %flag = select %ok, 1, 0
  print_i64 %flag
  ret
}
)",
                           4);
  EXPECT_TRUE(r.ok);
  EXPECT_EQ(r.output, "1\n1\n1\n1\n");
}

// --- SPMD coordination -------------------------------------------------------------

TEST(VmSpmd, BarrierMismatchIsDeterministicHang) {
  // Thread 0 skips the barrier: the run must classify as hang, not block.
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %t = tid
  %c = icmp eq %t, 0
  cond_br %c, skip, wait
wait:
  barrier
  br skip
skip:
  ret
}
)",
                           4);
  EXPECT_FALSE(r.ok);
  EXPECT_TRUE(r.hang);
}

TEST(VmSpmd, SelfDeadlockOnLockIsHang) {
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  lock_acquire 7
  lock_acquire 7
  ret
}
)",
                           1);
  EXPECT_TRUE(r.hang);
}

TEST(VmSpmd, LostUnlockIsHang) {
  // Thread 0 takes the lock before the barrier and exits still holding
  // it; every other thread only asks for the lock after the barrier, so
  // on every schedule they starve -> deterministic deadlock verdict.
  vm::RunResult r = run_ir(R"(
global @sink : i64

func @slave() -> void {
entry:
  %t = tid
  %c = icmp eq %t, 0
  cond_br %c, owner, waiter
owner:
  lock_acquire 1
  store %t, @sink
  barrier
  ret
waiter:
  barrier
  lock_acquire 1
  store %t, @sink
  lock_release 1
  ret
}
)",
                           4);
  EXPECT_TRUE(r.hang);
}

TEST(VmSpmd, InstructionBudgetStopsRunawayLoops) {
  auto module = ir::parse_module(R"(module "m"
func @slave() -> void {
entry:
  br entry
}
)");
  vm::RunOptions options;
  options.num_threads = 1;
  options.init_function.clear();
  options.instruction_budget = 100'000;
  vm::RunResult r = vm::run_program(*module, options);
  EXPECT_TRUE(r.hang);
  EXPECT_EQ(r.threads[0].trap, vm::TrapKind::InstructionBudget);
}

TEST(VmSpmd, InitRunsBeforeParallelSection) {
  EXPECT_EQ(run_output(R"BWC(
global int x = 1;
func init() { x = x * 10; }
func slave() { print_i(x + tid()); }
)BWC",
                       2),
            "10\n11\n");
}

// --- Fault hooks ----------------------------------------------------------------

TEST(VmFault, BranchFlipFlipsExactlyTheTargetBranch) {
  const char* body = R"(
func @slave() -> void {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %n, body ]
  %c = icmp lt %i, 3
  cond_br %c, body, exit
body:
  print_i64 %i
  %n = add %i, 1
  br header
exit:
  ret
}
)";
  vm::RunResult clean = run_ir(body);
  EXPECT_EQ(clean.output, "0\n1\n2\n");
  EXPECT_EQ(clean.threads[0].branches, 4u);

  // Flip the 4th dynamic branch (the loop-exit decision): one extra
  // iteration executes.
  vm::FaultPlan flip;
  flip.active = true;
  flip.thread = 0;
  flip.target_branch = 4;
  flip.mode = vm::FaultPlan::Mode::BranchFlip;
  vm::RunResult faulty = run_ir(body, 1, flip);
  EXPECT_TRUE(faulty.fault_applied);
  EXPECT_EQ(faulty.output, "0\n1\n2\n3\n");
}

TEST(VmFault, FaultOnNeverReachedBranchIsNotActivated) {
  vm::FaultPlan flip;
  flip.active = true;
  flip.thread = 0;
  flip.target_branch = 1000;
  vm::RunResult r = run_ir(R"(
func @slave() -> void {
entry:
  %c = icmp eq 1, 1
  cond_br %c, a, b
a:
  ret
b:
  ret
}
)",
                           1, flip);
  EXPECT_FALSE(r.fault_applied);
}

TEST(VmFault, CondBitCorruptionPersistsPastTheBranch) {
  // Bit 3 of %v flips at the branch; the corrupted register is printed
  // after the branch (paper: "the corruption ... will persist").
  const char* body = R"(
global @n : i64 = 16

func @slave() -> void {
entry:
  %v = load i64, @n
  %c = icmp gt %v, 100
  cond_br %c, big, small
big:
  print_i64 %v
  ret
small:
  print_i64 %v
  ret
}
)";
  vm::FaultPlan cond;
  cond.active = true;
  cond.thread = 0;
  cond.target_branch = 1;
  cond.mode = vm::FaultPlan::Mode::CondBit;
  cond.bit = 3;
  vm::RunResult r = run_ir(body, 1, cond);
  EXPECT_TRUE(r.fault_applied);
  EXPECT_EQ(r.output, "24\n");  // 16 ^ (1<<3), branch re-evaluated: still small
}

TEST(VmFault, CondBitCanFlipTheBranch) {
  const char* body = R"(
global @n : i64 = 16

func @slave() -> void {
entry:
  %v = load i64, @n
  %c = icmp gt %v, 100
  cond_br %c, big, small
big:
  print_i64 1111
  ret
small:
  print_i64 2222
  ret
}
)";
  vm::FaultPlan cond;
  cond.active = true;
  cond.thread = 0;
  cond.target_branch = 1;
  cond.mode = vm::FaultPlan::Mode::CondBit;
  cond.bit = 10;  // 16 ^ 1024 = 1040 > 100: the comparison flips
  vm::RunResult r = run_ir(body, 1, cond);
  EXPECT_TRUE(r.fault_applied);
  EXPECT_EQ(r.output, "1111\n");
}

TEST(VmSpmd, ManyBarrierGenerationsStayInLockstep) {
  // 200 barrier generations with per-phase cross-thread communication:
  // thread t publishes, then reads its neighbour's value from the
  // PREVIOUS phase — any barrier bug shows up as a wrong sum.
  EXPECT_EQ(run_output(R"BWC(
global int slots[8];
global int check = 0;
func slave() {
  int p = nthreads();
  int id = tid();
  int next = (id + 1) % p;
  int good = 1;
  for (int round = 0; round < 200; round = round + 1) {
    slots[id] = round * 100 + id;
    barrier();
    int seen = slots[next];
    if (seen != round * 100 + next) { good = 0; }
    barrier();
  }
  lock(0);
  check = check + good;
  unlock(0);
  barrier();
  if (id == 0) { print_i(check); }
}
)BWC",
                       8),
            "8\n");
}

TEST(VmSpmd, LockContentionStress) {
  // 8 threads hammering one lock: the final count proves mutual exclusion
  // held under heavy contention.
  EXPECT_EQ(run_output(R"BWC(
global int total = 0;
func slave() {
  for (int i = 0; i < 500; i = i + 1) {
    lock(3);
    int t = total;
    total = t + 1;
    unlock(3);
  }
  barrier();
  if (tid() == 0) { print_i(total); }
}
)BWC",
                       8),
            "4000\n");
}

TEST(VmDeterminism, SameProgramSameOutputAcrossRuns) {
  const char* source = R"BWC(
global int acc[8];
func slave() {
  int id = tid();
  for (int i = 0; i < 50; i = i + 1) {
    acc[id] = acc[id] + hashrand(i * 8 + id) % 100;
  }
  barrier();
  if (id == 0) {
    int s = 0;
    for (int t = 0; t < nthreads(); t = t + 1) { s = s + acc[t]; }
    print_i(s);
  }
}
)BWC";
  std::string first = run_output(source, 8);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(run_output(source, 8), first);
  }
}

}  // namespace
