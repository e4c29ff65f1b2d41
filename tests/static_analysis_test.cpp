// End-to-end tests for the static concurrency analysis layer
// (analysis/race_checker.h) and its join with the dynamic race oracle
// through pipeline::check_program_races:
//
//   - golden racy programs (registry diagnostics + hand-written) must be
//     flagged, statically as candidates and dynamically as confirmed races
//   - golden race-free programs must be proven, with the expected
//     certificate kinds firing
//   - every registry kernel (paper seven + service two) must come out
//     race-free, matching EXPERIMENTS.md's recorded verdicts
//   - proof-backed check elision must agree with the syntactic rule
//     except exactly on the promoted branches, and a non-constant lock id
//     must force promotion (the unsoundness the syntactic rule hides)
//   - fuzz cross-check: the generator's race-free-by-construction kernels
//     never trip the dynamic oracle, and statically-race-free verdicts
//     are reached without dynamic runs
//   - the lock-dominator dataflow under both: must-held lock sets over
//     straight lines, branches, path merges, nesting and loop bodies
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "analysis/lock_dominators.h"
#include "analysis/race_checker.h"
#include "benchmarks/registry.h"
#include "ir/irbuilder.h"
#include "ir/parser.h"
#include "kernel_generator.h"
#include "pipeline/pipeline.h"

namespace {

using namespace bw;

analysis::RaceCheckResult static_check(const std::string& source) {
  pipeline::CompiledProgram program = pipeline::compile_program(source);
  return analysis::check_races(*program.module);
}

bool has_certificate(const analysis::RaceCheckResult& result,
                     const std::string& name) {
  for (const analysis::RacePair& p : result.proven) {
    if (p.certificate == name) return true;
  }
  return false;
}

// --- golden racy programs -------------------------------------------------

TEST(StaticRaceChecker, RacySumIsCandidateAndConfirmed) {
  const benchmarks::Benchmark* bench = benchmarks::find_benchmark("racy_sum");
  ASSERT_NE(bench, nullptr);
  pipeline::CompiledProgram program = pipeline::compile_program(bench->source);

  analysis::RaceCheckResult s = analysis::check_races(*program.module);
  ASSERT_TRUE(s.analyzable);
  EXPECT_FALSE(s.statically_race_free());

  pipeline::RaceCheckReport report = pipeline::check_program_races(program);
  EXPECT_TRUE(report.dynamic_ran);
  EXPECT_TRUE(report.races_found);
  ASSERT_FALSE(report.dynamic_races.empty());
  EXPECT_EQ(report.dynamic_races[0].global, "total");
}

TEST(StaticRaceChecker, RacyGuardMismatchedLocksConfirmed) {
  const benchmarks::Benchmark* bench =
      benchmarks::find_benchmark("racy_guard");
  ASSERT_NE(bench, nullptr);
  pipeline::CompiledProgram program = pipeline::compile_program(bench->source);

  analysis::RaceCheckResult s = analysis::check_races(*program.module);
  EXPECT_FALSE(s.statically_race_free());
  // Same-parity pairs are proven by the common lock; cross-parity pairs
  // hold no lock in common and must remain candidates.
  EXPECT_TRUE(has_certificate(s, "lock"));

  pipeline::RaceCheckReport report = pipeline::check_program_races(program);
  EXPECT_TRUE(report.races_found);
  ASSERT_FALSE(report.dynamic_races.empty());
  EXPECT_EQ(report.dynamic_races[0].global, "counter");
}

// The racy read feeds a `shared` branch (the spin's while.cond): the
// static checker must leave exactly the plain write/read pair on `flag`
// uncertified, and the oracle must confirm it.
TEST(StaticRaceChecker, RacyFlagPollIsCandidateAndConfirmed) {
  const benchmarks::Benchmark* bench = benchmarks::find_benchmark("racy_flag");
  ASSERT_NE(bench, nullptr);
  pipeline::CompiledProgram program = pipeline::compile_program(bench->source);

  analysis::RaceCheckResult s = analysis::check_races(*program.module);
  ASSERT_TRUE(s.analyzable);
  ASSERT_EQ(s.candidates.size(), 1u);
  const analysis::RacePair& pair = s.candidates[0];
  ASSERT_NE(pair.first.global, nullptr);
  ASSERT_NE(pair.second.global, nullptr);
  EXPECT_EQ(pair.first.global->name(), "flag");
  EXPECT_EQ(pair.second.global->name(), "flag");
  EXPECT_NE(pair.first.is_write, pair.second.is_write);
  EXPECT_FALSE(pair.first.is_atomic || pair.second.is_atomic);

  pipeline::RaceCheckReport report = pipeline::check_program_races(program);
  EXPECT_TRUE(report.dynamic_ran);
  EXPECT_TRUE(report.races_found);
  ASSERT_FALSE(report.dynamic_races.empty());
  for (const pipeline::DynamicRaceReport& race : report.dynamic_races) {
    EXPECT_EQ(race.global, "flag");
    EXPECT_NE(race.write_a, race.write_b);
  }
}

// --- golden race-free programs & certificates -----------------------------

TEST(StaticRaceChecker, BarrierPhaseSeparationProves) {
  analysis::RaceCheckResult r = static_check(R"BWC(
global int buf[64];
global int out[64];

func slave() {
  int id = tid();
  buf[id] = id * 3;
  barrier();
  out[id] = buf[(id + 1) % nthreads()];
}
)BWC");
  ASSERT_TRUE(r.analyzable);
  EXPECT_TRUE(r.statically_race_free()) << r.candidates.size()
                                        << " unexpected candidates";
  EXPECT_TRUE(has_certificate(r, "phase-separated"));
}

TEST(StaticRaceChecker, CommonLockProves) {
  analysis::RaceCheckResult r = static_check(R"BWC(
global int total = 0;

func slave() {
  int id = tid();
  lock(0);
  total = total + id;
  unlock(0);
  barrier();
  if (id == 0) {
    print_i(total);
  }
}
)BWC");
  EXPECT_TRUE(r.statically_race_free());
  EXPECT_TRUE(has_certificate(r, "lock"));
}

TEST(StaticRaceChecker, SingleThreadGuardProves) {
  analysis::RaceCheckResult r = static_check(R"BWC(
global int flag = 0;

func slave() {
  int id = tid();
  if (id == 0) {
    flag = flag + 1;
  }
  barrier();
  print_i(flag);
}
)BWC");
  EXPECT_TRUE(r.statically_race_free());
  EXPECT_TRUE(has_certificate(r, "tid-guard"));
}

TEST(StaticRaceChecker, ModClassPartitionProves) {
  analysis::RaceCheckResult r = static_check(R"BWC(
global int N = 64;
global int state[64];

func slave() {
  int id = tid();
  int p = nthreads();
  for (int i = 0; i < N; i = i + 1) {
    if (i % p == id) {
      state[i] = state[i] + i;
    }
  }
}
)BWC");
  EXPECT_TRUE(r.statically_race_free());
  EXPECT_TRUE(has_certificate(r, "mod-class"));
}

TEST(StaticRaceChecker, BlockPartitionProvesViaIntervals) {
  analysis::RaceCheckResult r = static_check(R"BWC(
global int N = 64;
global int data[64];

func slave() {
  int id = tid();
  int p = nthreads();
  int chunk = N / p;
  int lo = id * chunk;
  int hi = lo + chunk;
  for (int i = lo; i < hi; i = i + 1) {
    data[i] = data[i] * 2;
  }
}
)BWC");
  EXPECT_TRUE(r.statically_race_free());
  EXPECT_TRUE(has_certificate(r, "interval"));
}

TEST(StaticRaceChecker, RotatedLoopBoundaryWriteStaysCandidate) {
  // Regression: a latch-tested loop stores data[i] *before* the exit
  // check `i < last`, so the body runs once more with i == last and
  // thread t's final write lands on thread t+1's first element — a real
  // race. The induction bound must not be derived from an exit test that
  // does not dominate the access, or the interval certificate would
  // wrongly prove the partition disjoint and make the verdict final.
  ir::Module module("rotated");
  ir::GlobalVariable* data = module.create_global("data", ir::Type::I64, 256);
  ir::Function* slave = module.create_function("slave", ir::Type::Void, {});
  ir::BasicBlock* entry = slave->create_block("entry");
  ir::BasicBlock* header = slave->create_block("header");
  ir::BasicBlock* latch = slave->create_block("latch");
  ir::BasicBlock* done = slave->create_block("done");

  ir::IRBuilder b(&module);
  b.set_insert_point(entry);
  ir::Instruction* id = b.tid();
  ir::Instruction* first = b.binary(ir::Opcode::Mul, id, b.i64(16));
  ir::Instruction* last = b.binary(ir::Opcode::Add, first, b.i64(16));
  b.br(header);

  b.set_insert_point(header);
  ir::Instruction* i = b.phi(ir::Type::I64);
  b.store(b.i64(1), b.gep(data, i));
  ir::Instruction* cmp = b.icmp(ir::CmpPred::LT, i, last);
  b.cond_br(cmp, latch, done);

  b.set_insert_point(latch);
  ir::Instruction* next = b.binary(ir::Opcode::Add, i, b.i64(1));
  b.br(header);

  b.set_insert_point(done);
  b.ret();

  i->add_incoming(first, entry);
  i->add_incoming(next, latch);

  analysis::RaceCheckResult r = analysis::check_races(module);
  ASSERT_TRUE(r.analyzable);
  EXPECT_FALSE(r.statically_race_free());
  EXPECT_FALSE(has_certificate(r, "interval"));
}

TEST(StaticRaceChecker, UnanalyzableModuleIsNotRaceFree) {
  // No parallel entry means nothing was checked: the result must not
  // read as a race-free proof, and check_program_races must stop at the
  // unanalyzable state rather than hand back races_found == false as a
  // verdict.
  pipeline::CompiledProgram program;
  program.module = std::make_unique<ir::Module>("empty");

  analysis::RaceCheckResult s = analysis::check_races(*program.module);
  EXPECT_FALSE(s.analyzable);
  EXPECT_FALSE(s.statically_race_free());

  pipeline::RaceCheckReport report = pipeline::check_program_races(program);
  EXPECT_FALSE(report.static_result.analyzable);
  EXPECT_FALSE(report.dynamic_ran);
  EXPECT_FALSE(report.races_found);
}

TEST(StaticRaceChecker, AtomicAccumulationIsNotAConflict) {
  analysis::RaceCheckResult r = static_check(R"BWC(
global int total = 0;

func slave() {
  atomic_add(total, tid());
  barrier();
  if (tid() == 0) {
    print_i(total);
  }
}
)BWC");
  EXPECT_TRUE(r.statically_race_free());
}

// --- registry kernels -----------------------------------------------------

TEST(StaticRaceChecker, StaticallyProvenKernels) {
  // These three need no dynamic confirmation at all: every conflicting
  // pair carries a certificate (EXPERIMENTS.md records the counts).
  for (const char* name : {"water_nsq", "auth_check", "dispatch"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    ASSERT_NE(bench, nullptr) << name;
    analysis::RaceCheckResult r = static_check(bench->source);
    EXPECT_TRUE(r.analyzable) << name;
    EXPECT_TRUE(r.alignment_verified) << name;
    EXPECT_TRUE(r.statically_race_free())
        << name << ": " << r.candidates.size() << " candidates";
  }
}

TEST(StaticRaceChecker, AllRegistryKernelsRaceFree) {
  auto check = [](const benchmarks::Benchmark& bench) {
    pipeline::CompiledProgram program =
        pipeline::compile_program(bench.source);
    pipeline::RaceCheckConfig config;
    config.dynamic_runs = 2;
    pipeline::RaceCheckReport report =
        pipeline::check_program_races(program, config);
    EXPECT_TRUE(report.static_result.analyzable) << bench.name;
    EXPECT_TRUE(report.static_result.alignment_verified) << bench.name;
    EXPECT_FALSE(report.static_result.truncated) << bench.name;
    EXPECT_FALSE(report.races_found)
        << bench.name << ": " << report.dynamic_races.size()
        << " dynamic conflicts";
  };
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    check(bench);
  }
  for (const benchmarks::Benchmark& bench :
       benchmarks::service_benchmarks()) {
    check(bench);
  }
}

// --- proof-backed elision -------------------------------------------------

TEST(ProofBackedElision, PromotedIsExactlySyntacticMinusProven) {
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    pipeline::PipelineOptions syn_opts;
    syn_opts.similarity.elision = analysis::ElisionMode::Syntactic;
    pipeline::CompiledProgram syn =
        pipeline::compile_program(bench.source, syn_opts);
    pipeline::CompiledProgram proof = pipeline::compile_program(bench.source);

    ASSERT_EQ(syn.analysis.branches.size(), proof.analysis.branches.size())
        << bench.name;
    for (std::size_t i = 0; i < proof.analysis.branches.size(); ++i) {
      const analysis::BranchInfo& s = syn.analysis.branches[i];
      const analysis::BranchInfo& p = proof.analysis.branches[i];
      ASSERT_EQ(s.static_id, p.static_id) << bench.name;
      // A proof-backed elision implies the syntactic rule would have
      // elided too (a provably-held lock is an acquire on every path),
      // and `promoted` marks exactly the disagreement set.
      if (p.elided_critical_section) {
        EXPECT_TRUE(s.elided_critical_section)
            << bench.name << " branch " << p.static_id;
      }
      EXPECT_EQ(p.elision_promoted,
                s.elided_critical_section && !p.elided_critical_section)
          << bench.name << " branch " << p.static_id;
    }
  }
}

TEST(ProofBackedElision, VerdictIdenticalOnCleanProtectedRuns) {
  // The check population differs between the modes, but on fault-free
  // runs both must stay violation-free (the zero-FP guarantee does not
  // depend on which elision rule picked the checks).
  for (const char* name : {"water_nsq", "fft", "dispatch"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    ASSERT_NE(bench, nullptr);
    for (analysis::ElisionMode mode :
         {analysis::ElisionMode::None, analysis::ElisionMode::Syntactic,
          analysis::ElisionMode::ProofBacked}) {
      pipeline::PipelineOptions popts;
      popts.similarity.elision = mode;
      pipeline::CompiledProgram program =
          pipeline::protect_program(bench->source, popts);
      pipeline::ExecutionConfig config;
      config.num_threads = 4;
      config.stop_on_detection = false;
      pipeline::ExecutionResult result = pipeline::execute(program, config);
      ASSERT_TRUE(result.run.ok) << name;
      EXPECT_EQ(result.violations.size(), 0u)
          << name << " under " << analysis::to_string(mode);
    }
  }
}

TEST(ProofBackedElision, NonConstantLockIdForcesPromotion) {
  // The syntactic depth rule elides any branch between lock()/unlock()
  // even when the lock id is thread-dependent — which proves nothing
  // about mutual exclusion. The lock-dominator analysis only accepts
  // named constant ids, so the branch must be promoted back.
  const char* source = R"BWC(
global int total = 0;

func slave() {
  int id = tid();
  lock(id % 2);
  if (total >= 0) {
    total = total + 1;
  }
  unlock(id % 2);
}
)BWC";
  pipeline::PipelineOptions syn_opts;
  syn_opts.similarity.elision = analysis::ElisionMode::Syntactic;
  pipeline::CompiledProgram syn = pipeline::compile_program(source, syn_opts);
  pipeline::CompiledProgram proof = pipeline::compile_program(source);

  bool syn_elided = false, proof_elided = false, promoted = false;
  for (const analysis::BranchInfo& b : syn.analysis.branches) {
    if (b.in_parallel_section && b.elided_critical_section) syn_elided = true;
  }
  for (const analysis::BranchInfo& b : proof.analysis.branches) {
    if (b.in_parallel_section && b.elided_critical_section) {
      proof_elided = true;
    }
    if (b.elision_promoted) promoted = true;
  }
  EXPECT_TRUE(syn_elided);
  EXPECT_FALSE(proof_elided);
  EXPECT_TRUE(promoted);
}

TEST(ProofBackedElision, ParseRoundTrip) {
  analysis::ElisionMode mode;
  ASSERT_TRUE(analysis::parse_elision_mode("none", mode));
  EXPECT_EQ(mode, analysis::ElisionMode::None);
  ASSERT_TRUE(analysis::parse_elision_mode("syntactic", mode));
  EXPECT_EQ(mode, analysis::ElisionMode::Syntactic);
  ASSERT_TRUE(analysis::parse_elision_mode("proof", mode));
  EXPECT_EQ(mode, analysis::ElisionMode::ProofBacked);
  EXPECT_FALSE(analysis::parse_elision_mode("bogus", mode));
}

// --- fuzz cross-check -----------------------------------------------------

class RaceCheckerFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RaceCheckerFuzz, GeneratedKernelsNeverTripTheOracle) {
  test::ProgramGenerator generator(GetParam());
  std::string source = generator.generate();
  SCOPED_TRACE(source);

  pipeline::CompiledProgram program;
  ASSERT_NO_THROW(program = pipeline::compile_program(source));

  pipeline::RaceCheckConfig config;
  config.dynamic_runs = 2;
  pipeline::RaceCheckReport report =
      pipeline::check_program_races(program, config);
  ASSERT_TRUE(report.static_result.analyzable);
  // The generator only emits race-free kernels, so whatever the static
  // verdict, the dynamic oracle must stay silent — and a statically
  // race-free verdict must short-circuit the dynamic runs entirely.
  EXPECT_FALSE(report.races_found);
  EXPECT_TRUE(report.dynamic_races.empty());
  if (report.static_result.statically_race_free()) {
    EXPECT_FALSE(report.dynamic_ran);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RaceCheckerFuzz,
                         ::testing::Range<std::uint64_t>(1, 17));

// --- lock dominators (must-held lock sets) ----------------------------------

using Held = std::vector<std::int64_t>;

const ir::Instruction* terminator_of(const ir::Function& f,
                                     const std::string& block) {
  for (const auto& bb : f.blocks()) {
    if (bb->name() == block) return bb->terminator();
  }
  return nullptr;
}

TEST(LockDominators, StraightLineRegion) {
  auto module = ir::parse_module(R"(module "m"
global @g : i64

func @f() -> void {
entry:
  %pre = load i64, @g
  lock_acquire 0
  %in = load i64, @g
  lock_release 0
  %post = load i64, @g
  ret
}
)");
  const ir::Function& f = *module->find_function("f");
  analysis::LockDominators locks(f);
  const auto& insts = f.entry()->instructions();
  EXPECT_EQ(locks.held_at(insts[0].get()), Held{});   // pre
  EXPECT_EQ(locks.held_at(insts[2].get()), Held{0});  // in
  EXPECT_EQ(locks.held_at(insts[4].get()), Held{});   // post
}

TEST(LockDominators, BranchInsideCriticalSection) {
  auto module = ir::parse_module(R"(module "m"
global @g : i64

func @f(%c: i1) -> void {
entry:
  lock_acquire 0
  cond_br %c, a, b
a:
  lock_release 0
  ret
b:
  lock_release 0
  ret
}
)");
  const ir::Function& f = *module->find_function("f");
  analysis::LockDominators locks(f);
  EXPECT_EQ(locks.held_at(terminator_of(f, "entry")), Held{0});
}

TEST(LockDominators, MustAnalysisTakesMinimumOverPaths) {
  // Lock held on only one incoming path: the merge is NOT a guaranteed
  // critical section.
  auto module = ir::parse_module(R"(module "m"
global @g : i64

func @f(%c: i1) -> void {
entry:
  cond_br %c, locked, unlocked
locked:
  lock_acquire 0
  br merge
unlocked:
  br merge
merge:
  %v = load i64, @g
  cond_br %c, out, done
out:
  lock_release 0
  br done
done:
  ret
}
)");
  const ir::Function& f = *module->find_function("f");
  analysis::LockDominators locks(f);
  EXPECT_EQ(locks.held_at(terminator_of(f, "locked")), Held{0});
  EXPECT_EQ(locks.held_at(terminator_of(f, "merge")), Held{});
}

TEST(LockDominators, NestedLocksAreBothHeld) {
  auto module = ir::parse_module(R"(module "m"
global @g : i64

func @f() -> void {
entry:
  lock_acquire 0
  lock_acquire 1
  %v = load i64, @g
  lock_release 1
  %w = load i64, @g
  lock_release 0
  ret
}
)");
  const ir::Function& f = *module->find_function("f");
  analysis::LockDominators locks(f);
  const auto& insts = f.entry()->instructions();
  EXPECT_EQ(locks.held_at(insts[2].get()), (Held{0, 1}));
  EXPECT_EQ(locks.held_at(insts[4].get()), Held{0});
}

TEST(LockDominators, LockInsideLoopBody) {
  auto module = ir::parse_module(R"(module "m"
global @g : i64

func @f() -> void {
entry:
  br header
header:
  %i = phi i64 [ 0, entry ], [ %n, latch ]
  %c = icmp lt %i, 4
  cond_br %c, body, exit
body:
  lock_acquire 0
  %v = load i64, @g
  %cc = icmp gt %v, 0
  cond_br %cc, inbody, inbody
inbody:
  lock_release 0
  br latch
latch:
  %n = add %i, 1
  br header
exit:
  ret
}
)");
  const ir::Function& f = *module->find_function("f");
  analysis::LockDominators locks(f);
  // The loop header branch runs unlocked; the branch inside the lock pair
  // is critical.
  EXPECT_FALSE(locks.any_lock_held(terminator_of(f, "header")));
  EXPECT_EQ(locks.held_at(terminator_of(f, "body")), Held{0});
}

}  // namespace
