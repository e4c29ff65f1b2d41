// Differential determinism suite for the parallel campaign engine: the
// same (source, options) pair must produce byte-identical outcome
// partitions, per-injection verdict lists, and coverage numbers whether
// the plan runs on 1, 2, or 8 workers — and a campaign that is killed
// mid-flight and resumed from its checkpoint must reproduce the
// uninterrupted result exactly. Application-fault campaigns are the ones
// with this guarantee (their per-injection RNG streams fully determine
// each run); monitor-path campaigns depend on real watchdog timing and
// are covered by the invariants in fault_test.cpp instead. The checkpoint
// reader is also swept with seeded mutations: checkpoint files are input.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "fault/campaign.h"
#include "fault/checkpoint.h"
#include "support/diagnostics.h"
#include "support/prng.h"

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

fault::CampaignOptions base_options(fault::FaultType type) {
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = 48;
  options.type = type;
  options.seed = 0xDE7E12317157C0DEULL;
  options.protect = true;
  return options;
}

/// The full deterministic surface of a CampaignResult: every partition
/// bucket, every recovery tally, and the verdict list. Wall-time fields
/// are excluded — they are merge-deterministic but measure real time.
void expect_identical(const fault::CampaignResult& a,
                      const fault::CampaignResult& b, const char* what) {
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
  EXPECT_EQ(a.degraded_runs, b.degraded_runs);
  EXPECT_EQ(a.failed_runs, b.failed_runs);
  EXPECT_EQ(a.discarded, b.discarded);
  EXPECT_EQ(a.recovered_mismatch, b.recovered_mismatch);
  EXPECT_EQ(a.retry_exhausted_runs, b.retry_exhausted_runs);
  EXPECT_EQ(a.rollbacks, b.rollbacks);
  EXPECT_EQ(a.checkpoints, b.checkpoints);
  EXPECT_EQ(a.coverage(), b.coverage());
  EXPECT_EQ(a.coverage_interval().lo, b.coverage_interval().lo);
  EXPECT_EQ(a.coverage_interval().hi, b.coverage_interval().hi);
  ASSERT_EQ(a.verdicts.size(), b.verdicts.size());
  for (std::size_t i = 0; i < a.verdicts.size(); ++i) {
    EXPECT_EQ(a.verdicts[i], b.verdicts[i]) << "verdict " << i;
  }
}

TEST(CampaignParallel, WorkersOneTwoEightProduceIdenticalPartitions) {
  fault::CampaignOptions options = base_options(fault::FaultType::BranchFlip);
  options.campaign_workers = 1;  // the serial engine
  // The serial reference runs on the interpreter tier; the parallel runs
  // below use the threaded tier, so this differential simultaneously
  // proves worker-count AND execution-tier invariance of the partition.
  options.exec_tier = vm::ExecTier::Interpreter;
  fault::CampaignResult serial = fault::run_campaign(kKernel, options);
  EXPECT_EQ(serial.workers, 1u);
  EXPECT_EQ(serial.injected, options.injections);
  EXPECT_FALSE(serial.interrupted);
  ASSERT_EQ(serial.verdicts.size(),
            static_cast<std::size_t>(options.injections));

  options.exec_tier = vm::ExecTier::Threaded;
  for (unsigned workers : {2u, 8u}) {
    options.campaign_workers = workers;
    fault::CampaignResult parallel = fault::run_campaign(kKernel, options);
    EXPECT_EQ(parallel.workers, workers);
    expect_identical(serial, parallel,
                     workers == 2 ? "workers=2 threaded vs serial interp"
                                  : "workers=8 threaded vs serial interp");
  }
}

TEST(CampaignParallel, ConditionFaultsAreWorkerInvariantToo) {
  fault::CampaignOptions options =
      base_options(fault::FaultType::BranchCondition);
  options.campaign_workers = 1;
  fault::CampaignResult serial = fault::run_campaign(kKernel, options);
  options.campaign_workers = 8;
  fault::CampaignResult parallel = fault::run_campaign(kKernel, options);
  expect_identical(serial, parallel, "condition faults, workers=8");
}

TEST(CampaignParallel, RecoveryCampaignIsWorkerInvariant) {
  fault::CampaignOptions options = base_options(fault::FaultType::BranchFlip);
  options.recovery.enabled = true;
  options.recovery.checkpoint_interval = 1;
  options.campaign_workers = 1;
  fault::CampaignResult serial = fault::run_campaign(kKernel, options);
  options.campaign_workers = 4;
  fault::CampaignResult parallel = fault::run_campaign(kKernel, options);
  expect_identical(serial, parallel, "recovery campaign, workers=4");
}

TEST(CampaignParallel, KillAndResumeReproducesUninterruptedResult) {
  const std::string ckpt =
      ::testing::TempDir() + "bw_campaign_resume_test.ckpt";
  fault::CampaignOptions options = base_options(fault::FaultType::BranchFlip);
  options.campaign_workers = 2;

  fault::CampaignResult reference = fault::run_campaign(kKernel, options);
  ASSERT_FALSE(reference.interrupted);

  // "Kill" the campaign partway through: halt_after stops dispatch once 17
  // injections completed; the checkpoint file holds the cursor. The
  // interrupted leg runs on the interpreter tier — checkpoints do not
  // record the tier, so the resume may switch dispatchers.
  options.checkpoint_file = ckpt;
  options.checkpoint_every = 4;
  options.halt_after = 17;
  options.exec_tier = vm::ExecTier::Interpreter;
  fault::CampaignResult partial = fault::run_campaign(kKernel, options);
  EXPECT_TRUE(partial.interrupted);
  EXPECT_GE(partial.injected, 17);
  EXPECT_LT(partial.injected, options.injections);

  // Resume: completed injections replay from the checkpoint, the rest
  // execute — on a different worker count AND the threaded tier for good
  // measure.
  options.halt_after = 0;
  options.checkpoint_file.clear();
  options.resume_file = ckpt;
  options.campaign_workers = 8;
  options.exec_tier = vm::ExecTier::Threaded;
  fault::CampaignResult resumed = fault::run_campaign(kKernel, options);
  EXPECT_EQ(resumed.resumed, partial.injected);
  EXPECT_FALSE(resumed.interrupted);
  expect_identical(reference, resumed, "kill-and-resume vs uninterrupted");
  std::remove(ckpt.c_str());
}

TEST(CampaignParallel, CheckpointRoundTripsThroughText) {
  fault::CampaignCheckpoint cp;
  cp.seed = 0xABCDEF;
  cp.type = fault::FaultType::BranchCondition;
  cp.injections = 10;
  cp.num_threads = 4;
  cp.protect = true;
  cp.cursor = 2;
  fault::InjectionOutcome o;
  o.index = 0;
  o.verdict = fault::Verdict::Detected;
  o.rollbacks = 3;
  o.wall_ns = 12345;
  cp.completed.push_back(o);
  o.index = 1;
  o.verdict = fault::Verdict::Sdc;
  o.recovered_mismatch = true;
  o.retry_exhausted = true;
  o.checkpoint_ns = 777;
  cp.completed.push_back(o);
  o = {};
  o.index = 7;  // hole between 1 and 7: workers finish out of order
  o.verdict = fault::Verdict::Benign;
  o.degraded = true;
  cp.completed.push_back(o);

  fault::CampaignCheckpoint back;
  std::string error;
  ASSERT_TRUE(fault::CampaignCheckpoint::from_text(cp.to_text(), back,
                                                   &error))
      << error;
  EXPECT_EQ(back.seed, cp.seed);
  EXPECT_EQ(back.type, cp.type);
  EXPECT_EQ(back.injections, cp.injections);
  EXPECT_EQ(back.num_threads, cp.num_threads);
  EXPECT_EQ(back.protect, cp.protect);
  EXPECT_EQ(back.cursor, cp.cursor);
  ASSERT_EQ(back.completed.size(), cp.completed.size());
  for (std::size_t i = 0; i < cp.completed.size(); ++i) {
    const fault::InjectionOutcome& want = cp.completed[i];
    const fault::InjectionOutcome& got = back.completed[i];
    EXPECT_EQ(got.index, want.index);
    EXPECT_EQ(got.verdict, want.verdict);
    EXPECT_EQ(got.degraded, want.degraded);
    EXPECT_EQ(got.recovered_mismatch, want.recovered_mismatch);
    EXPECT_EQ(got.retry_exhausted, want.retry_exhausted);
    EXPECT_EQ(got.rollbacks, want.rollbacks);
    EXPECT_EQ(got.checkpoint_ns, want.checkpoint_ns);
    EXPECT_EQ(got.wall_ns, want.wall_ns);
  }
}

TEST(CampaignParallel, MalformedCheckpointsAreRejected) {
  fault::CampaignCheckpoint cp;
  std::string error;
  EXPECT_FALSE(fault::CampaignCheckpoint::from_text("not a checkpoint", cp,
                                                    &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(fault::CampaignCheckpoint::from_text(
      "bw-campaign-checkpoint v1\nseed zzz\n", cp, &error));

  // A repeated outcome index or a second `pc` line for one phase is
  // rejected, naming the offending line: a duplicated `pc` line would
  // otherwise serve its slots twice and trip halt_after early.
  const std::string header =
      "bw-campaign-checkpoint v3\n"
      "seed 1 type branch-flip injections 8 threads 4 protect 1 "
      "sampling 0 0 64 flips 4\n"
      "cursor 0\n";
  const std::string outcome = "o 3 1 0 0 0 0 0 100\n";
  const std::string phase = "pc 1 a b c 2 12\n";
  ASSERT_TRUE(fault::CampaignCheckpoint::from_text(header + outcome + phase,
                                                   cp, &error))
      << error;
  error.clear();
  EXPECT_FALSE(fault::CampaignCheckpoint::from_text(
      header + outcome + "o 3 2 0 0 0 0 0 200\n", cp, &error));
  EXPECT_NE(error.find("duplicate outcome index: o 3 2"), std::string::npos)
      << error;
  error.clear();
  EXPECT_FALSE(fault::CampaignCheckpoint::from_text(
      header + phase + "pc 1 a b c 1 3\n", cp, &error));
  EXPECT_NE(error.find("duplicate phase-cache line: pc 1 a b c 1 3"),
            std::string::npos)
      << error;
}

TEST(CampaignParallel, CheckpointReaderSurvivesSeededMutations) {
  // Checkpoint files are input. Over a fixed-seed sweep of truncations,
  // byte flips and duplicated, dropped or swapped lines of a valid v3
  // text, the reader never crashes, every rejection says why, and every
  // accepted text round-trips through to_text().
  fault::CampaignCheckpoint cp;
  cp.seed = 0x5eedf00d;
  cp.type = fault::FaultType::BranchCondition;
  cp.injections = 12;
  cp.num_threads = 4;
  cp.cursor = 2;
  for (std::uint32_t index : {0u, 1u, 5u}) {
    fault::InjectionOutcome o;
    o.index = index;
    o.verdict = static_cast<fault::Verdict>(index % 8);
    o.degraded = index == 5;
    o.rollbacks = index;
    o.wall_ns = 1000 + index;
    cp.completed.push_back(o);
  }
  for (std::uint32_t phase : {0u, 2u}) {
    fault::PhaseCacheEntry entry;
    entry.phase = phase;
    entry.code_fp = 0x1234 + phase;
    entry.entry_fp = 0xabcd + phase;
    entry.cont_fp = 0x77 + phase;
    entry.verdicts = {fault::Verdict::Benign, fault::Verdict::Sdc};
    entry.via_continuation = {0, 1};
    cp.phase_cache.push_back(entry);
  }
  const std::string valid = cp.to_text();
  std::vector<std::string> lines;
  for (std::size_t at = 0; at < valid.size();) {
    const std::size_t end = valid.find('\n', at);
    lines.push_back(valid.substr(at, end + 1 - at));
    at = end + 1;
  }

  support::SplitMixRng rng(0xC0FFEE);
  int accepted = 0;
  int rejected = 0;
  for (int trial = 0; trial < 4000; ++trial) {
    std::string text;
    std::vector<std::string> mutated = lines;
    const std::size_t i = rng.next_below(mutated.size());
    const std::size_t j = rng.next_below(mutated.size());
    const std::uint64_t kind = rng.next_below(5);
    switch (kind) {
      case 0:
        text = valid.substr(0, rng.next_below(valid.size() + 1));
        break;
      case 1:
        text = valid;
        for (std::uint64_t n = 1 + rng.next_below(3); n > 0; --n) {
          text[rng.next_below(text.size())] ^=
              static_cast<char>(1u << rng.next_below(8));
        }
        break;
      case 2:
        mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(j),
                       mutated[i]);
        break;
      case 3:
        mutated.erase(mutated.begin() + static_cast<std::ptrdiff_t>(i));
        break;
      case 4:
        std::swap(mutated[i], mutated[j]);
        break;
    }
    if (kind >= 2) {
      for (const std::string& line : mutated) text += line;
    }

    fault::CampaignCheckpoint parsed;
    std::string error;
    if (!fault::CampaignCheckpoint::from_text(text, parsed, &error)) {
      ++rejected;
      EXPECT_FALSE(error.empty()) << "trial " << trial << ":\n" << text;
      continue;
    }
    ++accepted;
    const std::string canonical = parsed.to_text();
    fault::CampaignCheckpoint again;
    ASSERT_TRUE(fault::CampaignCheckpoint::from_text(canonical, again, &error))
        << "trial " << trial << ": " << error << "\n" << canonical;
    EXPECT_EQ(again.to_text(), canonical) << "trial " << trial;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_GT(rejected, 0);
}

TEST(CampaignParallel, ResumeThatAlreadyMeetsHaltAfterExecutesNothing) {
  // halt_after counts resumed outcomes before any worker claims an
  // injection, so a resume that already meets it executes nothing (the
  // regression: every worker still ran one more injection).
  const std::string ckpt =
      ::testing::TempDir() + "bw_campaign_halt_resume_test.ckpt";
  fault::CampaignOptions options = base_options(fault::FaultType::BranchFlip);
  options.campaign_workers = 1;
  options.checkpoint_file = ckpt;
  options.halt_after = 15;
  fault::CampaignResult partial = fault::run_campaign(kKernel, options);
  ASSERT_EQ(partial.injected, 15);

  options.checkpoint_file.clear();
  options.resume_file = ckpt;
  options.campaign_workers = 4;
  options.halt_after = 8;
  fault::CampaignResult resumed = fault::run_campaign(kKernel, options);
  EXPECT_EQ(resumed.resumed, 15);
  EXPECT_EQ(resumed.injected, 15);
  EXPECT_TRUE(resumed.interrupted);
  std::remove(ckpt.c_str());
}

TEST(CampaignParallel, ResumeRejectsAMismatchedCampaign) {
  const std::string ckpt =
      ::testing::TempDir() + "bw_campaign_mismatch_test.ckpt";
  fault::CampaignOptions options = base_options(fault::FaultType::BranchFlip);
  options.injections = 12;
  options.campaign_workers = 1;
  options.checkpoint_file = ckpt;
  fault::run_campaign(kKernel, options);

  options.checkpoint_file.clear();
  options.resume_file = ckpt;
  options.seed ^= 1;  // different campaign: the samples would not match
  EXPECT_THROW(fault::run_campaign(kKernel, options),
               support::CompileError);
  std::remove(ckpt.c_str());
}

TEST(CampaignParallel, CleanCampaignIsWorkerInvariantAndQuiet) {
  pipeline::CompiledProgram program = pipeline::protect_program(kKernel);
  pipeline::ExecutionConfig config;
  config.num_threads = 4;
  fault::CleanRunResult serial =
      fault::run_clean_campaign(program, config, 6, 1);
  fault::CleanRunResult parallel =
      fault::run_clean_campaign(program, config, 6, 4);
  EXPECT_EQ(serial.runs, 6);
  EXPECT_EQ(parallel.runs, 6);
  EXPECT_EQ(serial.violations, 0);
  EXPECT_EQ(parallel.violations, 0);
  EXPECT_EQ(serial.failures, 0);
  EXPECT_EQ(parallel.failures, 0);
  // Clean instrumented runs report a deterministic number of branches, so
  // the processed-report total is worker-invariant too.
  EXPECT_EQ(serial.reports, parallel.reports);
  EXPECT_EQ(serial.dropped, 0u);
  EXPECT_EQ(parallel.dropped, 0u);
}

}  // namespace
