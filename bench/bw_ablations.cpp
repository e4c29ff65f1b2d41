// Ablation studies for the design choices DESIGN.md calls out:
//
//  A1  promotion of `none` branches to value-grouped partial checks
//      (paper optimization 1) — effect on condition-fault coverage.
//  A2  critical-section check elision (paper optimization 2) — effect on
//      instrumented-branch count and report volume.
//  A3  divergence-aware phi/select demotion (our soundness refinement) —
//      turning it OFF must surface would-be false positives on clean runs.
//  A4  the six-level nesting cutoff — raytrace coverage vs cutoff depth.
//
//   usage: bw_ablations [injections]
#include <cstdio>
#include <cstdlib>

#include "bench_args.h"
#include "benchmarks/registry.h"
#include "fault/campaign.h"

using namespace bw;

namespace {

fault::CampaignResult coverage_with(const char* source, int injections,
                                    fault::FaultType type,
                                    const pipeline::PipelineOptions& popts) {
  fault::CampaignOptions options;
  options.num_threads = 4;
  options.injections = injections;
  options.type = type;
  options.protect = true;
  options.pipeline = popts;
  return fault::run_campaign(source, options);
}

int clean_violations(const char* source,
                     const pipeline::PipelineOptions& popts, int runs) {
  pipeline::CompiledProgram program =
      pipeline::protect_program(source, popts);
  int violations = 0;
  for (int r = 0; r < runs; ++r) {
    pipeline::ExecutionConfig config;
    config.num_threads = 4;
    config.stop_on_detection = false;
    violations +=
        static_cast<int>(pipeline::execute(program, config).violations.size());
  }
  return violations;
}

}  // namespace

int main(int argc, char** argv) {
  const int injections =
      argc > 1 ? static_cast<int>(support::count_arg_or_exit(
                     "bw_ablations", "injection count", argv[1], 1,
                     bench::kMaxInjections))
               : 120;

  // --- A1: none -> partial promotion --------------------------------------
  std::printf("A1: promotion of `none` branches (condition faults, "
              "%d injections)\n", injections);
  for (const char* name : {"fmm", "raytrace", "water_nsq"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    pipeline::PipelineOptions on;
    pipeline::PipelineOptions off;
    off.similarity.promote_none_to_partial = false;
    fault::CampaignResult with_promo = coverage_with(
        bench->source, injections, fault::FaultType::BranchCondition, on);
    fault::CampaignResult without = coverage_with(
        bench->source, injections, fault::FaultType::BranchCondition, off);
    std::printf("  %-16s promotion on: %5.1f%%   off: %5.1f%%\n", name,
                100.0 * with_promo.coverage(), 100.0 * without.coverage());
  }

  // --- A2: critical-section elision ----------------------------------------
  std::printf("\nA2: critical-section elision (water_nsq uses a lock)\n");
  {
    const benchmarks::Benchmark* bench =
        benchmarks::find_benchmark("water_nsq");
    pipeline::PipelineOptions none;
    none.similarity.elision = analysis::ElisionMode::None;
    pipeline::PipelineOptions syntactic;
    syntactic.similarity.elision = analysis::ElisionMode::Syntactic;
    pipeline::PipelineOptions proof;
    proof.similarity.elision = analysis::ElisionMode::ProofBacked;
    pipeline::CompiledProgram p_none =
        pipeline::protect_program(bench->source, none);
    pipeline::CompiledProgram p_syn =
        pipeline::protect_program(bench->source, syntactic);
    pipeline::CompiledProgram p_proof =
        pipeline::protect_program(bench->source, proof);
    int promoted = 0;
    for (const analysis::BranchInfo& b : p_proof.analysis.branches) {
      if (b.elision_promoted) ++promoted;
    }
    std::printf("  instrumented branches: none: %d   syntactic: %d   "
                "proof-backed: %d (%d promoted)\n",
                p_none.instrument_stats.instrumented_branches,
                p_syn.instrument_stats.instrumented_branches,
                p_proof.instrument_stats.instrumented_branches, promoted);
    std::printf("  clean-run violations:  none: %d   syntactic: %d   "
                "proof-backed: %d (all must be 0)\n",
                clean_violations(bench->source, none, 5),
                clean_violations(bench->source, syntactic, 5),
                clean_violations(bench->source, proof, 5));
  }

  // --- A3: divergence-aware demotion ----------------------------------------
  std::printf("\nA3: divergence-aware phi demotion (our refinement; "
              "disabling it must break the zero-FP guarantee somewhere)\n");
  {
    int fp_on = 0;
    int fp_off = 0;
    for (const benchmarks::Benchmark& bench :
         benchmarks::all_benchmarks()) {
      pipeline::PipelineOptions on;
      pipeline::PipelineOptions off;
      off.similarity.divergence_aware_phis = false;
      fp_on += clean_violations(bench.source, on, 3);
      fp_off += clean_violations(bench.source, off, 3);
    }
    std::printf("  clean-run violations across all 7 programs: "
                "refinement on: %d   off: %d\n", fp_on, fp_off);
  }

  // --- A4: nesting cutoff on raytrace ---------------------------------------
  std::printf("\nA4: loop-nesting cutoff vs raytrace coverage "
              "(branch-flip, %d injections)\n", injections);
  for (unsigned depth : {3u, 6u, 12u}) {
    pipeline::PipelineOptions popts;
    popts.instrumentation.max_nesting_depth = depth;
    const benchmarks::Benchmark* bench =
        benchmarks::find_benchmark("raytrace");
    pipeline::CompiledProgram program =
        pipeline::protect_program(bench->source, popts);
    fault::CampaignResult result = coverage_with(
        bench->source, injections, fault::FaultType::BranchFlip, popts);
    std::printf("  cutoff %2u: %d branches instrumented, %d skipped by "
                "depth, coverage %.1f%%\n", depth,
                program.instrument_stats.instrumented_branches,
                program.instrument_stats.skipped_depth,
                100.0 * result.coverage());
  }

  // --- A6: same-condition check dedup (paper §VI overhead idea) --------------
  std::printf("\nA6: redundant-check dedup (%d branch-flip injections)\n",
              injections);
  for (const char* name : {"ocean_contig", "fmm"}) {
    const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
    pipeline::PipelineOptions off;
    pipeline::PipelineOptions on;
    on.instrumentation.dedup_same_condition = true;
    pipeline::CompiledProgram plain =
        pipeline::protect_program(bench->source, off);
    pipeline::CompiledProgram dedup =
        pipeline::protect_program(bench->source, on);
    fault::CampaignResult plain_cov = coverage_with(
        bench->source, injections, fault::FaultType::BranchFlip, off);
    fault::CampaignResult dedup_cov = coverage_with(
        bench->source, injections, fault::FaultType::BranchFlip, on);
    std::printf("  %-16s branches %d -> %d (skipped %d), coverage "
                "%5.1f%% -> %5.1f%%\n",
                name, plain.instrument_stats.instrumented_branches,
                dedup.instrument_stats.instrumented_branches,
                dedup.instrument_stats.skipped_dedup,
                100.0 * plain_cov.coverage(), 100.0 * dedup_cov.coverage());
  }
  return 0;
}
