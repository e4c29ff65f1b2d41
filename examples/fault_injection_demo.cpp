// fault_injection_demo: run a miniature coverage campaign on one benchmark
// and print the outcome taxonomy for the original program, the protected
// build, and the protected build with checkpoint/rollback recovery — a
// compact version of the paper's Figures 8/9 for a single program, plus
// the detect-and-correct extension.
//
//   $ ./fault_injection_demo [benchmark] [injections] [flip|cond]
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "bench_args.h"
#include "benchmarks/registry.h"
#include "fault/campaign.h"

int main(int argc, char** argv) {
  using namespace bw;
  const char* name = argc > 1 ? argv[1] : "radix";
  const int injections =
      argc > 2 ? static_cast<int>(support::count_arg_or_exit(
                     "fault_injection_demo", "injection count", argv[2], 1,
                     bench::kMaxInjections))
               : 100;
  fault::FaultType type =
      (argc > 3 && std::strcmp(argv[3], "cond") == 0)
          ? fault::FaultType::BranchCondition
          : fault::FaultType::BranchFlip;

  const benchmarks::Benchmark* bench = benchmarks::find_benchmark(name);
  if (bench == nullptr) {
    std::fprintf(stderr, "unknown benchmark '%s'\n", name);
    return 1;
  }

  std::printf("%d %s faults into %s (4 threads)\n\n", injections,
              fault::to_string(type), bench->paper_name.c_str());

  for (int mode = 0; mode < 3; ++mode) {
    const bool protect = mode > 0;
    const bool recover = mode == 2;
    fault::CampaignOptions options;
    options.num_threads = 4;
    options.injections = injections;
    options.type = type;
    options.protect = protect;
    options.recovery.enabled = recover;
    fault::CampaignResult r = fault::run_campaign(bench->source, options);
    std::printf("%s:\n", mode == 0   ? "original program"
                         : mode == 1 ? "with BLOCKWATCH"
                                     : "with BLOCKWATCH + recovery");
    std::printf("  activated %d/%d (%.0f%%)\n", r.activated, r.injected,
                100.0 * r.activation_rate());
    std::printf("  benign   %4d  (masked by the application)\n", r.benign);
    if (protect) {
      std::printf("  detected %4d  (monitor violations)\n", r.detected);
    }
    if (recover) {
      std::printf("  recovered%4d  (rolled back, finished correctly)\n",
                  r.recovered);
    }
    std::printf("  crashed  %4d  (traps: OOB / divide-by-zero)\n",
                r.crashed);
    std::printf("  hung     %4d  (deadlock / runaway)\n", r.hung);
    std::printf("  SDC      %4d  (silent data corruption)\n", r.sdc);
    std::printf("  coverage %.1f%%  (1 - SDC/activated)\n",
                100.0 * r.coverage());
    if (recover) {
      std::printf("  correct-output coverage %.1f%%  "
                  "((benign+recovered)/activated), recovery rate %.1f%%\n",
                  100.0 * r.coverage_with_recovery(),
                  100.0 * r.recovery_rate());
    }
    std::printf("\n");
  }
  return 0;
}
