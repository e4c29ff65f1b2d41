// Reproduces paper Figure 6: normalized execution time of each program
// with BLOCKWATCH (instrumented run / baseline run) at 4 and 32 threads,
// plus the geometric mean. Paper reference: geomean 2.15x at 4 threads,
// 1.16x at 32 threads.
//
// Methodology mirrors the paper's 32-thread configuration: the monitor
// thread drains the queues but does not check ("we disable the monitor
// ... the threads still send the branch information"), so the overhead
// measured is the instrumentation's client-side cost. The paper's ratio
// times the parallel section only; the "e2e" columns time the whole
// pipeline::execute() call (monitor start, the drain after the section,
// finalize and stop included), which is what a user waits for. Median of
// `reps` runs for each.
//
// The sharded monitor adds an axis: with --shards=K the run is the only
// session of a K-shard MonitorService, over the same wire of staged
// reports as the legacy Monitor (--shards=0, the default). See
// EXPERIMENTS.md for the recorded comparison.
//
//   usage: bw_fig6_overhead [reps] [--shards=K]
//          [--tier=auto|interpreter|threaded]
//          [--elision=none|syntactic|proof] [--json=<file>]
//
// --tier selects the VM dispatcher for BOTH the baseline and instrumented
// runs (vm/dispatch.h; auto = threaded), so the normalized ratio isolates
// instrumentation cost at either tier while the absolute wall-clocks show
// the dispatcher speedup.
//
// --elision selects the critical-section elision mode for the
// instrumented build (analysis/similarity.h ElisionMode); comparing
// syntactic against proof (the default) on these axes prices the checks
// that proof-backed elision refuses to drop.
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_json.h"
#include "execute_timing.h"
#include "benchmarks/registry.h"
#include "pipeline/pipeline.h"

namespace {

using namespace bw;

unsigned g_shards = 0;   // 0 = legacy single-consumer monitor
vm::ExecTier g_tier = vm::ExecTier::Auto;
analysis::ElisionMode g_elision = analysis::ElisionMode::ProofBacked;

bench::Timing median_seconds(const pipeline::CompiledProgram& program,
                             unsigned threads, pipeline::MonitorMode mode,
                             int reps) {
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.exec_tier = g_tier;
  config.monitor = mode;
  config.stop_on_detection = false;
  if (mode != pipeline::MonitorMode::Off) config.monitor_shards = g_shards;
  return bench::median_seconds(program, config, reps);
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      g_shards = static_cast<unsigned>(std::atoi(argv[i] + 9));
    } else if (std::strncmp(argv[i], "--tier=", 7) == 0) {
      if (!vm::parse_exec_tier(argv[i] + 7, g_tier)) {
        std::fprintf(stderr, "unknown tier '%s'\n", argv[i] + 7);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--elision=", 10) == 0) {
      if (!analysis::parse_elision_mode(argv[i] + 10, g_elision)) {
        std::fprintf(stderr, "unknown elision mode '%s'\n", argv[i] + 10);
        return 2;
      }
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      reps = std::atoi(argv[i]);
    }
  }
  std::printf("Figure 6: normalized execution time with BLOCKWATCH "
              "(lower is better; baseline = 1.0)\n");
  if (g_shards > 0) {
    std::printf("monitor: sharded, %u shard(s)\n", g_shards);
  } else {
    std::printf("monitor: legacy single consumer\n");
  }
  std::printf("vm tier: %s\n", vm::to_string(vm::resolve_tier(g_tier)));
  std::printf("elision: %s\n\n", analysis::to_string(g_elision));
  std::printf("%-22s %12s %12s %12s %12s\n", "Program", "4 threads",
              "32 threads", "4t e2e", "32t e2e");

  double log_sum4 = 0.0;
  double log_sum32 = 0.0;
  double log_e2e4 = 0.0;
  double log_e2e32 = 0.0;
  int count = 0;
  struct Row {
    std::string name;
    double ratio4, ratio32, e2e4, e2e32;
  };
  std::vector<Row> rows;
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    pipeline::CompiledProgram baseline =
        pipeline::compile_program(bench.source);
    pipeline::PipelineOptions popts;
    popts.similarity.elision = g_elision;
    pipeline::CompiledProgram protected_program =
        pipeline::protect_program(bench.source, popts);

    double ratios[2];
    double e2e[2];
    unsigned thread_counts[2] = {4, 32};
    for (int i = 0; i < 2; ++i) {
      const bench::Timing base = median_seconds(
          baseline, thread_counts[i], pipeline::MonitorMode::Off, reps);
      const bench::Timing inst =
          median_seconds(protected_program, thread_counts[i],
                         pipeline::MonitorMode::DrainOnly, reps);
      ratios[i] =
          base.parallel_s > 0.0 ? inst.parallel_s / base.parallel_s : 1.0;
      e2e[i] = base.execute_s > 0.0 ? inst.execute_s / base.execute_s : 1.0;
    }
    std::printf("%-22s %11.2fx %11.2fx %11.2fx %11.2fx\n",
                bench.paper_name.c_str(), ratios[0], ratios[1], e2e[0],
                e2e[1]);
    log_sum4 += std::log(ratios[0]);
    log_sum32 += std::log(ratios[1]);
    log_e2e4 += std::log(e2e[0]);
    log_e2e32 += std::log(e2e[1]);
    rows.push_back({bench.name, ratios[0], ratios[1], e2e[0], e2e[1]});
    ++count;
  }
  const double geomean4 = std::exp(log_sum4 / count);
  const double geomean32 = std::exp(log_sum32 / count);
  const double e2e_geomean4 = std::exp(log_e2e4 / count);
  const double e2e_geomean32 = std::exp(log_e2e32 / count);
  std::printf("%-22s %11.2fx %11.2fx %11.2fx %11.2fx   "
              "(paper: 2.15x / 1.16x)\n",
              "geomean", geomean4, geomean32, e2e_geomean4, e2e_geomean32);
  if (!json_path.empty()) {
    bench::JsonWriter json("bw_fig6_overhead");
    json.num("reps", reps);
    json.num("shards", g_shards);
    json.str("tier", vm::to_string(vm::resolve_tier(g_tier)));
    json.str("elision", analysis::to_string(g_elision));
    json.begin_rows();
    for (const Row& r : rows) {
      json.begin_row();
      json.str("program", r.name);
      json.real("ratio_4t", r.ratio4);
      json.real("ratio_32t", r.ratio32);
      json.real("e2e_ratio_4t", r.e2e4);
      json.real("e2e_ratio_32t", r.e2e32);
      json.end_row();
    }
    json.end_rows();
    json.real("geomean_4t", geomean4);
    json.real("geomean_32t", geomean32);
    json.real("e2e_geomean_4t", e2e_geomean4);
    json.real("e2e_geomean_32t", e2e_geomean32);
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
