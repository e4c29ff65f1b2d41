// Reproduces paper Figure 7: geometric mean of BLOCKWATCH's overhead
// across all seven programs as the thread count varies 1..32.
// Paper reference: overhead rises from 1 to 2 threads (NUMA effect on
// their 4-socket machine), then falls monotonically to 1.16x at 32.
//
// As in bw_fig6_overhead, "overhead" is the paper's parallel-section
// ratio and "e2e" times the whole pipeline::execute() call (monitor start,
// the drain after the section, finalize and stop included). Each rep runs
// every program's baseline and instrumented build back to back,
// alternating which goes first (bench/execute_timing.h); a point is the
// median over reps of that rep's geomean across programs, with its
// quartiles in brackets. Below 4 threads some checks cannot fire
// (runtime::min_reporters), so their sites send nothing: those points
// price only reports a check can use.
//
//   usage: bw_fig7_scalability [reps] [--shards=K]
//          [--json=<file>]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench_args.h"
#include "bench_json.h"
#include "execute_timing.h"
#include "benchmarks/registry.h"
#include "pipeline/pipeline.h"

namespace {

using namespace bw;

unsigned g_shards = 0;   // 0 = legacy single-consumer monitor

pipeline::ExecutionConfig run_config(unsigned threads,
                                     pipeline::MonitorMode mode) {
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.monitor = mode;
  config.stop_on_detection = false;
  if (mode != pipeline::MonitorMode::Off) config.monitor_shards = g_shards;
  return config;
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      g_shards = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_fig7_scalability", "--shards", argv[i] + 9, 0,
          bench::kMaxShards));
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      reps = static_cast<int>(support::count_arg_or_exit(
          "bw_fig7_scalability", "rep count", argv[i], 1, bench::kMaxReps));
    }
  }
  const unsigned thread_counts[] = {1, 2, 4, 8, 16, 32};

  std::printf("Figure 7: geomean BLOCKWATCH overhead vs thread count\n");
  if (g_shards > 0) {
    std::printf("monitor: sharded, %u shard(s)\n\n", g_shards);
  } else {
    std::printf("monitor: legacy single consumer\n\n");
  }
  std::printf("%8s %19s %19s\n", "threads", "overhead", "e2e");
  struct Row {
    unsigned threads;
    bench::Quartiles overhead;
    bench::Quartiles e2e;
  };
  std::vector<Row> rows;
  for (unsigned threads : thread_counts) {
    bench::RepGeomean overhead;
    bench::RepGeomean e2e;
    for (const benchmarks::Benchmark& bench :
         benchmarks::all_benchmarks()) {
      pipeline::CompiledProgram baseline =
          pipeline::compile_program(bench.source);
      pipeline::CompiledProgram protected_program =
          pipeline::protect_program(bench.source);
      const bench::RatioSamples samples = bench::overhead_samples(
          baseline, run_config(threads, pipeline::MonitorMode::Off),
          protected_program,
          run_config(threads, pipeline::MonitorMode::DrainOnly), reps);
      overhead.add(samples.parallel);
      e2e.add(samples.execute);
    }
    Row row{threads, bench::quartiles(overhead.values()),
            bench::quartiles(e2e.values())};
    std::printf("%8u %6.2fx [%4.2f-%4.2f] %6.2fx [%4.2f-%4.2f]\n", threads,
                row.overhead.median, row.overhead.q1, row.overhead.q3,
                row.e2e.median, row.e2e.q1, row.e2e.q3);
    rows.push_back(row);
  }
  std::printf(
      "\nPaper anchors: 2.15x @4 threads, 1.16x @32 threads; shape: the\n"
      "overhead rises from 1 to 2 threads (a NUMA artifact of their\n"
      "4-socket testbed), then falls monotonically toward 32 threads.\n"
      "Below 4 threads the sites of checks that cannot fire send nothing.\n"
      "See EXPERIMENTS.md.\n");
  if (!json_path.empty()) {
    bench::JsonWriter json("bw_fig7_scalability");
    json.num("reps", reps);
    json.num("shards", g_shards);
    json.begin_rows();
    for (const Row& r : rows) {
      json.begin_row();
      json.num("threads", r.threads);
      json.real("geomean_overhead", r.overhead.median);
      json.real("geomean_overhead_q1", r.overhead.q1);
      json.real("geomean_overhead_q3", r.overhead.q3);
      json.real("e2e_geomean_overhead", r.e2e.median);
      json.real("e2e_geomean_overhead_q1", r.e2e.q1);
      json.real("e2e_geomean_overhead_q3", r.e2e.q3);
      json.end_row();
    }
    json.end_rows();
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
