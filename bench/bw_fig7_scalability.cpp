// Reproduces paper Figure 7: geometric mean of BLOCKWATCH's overhead
// across all seven programs as the thread count varies 1..32.
// Paper reference: overhead rises from 1 to 2 threads (NUMA effect on
// their 4-socket machine), then falls monotonically to 1.16x at 32.
//
// As in bw_fig6_overhead, "overhead" is the paper's parallel-section
// ratio and "e2e" times the whole pipeline::execute() call (monitor start,
// the drain after the section, finalize and stop included). Below 4
// threads some checks cannot fire (runtime::min_reporters), so their
// sites send nothing: those points price only reports a check can use.
//
//   usage: bw_fig7_scalability [reps] [--shards=K]
//          [--json=<file>]
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

bench::Timing median_seconds(const pipeline::CompiledProgram& program,
                             unsigned threads, pipeline::MonitorMode mode,
                             int reps) {
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
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
    } else if (std::strncmp(argv[i], "--json=", 7) == 0) {
      json_path = argv[i] + 7;
    } else {
      reps = std::atoi(argv[i]);
    }
  }
  const unsigned thread_counts[] = {1, 2, 4, 8, 16, 32};

  std::printf("Figure 7: geomean BLOCKWATCH overhead vs thread count\n");
  if (g_shards > 0) {
    std::printf("monitor: sharded, %u shard(s)\n\n", g_shards);
  } else {
    std::printf("monitor: legacy single consumer\n\n");
  }
  std::printf("%8s %10s %10s\n", "threads", "overhead", "e2e");
  struct Row {
    unsigned threads;
    double geomean;
    double e2e_geomean;
  };
  std::vector<Row> rows;
  for (unsigned threads : thread_counts) {
    double log_sum = 0.0;
    double log_e2e = 0.0;
    int count = 0;
    for (const benchmarks::Benchmark& bench :
         benchmarks::all_benchmarks()) {
      pipeline::CompiledProgram baseline =
          pipeline::compile_program(bench.source);
      pipeline::CompiledProgram protected_program =
          pipeline::protect_program(bench.source);
      const bench::Timing base = median_seconds(baseline, threads,
                                         pipeline::MonitorMode::Off, reps);
      const bench::Timing inst = median_seconds(protected_program, threads,
                                         pipeline::MonitorMode::DrainOnly,
                                         reps);
      if (base.parallel_s > 0.0) {
        log_sum += std::log(inst.parallel_s / base.parallel_s);
        log_e2e += std::log(base.execute_s > 0.0
                                ? inst.execute_s / base.execute_s
                                : 1.0);
        ++count;
      }
    }
    const double geomean = std::exp(log_sum / count);
    const double e2e_geomean = std::exp(log_e2e / count);
    std::printf("%8u %9.2fx %9.2fx\n", threads, geomean, e2e_geomean);
    rows.push_back({threads, geomean, e2e_geomean});
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
      json.real("geomean_overhead", r.geomean);
      json.real("e2e_geomean_overhead", r.e2e_geomean);
      json.end_row();
    }
    json.end_rows();
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
