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
// finalize and stop included), which is what a user waits for. Each rep
// runs the baseline and the instrumented build back to back, alternating
// which goes first (bench/execute_timing.h); every ratio is the median
// over the reps' ratios, with its quartiles in brackets. The geomean row
// takes the geomean across programs rep by rep, then its median and
// quartiles.
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
vm::ExecTier g_tier = vm::ExecTier::Auto;
analysis::ElisionMode g_elision = analysis::ElisionMode::ProofBacked;

pipeline::ExecutionConfig run_config(unsigned threads,
                                     pipeline::MonitorMode mode) {
  pipeline::ExecutionConfig config;
  config.num_threads = threads;
  config.exec_tier = g_tier;
  config.monitor = mode;
  config.stop_on_detection = false;
  if (mode != pipeline::MonitorMode::Off) config.monitor_shards = g_shards;
  return config;
}

/// "2.15x [2.01-2.30]": the median ratio and its quartiles.
void print_ratio(const bench::Quartiles& q) {
  std::printf(" %6.2fx [%4.2f-%4.2f]", q.median, q.q1, q.q3);
}

/// `key`, `key_q1` and `key_q3` in the JSON row.
void json_ratio(bench::JsonWriter& json, const std::string& key,
                const bench::Quartiles& q) {
  json.real(key.c_str(), q.median);
  json.real((key + "_q1").c_str(), q.q1);
  json.real((key + "_q3").c_str(), q.q3);
}

}  // namespace

int main(int argc, char** argv) {
  int reps = 3;
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      g_shards = static_cast<unsigned>(support::count_arg_or_exit(
          "bw_fig6_overhead", "--shards", argv[i] + 9, 0, bench::kMaxShards));
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
      reps = static_cast<int>(support::count_arg_or_exit(
          "bw_fig6_overhead", "rep count", argv[i], 1, bench::kMaxReps));
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
  // Columns: parallel ratio at 4 and 32 threads, then e2e at 4 and 32.
  const char* const kColumns[4] = {"4 threads", "32 threads", "4t e2e",
                                   "32t e2e"};
  const char* const kKeys[4] = {"ratio_4t", "ratio_32t", "e2e_ratio_4t",
                                "e2e_ratio_32t"};
  std::printf("%-22s", "Program");
  for (const char* column : kColumns) std::printf(" %19s", column);
  std::printf("\n");

  struct Row {
    std::string name;
    bench::Quartiles columns[4];
  };
  std::vector<Row> rows;
  bench::RepGeomean geomeans[4];
  for (const benchmarks::Benchmark& bench : benchmarks::all_benchmarks()) {
    pipeline::CompiledProgram baseline =
        pipeline::compile_program(bench.source);
    pipeline::PipelineOptions popts;
    popts.similarity.elision = g_elision;
    pipeline::CompiledProgram protected_program =
        pipeline::protect_program(bench.source, popts);

    Row row;
    row.name = bench.name;
    const unsigned thread_counts[2] = {4, 32};
    for (int i = 0; i < 2; ++i) {
      const bench::RatioSamples samples = bench::overhead_samples(
          baseline, run_config(thread_counts[i], pipeline::MonitorMode::Off),
          protected_program,
          run_config(thread_counts[i], pipeline::MonitorMode::DrainOnly),
          reps);
      row.columns[i] = bench::quartiles(samples.parallel);
      row.columns[2 + i] = bench::quartiles(samples.execute);
      geomeans[i].add(samples.parallel);
      geomeans[2 + i].add(samples.execute);
    }
    std::printf("%-22s", bench.paper_name.c_str());
    for (const bench::Quartiles& q : row.columns) print_ratio(q);
    std::printf("\n");
    rows.push_back(row);
  }
  bench::Quartiles geomean[4];
  std::printf("%-22s", "geomean");
  for (int c = 0; c < 4; ++c) {
    geomean[c] = bench::quartiles(geomeans[c].values());
    print_ratio(geomean[c]);
  }
  std::printf("   (paper: 2.15x / 1.16x)\n");
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
      for (int c = 0; c < 4; ++c) json_ratio(json, kKeys[c], r.columns[c]);
      json.end_row();
    }
    json.end_rows();
    const char* const kGeomeanKeys[4] = {"geomean_4t", "geomean_32t",
                                         "e2e_geomean_4t", "e2e_geomean_32t"};
    for (int c = 0; c < 4; ++c) {
      json_ratio(json, kGeomeanKeys[c], geomean[c]);
    }
    if (!json.write(json_path)) return 1;
  }
  return 0;
}
