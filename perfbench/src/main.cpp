// bwperf: one BLOCKWATCH benchmark workload per invocation.
//
//   bwperf --workload <protect-steady|campaign-recover> --seed <n>
//          --seconds <s> --trace <0|1> [--scratch <dir>] [--commit <id>]
//          [--smoke]
//   bwperf --selftest [--scratch <dir>]
//   bwperf --list-metrics
//
// The last line of standard output is one JSON object: {"correct",
// "attempted", "failed", "metrics"}, every metric with its value and unit.
// The line before it stamps the environment the numbers were taken in.
// Exit status: 0 when no operation failed, 1 on a wrong output, a false
// alarm or an admission error, 2 on bad arguments or a build unfit for
// timing.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "support/telemetry/telemetry.h"

namespace bwperf {
int run_selftest(const std::string& scratch_dir);
}  // namespace bwperf

namespace {

using namespace bwperf;

#ifndef BWPERF_BUILD_TYPE
#define BWPERF_BUILD_TYPE "unknown"
#endif

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif
#else
constexpr bool kSanitized = false;
#endif

/// Timing a Debug or sanitizer build measures the instrumentation, not
/// the program.
bool build_fit_for_timing() {
  const std::string type = BWPERF_BUILD_TYPE;
  if (kSanitized) {
    std::fprintf(stderr, "bwperf: refusing to time a sanitizer build\n");
    return false;
  }
  if (type != "Release" && type != "RelWithDebInfo" && type != "MinSizeRel") {
    std::fprintf(stderr, "bwperf: refusing to time a '%s' build\n",
                 type.c_str());
    return false;
  }
  return true;
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

void print_stamp(const Options& o, const std::string& commit) {
#if defined(BW_TELEMETRY_DISABLED)
  const char* telemetry = "off";
#else
  const char* telemetry = "on";
#endif
#if defined(BW_COMPUTED_GOTO)
  const char* computed_goto = "on";
#else
  const char* computed_goto = "off";
#endif
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  std::printf(
      "env {\"workload\": \"%s\", \"seed\": %llu, \"seconds\": %g, "
      "\"trace\": %d, \"nproc\": %ld, \"build_type\": \"%s\", "
      "\"BW_TELEMETRY\": \"%s\", \"telemetry_runtime\": \"%s\", "
      "\"BW_COMPUTED_GOTO\": \"%s\", \"compiler\": \"%s\", \"commit\": "
      "\"%s\", \"program_threads\": %u, \"consumer_threads\": %u, "
      "\"thread_budget\": %u}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed), o.seconds,
      o.trace ? 1 : 0, nproc, BWPERF_BUILD_TYPE, telemetry,
      bw::telemetry::enabled() ? "enabled" : "disabled", computed_goto,
      compiler().c_str(), commit.c_str(), kProgramThreads, kConsumerThreads,
      kProgramThreads + kConsumerThreads);
  if (nproc > 0 &&
      kProgramThreads + kConsumerThreads > static_cast<unsigned>(nproc)) {
    std::printf("warning: the thread budget exceeds the %ld online cores\n",
                nproc);
  }
}

void print_result(const Report& report) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.correct ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  for (std::size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: bwperf --workload <protect-steady|campaign-recover> "
               "--seed <n> --seconds <s> --trace <0|1> "
               "[--scratch <dir>] [--commit <id>] [--smoke]\n"
               "       bwperf --selftest [--scratch <dir>]\n"
               "       bwperf --list-metrics\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string commit = "unknown";
  bool selftest = false;
  bool have_workload = false, have_seed = false, have_seconds = false,
       have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    char* end = nullptr;
    if (arg == "--selftest") {
      selftest = true;
    } else if (arg == "--smoke") {
      options.smoke = true;
    } else if (arg == "--list-metrics") {
      for (const MetricSpec& m : kEndToEnd) {
        std::printf("end_to_end %s %s\n", m.name, m.unit);
      }
      for (const MetricSpec& m : kPerLayer) {
        std::printf("per_layer %s %s\n", m.name, m.unit);
      }
      return 0;
    } else if (value == nullptr) {
      return usage();
    } else if (arg == "--workload") {
      options.workload = value;
      have_workload = known_workload(options.workload);
      ++i;
    } else if (arg == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
      ++i;
    } else if (arg == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = end != value && *end == '\0' && options.seconds > 0;
      ++i;
    } else if (arg == "--trace") {
      options.trace = std::strcmp(value, "1") == 0;
      have_trace = options.trace || std::strcmp(value, "0") == 0;
      ++i;
    } else if (arg == "--scratch") {
      options.scratch_dir = value;
      ++i;
    } else if (arg == "--commit") {
      commit = value;
      ++i;
    } else {
      return usage();
    }
  }
  if (!build_fit_for_timing()) return 2;
  if (selftest) return run_selftest(options.scratch_dir);
  if (!have_workload || !have_seed || !have_seconds || !have_trace) {
    return usage();
  }
  // End-to-end numbers are taken with the library's telemetry off.
  if (bw::telemetry::enabled()) {
    std::fprintf(stderr, "bwperf: telemetry is enabled at start-up\n");
    return 2;
  }

  print_stamp(options, commit);
  std::fflush(stdout);
  try {
    Report report = run_workload(options);
    if (bw::telemetry::enabled()) {
      std::fprintf(stderr, "bwperf: telemetry was enabled during the run\n");
      return 2;
    }
    print_result(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "bwperf: %s\n", e.what());
    return 1;
  }
}
