// Exporters for telemetry snapshots: Chrome trace_event JSON (loadable in
// about://tracing and ui.perfetto.dev), a plain-text metrics dump, and a
// metrics JSON object for bench ingestion. Pure functions of a Snapshot —
// no registry access, so they are identical under -DBW_TELEMETRY=OFF.
#include <cinttypes>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>

#include "support/telemetry/telemetry.h"

namespace bw::telemetry {

namespace {

void append_fmt(std::string& out, const char* fmt, ...) {
  char buffer[256];
  va_list args;
  va_start(args, fmt);
  int n = std::vsnprintf(buffer, sizeof(buffer), fmt, args);
  va_end(args);
  if (n > 0) out.append(buffer, static_cast<std::size_t>(n));
}

/// Microseconds with sub-us precision, the unit Chrome traces expect.
double to_us(std::uint64_t ns) { return static_cast<double>(ns) / 1000.0; }

/// Kind-specific argument names, so the trace UI shows "static_id: 7"
/// instead of "a0: 7". Keep in sync with the EventKind comment block in
/// telemetry.h and the table in docs/observability.md.
struct ArgNames {
  const char* a0;
  const char* a1;
  const char* a2;
};

ArgNames arg_names(EventKind kind) {
  switch (kind) {
    case EventKind::Violation: return {"static_id", "ctx_hash", "iter_hash"};
    case EventKind::HealthTransition: return {"from", "to", "unused"};
    case EventKind::Rollback:
      return {"generation", "retries", "to_section_start"};
    case EventKind::Checkpoint: return {"generation", "heap_words", "unused"};
    case EventKind::QueueHighWater: return {"thread", "shard", "unused"};
    case EventKind::FaultOutcome: return {"outcome", "thread", "target"};
    case EventKind::CampaignInjection:
      return {"index", "verdict", "worker"};
    case EventKind::SamplingTransition:
      return {"from_rate", "to_rate", "reason"};
    case EventKind::SessionAdmitted: return {"session", "threads", "quota"};
    case EventKind::SessionEvicted:
      return {"session", "violations", "dropped"};
    case EventKind::TenantThrottled: return {"session", "thread", "reports"};
    case EventKind::PhaseOutcome: return {"phase", "injections", "sdc"};
    case EventKind::kCount: break;
  }
  return {"a0", "a1", "a2"};
}

/// Approximate quantile from the log2-bucketed histogram: returns the
/// upper bound of the bucket containing the q-th sample (0 for empty).
std::uint64_t histogram_quantile(const Snapshot& snap, Histogram h,
                                 double q) {
  const auto& buckets = snap.histograms[static_cast<std::size_t>(h)];
  std::uint64_t total = snap.histogram_count(h);
  if (total == 0) return 0;
  std::uint64_t rank = static_cast<std::uint64_t>(q * (total - 1)) + 1;
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < kHistogramBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      return b == 0 ? 0 : (1ull << b) - 1;  // bucket upper bound
    }
  }
  return ~0ull;
}

}  // namespace

std::string to_chrome_trace(const Snapshot& snapshot) {
  std::string out;
  out.reserve(4096 + snapshot.spans.size() * 160 +
              snapshot.events.size() * 160);
  out += "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  // Process name metadata so Perfetto labels the single process.
  out +=
      "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
      "\"args\":{\"name\":\"blockwatch\"}}";
  first = false;
  for (const SpanRecord& span : snapshot.spans) {
    if (!first) out += ",";
    first = false;
    append_fmt(out,
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
               "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
               "\"args\":{\"depth\":%u}}",
               span.name, to_string(span.phase), span.tid,
               to_us(span.start_ns),
               to_us(span.end_ns >= span.start_ns
                         ? span.end_ns - span.start_ns
                         : 0),
               span.depth);
  }
  for (const EventRecord& event : snapshot.events) {
    if (!first) out += ",";
    first = false;
    ArgNames names = arg_names(event.kind);
    append_fmt(out,
               "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"i\",\"s\":\"t\","
               "\"pid\":1,\"tid\":%u,\"ts\":%.3f,\"args\":{\"%s\":%" PRIu64
               ",\"%s\":%" PRIu64 ",\"%s\":%" PRIu64 "}}",
               to_string(event.kind), to_string(event.phase), event.tid,
               to_us(event.ts_ns), names.a0, event.a0, names.a1, event.a1,
               names.a2, event.a2);
  }
  out += "]}";
  return out;
}

std::string to_text(const Snapshot& snapshot) {
  std::string out;
  out += "# counters\n";
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount);
       ++c) {
    append_fmt(out, "%-40s %" PRIu64 "\n",
               to_string(static_cast<Counter>(c)), snapshot.counters[c]);
  }
  out += "# gauges\n";
  for (std::size_t g = 0; g < static_cast<std::size_t>(Gauge::kCount); ++g) {
    append_fmt(out, "%-40s %" PRIu64 "\n", to_string(static_cast<Gauge>(g)),
               snapshot.gauges[g]);
  }
  out += "# histograms (count p50 p99; log2 buckets, upper bounds)\n";
  for (std::size_t h = 0; h < static_cast<std::size_t>(Histogram::kCount);
       ++h) {
    Histogram hist = static_cast<Histogram>(h);
    append_fmt(out, "%-40s %" PRIu64 " %" PRIu64 " %" PRIu64 "\n",
               to_string(hist), snapshot.histogram_count(hist),
               histogram_quantile(snapshot, hist, 0.50),
               histogram_quantile(snapshot, hist, 0.99));
  }
  append_fmt(out, "# spans %zu (dropped %" PRIu64 "), events %zu (dropped %"
             PRIu64 ")\n",
             snapshot.spans.size(), snapshot.spans_dropped,
             snapshot.events.size(), snapshot.events_dropped);
  return out;
}

std::string to_json(const Snapshot& snapshot) {
  std::string out = "{\"counters\":{";
  for (std::size_t c = 0; c < static_cast<std::size_t>(Counter::kCount);
       ++c) {
    append_fmt(out, "%s\"%s\":%" PRIu64, c == 0 ? "" : ",",
               to_string(static_cast<Counter>(c)), snapshot.counters[c]);
  }
  out += "},\"gauges\":{";
  for (std::size_t g = 0; g < static_cast<std::size_t>(Gauge::kCount); ++g) {
    append_fmt(out, "%s\"%s\":%" PRIu64, g == 0 ? "" : ",",
               to_string(static_cast<Gauge>(g)), snapshot.gauges[g]);
  }
  out += "},\"histograms\":{";
  for (std::size_t h = 0; h < static_cast<std::size_t>(Histogram::kCount);
       ++h) {
    Histogram hist = static_cast<Histogram>(h);
    append_fmt(out,
               "%s\"%s\":{\"count\":%" PRIu64 ",\"p50\":%" PRIu64
               ",\"p99\":%" PRIu64 "}",
               h == 0 ? "" : ",", to_string(hist),
               snapshot.histogram_count(hist),
               histogram_quantile(snapshot, hist, 0.50),
               histogram_quantile(snapshot, hist, 0.99));
  }
  append_fmt(out,
             "},\"spans\":%zu,\"spans_dropped\":%" PRIu64
             ",\"events\":%zu,\"events_dropped\":%" PRIu64 "}",
             snapshot.spans.size(), snapshot.spans_dropped,
             snapshot.events.size(), snapshot.events_dropped);
  return out;
}

bool write_file(const std::string& path, const std::string& contents) {
  std::FILE* file = std::fopen(path.c_str(), "wb");
  if (file == nullptr) return false;
  const std::size_t written =
      std::fwrite(contents.data(), 1, contents.size(), file);
  const bool ok = written == contents.size() && std::fclose(file) == 0;
  if (!ok && written != contents.size()) std::fclose(file);
  return ok;
}

}  // namespace bw::telemetry
