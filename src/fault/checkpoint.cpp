#include "fault/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <set>
#include <sstream>
#include <string_view>

#include "fault/engine.h"

namespace bw::fault {

namespace {

constexpr const char* kMagic = "bw-campaign-checkpoint v3";
// v2 files carry no phase cache but are otherwise identical: accept them.
constexpr const char* kMagicV2 = "bw-campaign-checkpoint v2";

// Side flags packed into one hex field so the format stays one line per
// outcome. Bit assignments are part of the v1 format — append only.
constexpr unsigned kFlagDegraded = 1u << 0;
constexpr unsigned kFlagFailed = 1u << 1;
constexpr unsigned kFlagDiscarded = 1u << 2;
constexpr unsigned kFlagRecoveredMismatch = 1u << 3;
constexpr unsigned kFlagRetryExhausted = 1u << 4;

unsigned pack_flags(const InjectionOutcome& o) {
  unsigned flags = 0;
  if (o.degraded) flags |= kFlagDegraded;
  if (o.failed) flags |= kFlagFailed;
  if (o.discarded) flags |= kFlagDiscarded;
  if (o.recovered_mismatch) flags |= kFlagRecoveredMismatch;
  if (o.retry_exhausted) flags |= kFlagRetryExhausted;
  return flags;
}

void unpack_flags(unsigned flags, InjectionOutcome& o) {
  o.degraded = (flags & kFlagDegraded) != 0;
  o.failed = (flags & kFlagFailed) != 0;
  o.discarded = (flags & kFlagDiscarded) != 0;
  o.recovered_mismatch = (flags & kFlagRecoveredMismatch) != 0;
  o.retry_exhausted = (flags & kFlagRetryExhausted) != 0;
}

bool fail(std::string* error, const std::string& why) {
  if (error != nullptr) *error = why;
  return false;
}

}  // namespace

CampaignCheckpoint checkpoint_identity(const CampaignOptions& options) {
  CampaignCheckpoint cp;
  cp.seed = options.seed;
  cp.type = options.type;
  cp.injections = options.injections;
  cp.num_threads = options.num_threads;
  cp.protect = options.protect;
  cp.sampling_enabled = options.monitor.sampling.enabled;
  cp.sampling_forced_rate = options.monitor.sampling.forced_rate;
  cp.sampling_max_rate = options.monitor.sampling.max_rate;
  cp.targeted_flips = options.targeted_flips;
  return cp;
}

bool CampaignCheckpoint::matches(const CampaignOptions& options) const {
  const CampaignCheckpoint id = checkpoint_identity(options);
  return seed == id.seed && type == id.type && injections == id.injections &&
         num_threads == id.num_threads && protect == id.protect &&
         sampling_enabled == id.sampling_enabled &&
         sampling_forced_rate == id.sampling_forced_rate &&
         sampling_max_rate == id.sampling_max_rate &&
         targeted_flips == id.targeted_flips;
}

std::string CampaignCheckpoint::to_text() const {
  std::string out;
  out.reserve(64 + completed.size() * 48);
  char line[192];
  std::snprintf(line, sizeof(line), "%s\n", kMagic);
  out += line;
  std::snprintf(line, sizeof(line),
                "seed %" PRIx64 " type %s injections %d threads %u "
                "protect %d sampling %d %u %u flips %u\n",
                seed, fault::to_string(type), injections, num_threads,
                protect ? 1 : 0, sampling_enabled ? 1 : 0,
                sampling_forced_rate, sampling_max_rate, targeted_flips);
  out += line;
  std::snprintf(line, sizeof(line), "cursor %d\n", cursor);
  out += line;
  for (const InjectionOutcome& o : completed) {
    std::snprintf(line, sizeof(line),
                  "o %" PRIu32 " %u %x %" PRIu64 " %" PRIu64 " %" PRIu64
                  " %" PRIu64 " %" PRIu64 "\n",
                  o.index, static_cast<unsigned>(o.verdict), pack_flags(o),
                  o.rollbacks, o.checkpoints, o.restore_ns, o.checkpoint_ns,
                  o.wall_ns);
    out += line;
  }
  for (const PhaseCacheEntry& pc : phase_cache) {
    std::snprintf(line, sizeof(line),
                  "pc %" PRIu32 " %" PRIx64 " %" PRIx64 " %" PRIx64 " %zu ",
                  pc.phase, pc.code_fp, pc.entry_fp, pc.cont_fp,
                  pc.verdicts.size());
    out += line;
    if (pc.verdicts.empty()) {
      out += '-';
    } else {
      for (std::size_t j = 0; j < pc.verdicts.size(); ++j) {
        // One lowercase hex digit per slot: verdict | (via << 3).
        const unsigned via =
            j < pc.via_continuation.size() && pc.via_continuation[j] ? 8u : 0u;
        out += "0123456789abcdef"[static_cast<unsigned>(pc.verdicts[j]) | via];
      }
    }
    out += '\n';
  }
  return out;
}

bool CampaignCheckpoint::from_text(const std::string& text,
                                   CampaignCheckpoint& out,
                                   std::string* error) {
  std::istringstream in(text);
  std::string line;
  if (!std::getline(in, line) || (line != kMagic && line != kMagicV2)) {
    return fail(error, "not a bw-campaign-checkpoint v2/v3 file");
  }

  CampaignCheckpoint cp;
  char type_name[64] = {0};
  int protect_int = 0;
  int sampling_int = 0;
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(),
                  "seed %" SCNx64 " type %63s injections %d threads %u "
                  "protect %d sampling %d %u %u flips %u",
                  &cp.seed, type_name, &cp.injections, &cp.num_threads,
                  &protect_int, &sampling_int, &cp.sampling_forced_rate,
                  &cp.sampling_max_rate, &cp.targeted_flips) != 9) {
    return fail(error, "malformed identity line");
  }
  cp.protect = protect_int != 0;
  cp.sampling_enabled = sampling_int != 0;
  if (!parse_fault_type(type_name, cp.type)) {
    return fail(error, std::string("unknown fault type '") + type_name + "'");
  }
  if (!std::getline(in, line) ||
      std::sscanf(line.c_str(), "cursor %d", &cp.cursor) != 1) {
    return fail(error, "malformed cursor line");
  }

  std::set<std::uint32_t> phases_seen;
  std::set<std::uint32_t> indices_seen;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.size() >= 2 && line[0] == 'p' && line[1] == 'c') {
      PhaseCacheEntry pc;
      std::size_t done = 0;
      int digits_at = 0;
      if (std::sscanf(line.c_str(),
                      "pc %" SCNu32 " %" SCNx64 " %" SCNx64 " %" SCNx64
                      " %zu %n",
                      &pc.phase, &pc.code_fp, &pc.entry_fp, &pc.cont_fp,
                      &done, &digits_at) != 5 ||
          digits_at <= 0) {
        return fail(error, "malformed phase-cache line: " + line);
      }
      if (!phases_seen.insert(pc.phase).second) {
        return fail(error, "duplicate phase-cache line: " + line);
      }
      std::string_view digits =
          std::string_view(line).substr(static_cast<std::size_t>(digits_at));
      if (digits == "-") digits = {};
      if (digits.size() != done) {
        return fail(error, "phase-cache verdict count mismatch: " + line);
      }
      pc.verdicts.reserve(done);
      pc.via_continuation.reserve(done);
      for (char c : digits) {
        unsigned value = 0;
        if (c >= '0' && c <= '9') {
          value = static_cast<unsigned>(c - '0');
        } else if (c >= 'a' && c <= 'f') {
          value = static_cast<unsigned>(c - 'a') + 10;
        } else {
          return fail(error, "phase-cache verdict out of range: " + line);
        }
        pc.verdicts.push_back(static_cast<Verdict>(value & 7u));
        pc.via_continuation.push_back((value & 8u) != 0 ? 1 : 0);
      }
      cp.phase_cache.push_back(std::move(pc));
      continue;
    }
    InjectionOutcome o;
    unsigned verdict = 0;
    unsigned flags = 0;
    if (std::sscanf(line.c_str(),
                    "o %" SCNu32 " %u %x %" SCNu64 " %" SCNu64 " %" SCNu64
                    " %" SCNu64 " %" SCNu64,
                    &o.index, &verdict, &flags, &o.rollbacks, &o.checkpoints,
                    &o.restore_ns, &o.checkpoint_ns, &o.wall_ns) != 8) {
      return fail(error, "malformed outcome line: " + line);
    }
    if (verdict > static_cast<unsigned>(Verdict::FalseAlarm)) {
      return fail(error, "outcome verdict out of range: " + line);
    }
    if (o.index >= static_cast<std::uint32_t>(
                       std::max(cp.injections, 0))) {
      return fail(error, "outcome index beyond the plan: " + line);
    }
    if (!indices_seen.insert(o.index).second) {
      return fail(error, "duplicate outcome index: " + line);
    }
    o.verdict = static_cast<Verdict>(verdict);
    unpack_flags(flags, o);
    cp.completed.push_back(o);
  }
  std::sort(cp.completed.begin(), cp.completed.end(),
            [](const InjectionOutcome& a, const InjectionOutcome& b) {
              return a.index < b.index;
            });
  std::sort(cp.phase_cache.begin(), cp.phase_cache.end(),
            [](const PhaseCacheEntry& a, const PhaseCacheEntry& b) {
              return a.phase < b.phase;
            });
  out = std::move(cp);
  return true;
}

bool save_checkpoint(const std::string& path,
                     const CampaignCheckpoint& checkpoint) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  out << checkpoint.to_text();
  out.flush();
  return static_cast<bool>(out);
}

bool load_checkpoint(const std::string& path, CampaignCheckpoint& out,
                     std::string* error) {
  std::ifstream in(path);
  if (!in) return fail(error, "cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return CampaignCheckpoint::from_text(buffer.str(), out, error);
}

}  // namespace bw::fault
