// The wire format between instrumented program threads and the monitor:
// the C++ equivalent of the paper's sendBranchAddr payload (static branch
// id, thread id, call-site context, outer-loop iteration numbers, the
// branch outcome) with the paper's sendBranchCondition data folded in.
// Each thread sends exactly one report per branch instance, from the edge.
#pragma once

#include <cstdint>

namespace bw::runtime {

/// Which runtime check a branch instance needs. Mirrors
/// bw::analysis::CheckKind; duplicated as a plain uint8-backed enum so the
/// runtime library has no dependency on the analysis headers.
enum class CheckCode : std::uint8_t {
  SharedOutcome = 0,
  ThreadIdEq = 1,
  ThreadIdMonotone = 2,
  PartialValue = 3,
};

/// Only Outcome reports are produced: the condition data of a partial
/// check travels in the Outcome report's `value`. Condition is unused.
enum class ReportKind : std::uint8_t {
  Condition = 0,
  Outcome = 1,
};

struct BranchReport {
  std::uint32_t static_id = 0;
  std::uint32_t thread = 0;
  std::uint64_t ctx_hash = 0;   // call-site context (paper: call stack ids)
  std::uint64_t iter_hash = 0;  // outer-loop iteration vector
  /// Hash of the condition data latched before the branch (PartialValue
  /// checks; 0 otherwise).
  std::uint64_t value = 0;
  ReportKind kind = ReportKind::Outcome;
  CheckCode check = CheckCode::SharedOutcome;
  bool outcome = false;  // taken?
  /// Integrity word sealed by the producer when the monitor runs with
  /// `validate_reports`; lets the consumer discard reports corrupted while
  /// queued (the campaign's QueueCorrupt fault model) instead of checking
  /// garbage against clean threads.
  std::uint32_t checksum = 0;
};

/// Mixes every semantic field of a report into one word (the checksum
/// field itself excluded). Cheap: a handful of xor/multiply steps, paid
/// only when report validation is enabled.
inline std::uint32_t report_checksum(const BranchReport& r) {
  auto mix = [](std::uint64_t h, std::uint64_t v) {
    h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
    return h;
  };
  std::uint64_t h = 0x243f6a8885a308d3ULL;
  h = mix(h, r.static_id);
  h = mix(h, r.thread);
  h = mix(h, r.ctx_hash);
  h = mix(h, r.iter_hash);
  h = mix(h, r.value);
  h = mix(h, static_cast<std::uint64_t>(r.kind));
  h = mix(h, static_cast<std::uint64_t>(r.check));
  h = mix(h, r.outcome ? 1 : 0);
  return static_cast<std::uint32_t>(h ^ (h >> 32));
}

inline void seal_report(BranchReport& r) { r.checksum = report_checksum(r); }

inline bool report_intact(const BranchReport& r) {
  return r.checksum == report_checksum(r);
}

/// A check violation detected by the monitor: the paper's "deviation from
/// the statically inferred behaviour".
struct Violation {
  std::uint32_t static_id = 0;
  std::uint64_t ctx_hash = 0;
  std::uint64_t iter_hash = 0;
  CheckCode check = CheckCode::SharedOutcome;
  /// Thread the checker singled out, when identifiable (else UINT32_MAX).
  std::uint32_t suspect_thread = 0xffffffffu;
};

}  // namespace bw::runtime
