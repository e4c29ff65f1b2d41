// The category checkers: given all reports for one branch instance, decide
// whether the threads' behaviours are consistent with the statically
// inferred similarity (paper Table I, right column). Pure functions,
// separated from the monitor for direct unit/property testing.
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "runtime/report.h"

namespace bw::runtime {

/// One thread's contribution to a branch instance.
struct ThreadObservation {
  std::uint32_t thread = 0;
  bool has_outcome = false;
  bool outcome = false;
  /// Set from PartialValue reports, which carry the condition data.
  bool has_value = false;
  std::uint64_t value = 0;
};

/// Check one completed (or finalized) instance. Observations may cover only
/// a subset of threads — every check is sound on subsets (see DESIGN.md).
/// Returns the offending thread when a violation is found (or
/// a violation with suspect UINT32_MAX when no single thread stands out),
/// std::nullopt when the instance is consistent.
///
/// Allocation-free for up to 64 observations (larger instances fall back
/// to a heap buffer). Observations are normally in thread order; the
/// monotone check sorts them only when they are not.
std::optional<std::uint32_t> check_instance(
    CheckCode check, std::span<const ThreadObservation> observations);

/// The fewest observations with an outcome at which check_instance can
/// return a violation for `check`; below it every outcome pattern passes.
/// A table keeps at most one observation per thread, so a run with fewer
/// program threads than this can never fire the check.
constexpr unsigned min_reporters(CheckCode check) {
  switch (check) {
    case CheckCode::SharedOutcome: return 2;     // one taken, one not
    case CheckCode::ThreadIdEq: return 4;        // two on each side
    case CheckCode::ThreadIdMonotone: return 3;  // two transitions
    case CheckCode::PartialValue: return 2;      // one group, split
  }
  return 0;
}

/// Bit c set: CheckCode c needs more reporters than `num_threads` threads
/// can supply (min_reporters), so none of its instances can fire.
constexpr std::uint8_t unfireable_checks(unsigned num_threads) {
  std::uint8_t mask = 0;
  for (unsigned c = 0; c <= static_cast<unsigned>(CheckCode::PartialValue);
       ++c) {
    if (num_threads < min_reporters(static_cast<CheckCode>(c))) {
      mask = static_cast<std::uint8_t>(mask | 1u << c);
    }
  }
  return mask;
}

}  // namespace bw::runtime
