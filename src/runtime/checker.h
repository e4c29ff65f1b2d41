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

}  // namespace bw::runtime
