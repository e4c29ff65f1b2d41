// Software duplication baseline (paper Section VI): run two replicas of
// the program and compare outputs. Gives the coverage/overhead comparison
// point the paper discusses — near-perfect SDC coverage, but ~2x resource
// cost and no tolerance for nondeterminism.
#pragma once

#include <cstdint>
#include <string_view>

#include "fault/campaign.h"

namespace bw::fault {

struct DuplicationResult {
  CampaignResult campaign;     // detected = replica outputs diverged
  /// Median over repetitions of wall-clock(two concurrent replicas) /
  /// wall-clock(one), each side a whole execute() call.
  double overhead = 0.0;
};

/// Coverage: inject into one replica, run the other clean, compare.
/// Overhead: time two concurrent replicas vs one (both uninstrumented,
/// both whole execute() calls on one clock; the median repetition).
DuplicationResult run_duplication(std::string_view source,
                                  const CampaignOptions& options);

/// Overhead only (for the Section VI performance row).
double duplication_overhead(std::string_view source, unsigned num_threads,
                            int repetitions = 3);

}  // namespace bw::fault
