// Bounds of the benches' count arguments, which they parse with
// support::count_arg_or_exit: a bad count exits 2 before any run.
#pragma once

#include <cstdint>

#include "support/string_utils.h"

namespace bw::bench {

constexpr std::uint64_t kMaxReps = 10'000;
constexpr std::uint64_t kMaxShards = 64;
constexpr std::uint64_t kMaxThreads = 256;

}  // namespace bw::bench
