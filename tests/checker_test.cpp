// Checker tests: each category's consistency predicate, on full thread
// sets and on subsets, including parameterized sweeps over thread counts.
#include <gtest/gtest.h>

#include <bit>

#include "runtime/checker.h"

namespace {

using bw::runtime::check_instance;
using bw::runtime::CheckCode;
using bw::runtime::ThreadObservation;

constexpr std::uint32_t kNoSuspect = 0xffffffffu;

std::vector<ThreadObservation> outcomes(const std::vector<int>& pattern) {
  std::vector<ThreadObservation> obs(pattern.size());
  for (std::size_t t = 0; t < pattern.size(); ++t) {
    obs[t].thread = static_cast<std::uint32_t>(t);
    if (pattern[t] < 0) continue;  // did not report
    obs[t].has_outcome = true;
    obs[t].outcome = pattern[t] != 0;
  }
  return obs;
}

// --- SharedOutcome ------------------------------------------------------------

TEST(CheckerShared, AllAgreePasses) {
  EXPECT_FALSE(check_instance(CheckCode::SharedOutcome,
                              outcomes({1, 1, 1, 1})));
  EXPECT_FALSE(check_instance(CheckCode::SharedOutcome,
                              outcomes({0, 0, 0, 0})));
}

TEST(CheckerShared, SingleDeviatorIsSuspect) {
  auto suspect =
      check_instance(CheckCode::SharedOutcome, outcomes({1, 1, 0, 1}));
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, 2u);
}

TEST(CheckerShared, SubsetsAreChecked) {
  // Two reporters disagreeing is already a violation; missing threads are
  // ignored (divergent enclosing control).
  EXPECT_TRUE(check_instance(CheckCode::SharedOutcome,
                             outcomes({1, -1, 0, -1})));
  EXPECT_FALSE(check_instance(CheckCode::SharedOutcome,
                              outcomes({1, -1, 1, -1})));
  EXPECT_FALSE(check_instance(CheckCode::SharedOutcome,
                              outcomes({-1, -1, 1, -1})));  // one reporter
}

// --- ThreadIdEq -----------------------------------------------------------------

TEST(CheckerThreadIdEq, OneTakerOrNonePasses) {
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdEq,
                              outcomes({1, 0, 0, 0})));
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdEq,
                              outcomes({0, 0, 0, 0})));
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdEq,
                              outcomes({0, 0, 0, 1})));
  // != comparisons invert the pattern: all-but-one taken is legal.
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdEq,
                              outcomes({1, 1, 0, 1})));
}

TEST(CheckerThreadIdEq, TwoDeviatorsFail) {
  EXPECT_TRUE(check_instance(CheckCode::ThreadIdEq,
                             outcomes({1, 1, 0, 0})));
  EXPECT_TRUE(check_instance(CheckCode::ThreadIdEq,
                             outcomes({1, 0, 1, 0, 1, 1})));
}

// A violation needs two threads on each side, so an instance with fewer
// than four reporters can never fire: at three program threads every
// ThreadIdEq report is vacuous. Exhaustive over instance widths up to 6,
// every reporting subset of at most 3 threads and every outcome pattern.
TEST(CheckerThreadIdEq, NeverFiresWithFewerThanFourReporters) {
  for (unsigned width = 1; width <= 6; ++width) {
    for (unsigned reporters = 0; reporters < (1u << width); ++reporters) {
      if (std::popcount(reporters) > 3) continue;
      for (unsigned taken = 0; taken < (1u << width); ++taken) {
        if ((taken & ~reporters) != 0) continue;  // outcomes of reporters
        std::vector<int> pattern(width, -1);
        for (unsigned t = 0; t < width; ++t) {
          if (reporters >> t & 1u) pattern[t] = taken >> t & 1u;
        }
        EXPECT_FALSE(check_instance(CheckCode::ThreadIdEq, outcomes(pattern)))
            << "width=" << width << " reporters=" << reporters
            << " taken=" << taken;
      }
    }
  }
  // Four reporters split two against two is the smallest violation.
  EXPECT_TRUE(check_instance(CheckCode::ThreadIdEq, outcomes({1, 1, 0, 0})));
  EXPECT_TRUE(
      check_instance(CheckCode::ThreadIdEq, outcomes({1, -1, 0, 1, 0})));
}

// --- min_reporters ---------------------------------------------------------------

// min_reporters is exact: with fewer observations no pattern fires, and at
// that count some pattern does. Exhaustive over instance widths up to 6,
// every reporting subset and every outcome pattern; partial checks also
// try every split of the reporters into two condition-data groups.
TEST(CheckerMinReporters, ExactForEveryCheckCode) {
  using bw::runtime::min_reporters;
  using bw::runtime::unfireable_checks;
  for (CheckCode code : {CheckCode::SharedOutcome, CheckCode::ThreadIdEq,
                         CheckCode::ThreadIdMonotone,
                         CheckCode::PartialValue}) {
    const unsigned need = min_reporters(code);
    const bool grouped = code == CheckCode::PartialValue;
    bool fires_at_need = false;
    for (unsigned width = 1; width <= 6; ++width) {
      for (unsigned reporters = 0; reporters < (1u << width); ++reporters) {
        const unsigned count =
            static_cast<unsigned>(std::popcount(reporters));
        for (unsigned taken = 0; taken < (1u << width); ++taken) {
          if ((taken & ~reporters) != 0) continue;  // outcomes of reporters
          for (unsigned group = 0; group < (grouped ? 1u << width : 1u);
               ++group) {
            if ((group & ~reporters) != 0) continue;
            std::vector<int> pattern(width, -1);
            for (unsigned t = 0; t < width; ++t) {
              if (reporters >> t & 1u) pattern[t] = taken >> t & 1u;
            }
            std::vector<ThreadObservation> obs = outcomes(pattern);
            for (unsigned t = 0; t < width; ++t) {
              obs[t].has_value = grouped;
              obs[t].value = group >> t & 1u;
            }
            const bool fired = check_instance(code, obs).has_value();
            if (count < need) {
              EXPECT_FALSE(fired)
                  << "code=" << static_cast<int>(code) << " width=" << width
                  << " reporters=" << reporters << " taken=" << taken
                  << " group=" << group;
            }
            if (count == need && fired) fires_at_need = true;
          }
        }
      }
    }
    EXPECT_TRUE(fires_at_need) << "code=" << static_cast<int>(code);
    for (unsigned threads = 0; threads <= 8; ++threads) {
      EXPECT_EQ((unfireable_checks(threads) >> static_cast<unsigned>(code) &
                 1u) != 0,
                threads < need)
          << "code=" << static_cast<int>(code) << " threads=" << threads;
    }
  }
  EXPECT_EQ(unfireable_checks(4), 0u);
}

// --- ThreadIdMonotone -------------------------------------------------------------

TEST(CheckerMonotone, PrefixAndSuffixPatternsPass) {
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone,
                              outcomes({1, 1, 0, 0})));
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone,
                              outcomes({0, 0, 1, 1})));
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone,
                              outcomes({1, 1, 1, 1})));
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone,
                              outcomes({0, 0, 0, 0})));
}

TEST(CheckerMonotone, IslandFailsAndIsSuspect) {
  auto suspect = check_instance(CheckCode::ThreadIdMonotone,
                                outcomes({1, 1, 0, 1, 1}));
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, 2u);
}

TEST(CheckerMonotone, TwoTransitionsWithoutIslandStillFail) {
  auto suspect = check_instance(CheckCode::ThreadIdMonotone,
                                outcomes({1, 0, 0, 1, 1}));
  EXPECT_TRUE(suspect.has_value());
}

TEST(CheckerMonotone, UnsortedArrivalOrderIsHandled) {
  // Observations arrive indexed by thread but the checker must sort.
  std::vector<ThreadObservation> obs = outcomes({1, 1, 0, 0});
  std::swap(obs[0], obs[3]);
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone, obs));
}

// --- PartialValue ---------------------------------------------------------------

TEST(CheckerPartial, SameValueMustAgree) {
  auto obs = outcomes({1, 1, 0, 0});
  obs[0].has_value = obs[1].has_value = true;
  obs[2].has_value = obs[3].has_value = true;
  obs[0].value = obs[1].value = 7;   // group A: both taken
  obs[2].value = obs[3].value = 99;  // group B: both not taken
  EXPECT_FALSE(check_instance(CheckCode::PartialValue, obs));

  obs[1].outcome = false;  // group A now disagrees (1 vs 1: no suspect)
  auto suspect = check_instance(CheckCode::PartialValue, obs);
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, kNoSuspect);
}

TEST(CheckerPartial, LoneMinorityInGroupIsSuspect) {
  auto obs = outcomes({1, 1, 0, 1});
  for (auto& o : obs) {
    o.has_value = true;
    o.value = 7;  // one group of four
  }
  auto suspect = check_instance(CheckCode::PartialValue, obs);
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, 2u);
}

TEST(CheckerPartial, DistinctValuesAreVacuouslyConsistent) {
  auto obs = outcomes({1, 0, 1, 0});
  for (std::size_t t = 0; t < obs.size(); ++t) {
    obs[t].has_value = true;
    obs[t].value = 1000 + t;
  }
  EXPECT_FALSE(check_instance(CheckCode::PartialValue, obs));
}

TEST(CheckerPartial, MissingValuesAreSkipped) {
  auto obs = outcomes({1, 0, 1});
  obs[0].has_value = true;
  obs[0].value = 5;
  // threads 1, 2 reported outcomes but no condition data: not comparable.
  EXPECT_FALSE(check_instance(CheckCode::PartialValue, obs));
}

TEST(CheckerPartial, FirstConflictingGroupInThreadOrderNamesTheSuspect) {
  // Two value groups, each with a lone dissenter: group 9 = threads 0, 2, 4
  // (thread 4 dissents), group 5 = threads 1, 3, 5 (thread 1 dissents).
  auto obs = outcomes({1, 1, 1, 0, 0, 0});
  const std::uint64_t values[] = {9, 5, 9, 5, 9, 5};
  for (std::size_t t = 0; t < obs.size(); ++t) {
    obs[t].has_value = true;
    obs[t].value = values[t];
  }
  // Thread 0 opens group 9, so group 9 names the suspect.
  auto suspect = check_instance(CheckCode::PartialValue, obs);
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, 4u);
  // Without thread 0's condition data, thread 1 opens the first group (5),
  // which names thread 1 although group 9 (now thread 2 "no" vs thread 4
  // "yes", a tie without a suspect) conflicts too.
  obs[0].has_value = false;
  obs[2].outcome = false;
  obs[4].outcome = true;
  suspect = check_instance(CheckCode::PartialValue, obs);
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, 1u);
}

TEST(CheckerMonotone, ShuffledArrivalOrderMatchesThreadOrder) {
  // The hierarchical monitor hands over observations in arrival order;
  // the verdict and suspect must be those of the thread-ordered input.
  const std::vector<int> patterns[] = {
      {1, 1, 0, 1, 1}, {1, 1, 1, 0, 0}, {0, 1, 0, 0, 1}, {1, -1, 0, 1, 0}};
  for (const std::vector<int>& pattern : patterns) {
    std::vector<ThreadObservation> sorted = outcomes(pattern);
    std::vector<ThreadObservation> shuffled(sorted.rbegin(), sorted.rend());
    std::swap(shuffled[1], shuffled[3]);
    EXPECT_EQ(check_instance(CheckCode::ThreadIdMonotone, sorted),
              check_instance(CheckCode::ThreadIdMonotone, shuffled));
  }
  auto island = outcomes({0, 0, 1, 0, 0});
  std::swap(island[0], island[4]);
  std::swap(island[1], island[2]);
  auto suspect = check_instance(CheckCode::ThreadIdMonotone, island);
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, 2u);
}

// --- Beyond the checkers' stack scratch (64 entries) --------------------------

class WideInstance : public ::testing::TestWithParam<int> {};

TEST_P(WideInstance, PartialFindsTheLoneMinority) {
  const int n = GetParam();
  auto obs = outcomes(std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int t = 0; t < n; ++t) {
    auto& o = obs[static_cast<std::size_t>(t)];
    o.has_value = true;
    o.value = static_cast<std::uint64_t>(t);  // n distinct groups...
    o.outcome = t % 2 == 1;
  }
  EXPECT_FALSE(check_instance(CheckCode::PartialValue, obs));
  // ...until the last thread joins group 1 with the opposite outcome.
  obs.back().value = 1;
  obs.back().outcome = false;
  obs[static_cast<std::size_t>(n - 2)].value = 1;
  obs[static_cast<std::size_t>(n - 2)].outcome = true;
  auto suspect = check_instance(CheckCode::PartialValue, obs);
  ASSERT_TRUE(suspect.has_value());
  EXPECT_EQ(*suspect, static_cast<std::uint32_t>(n - 1));
}

TEST_P(WideInstance, MonotoneFindsTheIslandInAnyOrder) {
  const int n = GetParam();
  std::vector<int> pattern(static_cast<std::size_t>(n));
  for (int t = 0; t < n; ++t) pattern[static_cast<std::size_t>(t)] = t < n / 2;
  auto obs = outcomes(pattern);
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone, obs));
  std::vector<ThreadObservation> reversed(obs.rbegin(), obs.rend());
  EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone, reversed));
  obs = outcomes(std::vector<int>(static_cast<std::size_t>(n), 1));
  obs[10].outcome = false;  // an island in an all-taken instance
  reversed.assign(obs.rbegin(), obs.rend());
  for (const auto* input : {&obs, &reversed}) {
    auto suspect = check_instance(CheckCode::ThreadIdMonotone, *input);
    ASSERT_TRUE(suspect.has_value());
    EXPECT_EQ(*suspect, 10u);
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, WideInstance,
                         ::testing::Values(64, 65, 128));

// --- Parameterized: a lone flipped thread is caught at every scale -------------

class FlipSweep : public ::testing::TestWithParam<int> {};

TEST_P(FlipSweep, SharedCatchesOneFlipAtAnyThreadCount) {
  int n = GetParam();
  for (int victim = 0; victim < n; ++victim) {
    std::vector<int> pattern(static_cast<std::size_t>(n), 1);
    pattern[static_cast<std::size_t>(victim)] = 0;
    auto suspect =
        check_instance(CheckCode::SharedOutcome, outcomes(pattern));
    ASSERT_TRUE(suspect.has_value()) << "n=" << n << " victim=" << victim;
    if (n > 2) {
      EXPECT_EQ(*suspect, static_cast<std::uint32_t>(victim));
    }
  }
}

TEST_P(FlipSweep, MonotoneCatchesInteriorFlips) {
  int n = GetParam();
  if (n < 4) return;
  // Legal pattern: first half taken. Flip each interior thread.
  for (int victim = 1; victim + 1 < n; ++victim) {
    std::vector<int> pattern(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) pattern[static_cast<std::size_t>(t)] = t < n / 2;
    if (victim == n / 2 - 1 || victim == n / 2) continue;  // moves boundary
    pattern[static_cast<std::size_t>(victim)] =
        pattern[static_cast<std::size_t>(victim)] ? 0 : 1;
    EXPECT_TRUE(check_instance(CheckCode::ThreadIdMonotone,
                               outcomes(pattern)))
        << "n=" << n << " victim=" << victim;
  }
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, FlipSweep,
                         ::testing::Values(2, 3, 4, 8, 16, 32, 64));

// --- Property: consistent data never trips any checker ------------------------

class ConsistencySweep : public ::testing::TestWithParam<int> {};

TEST_P(ConsistencySweep, LegalPatternsNeverFlagged) {
  int n = GetParam();
  // Shared: constant outcome. ThreadIdEq: <=1 deviator. Monotone: all
  // boundary positions. Partial: grouped by value, consistent per group.
  for (int boundary = 0; boundary <= n; ++boundary) {
    std::vector<int> prefix(static_cast<std::size_t>(n));
    for (int t = 0; t < n; ++t) {
      prefix[static_cast<std::size_t>(t)] = t < boundary;
    }
    EXPECT_FALSE(check_instance(CheckCode::ThreadIdMonotone,
                                outcomes(prefix)));
  }
  for (int taker = 0; taker < n; ++taker) {
    std::vector<int> one(static_cast<std::size_t>(n), 0);
    one[static_cast<std::size_t>(taker)] = 1;
    EXPECT_FALSE(check_instance(CheckCode::ThreadIdEq, outcomes(one)));
  }
  auto grouped = outcomes(std::vector<int>(static_cast<std::size_t>(n), 0));
  for (int t = 0; t < n; ++t) {
    auto& o = grouped[static_cast<std::size_t>(t)];
    o.has_value = true;
    o.value = static_cast<std::uint64_t>(t % 3);
    o.outcome = (t % 3) == 1;  // outcome is a function of the value
  }
  EXPECT_FALSE(check_instance(CheckCode::PartialValue, grouped));
}

INSTANTIATE_TEST_SUITE_P(ThreadCounts, ConsistencySweep,
                         ::testing::Values(2, 4, 8, 32));

}  // namespace
