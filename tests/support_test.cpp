// Tests for the support layer: PRNG determinism, hash combining, string
// helpers, and diagnostics formatting.
#include <gtest/gtest.h>

#include <set>

#include "support/diagnostics.h"
#include "support/prng.h"
#include "support/string_utils.h"

namespace {

using namespace bw::support;

TEST(Prng, SplitMix64IsDeterministicAndWellSpread) {
  EXPECT_EQ(splitmix64(42), splitmix64(42));
  std::set<std::uint64_t> seen;
  for (std::uint64_t i = 0; i < 10'000; ++i) {
    seen.insert(splitmix64(i));
  }
  EXPECT_EQ(seen.size(), 10'000u);  // no collisions on consecutive seeds
}

TEST(Prng, RngStreamsReproducibleBySeed) {
  SplitMixRng a(7);
  SplitMixRng b(7);
  SplitMixRng c(8);
  bool all_equal = true;
  bool any_diff_c = false;
  for (int i = 0; i < 100; ++i) {
    std::uint64_t va = a.next();
    all_equal = all_equal && (va == b.next());
    any_diff_c = any_diff_c || (va != c.next());
  }
  EXPECT_TRUE(all_equal);
  EXPECT_TRUE(any_diff_c);
}

TEST(Prng, NextBelowStaysInRange) {
  SplitMixRng rng(123);
  for (int i = 0; i < 1'000; ++i) {
    EXPECT_LT(rng.next_below(17), 17u);
  }
  for (int i = 0; i < 1'000; ++i) {
    double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Prng, HashCombineOrderSensitive) {
  // (a, b) and (b, a) must hash differently, or the monitor's loop
  // iteration vectors (2,1) and (1,2) would collide systematically.
  std::uint64_t ab = hash_combine(hash_combine(0, 1), 2);
  std::uint64_t ba = hash_combine(hash_combine(0, 2), 1);
  EXPECT_NE(ab, ba);
}

TEST(StringUtils, SplitAndTrim) {
  auto parts = split("a,b,,c", ',');
  ASSERT_EQ(parts.size(), 4u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "");
  EXPECT_EQ(trim("  hello \t "), "hello");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \n "), "");
  EXPECT_TRUE(starts_with("foobar", "foo"));
  EXPECT_FALSE(starts_with("fo", "foo"));
}

TEST(StringUtils, CountCodeLinesSkipsBlanksAndComments) {
  EXPECT_EQ(count_code_lines("a\n\n// comment\n  b\n  // x\nc"), 3);
  EXPECT_EQ(count_code_lines(""), 0);
}

TEST(StringUtils, ParseCountTakesOnlyWholeNumbersInRange) {
  EXPECT_EQ(parse_count("4", 1, 256), 4u);
  EXPECT_EQ(parse_count("256", 1, 256), 256u);
  EXPECT_EQ(parse_count("0", 0, 8), 0u);
  EXPECT_EQ(parse_count("0xbeef", 0, UINT64_MAX), 0xbeefu);
  EXPECT_EQ(parse_count("0XFF", 0, UINT64_MAX), 255u);
  EXPECT_EQ(parse_count("18446744073709551615", 0, UINT64_MAX), UINT64_MAX);
  // Zero where zero is meaningless, and values past the bound.
  EXPECT_FALSE(parse_count("0", 1, 256));
  EXPECT_FALSE(parse_count("257", 1, 256));
  // Not a number, a sign, a space, trailing characters, overflow.
  for (const char* bad : {"", "abc", "-1", "+4", " 4", "4 ", "4x", "1e3",
                          "0x", "0xg", "4.0", "18446744073709551616",
                          "0x10000000000000000"}) {
    EXPECT_FALSE(parse_count(bad, 0, UINT64_MAX)) << "'" << bad << "'";
  }
}

TEST(Diagnostics, CompileErrorCarriesLocation) {
  CompileError with_loc(SourceLoc{3, 7}, "bad thing");
  EXPECT_EQ(std::string(with_loc.what()), "3:7: bad thing");
  EXPECT_EQ(with_loc.loc().line, 3u);

  CompileError without("plain");
  EXPECT_EQ(std::string(without.what()), "plain");
  EXPECT_FALSE(without.loc().valid());
}

TEST(Diagnostics, SinkCollectsWarnings) {
  DiagnosticSink sink;
  EXPECT_TRUE(sink.empty());
  sink.warn(SourceLoc{1, 2}, "careful");
  sink.warn("general");
  ASSERT_EQ(sink.warnings().size(), 2u);
  EXPECT_EQ(sink.warnings()[0], "1:2: careful");
  EXPECT_EQ(sink.warnings()[1], "general");
}

}  // namespace
