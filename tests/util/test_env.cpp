// Strict env parsing: the CESM_CACHE_MB "-1" wraparound bug class.
//
// parse_env_u64 is the policy chokepoint for every numeric CESM_*
// variable; these tests pin the reject set (signs, garbage, overflow)
// and the accept set (plain digits, surrounding whitespace) so a future
// "convenience" relaxation cannot quietly reintroduce strtoull
// semantics.

#include "util/env.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>

namespace cesm::util {
namespace {

TEST(EnvParse, AcceptsPlainDigits) {
  EXPECT_EQ(parse_env_u64("X", "0"), std::uint64_t{0});
  EXPECT_EQ(parse_env_u64("X", "64"), std::uint64_t{64});
  EXPECT_EQ(parse_env_u64("X", "18446744073709551615"), UINT64_MAX);
}

TEST(EnvParse, AcceptsSurroundingWhitespace) {
  EXPECT_EQ(parse_env_u64("X", "  42"), std::uint64_t{42});
  EXPECT_EQ(parse_env_u64("X", "42\t "), std::uint64_t{42});
  EXPECT_EQ(parse_env_u64("X", " 42 "), std::uint64_t{42});
}

TEST(EnvParse, RejectsNegativeInsteadOfWrapping) {
  // strtoull("-1") == UINT64_MAX: the bug this parser exists to kill.
  EXPECT_EQ(parse_env_u64("CESM_CACHE_MB", "-1"), std::nullopt);
  EXPECT_EQ(parse_env_u64("CESM_CACHE_MB", "-9999"), std::nullopt);
}

TEST(EnvParse, RejectsSignsGarbageAndEmpty) {
  EXPECT_EQ(parse_env_u64("X", "+5"), std::nullopt);
  EXPECT_EQ(parse_env_u64("X", "abc"), std::nullopt);
  EXPECT_EQ(parse_env_u64("X", "64abc"), std::nullopt);  // trailing garbage
  EXPECT_EQ(parse_env_u64("X", "6 4"), std::nullopt);    // interior space
  EXPECT_EQ(parse_env_u64("X", ""), std::nullopt);
  EXPECT_EQ(parse_env_u64("X", "   "), std::nullopt);
  EXPECT_EQ(parse_env_u64("X", "0x10"), std::nullopt);   // no hex
  EXPECT_EQ(parse_env_u64("X", "1e3"), std::nullopt);    // no exponents
  EXPECT_EQ(parse_env_u64("X", nullptr), std::nullopt);
}

TEST(EnvParse, RejectsOverflowInsteadOfTruncating) {
  EXPECT_EQ(parse_env_u64("X", "18446744073709551616"), std::nullopt);  // 2^64
  EXPECT_EQ(parse_env_u64("X", "99999999999999999999999"), std::nullopt);
}

TEST(EnvParse, FlagParserAcceptsOnlyBareDigits) {
  EXPECT_EQ(parse_u64_arg("0"), std::uint64_t{0});
  EXPECT_EQ(parse_u64_arg("64"), std::uint64_t{64});
  EXPECT_EQ(parse_u64_arg("18446744073709551615"), UINT64_MAX);
  for (const char* bad : {"", " 42", "42 ", "-1", "+5", "1x", "64k", "1e3", "0x10",
                          "18446744073709551616"}) {
    EXPECT_EQ(parse_u64_arg(bad), std::nullopt) << '"' << bad << '"';
  }
  EXPECT_EQ(parse_u64_arg(nullptr), std::nullopt);
}

TEST(EnvParse, EnvLookupReadsAndRejectsLikeTheParser) {
  ::setenv("CESM_TEST_ENV_U64", "128", 1);
  EXPECT_EQ(env_u64("CESM_TEST_ENV_U64"), std::uint64_t{128});
  ::setenv("CESM_TEST_ENV_U64", "-1", 1);
  EXPECT_EQ(env_u64("CESM_TEST_ENV_U64"), std::nullopt);
  ::setenv("CESM_TEST_ENV_U64", "", 1);
  EXPECT_EQ(env_u64("CESM_TEST_ENV_U64"), std::nullopt);
  ::unsetenv("CESM_TEST_ENV_U64");
  EXPECT_EQ(env_u64("CESM_TEST_ENV_U64"), std::nullopt);
}

}  // namespace
}  // namespace cesm::util
