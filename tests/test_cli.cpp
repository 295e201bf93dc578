#include "util/cli.hpp"

#include <gtest/gtest.h>

#include <stdexcept>

namespace forktail::util {
namespace {

CliFlags make_flags() {
  CliFlags flags;
  flags.declare("scale", "default", "bench scale");
  flags.declare("seed", "1", "rng seed");
  flags.declare("verbose", "false", "chatter");
  flags.declare("load", "0.9", "utilization");
  return flags;
}

TEST(CliFlags, DefaultsApply) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(flags.parse(1, argv));
  EXPECT_EQ(flags.get_string("scale"), "default");
  EXPECT_EQ(flags.get_int("seed"), 1);
  EXPECT_FALSE(flags.get_bool("verbose"));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.9);
}

TEST(CliFlags, ParsesSpaceSeparated) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--seed", "42", "--verbose", "true"};
  ASSERT_TRUE(flags.parse(5, argv));
  EXPECT_EQ(flags.get_int("seed"), 42);
  EXPECT_TRUE(flags.get_bool("verbose"));
}

TEST(CliFlags, ParsesEqualsForm) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--load=0.75", "--scale=full"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 0.75);
  EXPECT_EQ(flags.get_string("scale"), "full");
}

TEST(CliFlags, UnknownFlagThrows) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--nope", "1"};
  EXPECT_THROW(flags.parse(3, argv), std::invalid_argument);
}

TEST(CliFlags, MissingValueThrows) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--seed"};
  EXPECT_THROW(flags.parse(2, argv), std::invalid_argument);
}

TEST(CliFlags, HelpReturnsFalse) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(flags.parse(2, argv));
}

TEST(CliFlags, BadBooleanThrows) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--verbose", "maybe"};
  ASSERT_TRUE(flags.parse(3, argv));
  EXPECT_THROW(flags.get_bool("verbose"), std::invalid_argument);
}

// A number flag takes the whole token: "42x" is not 42, and the error
// names the flag and the token.
TEST(CliFlags, BadNumberThrows) {
  CliFlags flags = make_flags();
  const char* argv[] = {"prog", "--seed", "42x", "--load", "0.9ms"};
  ASSERT_TRUE(flags.parse(5, argv));
  try {
    flags.get_int("seed");
    FAIL() << "get_int accepted 42x";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --seed expects a number, got: 42x");
  }
  try {
    flags.get_double("load");
    FAIL() << "get_double accepted 0.9ms";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "flag --load expects a number, got: 0.9ms");
  }
  for (const char* bad : {"", "abc", "1e3", "99999999999999999999"}) {
    CliFlags other = make_flags();
    const char* args[] = {"prog", "--seed", bad};
    ASSERT_TRUE(other.parse(3, args));
    EXPECT_THROW(other.get_int("seed"), std::invalid_argument) << bad;
  }
  const char* good[] = {"prog", "--seed", "-7", "--load", "1e-3"};
  ASSERT_TRUE(flags.parse(5, good));
  EXPECT_EQ(flags.get_int("seed"), -7);
  EXPECT_DOUBLE_EQ(flags.get_double("load"), 1e-3);
}

TEST(BenchScale, ParseAndFactors) {
  EXPECT_EQ(parse_scale("smoke"), BenchScale::kSmoke);
  EXPECT_EQ(parse_scale("default"), BenchScale::kDefault);
  EXPECT_EQ(parse_scale("full"), BenchScale::kFull);
  EXPECT_THROW(parse_scale("huge"), std::invalid_argument);
  EXPECT_LT(scale_factor(BenchScale::kSmoke), scale_factor(BenchScale::kDefault));
  EXPECT_LT(scale_factor(BenchScale::kDefault), scale_factor(BenchScale::kFull));
}

}  // namespace
}  // namespace forktail::util
