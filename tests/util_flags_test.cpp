#include "util/flags.hpp"

#include <gtest/gtest.h>

#include <string>

namespace perigee::util {
namespace {

Flags make_flags() {
  Flags f;
  f.add_int("nodes", 1000, "network size");
  f.add_double("coverage", 0.9, "coverage");
  f.add_string("algo", "subset", "algorithm");
  f.add_bool("verbose", false, "verbosity");
  return f;
}

TEST(Flags, DefaultsWithoutArgs) {
  Flags f = make_flags();
  const char* argv[] = {"prog"};
  ASSERT_TRUE(f.parse(1, argv));
  EXPECT_EQ(f.get_int("nodes"), 1000);
  EXPECT_DOUBLE_EQ(f.get_double("coverage"), 0.9);
  EXPECT_EQ(f.get_string("algo"), "subset");
  EXPECT_FALSE(f.get_bool("verbose"));
}

TEST(Flags, EqualsSyntax) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--nodes=500", "--coverage=0.5",
                        "--algo=ucb"};
  ASSERT_TRUE(f.parse(4, argv));
  EXPECT_EQ(f.get_int("nodes"), 500);
  EXPECT_DOUBLE_EQ(f.get_double("coverage"), 0.5);
  EXPECT_EQ(f.get_string("algo"), "ucb");
}

TEST(Flags, SpaceSyntax) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--nodes", "250"};
  ASSERT_TRUE(f.parse(3, argv));
  EXPECT_EQ(f.get_int("nodes"), 250);
}

TEST(Flags, BareBoolSetsTrue) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--verbose"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_TRUE(f.get_bool("verbose"));
}

TEST(Flags, BoolExplicitValue) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--verbose=false"};
  ASSERT_TRUE(f.parse(2, argv));
  EXPECT_FALSE(f.get_bool("verbose"));
}

// Every accepted spelling sets the value it names; anything else is an
// error, not a silent false (--resume=on once ran without resuming).
TEST(Flags, BoolSpellingsAreStrict) {
  for (const char* yes : {"--verbose=true", "--verbose=1", "--verbose=yes"}) {
    Flags f = make_flags();
    const char* argv[] = {"prog", yes};
    ASSERT_TRUE(f.parse(2, argv)) << yes;
    EXPECT_TRUE(f.get_bool("verbose")) << yes;
  }
  for (const char* no : {"--verbose=false", "--verbose=0", "--verbose=no"}) {
    Flags f = make_flags();
    f.add_bool("verbose", true, "verbosity");
    const char* argv[] = {"prog", no};
    ASSERT_TRUE(f.parse(2, argv)) << no;
    EXPECT_FALSE(f.get_bool("verbose")) << no;
  }
  for (const char* bad : {"--verbose=on", "--verbose=off", "--verbose=",
                          "--verbose=True", "--verbose=2"}) {
    Flags f = make_flags();
    const char* argv[] = {"prog", bad};
    testing::internal::CaptureStderr();
    EXPECT_FALSE(f.parse(2, argv)) << bad;
    const std::string err = testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("flag --verbose: bad boolean '"), std::string::npos)
        << err;
  }
}

TEST(Flags, UnknownFlagRejected) {
  {
    Flags f = make_flags();
    const char* argv[] = {"prog", "--nodes=9", "--nodez=9"};
    EXPECT_FALSE(f.parse(3, argv));
  }
  {
    Flags f = make_flags();
    const char* argv[] = {"prog", "--nodez", "9"};
    EXPECT_FALSE(f.parse(3, argv));
  }
  {
    Flags f = make_flags();  // a positional argument is not a flag either
    const char* argv[] = {"prog", "baseline"};
    EXPECT_FALSE(f.parse(2, argv));
  }
}

TEST(Flags, BadIntegerRejected) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--nodes=abc"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, HelpReturnsFalse) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--help"};
  EXPECT_FALSE(f.parse(2, argv));
}

TEST(Flags, MissingValueAtEnd) {
  Flags f = make_flags();
  const char* argv[] = {"prog", "--nodes"};
  EXPECT_FALSE(f.parse(2, argv));
}

}  // namespace
}  // namespace perigee::util
