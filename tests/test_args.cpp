#include "util/args.h"

#include <gtest/gtest.h>

namespace auric::util {
namespace {

Args make(std::initializer_list<const char*> argv) {
  std::vector<const char*> full{"prog"};
  full.insert(full.end(), argv.begin(), argv.end());
  return Args(static_cast<int>(full.size()), full.data());
}

TEST(Args, EqualsAndSpaceSyntax) {
  Args args = make({"--scale=10", "--markets", "4"});
  EXPECT_EQ(args.get_int("scale", 1), 10);
  EXPECT_EQ(args.get_int("markets", 1), 4);
  args.check_unknown();
}

TEST(Args, DefaultsWhenAbsent) {
  Args args = make({});
  EXPECT_EQ(args.get_int("scale", 55), 55);
  EXPECT_EQ(args.get_string("csv", "none"), "none");
  EXPECT_DOUBLE_EQ(args.get_double("p", 0.01), 0.01);
  EXPECT_FALSE(args.get_bool("local", false));
}

TEST(Args, BareBooleanFlag) {
  Args args = make({"--local"});
  EXPECT_TRUE(args.get_bool("local", false));
}

TEST(Args, BooleanSpellings) {
  EXPECT_TRUE(make({"--x=yes"}).get_bool("x", false));
  EXPECT_TRUE(make({"--x=1"}).get_bool("x", false));
  EXPECT_FALSE(make({"--x=no"}).get_bool("x", true));
  EXPECT_THROW(make({"--x=maybe"}).get_bool("x", false), std::invalid_argument);
}

TEST(Args, RejectsMalformedNumbers) {
  EXPECT_THROW(make({"--n=abc"}).get_int("n", 0), std::invalid_argument);
  EXPECT_THROW(make({"--d=zz"}).get_double("d", 0), std::invalid_argument);
}

TEST(Args, UnknownFlagDetected) {
  Args args = make({"--tpyo=1"});
  args.get_int("typo", 0);
  EXPECT_THROW(args.check_unknown(), std::invalid_argument);
}

TEST(Args, RejectsPositional) {
  EXPECT_THROW(make({"positional"}), std::invalid_argument);
}

TEST(Args, HelpRequested) {
  Args args = make({"--help"});
  EXPECT_TRUE(args.help_requested());
  args.get_int("scale", 55, "dataset size");
  EXPECT_NE(args.usage().find("--scale"), std::string::npos);
  EXPECT_NE(args.usage().find("dataset size"), std::string::npos);
}

TEST(Args, DeclaringAFlagTwiceThrowsNamingIt) {
  // Two declarations of one name would list it twice in usage() and let
  // two owners act on it; any getter, any default, present or not.
  for (const bool present : {false, true}) {
    Args args = present ? make({"--trace-out=a.jsonl"}) : make({});
    args.get_string("trace-out", "", "first owner");
    try {
      args.get_bool("trace-out", false, "second owner");
      ADD_FAILURE() << "second declaration accepted";
    } catch (const std::logic_error& e) {
      EXPECT_NE(std::string(e.what()).find("--trace-out"), std::string::npos) << e.what();
    }
    EXPECT_EQ(args.usage().find("second owner"), std::string::npos);
  }
}

TEST(Args, NegativeNumberAsValue) {
  Args args = make({"--offset", "-5"});
  // "-5" does not start with "--", so it binds as the value.
  EXPECT_EQ(args.get_int("offset", 0), -5);
}

}  // namespace
}  // namespace auric::util
