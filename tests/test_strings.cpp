#include "util/strings.h"

#include <cmath>
#include <cstdint>
#include <limits>

#include <gtest/gtest.h>

#include "test_helpers.h"
#include "util/render.h"

namespace auric::util {
namespace {

TEST(Split, BasicAndEmptyFields) {
  EXPECT_EQ(split("a,b,c", ','), (std::vector<std::string>{"a", "b", "c"}));
  EXPECT_EQ(split(",x,", ','), (std::vector<std::string>{"", "x", ""}));
  EXPECT_EQ(split("", ','), (std::vector<std::string>{""}));
}

TEST(Join, RoundTripsSplit) {
  const std::vector<std::string> parts{"rf", "knn", "cf"};
  EXPECT_EQ(join(parts, ","), "rf,knn,cf");
  EXPECT_EQ(split(join(parts, ","), ','), parts);
  EXPECT_EQ(join({}, ","), "");
}

TEST(Trim, RemovesOuterWhitespaceOnly) {
  EXPECT_EQ(trim("  a b \t\n"), "a b");
  EXPECT_EQ(trim(""), "");
  EXPECT_EQ(trim(" \t "), "");
  EXPECT_EQ(trim("x"), "x");
}

TEST(StartsWith, Basics) {
  EXPECT_TRUE(starts_with("--flag", "--"));
  EXPECT_FALSE(starts_with("-f", "--"));
  EXPECT_TRUE(starts_with("abc", ""));
  EXPECT_FALSE(starts_with("", "a"));
}

TEST(ToLower, AsciiOnly) { EXPECT_EQ(to_lower("AbC-9"), "abc-9"); }

TEST(QueryParam, FindsAKeyAnywhereInTheQuery) {
  EXPECT_EQ(query_param("carrier=7&neighbor=9", "carrier"), "7");
  EXPECT_EQ(query_param("carrier=7&neighbor=9", "neighbor"), "9");
  EXPECT_EQ(query_param("carrier=7", "neighbor"), "");
  EXPECT_EQ(query_param("", "carrier"), "");
  EXPECT_EQ(query_param("carrier=7", "carr"), "");  // whole keys only
}

TEST(QueryParam, FirstMatchWins) {
  EXPECT_EQ(query_param("carrier=1&carrier=2", "carrier"), "1");
  EXPECT_EQ(query_param("a=x&carrier=&carrier=2", "carrier"), "");
}

TEST(QueryParam, AKeyWithNoEqualsSignDoesNotMatch) {
  EXPECT_EQ(query_param("carrier&carrier=3", "carrier"), "3");
  EXPECT_EQ(query_param("carrier", "carrier"), "");
}

TEST(QueryParam, EmptyValueAndTrailingAmpersand) {
  EXPECT_EQ(query_param("carrier=", "carrier"), "");
  EXPECT_EQ(query_param("carrier=&x=1", "x"), "1");
  EXPECT_EQ(query_param("carrier=4&", "carrier"), "4");
  EXPECT_EQ(query_param("&&carrier=5&&", "carrier"), "5");
  EXPECT_EQ(query_param("v=a=b", "v"), "a=b");  // only the first '=' splits
}

TEST(Format, PrintfSemantics) {
  EXPECT_EQ(format("%d/%s", 3, "x"), "3/x");
  EXPECT_EQ(format_fixed(95.478, 2), "95.48");
  EXPECT_EQ(format_fixed(-0.5, 0), "-0");  // printf rounding semantics
}

TEST(WithCommas, GroupsThousands) {
  EXPECT_EQ(with_commas(0), "0");
  EXPECT_EQ(with_commas(999), "999");
  EXPECT_EQ(with_commas(1000), "1,000");
  EXPECT_EQ(with_commas(4528139), "4,528,139");
  EXPECT_EQ(with_commas(-12345), "-12,345");
}

// The render appenders promise byte equality with the printf forms (%g
// values, %.4f support/margin, %d ids).
std::string general(double v) {
  std::string out;
  append_general(out, v);
  return out;
}

std::string fixed4(double v) {
  std::string out;
  append_fixed4(out, v);
  return out;
}

TEST(Render, GeneralMatchesPrintfG) {
  const double cases[] = {0.0,      -0.0,      1.0,     -1.0,      0.5,      1e-5,
                          1.5e-5,   0.0001,    123456,  1234567,   -1234567, 999999.5,
                          -3.25,    2.5,       -146.0,  1e21,      1e-300,   0.1 + 0.2,
                          1.0 / 3,  65536.0,   -0.001,  std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()};
  for (const double v : cases) {
    EXPECT_EQ(general(v), format("%g", v)) << v;
  }
  EXPECT_EQ(general(1234567), "1.23457e+06");
  EXPECT_EQ(general(1e-5), "1e-05");
  EXPECT_EQ(general(123456), "123456");
}

TEST(Render, Fixed4MatchesPrintf) {
  const double cases[] = {0.0,     -0.0,      0.5,      1.0,      -1.0,    1e-5,
                          0.00005, 0.00015,   0.99995,  0.123456, 2.0 / 3, -0.33333,
                          123456,  1234567.5, -1234567, 1e22,     std::numeric_limits<double>::max(),
                          -std::numeric_limits<double>::max()};
  for (const double v : cases) {
    EXPECT_EQ(fixed4(v), format("%.4f", v)) << v;
  }
  EXPECT_EQ(fixed4(0.5), "0.5000");
  EXPECT_EQ(fixed4(1.0), "1.0000");
  // Every support a vote can produce with a group of up to 400 members.
  for (int group = 1; group <= 400; ++group) {
    for (int votes = 0; votes <= group; ++votes) {
      const double support = static_cast<double>(votes) / group;
      ASSERT_EQ(fixed4(support), format("%.4f", support)) << votes << "/" << group;
    }
  }
}

TEST(Render, IntegersMatchPrintf) {
  std::string out;
  const std::int64_t cases[] = {0, 1, -1, 123456, 1234567, std::numeric_limits<std::int32_t>::min(),
                                std::numeric_limits<std::int64_t>::min(),
                                std::numeric_limits<std::int64_t>::max()};
  for (const std::int64_t v : cases) {
    out.clear();
    append_int(out, v);
    EXPECT_EQ(out, format("%lld", static_cast<long long>(v)));
  }
  out.clear();
  append_int(out, std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(out, "18446744073709551615");
}

TEST(Render, JsonEscapeKeepsShortFormsAndEscapesEveryControlByte) {
  std::string out;
  append_json_escaped(out, "a\"b\\c\nd\te\rf");
  EXPECT_EQ(out, "a\\\"b\\\\c\\nd\\te\\rf");
  out.clear();
  append_json_escaped(out, std::string_view("\x01\x1f\0 \x7f\xc3\xa9", 7));
  EXPECT_EQ(out, "\\u0001\\u001f\\u0000 \x7f\xc3\xa9");
  // Every byte value yields a valid JSON string literal.
  std::string all;
  for (int b = 1; b < 256; ++b) all += static_cast<char>(b);
  all += '\0';
  std::string literal = "\"";
  append_json_escaped(literal, all);
  literal += '"';
  EXPECT_TRUE(test::JsonChecker::valid(literal)) << literal;
}

}  // namespace
}  // namespace auric::util
