// FormatFixed (std::to_chars) against the printf renderings it replaced:
// "%.*f" untrimmed, and the snprintf-then-trim FormatDouble trimmed. Any
// mismatch over the seeded sweep fails.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "common/string_util.h"

namespace qarm {
namespace {

// printf's rendering, into a buffer wide enough for any double.
std::string Printf(double value, int precision) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

// FormatDouble as it was written before it moved onto FormatFixed:
// snprintf, then drop trailing zeros and a bare point.
std::string PrintfTrimmed(double value, int precision) {
  std::string s = Printf(value, precision);
  if (s.find('.') != std::string::npos) {
    size_t last = s.find_last_not_of('0');
    if (s[last] == '.') --last;
    s.erase(last + 1);
  }
  return s;
}

std::string Fixed(double value, int precision, bool trim) {
  char buf[kMaxFixedChars];
  return std::string(buf, FormatFixed(buf, value, precision, trim));
}

// Edge values plus a seeded sweep: uniform fractions, rule measures near
// the 6th decimal, exact decimal ties, and raw bit patterns (which cover
// denormals, huge magnitudes, infinities and NaNs of either sign).
std::vector<double> Sweep() {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  std::vector<double> values = {
      0.0, -0.0, 1.0, -1.0, 0.5, 0.25, 0.125, 2.5, -2.5, 0.0078125,
      0.0234375, 1.0078125, 5e-7, 1.5e-6, 0.1234565, 0.9999995, 0.99999949,
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(), 2.2250738585072009e-308,
      1e15, 1e15 + 0.5, 123456789012345.678, 1e16, 9007199254740993.0,
      1e21, 1e22, 1e100, 1e300, std::numeric_limits<double>::max(),
      -std::numeric_limits<double>::max(), inf, -inf, nan, -nan};
  std::mt19937_64 rng(20240613);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(unit(rng));
    // k/10^6 plus half a unit in the 6th decimal: the binary neighbour of
    // a tie, rounding either way.
    const double k = static_cast<double>(rng() % 2000000);
    values.push_back(k / 1e6 + 5e-7);
    values.push_back(-(k / 1e6 + 5e-7));
    // Odd multiples of 1/128 are exact ties at 6 decimals (and of 1/4 and
    // 1/8 at 1 and 2): printf rounds them to even.
    const double odd = static_cast<double>(2 * (rng() % 100000) + 1);
    values.push_back(odd / 128.0);
    values.push_back(odd / 4.0);
    values.push_back(odd / 8.0);
    values.push_back(unit(rng) * 1e18);
    uint64_t bits = rng();
    double raw;
    std::memcpy(&raw, &bits, sizeof(raw));
    values.push_back(raw);
  }
  return values;
}

TEST(NumberFormatTest, FixedMatchesPrintf) {
  for (double value : Sweep()) {
    for (int precision : {0, 1, 2, 3, 6, kMaxFixedPrecision}) {
      ASSERT_EQ(Fixed(value, precision, false), Printf(value, precision))
          << "value " << value << " precision " << precision;
    }
  }
}

TEST(NumberFormatTest, TrimmedMatchesFormerFormatDouble) {
  for (double value : Sweep()) {
    for (int precision : {1, 3, 6}) {
      const std::string expected = PrintfTrimmed(value, precision);
      ASSERT_EQ(Fixed(value, precision, true), expected)
          << "value " << value << " precision " << precision;
      ASSERT_EQ(FormatDouble(value, precision), expected)
          << "value " << value << " precision " << precision;
    }
  }
}

TEST(NumberFormatTest, EdgeSpellings) {
  EXPECT_EQ(Fixed(0.0078125, 6, false), "0.007812");  // tie to even
  EXPECT_EQ(Fixed(0.0234375, 6, false), "0.023438");
  EXPECT_EQ(Fixed(-0.0, 6, false), "-0.000000");
  EXPECT_EQ(Fixed(-0.0, 6, true), "-0");
  EXPECT_EQ(Fixed(1e-7, 6, true), "0");
  EXPECT_EQ(Fixed(std::numeric_limits<double>::infinity(), 6, true), "inf");
  EXPECT_EQ(Fixed(-std::numeric_limits<double>::infinity(), 6, false),
            "-inf");
  EXPECT_EQ(Fixed(std::numeric_limits<double>::quiet_NaN(), 6, true), "nan");
  EXPECT_EQ(Fixed(1e15, 6, true), "1000000000000000");
  EXPECT_EQ(Fixed(std::numeric_limits<double>::max(), 6, false).size(),
            309u + 7u);
}

}  // namespace
}  // namespace qarm
