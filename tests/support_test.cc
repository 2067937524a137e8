/**
 * @file
 * Unit tests for viva::support: strings, stats, intervals, rng, logging.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

#include "support/interval.hh"
#include "support/logging.hh"
#include "support/random.hh"
#include "support/stats.hh"
#include "support/strings.hh"

namespace vs = viva::support;

// --- strings ---------------------------------------------------------------

TEST(Strings, SplitKeepsEmptyFields)
{
    auto fields = vs::split("a,,b,", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "");
    EXPECT_EQ(fields[2], "b");
    EXPECT_EQ(fields[3], "");
}

TEST(Strings, SplitSingleField)
{
    auto fields = vs::split("abc", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "abc");
}

TEST(Strings, SplitWhitespaceDropsEmpties)
{
    auto fields = vs::splitWhitespace("  a \t b\nc  ");
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "b");
    EXPECT_EQ(fields[2], "c");
}

TEST(Strings, SplitWhitespaceEmptyInput)
{
    EXPECT_TRUE(vs::splitWhitespace("").empty());
    EXPECT_TRUE(vs::splitWhitespace("   \t ").empty());
}

TEST(Strings, Trim)
{
    EXPECT_EQ(vs::trim("  x y  "), "x y");
    EXPECT_EQ(vs::trim(""), "");
    EXPECT_EQ(vs::trim(" \t\r\n"), "");
    EXPECT_EQ(vs::trim("abc"), "abc");
}

TEST(Strings, Join)
{
    EXPECT_EQ(vs::join({"a", "b", "c"}, "/"), "a/b/c");
    EXPECT_EQ(vs::join({}, "/"), "");
    EXPECT_EQ(vs::join({"x"}, ", "), "x");
}

TEST(Strings, StartsEndsWith)
{
    EXPECT_TRUE(vs::startsWith("grid5000/lyon", "grid5000"));
    EXPECT_FALSE(vs::startsWith("grid", "grid5000"));
    EXPECT_TRUE(vs::endsWith("trace.viva", ".viva"));
    EXPECT_FALSE(vs::endsWith("a", "ab"));
}

TEST(Strings, ToLower)
{
    EXPECT_EQ(vs::toLower("MFlops"), "mflops");
}

TEST(Strings, ParseDouble)
{
    double v = 0;
    EXPECT_TRUE(vs::parseDouble("3.5", v));
    EXPECT_DOUBLE_EQ(v, 3.5);
    EXPECT_TRUE(vs::parseDouble("  -1e3 ", v));
    EXPECT_DOUBLE_EQ(v, -1000.0);
    EXPECT_FALSE(vs::parseDouble("12x", v));
    EXPECT_FALSE(vs::parseDouble("", v));
    EXPECT_FALSE(vs::parseDouble("abc", v));
}

TEST(Strings, ParseSize)
{
    std::size_t v = 0;
    EXPECT_TRUE(vs::parseSize("42", v));
    EXPECT_EQ(v, 42u);
    EXPECT_FALSE(vs::parseSize("-3", v));
    EXPECT_FALSE(vs::parseSize("3.5", v));
    EXPECT_FALSE(vs::parseSize("", v));
}

namespace
{

/** The trim + strtod parseDouble that the in-place parser replaced. */
bool
oracleParseDouble(std::string_view text, double &out)
{
    std::string s = vs::trim(text);
    if (s.empty())
        return false;
    const char *begin = s.c_str();
    char *end = nullptr;
    double v = std::strtod(begin, &end);
    if (end != begin + s.size())
        return false;
    out = v;
    return true;
}

/** The trim + from_chars parseSize that the in-place parser replaced. */
bool
oracleParseSize(std::string_view text, std::size_t &out)
{
    std::string s = vs::trim(text);
    if (s.empty())
        return false;
    std::size_t v = 0;
    auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), v);
    if (ec != std::errc() || ptr != s.data() + s.size())
        return false;
    out = v;
    return true;
}

/**
 * parseDouble and parseSize accept `text` iff the oracles do, with the
 * same bits.
 */
void
expectParseParity(std::string_view text)
{
    const double sentinel = 12345.0;
    double got = sentinel;
    double want = sentinel;
    bool ok = vs::parseDouble(text, got);
    ASSERT_EQ(ok, oracleParseDouble(text, want)) << "'" << text << "'";
    std::uint64_t got_bits = 0;
    std::uint64_t want_bits = 0;
    std::memcpy(&got_bits, &got, sizeof(got));
    std::memcpy(&want_bits, &want, sizeof(want));
    EXPECT_EQ(got_bits, want_bits) << "'" << text << "'";

    std::size_t size_got = 7;
    std::size_t size_want = 7;
    ASSERT_EQ(vs::parseSize(text, size_got),
              oracleParseSize(text, size_want))
        << "'" << text << "'";
    EXPECT_EQ(size_got, size_want) << "'" << text << "'";
}

} // namespace

TEST(Strings, ParseParity)
{
    using namespace std::string_view_literals;
    const std::string_view edges[] = {
        "+1.5", "0x1p3", "0X1P-3", "1e400", "-1e400", "1e-400", "-1e-400",
        "4.9e-324", "2.4e-324", "2.5e-324", "2.2250738585072011e-308",
        "1.7976931348623157e308", "1.7976931348623159e308", "-0", "0",
        "+0", "inf", "-inf", "+inf", "INF", "infinity", "infinit", "nan",
        "-nan", "+nan", "NaN", "nan(123)", "nan(", ".5", "5.", ".", "-.5",
        "1e", "1e+", "1e+5", "1E5", " 2.5\r", "\t7\n", "12x", "", " ",
        "abc", "0x", "0x1p", "1.5e3.2", "--1", "+-1", "1 2", "e5", "00012",
        "18446744073709551615", "18446744073709551616", "-3", "3.5",
        "1\0002"sv, "1_000", "1,5"};
    for (std::string_view text : edges)
        expectParseParity(text);

    // Shortest round-trip and %.17g forms of random bit patterns,
    // non-finite ones included.
    vs::Rng rng(23);
    char wide[64];
    for (int i = 0; i < 100000; ++i) {
        std::uint64_t bits = rng.raw()();
        double x = 0;
        std::memcpy(&x, &bits, sizeof(x));
        expectParseParity(vs::formatDouble(x));
        std::snprintf(wide, sizeof(wide), "%.17g", x);
        expectParseParity(wide);
    }
}

TEST(Strings, FormatDoubleRoundTrips)
{
    for (double x : {0.0, 1.5, -2.25, 1e-9, 123456789.0, 3.14159265358979}) {
        double back = 0;
        ASSERT_TRUE(vs::parseDouble(vs::formatDouble(x), back));
        EXPECT_DOUBLE_EQ(back, x);
    }
}

namespace
{

/** formatDouble must parse back to the same bits, never longer than %.17g. */
void
expectShortestRoundTrip(double x)
{
    std::string text = vs::formatDouble(x);
    double back = 0;
    ASSERT_TRUE(vs::parseDouble(text, back)) << text;
    std::uint64_t want = 0;
    std::uint64_t got = 0;
    std::memcpy(&want, &x, sizeof(x));
    std::memcpy(&got, &back, sizeof(back));
    EXPECT_EQ(got, want) << text;
    char wide[64];
    int wide_len = std::snprintf(wide, sizeof(wide), "%.17g", x);
    EXPECT_LE(text.size(), std::size_t(wide_len)) << text << " vs " << wide;
}

} // namespace

TEST(Strings, FormatDoubleRoundTripsEveryBitPattern)
{
    // Random finite bit patterns cover every exponent and mantissa.
    vs::Rng rng(17);
    std::size_t checked = 0;
    while (checked < 100000) {
        std::uint64_t bits = rng.raw()();
        double x = 0;
        std::memcpy(&x, &bits, sizeof(x));
        if (!std::isfinite(x))
            continue;
        expectShortestRoundTrip(x);
        ++checked;
    }
    for (double x : {0.0, -0.0, DBL_MIN, -DBL_MIN, DBL_MAX, -DBL_MAX,
                     DBL_TRUE_MIN, -DBL_TRUE_MIN, DBL_MIN / 3.0, DBL_EPSILON,
                     0.1, 0.85, 1.0 / 3.0})
        expectShortestRoundTrip(x);
    // Integers up to 2^53 are exact and print without an exponent
    // while that is no longer.
    for (int k = 0; k <= 53; ++k) {
        double p = std::ldexp(1.0, k);
        for (double x : {p - 1.0, p, p + 1.0, -p})
            expectShortestRoundTrip(x);
    }
    for (std::int64_t i = -1000; i <= 1000; ++i)
        expectShortestRoundTrip(double(i));
    EXPECT_EQ(vs::formatDouble(0.85), "0.85");
    EXPECT_EQ(vs::formatDouble(-0.0), "-0");
    EXPECT_EQ(vs::formatDouble(9007199254740992.0), "9007199254740992");
}

TEST(Strings, AppendDoubleAppendsToTheCallersBuffer)
{
    std::string out = "x=";
    vs::appendDouble(out, 1.5);
    out += ' ';
    vs::appendDouble(out, -2e-300);
    EXPECT_EQ(out, "x=1.5 -2e-300");
}

TEST(Strings, Humanize)
{
    EXPECT_EQ(vs::humanize(950.0), "950");
    EXPECT_EQ(vs::humanize(1500.0), "1.5K");
    EXPECT_EQ(vs::humanize(2.17e6), "2.17M");
    EXPECT_EQ(vs::humanize(-1500.0), "-1.5K");
}

// --- stats -------------------------------------------------------------------

TEST(RunningStats, Empty)
{
    vs::RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.min(), 0.0);
    EXPECT_DOUBLE_EQ(s.max(), 0.0);
}

TEST(RunningStats, KnownMoments)
{
    vs::RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);  // classic textbook example
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    vs::RunningStats a, b, all;
    for (int i = 0; i < 50; ++i) {
        double x = std::sin(i * 0.7) * 10.0;
        (i < 20 ? a : b).add(x);
        all.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-12);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-10);
    EXPECT_DOUBLE_EQ(a.min(), all.min());
    EXPECT_DOUBLE_EQ(a.max(), all.max());
}

TEST(RunningStats, MergeWithEmpty)
{
    vs::RunningStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    empty.merge(a);
    EXPECT_EQ(empty.count(), 1u);
    EXPECT_DOUBLE_EQ(empty.mean(), 3.0);
}

TEST(Samples, MedianOddEven)
{
    vs::Samples s;
    for (double x : {5.0, 1.0, 3.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.median(), 3.0);
    s.add(7.0);
    EXPECT_DOUBLE_EQ(s.median(), 4.0);  // (3 + 5) / 2
}

TEST(Samples, Quantiles)
{
    vs::Samples s;
    for (int i = 0; i <= 100; ++i)
        s.add(double(i));
    EXPECT_DOUBLE_EQ(s.quantile(0.0), 0.0);
    EXPECT_DOUBLE_EQ(s.quantile(1.0), 100.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.25), 25.0);
    EXPECT_DOUBLE_EQ(s.quantile(0.5), 50.0);
}

TEST(Samples, QuantileAfterIncrementalAdds)
{
    vs::Samples s;
    s.add(10.0);
    EXPECT_DOUBLE_EQ(s.median(), 10.0);
    s.add(0.0);
    EXPECT_DOUBLE_EQ(s.median(), 5.0);  // cache must refresh
}

TEST(Samples, EmptyQuantileIsZero)
{
    vs::Samples s;
    EXPECT_DOUBLE_EQ(s.median(), 0.0);
}

// --- interval ------------------------------------------------------------------

TEST(Interval, Basics)
{
    vs::Interval i(2.0, 5.0);
    EXPECT_DOUBLE_EQ(i.length(), 3.0);
    EXPECT_FALSE(i.empty());
    EXPECT_TRUE(i.contains(2.0));
    EXPECT_TRUE(i.contains(4.999));
    EXPECT_FALSE(i.contains(5.0));
    EXPECT_FALSE(i.contains(1.999));
}

TEST(Interval, Intersect)
{
    vs::Interval a(0.0, 10.0), b(5.0, 15.0);
    vs::Interval c = a.intersect(b);
    EXPECT_DOUBLE_EQ(c.begin, 5.0);
    EXPECT_DOUBLE_EQ(c.end, 10.0);
    vs::Interval d(20.0, 30.0);
    EXPECT_TRUE(a.intersect(d).empty());
    EXPECT_TRUE(a.overlaps(b));
    EXPECT_FALSE(a.overlaps(d));
}

TEST(Interval, Shifted)
{
    vs::Interval a(1.0, 2.0);
    vs::Interval b = a.shifted(10.0);
    EXPECT_DOUBLE_EQ(b.begin, 11.0);
    EXPECT_DOUBLE_EQ(b.end, 12.0);
}

// --- rng ------------------------------------------------------------------------

TEST(Rng, Deterministic)
{
    vs::Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_DOUBLE_EQ(a.uniform(), b.uniform());
}

TEST(Rng, UniformRange)
{
    vs::Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        double v = rng.uniform(3.0, 7.0);
        EXPECT_GE(v, 3.0);
        EXPECT_LT(v, 7.0);
    }
}

TEST(Rng, UniformIntInclusive)
{
    vs::Rng rng(2);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        auto v = rng.uniformInt(0, 3);
        EXPECT_GE(v, 0);
        EXPECT_LE(v, 3);
        saw_lo |= v == 0;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, ShufflePreservesElements)
{
    vs::Rng rng(3);
    std::vector<int> v{1, 2, 3, 4, 5, 6, 7, 8};
    auto sorted = v;
    rng.shuffle(v);
    std::sort(v.begin(), v.end());
    EXPECT_EQ(v, sorted);
}

TEST(Rng, ExponentialPositive)
{
    vs::Rng rng(4);
    for (int i = 0; i < 100; ++i)
        EXPECT_GT(rng.exponential(2.0), 0.0);
}

// --- logging ----------------------------------------------------------------------

TEST(Logging, WarnCountIncrements)
{
    vs::setQuiet(true);
    std::size_t before = vs::warnCount();
    vs::warn("test", "something odd: ", 42);
    EXPECT_EQ(vs::warnCount(), before + 1);
    vs::setQuiet(false);
}

TEST(Logging, AssertFiresOnFalse)
{
    EXPECT_DEATH({ VIVA_ASSERT(1 == 2, "impossible ", 3); }, "assertion");
}

TEST(Logging, AssertPassesOnTrue)
{
    VIVA_ASSERT(1 + 1 == 2, "math is broken");
    SUCCEED();
}

