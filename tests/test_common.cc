/**
 * @file
 * Unit tests for the common utilities: RNG, math helpers, statistics,
 * GF(2) linear algebra, tables and string utilities.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <limits>
#include <set>
#include <vector>

#include "src/common/assert.hh"
#include "src/common/gf2.hh"
#include "src/common/math.hh"
#include "src/common/rng.hh"
#include "src/common/serialize.hh"
#include "src/common/stats.hh"
#include "src/common/strings.hh"
#include "src/common/table.hh"

namespace traq {
namespace {

TEST(Rng, Deterministic)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        if (a.next() == b.next())
            ++same;
    EXPECT_LT(same, 2);
}

TEST(Rng, UniformRange)
{
    Rng r(7);
    for (int i = 0; i < 10000; ++i) {
        double u = r.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
    }
}

TEST(Rng, UniformMeanNearHalf)
{
    Rng r(11);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += r.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, BelowRespectsBound)
{
    Rng r(3);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 3000; ++i) {
        std::uint64_t v = r.below(7);
        ASSERT_LT(v, 7u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u);
}

TEST(Rng, BernoulliExtremes)
{
    Rng r(5);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(r.bernoulli(0.0));
        EXPECT_TRUE(r.bernoulli(1.0));
    }
}

TEST(Rng, BernoulliWordDensity)
{
    Rng r(9);
    const double p = 0.25;
    std::uint64_t bits = 0;
    const int words = 4000;
    for (int i = 0; i < words; ++i)
        bits += __builtin_popcountll(r.bernoulliWord(p));
    double density = static_cast<double>(bits) / (64.0 * words);
    EXPECT_NEAR(density, p, 0.01);
}

TEST(Rng, BernoulliWordExtremes)
{
    Rng r(13);
    EXPECT_EQ(r.bernoulliWord(0.0), 0u);
    EXPECT_EQ(r.bernoulliWord(1.0), ~0ULL);
}

TEST(Rng, BernoulliWordEdgeProbabilitiesExact)
{
    // p = 0 and p = 1 must be exact for every draw, including
    // out-of-range and non-finite inputs (clamped semantics).
    Rng r(17);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_EQ(r.bernoulliWord(0.0), 0u);
        EXPECT_EQ(r.bernoulliWord(-0.25), 0u);
        EXPECT_EQ(r.bernoulliWord(1.0), ~0ULL);
        EXPECT_EQ(r.bernoulliWord(1.5), ~0ULL);
    }
}

TEST(Rng, BernoulliWordTinyPUnbiased)
{
    // Sparse path: 1e6 words at p = 1e-6 is 6.4e7 trials with 64
    // expected successes (sd = 8); a systematic per-word bias of
    // even one part in 1e5 would blow far past the 5-sigma window.
    Rng r(21);
    const double p = 1e-6;
    const int words = 1000000;
    std::uint64_t bits = 0;
    for (int i = 0; i < words; ++i)
        bits += __builtin_popcountll(r.bernoulliWord(p));
    const double expected = 64.0 * words * p;
    EXPECT_NEAR(static_cast<double>(bits), expected,
                5.0 * std::sqrt(expected));
}

TEST(Rng, BernoulliWordSubUlpProbabilityRepresentable)
{
    // Probabilities below the 2^-53 uniform() granularity used to be
    // impossible to realize per-bit; the geometric path honors them
    // in expectation.  At p = 1e-12 over 1e5 words the expected
    // count is 6.4e-6, so observing any success is a > 5-sigma
    // fluke.
    Rng r(23);
    std::uint64_t bits = 0;
    for (int i = 0; i < 100000; ++i)
        bits += __builtin_popcountll(r.bernoulliWord(1e-12));
    EXPECT_EQ(bits, 0u);
}

TEST(Rng, BernoulliPlaneDensityAcrossWidths)
{
    // The plane sampler must hit the target density for sparse,
    // mid-range and dense p at several widths (covering all three
    // internal sampling strategies).
    for (double p : {0.01, 0.5, 0.93}) {
        for (std::size_t width : {1u, 4u, 7u}) {
            Rng r(29);
            std::vector<std::uint64_t> plane(width);
            std::uint64_t bits = 0;
            const int draws = 60000 / static_cast<int>(width);
            for (int i = 0; i < draws; ++i) {
                r.bernoulliPlane(p, plane.data(), width);
                for (std::uint64_t w : plane)
                    bits += __builtin_popcountll(w);
            }
            const double trials = 64.0 * width * draws;
            EXPECT_NEAR(bits / trials, p,
                        5.0 * std::sqrt(p * (1 - p) / trials))
                << "p=" << p << " width=" << width;
        }
    }
}

TEST(Rng, BernoulliPlaneStreamPinned)
{
    // The sampled stream is part of every Monte-Carlo result.  The
    // plane sampler keeps the last sparse probability's constant, so
    // p changes every three planes (the constant is both reused and
    // replaced), through the sparse (1e-3, 2e-3), per-bit (0.3) and
    // dense (0.8) paths, at one word and at eight.
    Rng r(20250521);
    const double ps[] = {1e-3, 2e-3, 1e-3, 0.3, 0.8};
    std::uint64_t words[8];
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    for (int rep = 0; rep < 100; ++rep)
        for (std::size_t width : {std::size_t{1}, std::size_t{8}})
            for (double p : ps)
                for (int k = 0; k < 3; ++k) {
                    r.bernoulliPlane(p, words, width);
                    for (std::size_t w = 0; w < width; ++w)
                        digest = (digest ^ words[w]) * 0x100000001b3ULL;
                }
    EXPECT_EQ(digest, 0xb321e9c70d89b041ULL);
}

TEST(MathHelpers, PXor)
{
    EXPECT_DOUBLE_EQ(pXor(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(pXor(1.0, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(pXor(1.0, 1.0), 0.0);
    EXPECT_NEAR(pXor(0.1, 0.2), 0.1 * 0.8 + 0.2 * 0.9, 1e-12);
}

TEST(MathHelpers, POr)
{
    EXPECT_DOUBLE_EQ(pOr(0.0, 0.0), 0.0);
    EXPECT_DOUBLE_EQ(pOr(1.0, 0.5), 1.0);
    EXPECT_NEAR(pOr(0.1, 0.2), 1.0 - 0.9 * 0.8, 1e-12);
}

TEST(MathHelpers, PAtLeastOnce)
{
    EXPECT_NEAR(pAtLeastOnceOf(0.5, 2), 0.75, 1e-12);
    EXPECT_NEAR(pAtLeastOnceOf(1e-10, 1e6), 1e-4, 1e-8);
    EXPECT_DOUBLE_EQ(pAtLeastOnceOf(0.0, 100), 0.0);
}

TEST(MathHelpers, CeilOdd)
{
    EXPECT_EQ(ceilOdd(2.1), 3);
    EXPECT_EQ(ceilOdd(3.0), 3);
    EXPECT_EQ(ceilOdd(3.5), 5);
    EXPECT_EQ(ceilOdd(4.0), 5);
    EXPECT_EQ(ceilOdd(0.5), 3);
    EXPECT_EQ(ceilOdd(26.2), 27);
}

TEST(MathHelpers, CeilDivAndRoundUp)
{
    EXPECT_EQ(ceilDiv(10, 3), 4);
    EXPECT_EQ(ceilDiv(9, 3), 3);
    EXPECT_EQ(ceilDiv(0, 5), 0);
    EXPECT_EQ(roundUp(10, 4), 12);
    EXPECT_EQ(roundUp(12, 4), 12);
}

TEST(MathHelpers, POddOf)
{
    // Exact: odd successes among n Bernoulli(p).
    EXPECT_NEAR(pOddOf(0.5, 3), 0.5, 1e-12);
    EXPECT_NEAR(pOddOf(0.1, 1), 0.1, 1e-12);
    // Two trials: p(1-p)*2.
    EXPECT_NEAR(pOddOf(0.1, 2), 2 * 0.1 * 0.9, 1e-12);
    // Small p, large n: approximately n*p.
    EXPECT_NEAR(pOddOf(1e-6, 100), 1e-4, 1e-7);
}

TEST(MathHelpers, BinomialCoeff)
{
    EXPECT_DOUBLE_EQ(binomialCoeff(5, 2), 10.0);
    EXPECT_DOUBLE_EQ(binomialCoeff(8, 0), 1.0);
    EXPECT_DOUBLE_EQ(binomialCoeff(8, 8), 1.0);
    EXPECT_DOUBLE_EQ(binomialCoeff(3, 5), 0.0);
}

TEST(MathHelpers, Interp)
{
    std::vector<double> xs{0, 1, 2};
    std::vector<double> ys{0, 10, 40};
    EXPECT_DOUBLE_EQ(interp(xs, ys, 0.5), 5.0);
    EXPECT_DOUBLE_EQ(interp(xs, ys, 1.5), 25.0);
    EXPECT_DOUBLE_EQ(interp(xs, ys, -1), 0.0);   // clamped
    EXPECT_DOUBLE_EQ(interp(xs, ys, 5), 40.0);   // clamped
}

TEST(Stats, WilsonBasics)
{
    Proportion p = wilson(5, 100);
    EXPECT_DOUBLE_EQ(p.mean, 0.05);
    EXPECT_GT(p.hi, p.mean);
    EXPECT_LT(p.lo, p.mean);
    EXPECT_GE(p.lo, 0.0);
    EXPECT_LE(p.hi, 1.0);
}

TEST(Stats, WilsonZeroHits)
{
    Proportion p = wilson(0, 1000);
    EXPECT_DOUBLE_EQ(p.mean, 0.0);
    EXPECT_EQ(p.lo, 0.0);
    EXPECT_GT(p.hi, 0.0);
    EXPECT_LT(p.hi, 0.01);
}

TEST(Stats, WilsonEmpty)
{
    Proportion p = wilson(0, 0);
    EXPECT_EQ(p.shots, 0u);
    EXPECT_DOUBLE_EQ(p.mean, 0.0);
}

TEST(Stats, RunningStats)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
}

TEST(Stats, FitLineRecovers)
{
    std::vector<double> xs, ys;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(i);
        ys.push_back(3.0 + 2.0 * i);
    }
    LineFit f = fitLine(xs, ys);
    EXPECT_NEAR(f.intercept, 3.0, 1e-10);
    EXPECT_NEAR(f.slope, 2.0, 1e-10);
    EXPECT_NEAR(f.r2, 1.0, 1e-10);
}

TEST(Gf2, RankAndReduce)
{
    auto m = Gf2Matrix::fromRows({
        {1, 0, 1},
        {0, 1, 1},
        {1, 1, 0},
    });
    EXPECT_EQ(m.rank(), 2u);
}

TEST(Gf2, NullSpace)
{
    auto m = Gf2Matrix::fromRows({
        {1, 1, 0},
        {0, 1, 1},
    });
    Gf2Matrix ns = m.nullSpace();
    EXPECT_EQ(ns.rows(), 1u);
    // Null vector must satisfy M x = 0.
    for (std::size_t r = 0; r < m.rows(); ++r) {
        int parity = 0;
        for (std::size_t c = 0; c < 3; ++c)
            parity ^= m.get(r, c) && ns.get(0, c);
        EXPECT_EQ(parity, 0);
    }
    EXPECT_GT(ns.rowWeight(0), 0u);
}

TEST(Gf2, SolveConsistent)
{
    auto m = Gf2Matrix::fromRows({
        {1, 0, 1},
        {0, 1, 1},
    });
    std::vector<int> x;
    ASSERT_TRUE(m.solve({1, 0}, &x));
    // Verify M x = b.
    EXPECT_EQ((x[0] ^ x[2]) & 1, 1);
    EXPECT_EQ((x[1] ^ x[2]) & 1, 0);
}

TEST(Gf2, SolveInconsistent)
{
    auto m = Gf2Matrix::fromRows({
        {1, 1, 0},
        {1, 1, 0},
    });
    std::vector<int> x;
    EXPECT_FALSE(m.solve({1, 0}, &x));
}

TEST(Gf2, MultiplyAndTranspose)
{
    auto a = Gf2Matrix::fromRows({{1, 1}, {0, 1}});
    auto b = Gf2Matrix::fromRows({{1, 0}, {1, 1}});
    Gf2Matrix c = a.multiply(b);
    // [[1,1],[0,1]] * [[1,0],[1,1]] = [[0,1],[1,1]] over GF(2).
    EXPECT_FALSE(c.get(0, 0));
    EXPECT_TRUE(c.get(0, 1));
    EXPECT_TRUE(c.get(1, 0));
    EXPECT_TRUE(c.get(1, 1));
    Gf2Matrix at = a.transpose();
    EXPECT_TRUE(at.get(1, 0));
    EXPECT_FALSE(at.get(0, 1));
}

TEST(Gf2, AppendRowGrows)
{
    Gf2Matrix m(0, 0);
    m.appendRow({1, 0, 1});
    m.appendRow({0, 1, 1});
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.rank(), 2u);
}

TEST(TableFmt, RendersAligned)
{
    Table t({"a", "bbbb"});
    t.addRow({"1", "2"});
    t.addRow({"333", "4"});
    std::string s = t.str();
    EXPECT_NE(s.find("| a   | bbbb |"), std::string::npos);
    EXPECT_NE(s.find("| 333 | 4    |"), std::string::npos);
}

TEST(TableFmt, Formatters)
{
    EXPECT_EQ(fmtF(3.14159, 2), "3.14");
    EXPECT_EQ(fmtE(1.6e-11, 2), "1.6e-11");
    EXPECT_EQ(fmtSi(19.2e6, 1), "19.2M");
    EXPECT_EQ(fmtSi(250.0, 0), "250");
    EXPECT_EQ(fmtDuration(0.4e-3), "400.0 us");
    EXPECT_EQ(fmtDuration(0.004), "4.00 ms");
    EXPECT_EQ(fmtDuration(484000), "5.6 days");
}

TEST(TableFmt, EdgeCasesAreStable)
{
    const double nan = std::nan("");
    const double inf = std::numeric_limits<double>::infinity();

    EXPECT_EQ(fmtF(nan, 2), "nan");
    EXPECT_EQ(fmtF(inf, 2), "inf");
    EXPECT_EQ(fmtF(-inf, 2), "-inf");
    EXPECT_EQ(fmtF(0.0, 2), "0.00");
    EXPECT_EQ(fmtF(-0.0, 2), "0.00");  // never "-0.00"
    EXPECT_EQ(fmtF(-1.5, 1), "-1.5");

    EXPECT_EQ(fmtE(nan, 2), "nan");
    EXPECT_EQ(fmtE(-inf, 3), "-inf");
    EXPECT_EQ(fmtE(-0.0, 2), "0.0e+00");

    EXPECT_EQ(fmtSi(nan, 1), "nan");
    EXPECT_EQ(fmtSi(inf, 1), "inf");
    EXPECT_EQ(fmtSi(0.0, 1), "0.0");
    EXPECT_EQ(fmtSi(-0.0, 1), "0.0");
    EXPECT_EQ(fmtSi(-19.2e6, 1), "-19.2M");
    EXPECT_EQ(fmtSi(-250.0, 0), "-250");

    EXPECT_EQ(fmtDuration(nan), "nan");
    EXPECT_EQ(fmtDuration(inf), "inf");
    EXPECT_EQ(fmtDuration(-inf), "-inf");
    EXPECT_EQ(fmtDuration(0.0), "0.0 us");
    EXPECT_EQ(fmtDuration(-0.0), "0.0 us");
    EXPECT_EQ(fmtDuration(-484000), "-5.6 days");
    EXPECT_EQ(fmtDuration(-0.004), "-4.00 ms");
}

TEST(Serialize, RoundTripNumbers)
{
    for (double v : {0.0, -0.0, 1.0, -1.5, 0.1, 1e-300, 1e300,
                     3.141592653589793, 469169.9789845182}) {
        std::string s = fmtRoundTrip(v);
        EXPECT_EQ(std::strtod(s.c_str(), nullptr), v) << s;
    }
    EXPECT_EQ(fmtRoundTrip(0.0), "0");
    EXPECT_EQ(fmtRoundTrip(-0.0), "0");
    EXPECT_EQ(fmtRoundTrip(std::nan("")), "nan");
    EXPECT_EQ(fmtRoundTrip(
                  std::numeric_limits<double>::infinity()),
              "inf");
    EXPECT_EQ(fmtRoundTrip(
                  -std::numeric_limits<double>::infinity()),
              "-inf");
}

TEST(Serialize, JsonHelpers)
{
    EXPECT_EQ(jsonQuote("plain"), "\"plain\"");
    EXPECT_EQ(jsonQuote("a\"b\\c"), "\"a\\\"b\\\\c\"");
    EXPECT_EQ(jsonQuote("line\nbreak\ttab"),
              "\"line\\nbreak\\ttab\"");
    EXPECT_EQ(jsonQuote(std::string(1, '\x01')), "\"\\u0001\"");
    EXPECT_EQ(jsonNumber(2.5), "2.5");
    // Non-finite values use the same quoted tags canonicalKey's
    // fmtRoundTrip encoding uses, so the two round-trip together.
    EXPECT_EQ(jsonNumber(std::nan("")), "\"nan\"");
    EXPECT_EQ(jsonNumber(std::numeric_limits<double>::infinity()),
              "\"inf\"");
    EXPECT_EQ(jsonNumber(-std::numeric_limits<double>::infinity()),
              "\"-inf\"");
}

TEST(Serialize, CsvFieldQuoting)
{
    EXPECT_EQ(csvField("plain"), "plain");
    EXPECT_EQ(csvField("has,comma"), "\"has,comma\"");
    EXPECT_EQ(csvField("has\"quote"), "\"has\"\"quote\"");
    EXPECT_EQ(csvField("has\nnewline"), "\"has\nnewline\"");
    EXPECT_EQ(csvField(""), "");
}

TEST(Strings, SplitAndTrim)
{
    auto parts = splitWhitespace("  a  bb\tccc \n");
    ASSERT_EQ(parts.size(), 3u);
    EXPECT_EQ(parts[0], "a");
    EXPECT_EQ(parts[2], "ccc");
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
    auto fields = splitChar("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[2], "");
}

TEST(Strings, JoinStartsUpper)
{
    EXPECT_EQ(join({"a", "b", "c"}, ", "), "a, b, c");
    EXPECT_TRUE(startsWith("rec[-3]", "rec["));
    EXPECT_FALSE(startsWith("re", "rec"));
    EXPECT_EQ(toUpper("cx"), "CX");
}

TEST(Asserts, FatalThrows)
{
    EXPECT_THROW(TRAQ_FATAL("boom"), FatalError);
    EXPECT_THROW(TRAQ_REQUIRE(false, "nope"), FatalError);
    EXPECT_NO_THROW(TRAQ_REQUIRE(true, "fine"));
}

} // namespace
} // namespace traq
