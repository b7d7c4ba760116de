/**
 * @file
 * Unit tests for common utilities: RNG, distribution encoding, stats,
 * thread pool, and serialization.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cmath>
#include <cstring>

#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stats.hh"
#include "common/thread_pool.hh"

namespace concorde
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 5);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i)
        EXPECT_LT(rng.nextBounded(17), 17u);
}

TEST(Rng, RangeInclusive)
{
    Rng rng(8);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 10000; ++i) {
        const int64_t v = rng.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng rng(9);
    for (int i = 0; i < 10000; ++i) {
        const double d = rng.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Rng, GeometricMeanApproximatelyCorrect)
{
    Rng rng(10);
    double sum = 0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += static_cast<double>(rng.nextGeometric(8.0));
    EXPECT_NEAR(sum / n, 8.0, 0.3);
}

TEST(Rng, GeometricMinimumIsOne)
{
    Rng rng(11);
    for (int i = 0; i < 1000; ++i)
        EXPECT_GE(rng.nextGeometric(1.5), 1u);
    EXPECT_EQ(rng.nextGeometric(0.5), 1u);
}

TEST(Rng, ZipfInRangeAndSkewed)
{
    Rng rng(12);
    uint64_t low = 0, total = 20000;
    for (uint64_t i = 0; i < total; ++i) {
        const uint64_t v = rng.nextZipf(1000, 1.1);
        EXPECT_LT(v, 1000u);
        low += v < 100;
    }
    // Skew: far more than 10% of draws land in the first 10% of ranks.
    EXPECT_GT(static_cast<double>(low) / total, 0.4);
}

TEST(Rng, GaussianMoments)
{
    Rng rng(13);
    RunningStats stats;
    for (int i = 0; i < 100000; ++i)
        stats.push(rng.nextGaussian());
    EXPECT_NEAR(stats.avg(), 0.0, 0.02);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.02);
}

TEST(Rng, ForkAdvancesParent)
{
    Rng parent(14);
    Rng child = parent.fork(1);
    Rng child2 = parent.fork(1);
    // Sequential forks differ (parent state advances).
    EXPECT_NE(child.next(), child2.next());
}

TEST(HashMix, StableAndSpread)
{
    EXPECT_EQ(hashMix(1, 2, 3), hashMix(1, 2, 3));
    EXPECT_NE(hashMix(1, 2, 3), hashMix(1, 2, 4));
    EXPECT_NE(hashMix(1, 2, 3), hashMix(2, 1, 3));
}

TEST(Percentile, InterpolatesBetweenOrderStatistics)
{
    std::vector<double> xs = {1.0, 2.0, 3.0, 4.0};
    EXPECT_DOUBLE_EQ(percentile(xs, 0.0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 1.0), 4.0);
    EXPECT_DOUBLE_EQ(percentile(xs, 0.5), 2.5);
}

TEST(Percentile, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(DistributionEncoder, DimIsTwoPPlusOne)
{
    EXPECT_EQ(DistributionEncoder(25).dim(), 51u);
    EXPECT_EQ(DistributionEncoder(50).dim(), 101u);
}

TEST(DistributionEncoder, EmptyEncodesAsZeros)
{
    DistributionEncoder enc(10);
    std::vector<float> out;
    enc.encode({}, out);
    ASSERT_EQ(out.size(), enc.dim());
    for (float v : out)
        EXPECT_EQ(v, 0.0f);
}

TEST(DistributionEncoder, PercentilesAreMonotone)
{
    DistributionEncoder enc(25);
    Rng rng(15);
    std::vector<double> samples;
    for (int i = 0; i < 500; ++i)
        samples.push_back(rng.nextDouble() * 100);
    std::vector<float> out;
    enc.encode(samples, out);
    for (size_t i = 1; i < 25; ++i)
        EXPECT_LE(out[i - 1], out[i]);
    for (size_t i = 26; i < 50; ++i)
        EXPECT_LE(out[i - 1], out[i]);
}

TEST(SortSamples, MatchesStdSortBitwise)
{
    Rng rng(77);
    auto check = [](std::vector<double> xs) {
        std::vector<double> reference = xs;
        std::sort(reference.begin(), reference.end());
        sortSamples(xs);
        ASSERT_EQ(xs.size(), reference.size());
        for (size_t i = 0; i < xs.size(); ++i) {
            // Bitwise equality, not just value equality.
            EXPECT_EQ(std::memcmp(&xs[i], &reference[i], sizeof(double)),
                      0) << "index " << i;
        }
    };

    // Large integral input.
    std::vector<double> integral(4096);
    for (double &x : integral)
        x = static_cast<double>(rng.nextBounded(300));
    check(integral);

    // Duplicate-heavy and all-equal inputs.
    check(std::vector<double>(512, 7.0));

    // Fractional values.
    std::vector<double> fractional(512);
    for (double &x : fractional)
        x = rng.nextDouble() * 50.0;
    check(fractional);

    // Negative values and huge values.
    std::vector<double> mixed(512);
    for (double &x : mixed)
        x = static_cast<double>(rng.nextBounded(100)) - 50.0;
    check(mixed);
    std::vector<double> huge(512);
    for (double &x : huge)
        x = static_cast<double>(rng.nextBounded(1000)) * 1e6;
    check(huge);

    // Small inputs.
    check({3.0, 1.0, 2.0});
    check({});
}

TEST(DistributionEncoder, InPlaceAndSortedMatchEncode)
{
    DistributionEncoder enc(25);
    Rng rng(78);
    for (int round = 0; round < 3; ++round) {
        std::vector<double> samples(700);
        for (double &x : samples) {
            x = round == 0 ? static_cast<double>(rng.nextBounded(40))
                           : rng.nextDouble() * 10.0;
        }

        std::vector<float> via_encode, via_in_place, via_sorted;
        enc.encode(samples, via_encode);

        std::vector<double> scratch = samples;
        enc.encodeInPlace(scratch, via_in_place);
        // The scratch buffer was sorted in place, not reallocated.
        EXPECT_TRUE(std::is_sorted(scratch.begin(), scratch.end()));
        enc.encodeSorted(scratch, via_sorted);

        ASSERT_EQ(via_encode.size(), enc.dim());
        ASSERT_EQ(via_in_place.size(), enc.dim());
        ASSERT_EQ(via_sorted.size(), enc.dim());
        for (size_t i = 0; i < enc.dim(); ++i) {
            EXPECT_EQ(via_encode[i], via_in_place[i]) << "entry " << i;
            EXPECT_EQ(via_encode[i], via_sorted[i]) << "entry " << i;
        }
    }
}

TEST(DistributionEncoder, MeanIsLastEntry)
{
    DistributionEncoder enc(5);
    std::vector<float> out;
    enc.encode({2.0, 4.0, 6.0}, out);
    EXPECT_FLOAT_EQ(out.back(), 4.0f);
}

TEST(DistributionEncoder, PositiveHomogeneity)
{
    DistributionEncoder enc(10);
    Rng rng(16);
    std::vector<double> samples;
    for (int i = 0; i < 100; ++i)
        samples.push_back(rng.nextDouble() * 10);
    std::vector<double> scaled = samples;
    for (double &x : scaled)
        x *= 3.0;
    std::vector<float> a, b;
    enc.encode(samples, a);
    enc.encode(scaled, b);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_NEAR(b[i], 3.0f * a[i], 1e-4);
}

TEST(DistributionEncoder, SizeWeightedEmphasizesTail)
{
    // 90 samples of 1 and 10 samples of 100: the plain median is 1, the
    // size-weighted median is 100 (footnote 5 of the paper).
    DistributionEncoder enc(11);
    std::vector<double> samples(90, 1.0);
    samples.insert(samples.end(), 10, 100.0);
    std::vector<float> out;
    enc.encode(samples, out);
    const float plain_median = out[5];
    const float weighted_median = out[11 + 5];
    EXPECT_EQ(plain_median, 1.0f);
    EXPECT_EQ(weighted_median, 100.0f);
}

TEST(DistributionEncoder, AllZeroSamples)
{
    DistributionEncoder enc(5);
    std::vector<float> out;
    enc.encode({0.0, 0.0, 0.0}, out);
    for (float v : out)
        EXPECT_EQ(v, 0.0f);
}

TEST(DistributionEncoder, AppendsWithoutClobbering)
{
    DistributionEncoder enc(5);
    std::vector<float> out = {7.0f};
    enc.encode({1.0}, out);
    EXPECT_EQ(out.size(), 1 + enc.dim());
    EXPECT_EQ(out[0], 7.0f);
}

/** Reference latency encode: sort, log1p, encodeSorted. */
std::vector<float>
sortedLog1pEncode(const DistributionEncoder &enc,
                  const std::vector<uint64_t> &samples)
{
    std::vector<double> xs(samples.begin(), samples.end());
    sortSamples(xs);
    for (double &x : xs)
        x = std::log1p(x);
    std::vector<float> out;
    enc.encodeSorted(xs, out);
    return out;
}

void
expectHistogramEncodeMatches(const std::vector<uint64_t> &samples,
                             size_t num_percentiles, const char *what)
{
    const DistributionEncoder enc(num_percentiles);
    IntegerHistogram hist;
    hist.clear();
    for (uint64_t v : samples)
        hist.add(v);
    EXPECT_EQ(hist.size(), samples.size()) << what;
    std::vector<float> got = {-1.0f};   // appended after, not over
    enc.encodeHistogramLog1p(hist, got);
    const std::vector<float> want = sortedLog1pEncode(enc, samples);
    ASSERT_EQ(got.size(), 1 + want.size()) << what;
    EXPECT_EQ(got[0], -1.0f) << what;
    for (size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(std::memcmp(&got[1 + i], &want[i], sizeof(float)), 0)
            << what << " P=" << num_percentiles << " entry " << i << ": "
            << got[1 + i] << " vs " << want[i];
    }
}

TEST(IntegerHistogram, EncodeMatchesSortedLog1pEncode)
{
    constexpr uint64_t cap = IntegerHistogram::kDenseCap;
    for (size_t p : {2, 3, 5, 25, 50}) {
        expectHistogramEncodeMatches({}, p, "empty");
        expectHistogramEncodeMatches(std::vector<uint64_t>(300, 0), p,
                                     "all zero");
        expectHistogramEncodeMatches({0}, p, "one zero");
        expectHistogramEncodeMatches({7}, p, "one sample");
        expectHistogramEncodeMatches({cap + 9}, p, "one large sample");
        expectHistogramEncodeMatches({3, 0, 1}, p, "n < P");
        expectHistogramEncodeMatches(std::vector<uint64_t>(1000, 9), p,
                                     "all equal");
        expectHistogramEncodeMatches(std::vector<uint64_t>(77, cap), p,
                                     "all equal at the cap");
        expectHistogramEncodeMatches(
            {cap - 1, cap, cap + 1, cap, 1u << 20, 1ull << 40, 0, 1, 1,
             cap - 1, 1ull << 40},
            p, "at and above the cap");
        // Cumulative sums landing exactly on weighted-percentile
        // targets: q * total is exact for these q and equal values.
        expectHistogramEncodeMatches({1, 1, 1, 1}, p, "tied boundaries");
        expectHistogramEncodeMatches({0, 0, 5, 5, 5, 5, 0, 0}, p,
                                     "tied boundaries after zeros");
        expectHistogramEncodeMatches(std::vector<uint64_t>(8, cap + 3), p,
                                     "tied large boundaries");
    }

    // Stage-latency-like mixes: mostly small, a zero spike, a long tail
    // past the cap.
    Rng rng(91);
    for (int round = 0; round < 6; ++round) {
        std::vector<uint64_t> samples(round < 3 ? 40 : 5000);
        for (uint64_t &v : samples) {
            const uint64_t pick = rng.nextBounded(10);
            v = pick < 3 ? 0
                : pick < 8 ? rng.nextBounded(64)
                : rng.nextBounded(3 * cap);
        }
        expectHistogramEncodeMatches(samples, 25, "random mix");
        expectHistogramEncodeMatches(samples, 4, "random mix");
    }
}

TEST(IntegerHistogram, DenseRunOfTwoToTheTwentyMatchesSortedEncode)
{
    // One dense value 2^20 times and one large value: the dense run is
    // summed by addRepeated's exact steps across many binades.
    std::vector<uint64_t> samples(size_t{1} << 20, 37);
    samples.push_back(IntegerHistogram::kDenseCap + 12345);
    for (size_t p : {2, 25})
        expectHistogramEncodeMatches(samples, p, "dense run of 2^20");
}

TEST(IntegerHistogram, CountsAndClear)
{
    IntegerHistogram hist;
    hist.clear();
    for (uint64_t v : {0ull, 5ull, 5ull, 5000ull, 5000ull, 1ull << 33})
        hist.add(v);
    EXPECT_EQ(hist.size(), 6u);
    EXPECT_EQ(hist.count(5), 2u);
    EXPECT_EQ(hist.count(5000), 2u);
    EXPECT_EQ(hist.count(1ull << 33), 1u);
    EXPECT_EQ(hist.count(1), 0u);
    hist.clear();
    EXPECT_EQ(hist.size(), 0u);
}

double
loopAdd(double total, double value, uint64_t count)
{
    for (uint64_t c = 0; c < count; ++c)
        total += value;
    return total;
}

void
expectAddRepeatedMatchesLoop(double total, double value, uint64_t count)
{
    const double want = loopAdd(total, value, count);
    const double got = addRepeated(total, value, count);
    ASSERT_EQ(std::memcmp(&got, &want, sizeof got), 0)
        << std::hexfloat << "total " << total << " value " << value
        << " count " << count << ": " << got << " vs " << want;
}

/** Distance from x to the next double up (x positive and finite). */
double
ulpAbove(double x)
{
    return std::nextafter(x, INFINITY) - x;
}

TEST(AddRepeated, MatchesPlainLoopBitwise)
{
    Rng rng(2718);
    // Counts on both sides of the 8-add cutoff, and long runs.
    auto draw_count = [&]() -> uint64_t {
        const uint64_t pick = rng.nextBounded(10);
        return pick < 3 ? rng.nextBounded(64)
            : pick < 5 ? 4 + rng.nextBounded(10)
            : pick < 9 ? 64 + rng.nextBounded(2000)
            : 2000 + rng.nextBounded(30000);
    };
    auto log_uniform = [&](double lo_exp, double hi_exp) {
        return std::exp2(lo_exp + (hi_exp - lo_exp) * rng.nextDouble());
    };
    for (int round = 0; round < 60000; ++round) {
        const uint64_t count = draw_count();
        double total = 0.0, value = 1.0;
        switch (round % 6) {
          case 0:   // from zero
            value = log_uniform(-20, 20);
            break;
          case 1:   // value well below the total
            total = log_uniform(-5, 30);
            value = total * log_uniform(-40, -1);
            break;
          case 2:   // value above the total
            total = log_uniform(-10, 10);
            value = total * log_uniform(0, 8);
            break;
          case 3: { // exact ties: (q + 1/2) ulps of the total
            total = log_uniform(0, 40);
            const double q = static_cast<double>(rng.nextBounded(4096));
            value = (q + 0.5) * ulpAbove(total);
            break;
          }
          case 4: { // just below a power of two: binade crossings
            const double top = std::exp2(
                static_cast<double>(rng.nextBounded(60)));
            total = top - static_cast<double>(rng.nextBounded(1000))
                * ulpAbove(top / 2);
            value = static_cast<double>(1 + rng.nextBounded(64))
                * ulpAbove(total) * (1.0 + rng.nextDouble());
            break;
          }
          default:  // log1p of small cycle counts, as the encoder adds
            total = static_cast<double>(rng.nextBounded(1 << 20))
                * std::log1p(3.0);
            value = std::log1p(static_cast<double>(rng.nextBounded(4096)));
            break;
        }
        expectAddRepeatedMatchesLoop(total, value, count);
    }
    // Operands the exact steps leave to the loop.
    for (double total : {0.0, -0.0, -3.5, 1e-310, 2.0}) {
        for (double value : {0.0, -0.0, 1.25, -1.25, 1e-310, 0x1p-60}) {
            expectAddRepeatedMatchesLoop(total, value, 5);
            expectAddRepeatedMatchesLoop(total, value, 300);
        }
    }
    expectAddRepeatedMatchesLoop(1.0, 0x1p-80, 1000);
    expectAddRepeatedMatchesLoop(0x1p-1022, 0x1p-1022, 1000);
}

TEST(GeometricLaw, FastLogWithinItsBound)
{
    Rng rng(31);
    double worst = 0.0;
    for (int i = 0; i < 200000; ++i) {
        // Uniform doubles as the law draws them, and every binade.
        double u = i % 2 ? rng.nextDouble()
            : std::exp2(-1000.0 * rng.nextDouble()) * (1.0 + rng.nextDouble());
        if (u < 1e-300)
            u = 1e-300;
        const long double truth = std::log(static_cast<long double>(u));
        const double err = static_cast<double>(std::fabs(
            static_cast<long double>(GeometricLaw::fastLog(u)) - truth));
        const double bound = GeometricLaw::kFastLogAbs
            + GeometricLaw::kFastLogRel * std::fabs(static_cast<double>(truth));
        ASSERT_LE(err, bound) << std::hexfloat << "u = " << u;
        worst = std::max(worst, err / bound);
    }
    EXPECT_LT(worst, 0.5);
}

TEST(GeometricLaw, DrawsEqualLibmFormula)
{
    for (double mean : {0.5, 1.0, 1.5, 3.0, 6.0, 8.0, 12.0, 100.0, 1e4}) {
        const GeometricLaw law(mean);
        Rng a(static_cast<uint64_t>(mean * 1000));
        Rng b = a;
        for (int i = 0; i < 50000; ++i) {
            uint64_t want = 1;
            if (mean > 1.0) {
                double u = b.nextDouble();
                if (u < 1e-300)
                    u = 1e-300;
                const double v = std::log(u) / std::log(1.0 - 1.0 / mean);
                want = static_cast<uint64_t>(v) + 1;
            }
            ASSERT_EQ(law.draw(a), want) << "mean " << mean << " draw " << i;
        }
        EXPECT_EQ(a.next(), b.next());
    }
    // Uniforms whose quotient lands on or within ulps of an integer,
    // where only the libm evaluation decides the floor.
    for (double mean : {2.0, 3.0, 6.0}) {
        const GeometricLaw law(mean);
        const double log_q = std::log(1.0 - 1.0 / mean);
        for (int k = 1; k < 60; ++k) {
            double u = std::exp(log_q * k);
            for (int step = 0; step < 4; ++step)
                u = std::nextafter(u, 0.0);
            for (int step = 0; step < 9; ++step) {
                const double v = std::log(u) / log_q;
                ASSERT_EQ(law.ofUniform(u), static_cast<uint64_t>(v) + 1)
                    << std::hexfloat << "mean " << mean << " u " << u;
                u = std::nextafter(u, 1.0);
            }
        }
    }
}

TEST(RunningStats, MatchesClosedForm)
{
    RunningStats stats;
    for (double x : {1.0, 2.0, 3.0, 4.0, 5.0})
        stats.push(x);
    EXPECT_EQ(stats.count(), 5u);
    EXPECT_DOUBLE_EQ(stats.avg(), 3.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 2.5);
}

TEST(ParallelFor, CoversAllIndicesOnce)
{
    std::vector<std::atomic<int>> hits(1000);
    parallelFor(1000, [&](size_t i) { ++hits[i]; }, 8);
    for (auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, ZeroAndOneWork)
{
    std::atomic<int> count{0};
    parallelFor(0, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 0);
    parallelFor(1, [&](size_t) { ++count; });
    EXPECT_EQ(count.load(), 1);
}

TEST(ParallelShards, PartitionsContiguously)
{
    std::vector<int> owner(100, -1);
    parallelShards(100, [&](size_t t, size_t lo, size_t hi) {
        for (size_t i = lo; i < hi; ++i)
            owner[i] = static_cast<int>(t);
    }, 7);
    for (int o : owner)
        EXPECT_GE(o, 0);
    // Contiguity: owner ids are non-decreasing.
    for (size_t i = 1; i < owner.size(); ++i)
        EXPECT_LE(owner[i - 1], owner[i]);
}

TEST(Serialize, RoundTrip)
{
    const std::string path = "/tmp/concorde_test_serialize.bin";
    {
        BinaryWriter out(path);
        out.put<uint32_t>(0xDEADBEEF);
        out.put<double>(3.25);
        out.putVector(std::vector<float>{1.0f, 2.0f, 3.0f});
        out.putString("concorde");
    }
    {
        BinaryReader in(path);
        EXPECT_EQ(in.get<uint32_t>(), 0xDEADBEEFu);
        EXPECT_DOUBLE_EQ(in.get<double>(), 3.25);
        const auto v = in.getVector<float>();
        ASSERT_EQ(v.size(), 3u);
        EXPECT_EQ(v[1], 2.0f);
        EXPECT_EQ(in.getString(), "concorde");
    }
    std::remove(path.c_str());
}

TEST(Serialize, FileExistsAndEnsureDir)
{
    EXPECT_FALSE(fileExists("/tmp/concorde_definitely_missing_file"));
    ensureDir("/tmp/concorde_test_dir/a/b");
    BinaryWriter out("/tmp/concorde_test_dir/a/b/x.bin");
    out.put<int>(1);
    EXPECT_TRUE(out.ok());
}

} // anonymous namespace
} // namespace concorde
