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
