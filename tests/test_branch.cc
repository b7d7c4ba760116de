/**
 * @file
 * Tests for the branch predictors: Simple's calibrated randomness, TAGE's
 * learning behavior on loops / biases / history patterns, the indirect
 * last-target predictor, and the shared mispredict-flag pipeline.
 */

#include <gtest/gtest.h>

#include "branch/predictor.hh"
#include "branch/simple_bp.hh"
#include "analysis/trace_analyzer.hh"
#include "branch/tage.hh"
#include "common/rng.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace
{

double
tageMispredictRate(const std::function<bool(int, Rng &)> &pattern, int n)
{
    Tage tage;
    Rng rng(123);
    int wrong = 0;
    for (int i = 0; i < n; ++i) {
        const bool taken = pattern(i, rng);
        wrong += tage.predictAndUpdate(0x4000, taken) != taken;
    }
    return static_cast<double>(wrong) / n;
}

TEST(Tage, LearnsFixedTripLoops)
{
    // TTTTN repeating: short history captures the exit perfectly.
    const double rate = tageMispredictRate(
        [](int i, Rng &) { return (i % 5) != 4; }, 20000);
    EXPECT_LT(rate, 0.01);
}

TEST(Tage, LearnsLongerLoops)
{
    const double rate = tageMispredictRate(
        [](int i, Rng &) { return (i % 33) != 32; }, 40000);
    EXPECT_LT(rate, 0.05);
}

TEST(Tage, TracksStrongBias)
{
    const double rate = tageMispredictRate(
        [](int, Rng &rng) { return rng.nextBool(0.97); }, 30000);
    EXPECT_LT(rate, 0.05);
}

TEST(Tage, RandomBranchesNearHalf)
{
    const double rate = tageMispredictRate(
        [](int, Rng &rng) { return rng.nextBool(0.5); }, 30000);
    EXPECT_GT(rate, 0.40);
    EXPECT_LT(rate, 0.60);
}

TEST(Tage, LearnsHistoryCorrelation)
{
    // Outcome equals the outcome two branches ago: pure history pattern
    // that a bimodal predictor cannot learn.
    Tage tage;
    bool h1 = true, h2 = false;
    int wrong = 0;
    const int n = 30000;
    for (int i = 0; i < n; ++i) {
        const bool taken = h2;
        wrong += tage.predictAndUpdate(0x4000, taken) != taken;
        h2 = h1;
        h1 = taken;
    }
    EXPECT_LT(static_cast<double>(wrong) / n, 0.05);
}

TEST(Tage, ManyInterleavedBranches)
{
    Tage tage;
    Rng rng(9);
    int wrong = 0;
    const int n = 120000;
    for (int i = 0; i < n; ++i) {
        const uint64_t pc = 0x4000 + (i % 151) * 8;
        const bool biased = (pc >> 3) % 3 != 0;
        const bool taken =
            biased ? rng.nextBool(0.95) : ((i / 151) % 4 != 3);
        wrong += tage.predictAndUpdate(pc, taken) != taken;
    }
    EXPECT_LT(static_cast<double>(wrong) / n, 0.08);
}

TEST(SimpleBp, RateIsCalibrated)
{
    SimpleBp bp(20, 42);
    int wrong = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        wrong += bp.predictAndUpdate(0x4000, true) != true;
    EXPECT_NEAR(static_cast<double>(wrong) / n, 0.20, 0.01);
}

TEST(SimpleBp, ZeroRateIsPerfect)
{
    SimpleBp bp(0, 42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_TRUE(bp.predictAndUpdate(0x4000, true));
}

TEST(SimpleBp, HundredRateAlwaysWrong)
{
    SimpleBp bp(100, 42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_FALSE(bp.predictAndUpdate(0x4000, true));
}

TEST(Indirect, LastTargetPredictorRepeats)
{
    Tage tage;
    EXPECT_FALSE(tage.predictIndirect(0x8000, 3));  // cold
    EXPECT_TRUE(tage.predictIndirect(0x8000, 3));
    EXPECT_FALSE(tage.predictIndirect(0x8000, 4));  // target changed
    EXPECT_TRUE(tage.predictIndirect(0x8000, 4));
}

TEST(MispredictFlags, OnlyBranchesFlagged)
{
    RegionSpec spec{programIdByCode("S4"), 0, 0, 2};
    const auto region = generateRegion(spec);
    BranchConfig config;
    config.type = BranchConfig::Type::Tage;
    const auto flags = computeMispredicts({}, region, config, 1);
    ASSERT_EQ(flags.size(), region.size());
    for (size_t i = 0; i < region.size(); ++i) {
        if (!region.isBranch(i)) {
            EXPECT_EQ(flags[i], 0);
        }
        if (region.branchKind[i] == BranchKind::DirectUncond) {
            EXPECT_EQ(flags[i], 0) << "unconditional cannot mispredict";
        }
    }
}

TEST(MispredictFlags, DeterministicAcrossCalls)
{
    RegionSpec spec{programIdByCode("S6"), 0, 3, 2};
    const auto region = generateRegion(spec);
    BranchConfig config;
    config.type = BranchConfig::Type::Tage;
    const auto a = computeMispredicts({}, region, config, 7);
    const auto b = computeMispredicts({}, region, config, 7);
    EXPECT_EQ(a, b);
}

TEST(MispredictFlags, WarmupLowersColdMisses)
{
    RegionSpec spec{programIdByCode("S5"), 0, 8, 2};
    const auto region = generateRegion(spec);
    RegionSpec warm_spec = spec;
    warm_spec.startChunk = 6;
    const auto warmup = generateRegion(warm_spec);
    BranchConfig config;
    config.type = BranchConfig::Type::Tage;
    const auto cold = computeMispredicts({}, region, config, 7);
    const auto warm = computeMispredicts(warmup, region, config, 7);
    uint64_t cold_misses = 0, warm_misses = 0;
    for (size_t i = 0; i < region.size(); ++i) {
        cold_misses += cold[i];
        warm_misses += warm[i];
    }
    EXPECT_LE(warm_misses, cold_misses);
}

TEST(MispredictFlags, SimpleRateMatchesParameter)
{
    RegionSpec spec{programIdByCode("S10"), 0, 0, 4};
    const auto region = generateRegion(spec);
    BranchConfig config;
    config.type = BranchConfig::Type::Simple;
    config.simpleMispredictPct = 30;
    const auto flags = computeMispredicts({}, region, config, 3);
    uint64_t branches = 0, misses = 0;
    for (size_t i = 0; i < region.size(); ++i) {
        if (region.isBranch(i)
            && region.branchKind[i] != BranchKind::DirectUncond) {
            ++branches;
            misses += flags[i];
        }
    }
    EXPECT_NEAR(static_cast<double>(misses) / branches, 0.30, 0.03);
}

class RealProgramTage : public ::testing::TestWithParam<const char *>
{
};

TEST_P(RealProgramTage, RatesAreInPlausibleBand)
{
    const int pid = programIdByCode(GetParam());
    ASSERT_GE(pid, 0);
    RegionSpec spec{pid, 0, 2, 4};
    const auto region = generateRegion(spec);
    BranchConfig config;
    config.type = BranchConfig::Type::Tage;
    const auto flags = computeMispredicts({}, region, config, 5);
    uint64_t branches = 0, misses = 0;
    for (size_t i = 0; i < region.size(); ++i) {
        if (region.isBranch(i)
            && region.branchKind[i] != BranchKind::DirectUncond) {
            ++branches;
            misses += flags[i];
        }
    }
    const double rate = static_cast<double>(misses) / branches;
    EXPECT_GT(rate, 0.001);
    EXPECT_LT(rate, 0.25);
}

INSTANTIATE_TEST_SUITE_P(Programs, RealProgramTage,
                         ::testing::Values("O1", "S4", "S5", "S8", "P10",
                                           "P5", "C2"));

TEST(Tage, PredictableBeatsUnpredictableProgram)
{
    // TAGE must separate the corpus: a predictable program (O1) has a far
    // lower mispredict rate than a mispredict-heavy one (S4).
    auto rate_for = [](const char *code) {
        RegionSpec spec{programIdByCode(code), 0, 2, 4};
        RegionAnalysis analysis(spec, 1);
        BranchConfig config;
        config.type = BranchConfig::Type::Tage;
        return analysis.branches(config).mispredictRate();
    };
    EXPECT_LT(rate_for("O1") * 3.0, rate_for("S4"));
}

TEST(Tage, ColdStartWorseThanWarm)
{
    // The same branch stream predicted twice: the second pass (warm
    // tables) must not be worse.
    RegionSpec spec{programIdByCode("S6"), 0, 4, 2};
    const auto region = generateRegion(spec);
    BranchConfig config;
    config.type = BranchConfig::Type::Tage;
    const auto cold = computeMispredicts({}, region, config, 3);
    const auto warm = computeMispredicts(region, region, config, 3);
    uint64_t cold_misses = 0, warm_misses = 0;
    for (size_t i = 0; i < region.size(); ++i) {
        cold_misses += cold[i];
        warm_misses += warm[i];
    }
    EXPECT_LE(warm_misses, cold_misses);
}

TEST(Tage, ManyAliasedBranchesDegradeGracefully)
{
    // Thousands of distinct branch PCs (beyond table capacity): accuracy
    // degrades but stays above chance on biased streams.
    Tage tage;
    Rng rng(31);
    int wrong = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i) {
        const uint64_t pc = 0x10000 + (rng.next() % 6000) * 4;
        const bool taken = rng.nextBool(0.9);
        wrong += tage.predictAndUpdate(pc, taken) != taken;
    }
    EXPECT_LT(static_cast<double>(wrong) / n, 0.25);
}

} // anonymous namespace
} // namespace concorde
