/**
 * @file
 * Property-based tests: random traces drawn through the
 * ProgramModel/workloads generators and random design points, asserting
 * invariants the model promises -- analytical lower bounds below
 * simulated CPI, split-choice invariance of stitched analysis, and
 * permutation invariance of the distribution encoding.
 *
 * Every draw is seeded, so each "random" case is deterministic and a
 * failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "analytical/feature_provider.hh"
#include "common/rng.hh"
#include "common/stats.hh"
#include "golden_harness.hh"
#include "sim/o3_core.hh"
#include "trace/workloads.hh"

using namespace concorde;

namespace
{

FeatureConfig
tinyConfig()
{
    return golden::smallFeatures();
}

/** Smallest static pipeline width of a design point. */
double
staticWidth(const UarchParams &params)
{
    return std::min({static_cast<double>(params.fetchWidth),
                     static_cast<double>(params.decodeWidth),
                     static_cast<double>(params.renameWidth),
                     static_cast<double>(params.commitWidth)});
}

} // anonymous namespace

TEST(Properties, MinBoundRespectsStructuralLimits)
{
    Rng rng(2026);
    for (int draw = 0; draw < 4; ++draw) {
        const RegionSpec spec = sampleRegion(rng, 1);
        const UarchParams params = UarchParams::sampleRandom(rng);
        FeatureProvider provider(spec, tinyConfig(), 2);

        // The analytical CPI lower bound can never promise more than the
        // narrowest static stage sustains...
        const double min_bound = provider.cpiMinBound(params);
        EXPECT_GE(min_bound, 1.0 / staticWidth(params) - 1e-12)
            << "draw " << draw;
        // ...or than the global throughput cap.
        EXPECT_GE(min_bound, 1.0 / kMaxThroughput - 1e-12);

        // Adding resource bounds can only tighten the estimate: the min
        // bound dominates the CPI implied by the ROB bound alone.
        const auto &rob =
            provider.robWindows(params.robSize, params.memory);
        double rob_cpi = 0.0;
        for (double thr : rob)
            rob_cpi += 1.0 / std::max(thr, 1e-6);
        rob_cpi /= std::max<size_t>(rob.size(), 1);
        EXPECT_GE(min_bound, rob_cpi - 1e-9) << "draw " << draw;
    }
}

TEST(Properties, SimulatedCpiAtLeastAnalyticalLowerBound)
{
    // The per-window min bound is an optimistic throughput estimate
    // (paper Figure 1): the reference simulator can never beat it, and
    // can never beat the commit width either.
    Rng rng(77);
    for (int draw = 0; draw < 3; ++draw) {
        const RegionSpec spec = sampleRegion(rng, 1);
        const UarchParams params = UarchParams::sampleRandom(rng);
        FeatureProvider provider(spec, tinyConfig(), 2);
        RegionAnalysis analysis(spec, 2);

        const SimResult result = simulateRegion(params, analysis);
        ASSERT_GT(result.instructions, 0u);
        const double sim_cpi = result.cpi();
        EXPECT_GE(sim_cpi, 1.0 / params.commitWidth - 1e-12)
            << "draw " << draw;
        EXPECT_GE(sim_cpi, provider.cpiMinBound(params) - 1e-9)
            << "draw " << draw;
    }
}

TEST(Properties, StitchedAnalysisInvariantToRandomSplits)
{
    // Shard-count invariance: however a random trace is split, the
    // carried-state analysis concatenates to the same per-instruction
    // results (the randomized cousin of the exhaustive
    // BoundaryStitching test).
    Rng rng(4242);
    for (int draw = 0; draw < 3; ++draw) {
        const RegionSpec spec = sampleRegion(rng, 4);
        const UarchParams params = UarchParams::sampleRandom(rng);
        const ProgramModel &model = programModel(spec.programId);
        const auto instrs = model.generateRegion(spec).toInstructions();
        const uint64_t seed =
            branchSeedFor(spec.programId, spec.traceId, spec.startChunk);

        auto analyze = [&](const std::vector<size_t> &splits) {
            AnalyzerCarryState carry(params.memory, params.branch, seed);
            std::vector<int32_t> exec_lat;
            std::vector<uint8_t> mispredict;
            size_t at = 0;
            for (size_t size : splits) {
                const std::vector<Instruction> shard(
                    instrs.begin() + at, instrs.begin() + at + size);
                at += size;
                const DSideAnalysis d = carry.analyzeDside(shard);
                const ISideAnalysis is = carry.analyzeIside(shard);
                const BranchAnalysis b = carry.analyzeBranches(shard);
                (void)is;
                exec_lat.insert(exec_lat.end(), d.execLat.begin(),
                                d.execLat.end());
                mispredict.insert(mispredict.end(), b.mispredict.begin(),
                                  b.mispredict.end());
            }
            EXPECT_EQ(at, instrs.size());
            return std::make_pair(exec_lat, mispredict);
        };

        const auto unsplit = analyze({instrs.size()});
        // Two random chunk-aligned split points per draw.
        for (int trial = 0; trial < 2; ++trial) {
            const size_t cut = kChunkLen
                * (1 + rng.nextBounded(spec.numChunks - 1));
            const auto split = analyze({cut, instrs.size() - cut});
            EXPECT_EQ(split.first, unsplit.first);
            EXPECT_EQ(split.second, unsplit.second);
        }
    }
}

TEST(Properties, EncoderPermutationInvariance)
{
    // The CDF encoding is a function of the sample multiset; the model
    // promises order blindness. Percentiles sort internally (exact);
    // the mean is a sum whose rounding may differ across orders, so the
    // comparison allows for round-off.
    Rng rng(99);
    DistributionEncoder encoder(7);
    for (int draw = 0; draw < 4; ++draw) {
        const size_t n = 1 + rng.nextBounded(300);
        std::vector<double> samples(n);
        for (auto &x : samples)
            x = rng.nextDouble() * 40.0;

        std::vector<float> base;
        encoder.encode(samples, base);

        std::vector<double> shuffled = samples;
        for (size_t i = shuffled.size(); i > 1; --i)
            std::swap(shuffled[i - 1], shuffled[rng.nextBounded(i)]);
        std::vector<float> enc;
        encoder.encode(shuffled, enc);

        ASSERT_EQ(enc.size(), base.size());
        for (size_t i = 0; i < base.size(); ++i) {
            EXPECT_NEAR(enc[i], base[i],
                        1e-5 * std::abs(base[i]) + 1e-6)
                << "component " << i;
        }
    }
}

TEST(Properties, TraceGenerationIsDeterministic)
{
    // A region is a pure function of (program seed, trace id, chunk
    // range): regenerating it yields identical instructions, which is
    // what lets the pipeline shard without materializing the trace.
    Rng rng(31);
    for (int draw = 0; draw < 3; ++draw) {
        const RegionSpec spec = sampleRegion(rng, 2);
        const ProgramModel &model = programModel(spec.programId);
        const auto a = model.generateRegion(spec);
        const auto b = model.generateRegion(spec);
        ASSERT_EQ(a.size(), b.size());
        ASSERT_EQ(a.size(), spec.numInstructions());
        EXPECT_EQ(a.pc, b.pc);
        EXPECT_EQ(a.memAddr, b.memAddr);
        EXPECT_EQ(a.type, b.type);
    }
}
