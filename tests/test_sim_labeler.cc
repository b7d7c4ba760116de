/**
 * @file
 * A/B gate for the simulator labeling fast path: the scratch-reusing
 * engine (simulateTrace / simulateCombined / simulateRegion) must be
 * byte-identical to the kept reference implementation
 * (simulateTraceReference) on micro-traces, sampled regions, and
 * randomized design points -- across any interleaving of regions and
 * parameters through one reused SimScratch. Also pins the combined-trace
 * caches on RegionAnalysis, the memoized Figure-11 estimate, and the
 * runaway guard.
 */

#include <gtest/gtest.h>

#include <vector>

#include "analysis/trace_analyzer.hh"
#include "analytical/feature_provider.hh"
#include "sim/o3_core.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace
{

TraceColumns
aluTrace(size_t n, int dep_dist)
{
    TraceColumns region;
    for (size_t i = 0; i < n; ++i) {
        Instruction instr;
        instr.type = InstrType::IntAlu;
        instr.pc = 0x1000 + (i % 64) * 4;
        if (dep_dist > 0 && i >= static_cast<size_t>(dep_dist))
            instr.srcDeps[0] = static_cast<int32_t>(i) - dep_dist;
        region.append(instr);
    }
    return region;
}

TraceColumns
loadTrace(size_t n, size_t lines)
{
    TraceColumns region;
    for (size_t i = 0; i < n; ++i) {
        Instruction instr;
        instr.type = InstrType::Load;
        instr.pc = 0x1000 + (i % 64) * 4;
        instr.memAddr = 0x100000 + (i % lines) * 64;
        region.append(instr);
    }
    return region;
}

/** Field-by-field exact equality, including the occupancy doubles. */
void
expectIdentical(const SimResult &a, const SimResult &b)
{
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.avgRobOccupancy, b.avgRobOccupancy);
    EXPECT_EQ(a.avgRenameQOccupancy, b.avgRenameQOccupancy);
    EXPECT_EQ(a.avgLqOccupancy, b.avgLqOccupancy);
    EXPECT_EQ(a.branchMispredicts, b.branchMispredicts);
    EXPECT_EQ(a.actualLoadLatencySum, b.actualLoadLatencySum);
    EXPECT_EQ(a.loadCount, b.loadCount);
    EXPECT_EQ(a.windowCommitCycles, b.windowCommitCycles);
}

SimResult
referenceRegion(const UarchParams &params, RegionAnalysis &analysis,
                int window_k = 0)
{
    const auto &branch_info = analysis.branches(params.branch);
    return simulateTraceReference(
        params, analysis.warmupColumns().toInstructions(),
        analysis.regionColumns().toInstructions(), branch_info.mispredict,
        window_k);
}

TEST(SimLabeler, FastMatchesReferenceOnMicroTraces)
{
    const UarchParams n1 = UarchParams::armN1();
    const std::vector<TraceColumns> regions = {
        aluTrace(4000, 0), aluTrace(4000, 1), loadTrace(4000, 512),
    };
    SimScratch scratch;
    for (const auto &region : regions) {
        const std::vector<uint8_t> flags(region.size(), 0);
        const auto warm = loadTrace(2000, 256);
        const SimResult ref = simulateTraceReference(
            n1, warm.toInstructions(), region.toInstructions(), flags);
        const SimResult fresh = simulateTrace(n1, warm, region, flags);
        const SimResult reused =
            simulateTrace(n1, warm, region, flags, 0, &scratch);
        expectIdentical(ref, fresh);
        expectIdentical(ref, reused);
    }
}

TEST(SimLabeler, FastMatchesReferenceWithMispredictsAndWindows)
{
    const UarchParams n1 = UarchParams::armN1();
    auto region = aluTrace(6000, 0);
    std::vector<uint8_t> flags(region.size(), 0);
    for (size_t i = 25; i < region.size(); i += 50) {
        region.type[i] = InstrType::Branch;
        region.branchKind[i] = BranchKind::DirectCond;
        flags[i] = 1;
    }
    SimScratch scratch;
    const SimResult ref =
        simulateTraceReference(n1, {}, region.toInstructions(), flags, 500);
    const SimResult fast =
        simulateTrace(n1, {}, region, flags, 500, &scratch);
    expectIdentical(ref, fast);
    EXPECT_EQ(fast.branchMispredicts, 120u);
    EXPECT_EQ(fast.windowCommitCycles.size(), region.size() / 500);
}

TEST(SimLabeler, ScratchReuseIdenticalAcrossInterleavedRegionsAndParams)
{
    // One scratch, reused across interleaved (region, params) pairs with
    // different trace lengths, memory geometries, and prefetch settings:
    // every run must match both a fresh-scratch run and the reference.
    Rng rng(321);
    std::vector<RegionAnalysis> analyses;
    analyses.reserve(3);
    for (int r = 0; r < 3; ++r)
        analyses.emplace_back(sampleRegion(rng, 2), 1);

    std::vector<UarchParams> params;
    params.push_back(UarchParams::armN1());
    params.push_back(UarchParams::bigCore());
    for (int d = 0; d < 4; ++d)
        params.push_back(UarchParams::sampleRandom(rng));
    params[0].memory.prefetchDegree = 4;
    params[1].memory.prefetchDegree = 0;

    SimScratch reused;
    for (int round = 0; round < 2; ++round) {
        for (size_t pi = 0; pi < params.size(); ++pi) {
            // Interleave: a different region each (round, param) visit.
            RegionAnalysis &analysis =
                analyses[(pi + static_cast<size_t>(round)) % 3];
            const SimResult ref = referenceRegion(params[pi], analysis);
            const SimResult warm_scratch =
                simulateRegion(params[pi], analysis, 0, &reused);
            const SimResult fresh =
                simulateRegion(params[pi], analysis);
            expectIdentical(ref, warm_scratch);
            expectIdentical(ref, fresh);
        }
    }
}

TEST(SimLabeler, CombinedTraceCacheMatchesPerCallRebuild)
{
    Rng rng(77);
    RegionAnalysis analysis(sampleRegion(rng, 2), 1);
    const TraceColumns &warm = analysis.warmupColumns();
    const TraceColumns &region = analysis.regionColumns();
    const TraceColumns &combined = analysis.combinedColumns();
    const size_t offset = analysis.warmupSize();
    ASSERT_GT(offset, 0u);
    ASSERT_EQ(combined.size(), offset + region.size());

    // Warmup prefix: every column equal to the warmup trace.
    TraceColumns prefix;
    prefix.appendSlice(combined, 0, offset);
    EXPECT_EQ(prefix.pc, warm.pc);
    EXPECT_EQ(prefix.memAddr, warm.memAddr);
    EXPECT_EQ(prefix.instLine, warm.instLine);
    EXPECT_EQ(prefix.srcDep0, warm.srcDep0);
    EXPECT_EQ(prefix.srcDep1, warm.srcDep1);
    EXPECT_EQ(prefix.memDep, warm.memDep);
    EXPECT_EQ(prefix.type, warm.type);
    EXPECT_EQ(prefix.branchKind, warm.branchKind);
    EXPECT_EQ(prefix.taken, warm.taken);
    EXPECT_EQ(prefix.targetId, warm.targetId);

    // Region suffix: the region's entries with every present dependency
    // shifted by warmupSize().
    auto shifted = [offset](int32_t dep) {
        return dep >= 0 ? dep + static_cast<int32_t>(offset) : dep;
    };
    for (size_t i = 0; i < region.size(); ++i) {
        const size_t j = offset + i;
        ASSERT_EQ(combined.pc[j], region.pc[i]);
        ASSERT_EQ(combined.memAddr[j], region.memAddr[i]);
        ASSERT_EQ(combined.instLine[j], region.instLine[i]);
        ASSERT_EQ(combined.srcDep0[j], shifted(region.srcDep0[i]));
        ASSERT_EQ(combined.srcDep1[j], shifted(region.srcDep1[i]));
        ASSERT_EQ(combined.memDep[j], shifted(region.memDep[i]));
        ASSERT_EQ(combined.type[j], region.type[i]);
        ASSERT_EQ(combined.branchKind[j], region.branchKind[i]);
        ASSERT_EQ(combined.taken[j], region.taken[i]);
        ASSERT_EQ(combined.targetId[j], region.targetId[i]);
    }

    // Flags: zero across the warmup, the region's mispredicts after it.
    const BranchConfig branch;
    const auto &flags = analysis.combinedFlags(branch);
    const auto &mispredict = analysis.branches(branch).mispredict;
    ASSERT_EQ(flags.size(), combined.size());
    for (size_t i = 0; i < offset; ++i)
        EXPECT_EQ(flags[i], 0);
    for (size_t i = 0; i < mispredict.size(); ++i)
        EXPECT_EQ(flags[offset + i], mispredict[i]);

    // Cached: same object on every call.
    EXPECT_EQ(&analysis.combinedColumns(), &combined);
    EXPECT_EQ(&analysis.combinedFlags(branch), &flags);
}

TEST(SimLabeler, AdoptBranchesResyncsCachedFlags)
{
    Rng rng(88);
    RegionAnalysis analysis(sampleRegion(rng, 2), 1);
    const BranchConfig branch;
    const auto &flags = analysis.combinedFlags(branch);

    BranchAnalysis replacement;
    replacement.mispredict.assign(analysis.regionSize(), 0);
    for (size_t i = 0; i < replacement.mispredict.size(); i += 7)
        replacement.mispredict[i] = 1;
    replacement.numBranches = 1;
    replacement.numMispredicts = 1;
    analysis.adoptBranches(branch, replacement);

    // Same vector object, rewritten contents.
    const auto &after = analysis.combinedFlags(branch);
    EXPECT_EQ(&after, &flags);
    const size_t warm_count = analysis.warmupSize();
    for (size_t i = 0; i < replacement.mispredict.size(); ++i)
        EXPECT_EQ(after[warm_count + i], replacement.mispredict[i]);
}

TEST(SimLabeler, EstimatedLoadLatencySumMatchesDirectLoop)
{
    Rng rng(99);
    FeatureProvider provider(sampleRegion(rng, 2));
    const MemoryConfig configs[] = {
        MemoryConfig{},
        MemoryConfig{32, 32, 512, 0},
        MemoryConfig{256, 64, 4096, 4},
    };
    for (const MemoryConfig &mem : configs) {
        const auto &dside = provider.analysis().dside(mem);
        const TraceColumns &cols = provider.analysis().regionColumns();
        uint64_t direct = 0;
        for (size_t i = 0; i < cols.size(); ++i) {
            if (cols.isLoad(i))
                direct += static_cast<uint64_t>(dside.execLat[i]);
        }
        EXPECT_EQ(provider.estimatedLoadLatencySum(mem), direct);
        // Memoized path returns the same value.
        EXPECT_EQ(provider.estimatedLoadLatencySum(mem), direct);
    }
}

TEST(SimLabelerDeathTest, RunawayGuardPanicsOnDeadlockedTrace)
{
    testing::GTEST_FLAG(death_test_style) = "threadsafe";
    // A load whose memDep points at itself never wakes: the engine makes
    // no progress and must hit the runaway panic, on both paths.
    std::vector<Instruction> rows(4);
    for (auto &instr : rows) {
        instr.type = InstrType::IntAlu;
        instr.pc = 0x1000;
    }
    rows[2].type = InstrType::Load;
    rows[2].memAddr = 0x2000;
    rows[2].memDep = 2;
    TraceColumns region;
    for (const Instruction &instr : rows)
        region.append(instr);
    const std::vector<uint8_t> flags(region.size(), 0);
    const UarchParams n1 = UarchParams::armN1();
    EXPECT_DEATH(simulateTrace(n1, {}, region, flags),
                 "simulator runaway");
    EXPECT_DEATH(simulateTraceReference(n1, {}, rows, flags),
                 "simulator runaway");
}

} // anonymous namespace
} // namespace concorde
