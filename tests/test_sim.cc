/**
 * @file
 * Tests for the reference cycle-level simulator: width/latency laws on
 * micro-traces, parameter sensitivity directions, and statistics.
 */

#include <gtest/gtest.h>

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

SimResult
simPlain(const UarchParams &params, const TraceColumns &warmup,
         const TraceColumns &region)
{
    return simulateTrace(params, warmup, region,
                         std::vector<uint8_t>(region.size(), 0));
}

TEST(Sim, IndependentAlusReachIssueWidth)
{
    const UarchParams n1 = UarchParams::armN1();
    const SimResult result = simPlain(n1, {}, aluTrace(16000, 0));
    EXPECT_NEAR(result.ipc(), 3.0, 0.5);    // ALU width 3
}

TEST(Sim, SerialChainRunsAtUnitLatency)
{
    const UarchParams n1 = UarchParams::armN1();
    const SimResult result = simPlain(n1, {}, aluTrace(16000, 1));
    EXPECT_NEAR(result.ipc(), 1.0, 0.1);
}

TEST(Sim, BigCoreReachesEightWideAlu)
{
    const SimResult result =
        simPlain(UarchParams::bigCore(), {}, aluTrace(16000, 0));
    EXPECT_NEAR(result.ipc(), 8.0, 1.0);
}

TEST(Sim, CommitWidthCapsIpc)
{
    UarchParams p = UarchParams::bigCore();
    p.commitWidth = 2;
    const SimResult result = simPlain(p, {}, aluTrace(16000, 0));
    EXPECT_LE(result.ipc(), 2.05);
    EXPECT_GT(result.ipc(), 1.5);
}

TEST(Sim, RobOfOneSerializes)
{
    UarchParams p = UarchParams::armN1();
    p.robSize = 1;
    const SimResult result = simPlain(p, {}, aluTrace(8000, 0));
    EXPECT_LE(result.ipc(), 1.0);
}

TEST(Sim, WarmLoadsReachLsWidth)
{
    const UarchParams n1 = UarchParams::armN1();
    const auto warm = loadTrace(16000, 512);
    const SimResult result = simPlain(n1, warm, loadTrace(16000, 512));
    EXPECT_NEAR(result.ipc(), 2.0, 0.1);    // LS width 2
}

TEST(Sim, LoadQueueOfOneSerializesLoads)
{
    UarchParams p = UarchParams::armN1();
    p.lqSize = 1;
    const auto warm = loadTrace(8000, 256);
    const SimResult result = simPlain(p, warm, loadTrace(8000, 256));
    // One load at a time at L1 latency 4 (plus pipeline slack).
    EXPECT_LT(result.ipc(), 0.35);
}

TEST(Sim, LoadPipesRelieveLsWidth)
{
    UarchParams p = UarchParams::armN1();
    p.lsWidth = 4;
    p.lqSize = 64;
    const auto warm = loadTrace(16000, 512);
    const SimResult two_pipes = simPlain(p, warm, loadTrace(16000, 512));
    p.loadPipes = 4;
    const SimResult with_lp = simPlain(p, warm, loadTrace(16000, 512));
    EXPECT_GT(with_lp.ipc(), two_pipes.ipc() * 1.3);
}

TEST(Sim, MispredictsCostCycles)
{
    const UarchParams n1 = UarchParams::armN1();
    auto region = aluTrace(8000, 0);
    for (size_t i = 25; i < region.size(); i += 50) {
        region.type[i] = InstrType::Branch;
        region.branchKind[i] = BranchKind::DirectCond;
    }
    std::vector<uint8_t> clean(region.size(), 0);
    std::vector<uint8_t> noisy(region.size(), 0);
    for (size_t i = 25; i < region.size(); i += 50)
        noisy[i] = 1;
    const SimResult good = simulateTrace(n1, {}, region, clean);
    const SimResult bad = simulateTrace(n1, {}, region, noisy);
    EXPECT_GT(bad.cpi(), good.cpi() * 1.3);
    EXPECT_EQ(bad.branchMispredicts, 160u);
}

TEST(Sim, IsbsDrainThePipeline)
{
    const UarchParams n1 = UarchParams::armN1();
    auto region = aluTrace(8000, 0);
    auto with_isb = region;
    for (size_t i = 32; i < with_isb.size(); i += 64)
        with_isb.type[i] = InstrType::Isb;
    const SimResult base = simPlain(n1, {}, region);
    const SimResult drained = simPlain(n1, {}, with_isb);
    EXPECT_GT(drained.cpi(), base.cpi() * 1.15);
}

TEST(Sim, StoreForwardingBeatsCacheMiss)
{
    const UarchParams n1 = UarchParams::armN1();
    // Loads that read a just-written address; forwarding keeps them fast
    // even though the lines are cold.
    TraceColumns region;
    for (size_t i = 0; i < 8000; ++i) {
        Instruction instr;
        instr.pc = 0x1000 + (i % 64) * 4;
        if (i % 2 == 0) {
            instr.type = InstrType::Store;
            instr.memAddr = 0x4000000 + i * 64;
        } else {
            instr.type = InstrType::Load;
            instr.memAddr = region.memAddr[i - 1];
            instr.memDep = static_cast<int32_t>(i - 1);
        }
        region.append(instr);
    }
    const SimResult forwarded = simPlain(n1, {}, region);
    auto no_fwd = region;
    no_fwd.memDep.assign(no_fwd.size(), -1);
    const SimResult direct = simPlain(n1, {}, no_fwd);
    EXPECT_LT(forwarded.cpi(), direct.cpi());
}

TEST(Sim, FetchBuffersHelpIcachePressure)
{
    // Large code footprint: more fetch buffers overlap line fetches.
    RegionSpec spec{programIdByCode("S3"), 0, 2, 2};
    RegionAnalysis analysis(spec, 1);
    UarchParams p = UarchParams::armN1();
    p.fetchBuffers = 1;
    const SimResult one = simulateRegion(p, analysis);
    p.fetchBuffers = 8;
    const SimResult eight = simulateRegion(p, analysis);
    EXPECT_LT(eight.cpi(), one.cpi());
}

TEST(Sim, BiggerCachesNeverMuchWorse)
{
    RegionSpec spec{programIdByCode("S1"), 0, 4, 2};
    RegionAnalysis analysis(spec, 1);
    UarchParams p = UarchParams::armN1();
    p.memory.l1dKb = 16;
    p.memory.l2Kb = 512;
    const SimResult small_caches = simulateRegion(p, analysis);
    p.memory.l1dKb = 256;
    p.memory.l2Kb = 4096;
    const SimResult big_caches = simulateRegion(p, analysis);
    EXPECT_LT(big_caches.cpi(), small_caches.cpi() * 1.02);
}

TEST(Sim, DeterministicResults)
{
    RegionSpec spec{programIdByCode("P7"), 0, 6, 2};
    RegionAnalysis a(spec, 1), b(spec, 1);
    const UarchParams n1 = UarchParams::armN1();
    const SimResult ra = simulateRegion(n1, a);
    const SimResult rb = simulateRegion(n1, b);
    EXPECT_EQ(ra.cycles, rb.cycles);
    EXPECT_EQ(ra.branchMispredicts, rb.branchMispredicts);
}

TEST(Sim, StatisticsAreSane)
{
    RegionSpec spec{programIdByCode("P6"), 0, 2, 2};
    RegionAnalysis analysis(spec, 1);
    const SimResult result =
        simulateRegion(UarchParams::armN1(), analysis);
    EXPECT_EQ(result.instructions, analysis.regionSize());
    EXPECT_GT(result.cycles, 0u);
    EXPECT_GT(result.avgRobOccupancy, 0.0);
    EXPECT_LE(result.avgRobOccupancy, 100.0);
    EXPECT_GE(result.avgRenameQOccupancy, 0.0);
    EXPECT_LE(result.avgRenameQOccupancy, 100.0);
    EXPECT_GT(result.loadCount, 0u);
    EXPECT_GT(result.actualLoadLatencySum, 0u);
}

TEST(Sim, IpcNeverExceedsStaticWidths)
{
    Rng rng(11);
    for (int trial = 0; trial < 5; ++trial) {
        const RegionSpec spec = sampleRegion(rng, 2);
        RegionAnalysis analysis(spec, 1);
        const UarchParams p = UarchParams::sampleRandom(rng);
        const SimResult result = simulateRegion(p, analysis);
        const double width_cap = std::min(
            {static_cast<double>(p.commitWidth),
             static_cast<double>(p.fetchWidth),
             static_cast<double>(p.decodeWidth),
             static_cast<double>(p.renameWidth)});
        EXPECT_LE(result.ipc(), width_cap + 1e-9);
    }
}

TEST(Sim, WarmupExcludedFromStats)
{
    RegionSpec spec{programIdByCode("P3"), 0, 4, 2};
    RegionAnalysis analysis(spec, 1);
    const SimResult result =
        simulateRegion(UarchParams::armN1(), analysis);
    EXPECT_EQ(result.instructions, spec.numInstructions());
}

TEST(Sim, WindowCommitCyclesTrackCpi)
{
    RegionSpec spec{programIdByCode("P8"), 0, 2, 2};
    RegionAnalysis analysis(spec, 1);
    const SimResult result =
        simulateRegion(UarchParams::armN1(), analysis, 400);
    ASSERT_EQ(result.windowCommitCycles.size(),
              spec.numInstructions() / 400);
    // Boundaries are strictly increasing and end near the total cycles.
    for (size_t j = 1; j < result.windowCommitCycles.size(); ++j) {
        EXPECT_GT(result.windowCommitCycles[j],
                  result.windowCommitCycles[j - 1]);
    }
    EXPECT_LE(result.windowCommitCycles.back(), result.cycles);
    EXPECT_GT(result.windowCommitCycles.back(),
              result.cycles * 9 / 10);
}

TEST(Sim, MaxIcacheFillsMatterUnderPressure)
{
    // Instruction-cache-hostile program: more outstanding fills help.
    RegionSpec spec{programIdByCode("S3"), 0, 6, 2};
    RegionAnalysis analysis(spec, 1);
    UarchParams p = UarchParams::armN1();
    p.fetchBuffers = 8;
    p.maxIcacheFills = 1;
    const SimResult one = simulateRegion(p, analysis);
    p.maxIcacheFills = 32;
    const SimResult many = simulateRegion(p, analysis);
    EXPECT_LE(many.cpi(), one.cpi());
}

TEST(Sim, SimpleBpPercentScalesPenalty)
{
    RegionSpec spec{programIdByCode("S5"), 0, 10, 2};
    RegionAnalysis analysis(spec, 1);
    UarchParams p = UarchParams::armN1();
    p.branch.type = BranchConfig::Type::Simple;
    p.branch.simpleMispredictPct = 0;
    const SimResult perfect = simulateRegion(p, analysis);
    p.branch.simpleMispredictPct = 50;
    const SimResult noisy = simulateRegion(p, analysis);
    EXPECT_GT(noisy.cpi(), perfect.cpi() * 1.3);
}

TEST(Sim, PrefetchHelpsStreamingWorkload)
{
    RegionSpec spec{programIdByCode("P5"), 0, 8, 2};
    RegionAnalysis analysis(spec, 1);
    UarchParams p = UarchParams::armN1();
    p.memory.prefetchDegree = 0;
    const SimResult off = simulateRegion(p, analysis);
    p.memory.prefetchDegree = 4;
    const SimResult on = simulateRegion(p, analysis);
    EXPECT_LT(on.cpi(), off.cpi());
}

class SimRandomDesigns : public ::testing::TestWithParam<int>
{
};

TEST_P(SimRandomDesigns, AlwaysTerminatesWithSaneCpi)
{
    Rng rng(5000 + GetParam());
    const RegionSpec spec = sampleRegion(rng, 2);
    RegionAnalysis analysis(spec, 1);
    const UarchParams params = UarchParams::sampleRandom(rng);
    const SimResult result = simulateRegion(params, analysis);
    EXPECT_GT(result.cpi(), 0.05);
    EXPECT_LT(result.cpi(), 1500.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, SimRandomDesigns, ::testing::Range(0, 8));

} // anonymous namespace
} // namespace concorde
