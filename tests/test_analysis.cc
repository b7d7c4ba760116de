/**
 * @file
 * Tests for trace analysis (Section 3.1) and Algorithm 1's memory state
 * machine, including the paper's worked same-cache-line example.
 */

#include <gtest/gtest.h>

#include <initializer_list>

#include "analysis/memory_state_machine.hh"
#include "analysis/trace_analyzer.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace
{

Instruction
makeLoad(uint64_t addr)
{
    Instruction instr;
    instr.type = InstrType::Load;
    instr.memAddr = addr;
    return instr;
}

Instruction
makeAlu()
{
    Instruction instr;
    instr.type = InstrType::IntAlu;
    return instr;
}

TraceColumns
traceOf(std::initializer_list<Instruction> instrs)
{
    TraceColumns cols;
    for (const Instruction &instr : instrs)
        cols.append(instr);
    return cols;
}

TEST(LoadLineIndex, CsrIntegrity)
{
    const TraceColumns region = traceOf({
        makeLoad(0x1000), makeAlu(), makeLoad(0x1008), makeLoad(0x2000),
        makeAlu(), makeLoad(0x1010),
    });
    const auto index = LoadLineIndex::build(region);
    EXPECT_EQ(index.numLines, 2u);
    EXPECT_EQ(index.lineIdOf[1], -1);
    EXPECT_EQ(index.lineIdOf[0], index.lineIdOf[2]);
    EXPECT_EQ(index.lineIdOf[0], index.lineIdOf[5]);
    EXPECT_NE(index.lineIdOf[0], index.lineIdOf[3]);

    // Every load appears exactly once, in trace order, in its line list.
    const int32_t lid = index.lineIdOf[0];
    const uint32_t begin = index.lineStart[lid];
    const uint32_t end = index.lineStart[lid + 1];
    ASSERT_EQ(end - begin, 3u);
    EXPECT_EQ(index.loadList[begin], 0u);
    EXPECT_EQ(index.loadList[begin + 1], 2u);
    EXPECT_EQ(index.loadList[begin + 2], 5u);
}

TEST(MemoryStateMachine, PaperSameLineExample)
{
    // Two loads to one line; in-order cache sim said [RAM=200, L1=4].
    // Issued at cycles 0 and 1: both must complete at ~200 (the second
    // waits for the first fill) -- the motivating example of Section 3.1.
    const TraceColumns region = traceOf({makeLoad(0x5000), makeLoad(0x5008)});
    std::vector<int32_t> exec_lat = {200, 4};
    const auto index = LoadLineIndex::build(region);
    MemoryStateMachine machine(index, exec_lat);

    const uint64_t first = machine.respCycle(0, 0, region.isLoad(0));
    EXPECT_EQ(first, 200u);
    const uint64_t second = machine.respCycle(1, 1, region.isLoad(1));
    EXPECT_EQ(second, 200u) << "same-line response must not precede fill";
}

TEST(MemoryStateMachine, ResponsesNonDecreasingPerLine)
{
    TraceColumns region;
    std::vector<int32_t> exec_lat;
    Rng rng(3);
    for (int i = 0; i < 200; ++i) {
        region.append(makeLoad(0x7000 + (i % 4) * 64));
        exec_lat.push_back(static_cast<int32_t>(rng.nextBounded(200)) + 4);
    }
    const auto index = LoadLineIndex::build(region);
    MemoryStateMachine machine(index, exec_lat);
    std::map<uint64_t, uint64_t> last_resp;
    uint64_t req = 0;
    for (size_t i = 0; i < region.size(); ++i) {
        req += rng.nextBounded(5);
        const uint64_t resp = machine.respCycle(req, i, region.isLoad(i));
        auto [it, inserted] =
            last_resp.try_emplace(region.dataLine(i), resp);
        if (!inserted) {
            EXPECT_GE(resp, it->second);
            it->second = resp;
        }
    }
}

TEST(MemoryStateMachine, NonLoadsPassThrough)
{
    const TraceColumns region = traceOf({makeAlu()});
    std::vector<int32_t> exec_lat = {7};
    const auto index = LoadLineIndex::build(region);
    MemoryStateMachine machine(index, exec_lat);
    EXPECT_EQ(machine.respCycle(10, 0, region.isLoad(0)), 17u);
}

TEST(MemoryStateMachine, ResetClearsState)
{
    const TraceColumns region = traceOf({makeLoad(0x5000), makeLoad(0x5008)});
    std::vector<int32_t> exec_lat = {200, 4};
    const auto index = LoadLineIndex::build(region);
    MemoryStateMachine machine(index, exec_lat);
    machine.respCycle(0, 0, region.isLoad(0));
    machine.respCycle(1, 1, region.isLoad(1));
    machine.reset();
    EXPECT_EQ(machine.respCycle(0, 0, region.isLoad(0)), 200u);
}

TEST(MemoryStateMachine, AccessCountersFollowConsumptionOrder)
{
    // Three same-line loads with in-order latencies [200, 4, 4]: the state
    // machine hands out latencies by access number, so a later request
    // still gets the right exec time.
    const TraceColumns region = traceOf(
        {makeLoad(0x9000), makeLoad(0x9008), makeLoad(0x9010)});
    std::vector<int32_t> exec_lat = {200, 4, 4};
    const auto index = LoadLineIndex::build(region);
    MemoryStateMachine machine(index, exec_lat);
    EXPECT_EQ(machine.respCycle(0, 0, region.isLoad(0)), 200u);
    // Issued long after the fill: plain L1 hit.
    EXPECT_EQ(machine.respCycle(500, 1, region.isLoad(1)), 504u);
    EXPECT_EQ(machine.respCycle(600, 2, region.isLoad(2)), 604u);
}

TEST(RegionAnalysis, ExecLatenciesMatchLevels)
{
    RegionSpec spec{programIdByCode("S7"), 0, 2, 2};
    RegionAnalysis analysis(spec, 1);
    const auto &dside = analysis.dside(MemoryConfig{});
    const TraceColumns &region = analysis.regionColumns();
    ASSERT_EQ(dside.execLat.size(), region.size());
    for (size_t i = 0; i < region.size(); ++i) {
        if (region.isLoad(i)) {
            EXPECT_EQ(dside.execLat[i], loadLatency(dside.loadLevel[i]));
        } else {
            EXPECT_EQ(dside.execLat[i], fixedLatency(region.type[i]));
        }
    }
}

TEST(RegionAnalysis, IsideNewLineFlags)
{
    RegionSpec spec{programIdByCode("O2"), 0, 0, 1};
    RegionAnalysis analysis(spec, 0);
    const auto &iside = analysis.iside(MemoryConfig{});
    const TraceColumns &region = analysis.regionColumns();
    EXPECT_EQ(iside.newLine[0], 1);
    for (size_t i = 1; i < region.size(); ++i) {
        if (region.instLine[i] == region.instLine[i - 1])
            EXPECT_EQ(iside.newLine[i], 0);
        else
            EXPECT_EQ(iside.newLine[i], 1);
        if (!iside.newLine[i]) {
            EXPECT_EQ(iside.lineLat[i], kL1iHitLat);
        }
    }
}

TEST(RegionAnalysis, MemoizationPerConfig)
{
    RegionSpec spec{programIdByCode("P8"), 0, 4, 2};
    RegionAnalysis analysis(spec, 1);
    MemoryConfig a;         // default 64/64/1024/off
    MemoryConfig b;
    b.l1dKb = 256;

    const auto *first = &analysis.dside(a);
    const auto *again = &analysis.dside(a);
    EXPECT_EQ(first, again) << "same config must be memoized";
    EXPECT_EQ(analysis.numDsideAnalyses(), 1u);
    analysis.dside(b);
    EXPECT_EQ(analysis.numDsideAnalyses(), 2u);

    // L1i size does not affect the d-side key.
    MemoryConfig c;
    c.l1iKb = 256;
    analysis.dside(c);
    EXPECT_EQ(analysis.numDsideAnalyses(), 2u);
}

TEST(RegionAnalysis, BiggerCachesFasterLoads)
{
    RegionSpec spec{programIdByCode("S1"), 0, 8, 4};
    RegionAnalysis analysis(spec, 1);
    MemoryConfig small_cfg, big_cfg;
    small_cfg.l1dKb = 16;
    small_cfg.l2Kb = 512;
    big_cfg.l1dKb = 256;
    big_cfg.l2Kb = 4096;
    uint64_t small_sum = 0, big_sum = 0;
    const auto &small_side = analysis.dside(small_cfg);
    const auto &big_side = analysis.dside(big_cfg);
    for (size_t i = 0; i < analysis.regionSize(); ++i) {
        if (analysis.regionColumns().isLoad(i)) {
            small_sum += small_side.execLat[i];
            big_sum += big_side.execLat[i];
        }
    }
    EXPECT_LT(big_sum, small_sum);
}

TEST(RegionAnalysis, PrefetchImprovesStreamingLoads)
{
    RegionSpec spec{programIdByCode("P5"), 0, 4, 4};
    RegionAnalysis analysis(spec, 1);
    MemoryConfig off, on;
    on.prefetchDegree = 4;
    uint64_t off_sum = 0, on_sum = 0;
    const auto &off_side = analysis.dside(off);
    const auto &on_side = analysis.dside(on);
    for (size_t i = 0; i < analysis.regionSize(); ++i) {
        if (analysis.regionColumns().isLoad(i)) {
            off_sum += off_side.execLat[i];
            on_sum += on_side.execLat[i];
        }
    }
    EXPECT_LT(on_sum, off_sum);
}

TEST(RegionAnalysis, BranchConfigsMemoizedSeparately)
{
    RegionSpec spec{programIdByCode("S2"), 0, 2, 2};
    RegionAnalysis analysis(spec, 1);
    BranchConfig tage;
    tage.type = BranchConfig::Type::Tage;
    BranchConfig simple;
    simple.type = BranchConfig::Type::Simple;
    simple.simpleMispredictPct = 10;

    const auto &t = analysis.branches(tage);
    const auto &s = analysis.branches(simple);
    EXPECT_EQ(analysis.numBranchAnalyses(), 2u);
    EXPECT_GT(t.numBranches, 0u);
    EXPECT_EQ(t.numBranches, s.numBranches);
    EXPECT_NEAR(s.mispredictRate(), 0.10, 0.03);
}

TEST(RegionAnalysis, WarmupComesFromPrecedingChunks)
{
    RegionSpec spec{programIdByCode("P1"), 0, 5, 2};
    RegionAnalysis analysis(spec, 2);
    EXPECT_EQ(analysis.warmupSize(), 2u * kChunkLen);
    // Warmup content equals chunks 3..4 of the same trace.
    RegionSpec warm{spec.programId, spec.traceId, 3, 2};
    const TraceColumns expect = generateRegion(warm);
    EXPECT_EQ(analysis.warmupColumns().pc, expect.pc);
}

} // anonymous namespace
} // namespace concorde
