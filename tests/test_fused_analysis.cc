/**
 * @file
 * Tests for the fused cold analysis path: the columnar trace layout, the
 * single-sweep d/i/branch analysis (RegionAnalysis::analyzeAll and
 * AnalyzerCarryState::analyzeShard), and the multi-size ROB-model sweep
 * feeding FeatureProvider's batched cache fill. Every fused path must be
 * bitwise-identical to its legacy per-side / per-size counterpart.
 */

#include <gtest/gtest.h>

#include "analysis/trace_analyzer.hh"
#include "analytical/feature_provider.hh"
#include "analytical/rob_model.hh"
#include "trace/program_model.hh"
#include "trace/workloads.hh"
#include "uarch/params.hh"

namespace concorde
{
namespace
{

RegionSpec
testRegion(const char *code, uint64_t start_chunk, uint32_t num_chunks)
{
    RegionSpec spec;
    spec.programId = programIdByCode(code);
    spec.traceId = 0;
    spec.startChunk = start_chunk;
    spec.numChunks = num_chunks;
    return spec;
}

void
expectStatsEqual(const HierarchyStats &a, const HierarchyStats &b)
{
    EXPECT_EQ(a.l1Hits, b.l1Hits);
    EXPECT_EQ(a.l2Hits, b.l2Hits);
    EXPECT_EQ(a.llcHits, b.llcHits);
    EXPECT_EQ(a.ramAccesses, b.ramAccesses);
    EXPECT_EQ(a.prefetchesIssued, b.prefetchesIssued);
    EXPECT_EQ(a.writebacks, b.writebacks);
}

void
expectShardEqual(const ShardAnalyses &fused, const DSideAnalysis &d,
                 const ISideAnalysis &i, const BranchAnalysis &b)
{
    EXPECT_EQ(fused.dside.execLat, d.execLat);
    EXPECT_EQ(fused.dside.loadLevel, d.loadLevel);
    expectStatsEqual(fused.dside.stats, d.stats);
    EXPECT_EQ(fused.iside.newLine, i.newLine);
    EXPECT_EQ(fused.iside.lineLat, i.lineLat);
    expectStatsEqual(fused.iside.stats, i.stats);
    EXPECT_EQ(fused.branches.mispredict, b.mispredict);
    EXPECT_EQ(fused.branches.numBranches, b.numBranches);
    EXPECT_EQ(fused.branches.numMispredicts, b.numMispredicts);
}

} // anonymous namespace

// The fused carried-state sweep must reproduce the three legacy per-side
// passes shard by shard, across programs, configurations, and carried
// hierarchy/predictor state (including the warmup replay).
TEST(FusedCarryState, AnalyzeShardMatchesPerSidePasses)
{
    MemoryConfig small;
    small.l1dKb = 16;
    small.l1iKb = 16;
    small.l2Kb = 512;
    small.prefetchDegree = 4;

    const MemoryConfig configs[] = {MemoryConfig{}, small};
    const char *programs[] = {"S7", "P1"};

    for (const char *code : programs) {
        for (const MemoryConfig &mem : configs) {
            const uint64_t start = 16;
            const ProgramModel &model =
                programModel(programIdByCode(code));
            const TraceColumns warm = model.generateRegion(
                testRegion(code, start - 1, 1));

            BranchConfig branch;    // TAGE: carried predictor state
            const uint64_t seed =
                branchSeedFor(programIdByCode(code), 0, start);
            AnalyzerCarryState fused(mem, branch, seed);
            AnalyzerCarryState legacy(mem, branch, seed);
            fused.warm(warm);
            legacy.warm(warm.toInstructions());

            for (int shard_i = 0; shard_i < 3; ++shard_i) {
                const TraceColumns shard = model.generateRegion(
                    testRegion(code, start + shard_i, 1));
                const ShardAnalyses all = fused.analyzeShard(shard);
                const std::vector<Instruction> rows =
                    shard.toInstructions();
                const DSideAnalysis d = legacy.analyzeDside(rows);
                const ISideAnalysis i = legacy.analyzeIside(rows);
                const BranchAnalysis b = legacy.analyzeBranches(rows);
                expectShardEqual(all, d, i, b);
            }
        }
    }
}

// analyzeAll()'s one-pass fill must memoize exactly what the three lazy
// per-side getters would have computed.
TEST(FusedRegionAnalysis, AnalyzeAllMatchesPerSideAnalyses)
{
    const RegionSpec spec = testRegion("S7", 16, 2);
    MemoryConfig mem;
    BranchConfig branch;

    RegionAnalysis fused(spec);
    RegionAnalysis legacy(spec);

    fused.analyzeAll(mem, branch);
    EXPECT_EQ(fused.numDsideAnalyses(), 1u);
    EXPECT_EQ(fused.numIsideAnalyses(), 1u);
    EXPECT_EQ(fused.numBranchAnalyses(), 1u);

    const DSideAnalysis &fd = fused.dside(mem);
    const ISideAnalysis &fi = fused.iside(mem);
    const BranchAnalysis &fb = fused.branches(branch);
    // Reading back memoized sides must not trigger new analyses.
    EXPECT_EQ(fused.numDsideAnalyses(), 1u);
    EXPECT_EQ(fused.numIsideAnalyses(), 1u);
    EXPECT_EQ(fused.numBranchAnalyses(), 1u);

    const DSideAnalysis &ld = legacy.dside(mem);
    const ISideAnalysis &li = legacy.iside(mem);
    const BranchAnalysis &lb = legacy.branches(branch);

    EXPECT_EQ(fd.execLat, ld.execLat);
    EXPECT_EQ(fd.loadLevel, ld.loadLevel);
    expectStatsEqual(fd.stats, ld.stats);
    EXPECT_EQ(fi.newLine, li.newLine);
    EXPECT_EQ(fi.lineLat, li.lineLat);
    expectStatsEqual(fi.stats, li.stats);
    EXPECT_EQ(fb.mispredict, lb.mispredict);
    EXPECT_EQ(fb.numBranches, lb.numBranches);
    EXPECT_EQ(fb.numMispredicts, lb.numMispredicts);
}

// Incremental sweep re-analysis: design points sharing a d-side, i-side,
// or branch key must share the memoized analysis instead of re-sweeping.
TEST(FusedRegionAnalysis, SweepConfigsShareSides)
{
    const RegionSpec spec = testRegion("S7", 16, 1);
    RegionAnalysis analysis(spec);

    BranchConfig tage;
    for (uint32_t l1d : {32u, 64u}) {
        for (uint32_t l1i : {32u, 64u}) {
            MemoryConfig mem;
            mem.l1dKb = l1d;
            mem.l1iKb = l1i;
            analysis.analyzeAll(mem, tage);
        }
    }
    // 4 design points -> 2 distinct d-side keys, 2 i-side keys, 1
    // predictor.
    EXPECT_EQ(analysis.numDsideAnalyses(), 2u);
    EXPECT_EQ(analysis.numIsideAnalyses(), 2u);
    EXPECT_EQ(analysis.numBranchAnalyses(), 1u);

    // A new branch config only adds a branch analysis.
    BranchConfig simple;
    simple.type = BranchConfig::Type::Simple;
    analysis.analyzeAll(MemoryConfig{}, simple);
    EXPECT_EQ(analysis.numDsideAnalyses(), 2u);
    EXPECT_EQ(analysis.numIsideAnalyses(), 2u);
    EXPECT_EQ(analysis.numBranchAnalyses(), 2u);
}

// The row record must round-trip through the columns losslessly: the
// reference oracles read toInstructions() output, so a lossy get() would
// weaken every A/B gate against them.
TEST(TraceColumnsLayout, RowRoundTripIsLossless)
{
    const RegionSpec spec = testRegion("P1", 7, 1);
    const TraceColumns cols = generateRegion(spec);

    // Derived line index matches its definition.
    for (size_t i = 0; i < cols.size(); ++i)
        ASSERT_EQ(cols.instLine[i], cols.pc[i] >> 6);

    const std::vector<Instruction> rows = cols.toInstructions();
    ASSERT_EQ(rows.size(), cols.size());
    TraceColumns again;
    for (const Instruction &instr : rows)
        again.append(instr);
    EXPECT_EQ(again.pc, cols.pc);
    EXPECT_EQ(again.memAddr, cols.memAddr);
    EXPECT_EQ(again.instLine, cols.instLine);
    EXPECT_EQ(again.srcDep0, cols.srcDep0);
    EXPECT_EQ(again.srcDep1, cols.srcDep1);
    EXPECT_EQ(again.memDep, cols.memDep);
    EXPECT_EQ(again.type, cols.type);
    EXPECT_EQ(again.branchKind, cols.branchKind);
    EXPECT_EQ(again.taken, cols.taken);
    EXPECT_EQ(again.targetId, cols.targetId);
}

// The multi-size ROB sweep must be bitwise-identical to back-to-back
// single-size runs, including the optional stage-latency collection.
TEST(RobSweep, MatchesPerSizeRuns)
{
    const RegionSpec spec = testRegion("S7", 16, 1);
    RegionAnalysis analysis(spec);
    const MemoryConfig mem;
    const DSideAnalysis &dside = analysis.dside(mem);

    const std::vector<RobSweepRequest> requests = {
        {1, true}, {4, false}, {16, true}, {64, false},
        {200, false}, {1024, true},
    };
    const std::vector<RobModelResult> sweep = runRobModelSweep(
        analysis.regionColumns(), analysis.loadIndex(), dside.execLat,
        requests, kDefaultWindowK);
    ASSERT_EQ(sweep.size(), requests.size());

    for (size_t i = 0; i < requests.size(); ++i) {
        const RobModelResult single = runRobModel(
            analysis.regionColumns(), analysis.loadIndex(), dside.execLat,
            requests[i].robSize, kDefaultWindowK,
            requests[i].collectLatencies);
        EXPECT_EQ(sweep[i].windowThroughput, single.windowThroughput);
        EXPECT_EQ(sweep[i].overallIpc, single.overallIpc);
        EXPECT_EQ(sweep[i].issueLat, single.issueLat);
        EXPECT_EQ(sweep[i].execLat, single.execLat);
        EXPECT_EQ(sweep[i].commitLat, single.commitLat);
        if (!requests[i].collectLatencies) {
            EXPECT_TRUE(sweep[i].issueLat.empty());
        }
    }
}

// FeatureProvider's batched cache fill: one cold assemble populates every
// entry a design point touches, so the warm repeat runs zero models and
// produces a bitwise-identical feature vector; a genuinely new ROB size
// falls back to exactly one extra run.
TEST(RobSweep, EnsureRobEntriesMemoizesAcrossAssembles)
{
    FeatureConfig cfg;
    cfg.numPercentiles = 5;
    cfg.robSweep = {4, 64};
    cfg.latencyRobSizes = {4, 64};

    FeatureProvider provider(testRegion("S7", 16, 1), cfg);
    const UarchParams params = UarchParams::armN1();

    std::vector<float> cold;
    provider.assemble(params, cold);
    const size_t cold_runs = provider.modelRuns();
    EXPECT_GT(cold_runs, 0u);

    std::vector<float> warmed;
    provider.assemble(params, warmed);
    EXPECT_EQ(provider.modelRuns(), cold_runs);
    EXPECT_EQ(cold, warmed);

    // A ROB size outside every configured list costs exactly one more
    // model run (the per-size fallback path).
    UarchParams bigger = params;
    bigger.robSize = 200;
    std::vector<float> other;
    provider.assemble(bigger, other);
    EXPECT_EQ(provider.modelRuns(), cold_runs + 1);
}

} // namespace concorde
