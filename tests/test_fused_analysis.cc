/**
 * @file
 * Tests for the cold analysis path: the columnar trace layout, the
 * columnar per-side d/i/branch sweeps (RegionAnalysis::analyzeAll and
 * AnalyzerCarryState::analyzeShard), the RegionAnalysis constructor that
 * seeds carried sides, and FeatureProvider's cold ROB cache fill. Every
 * columnar path must be bitwise-identical to its row-oracle / per-size
 * counterpart.
 */

#include <gtest/gtest.h>

#include "analysis/trace_analyzer.hh"
#include "analytical/feature_provider.hh"
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

// The columnar carried-state sweeps must reproduce the three row-oracle
// per-side passes shard by shard, across programs, configurations, and carried
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

// analyzeAll() must memoize exactly what the three lazy per-side getters
// would have computed, one analysis per side.
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

// Carried sides enter at construction: the getters return exactly the
// seeded vectors (values no sweep would produce) without analyzing, and
// the simulator's flags layout is built from the seeded mispredicts once.
TEST(FusedRegionAnalysis, SeedingConstructorServesCarriedSides)
{
    const RegionSpec spec = testRegion("S7", 16, 1);
    TraceColumns cols = generateRegion(spec);
    const size_t n = cols.size();
    const MemoryConfig mem;
    const BranchConfig branch;

    ShardAnalyses sides;
    sides.dside.execLat.resize(n);
    for (size_t k = 0; k < n; ++k)
        sides.dside.execLat[k] = 1000 + static_cast<int32_t>(k % 13);
    sides.dside.loadLevel.assign(n, CacheLevel::L2);
    sides.dside.stats.l2Hits = 77;
    sides.iside.newLine.assign(n, 1);
    sides.iside.lineLat.assign(n, 999);
    sides.branches.mispredict.assign(n, 0);
    for (size_t k = 0; k < n; k += 7)
        sides.branches.mispredict[k] = 1;
    sides.branches.numBranches = 5;
    sides.branches.numMispredicts = 3;
    const ShardAnalyses seeded = sides;

    RegionAnalysis analysis(spec, std::move(cols), mem, branch,
                            std::move(sides));
    EXPECT_EQ(analysis.warmupSize(), 0u);
    EXPECT_EQ(analysis.regionSize(), n);
    EXPECT_EQ(analysis.numDsideAnalyses(), 1u);
    EXPECT_EQ(analysis.numIsideAnalyses(), 1u);
    EXPECT_EQ(analysis.numBranchAnalyses(), 1u);

    analysis.analyzeAll(mem, branch);
    const DSideAnalysis &d = analysis.dside(mem);
    const ISideAnalysis &i = analysis.iside(mem);
    const BranchAnalysis &b = analysis.branches(branch);
    EXPECT_EQ(analysis.numDsideAnalyses(), 1u);
    EXPECT_EQ(analysis.numIsideAnalyses(), 1u);
    EXPECT_EQ(analysis.numBranchAnalyses(), 1u);

    EXPECT_EQ(d.execLat, seeded.dside.execLat);
    EXPECT_EQ(d.loadLevel, seeded.dside.loadLevel);
    expectStatsEqual(d.stats, seeded.dside.stats);
    EXPECT_EQ(i.newLine, seeded.iside.newLine);
    EXPECT_EQ(i.lineLat, seeded.iside.lineLat);
    EXPECT_EQ(b.mispredict, seeded.branches.mispredict);
    EXPECT_EQ(b.numBranches, seeded.branches.numBranches);
    EXPECT_EQ(b.numMispredicts, seeded.branches.numMispredicts);

    // Empty warmup: the flags layout is the seeded mispredicts, built
    // once and returned as the same object on every call.
    const std::vector<uint8_t> &flags = analysis.combinedFlags(branch);
    EXPECT_EQ(flags, seeded.branches.mispredict);
    EXPECT_EQ(&analysis.combinedFlags(branch), &flags);
    EXPECT_EQ(&analysis.branches(branch), &b);
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

// The two ways a ROB entry gets its stage latencies must agree: built
// without latencies first (robOverallIpc) and re-run for them by the
// later assemble, or built with them on the first run. Only the biggest
// latency size keeps an exec-latency encoding, so this pins the re-run
// path against the direct one for every size assemble() reads.
TEST(RobSweep, LatencyRerunMatchesDirectAssemble)
{
    const RegionSpec spec = testRegion("S7", 16, 1);
    const FeatureConfig cfg;
    const UarchParams params = UarchParams::armN1();

    FeatureProvider rerun(spec, cfg);
    for (int size : cfg.robSweep)
        rerun.robOverallIpc(size, params.memory);
    EXPECT_EQ(rerun.modelRuns(), cfg.robSweep.size());
    std::vector<float> rerun_row;
    rerun.assemble(params, rerun_row);

    FeatureProvider direct(spec, cfg);
    std::vector<float> direct_row;
    direct.assemble(params, direct_row);

    // Every latency size already swept ran twice on the re-run path.
    EXPECT_GT(rerun.modelRuns(), direct.modelRuns());
    ASSERT_EQ(rerun_row.size(), direct.layout().dim());
    EXPECT_EQ(rerun_row, direct_row);
}

// FeatureProvider's cold cache fill: one cold assemble populates every
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
