/**
 * @file
 * Tests for the end-to-end pipeline layer: span sharding, the
 * boundary-stitching invariant of AnalyzerCarryState and the memory
 * state machine, bitwise identity across execution modes (scalar,
 * sharded, and regions served on the Bulk class), and the FeatureProvider thread-safety
 * contract hammered from the ThreadPool.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <mutex>

#include "core/artifacts.hh"
#include "golden_harness.hh"
#include "pipeline/analysis_pipeline.hh"
#include "serve/prediction_service.hh"
#include "trace/workloads.hh"

using namespace concorde;
using pipeline::AnalysisPipeline;
using pipeline::ExecMode;
using pipeline::PipelineConfig;
using pipeline::PipelineResult;
using pipeline::StateMode;

namespace
{

/** Shrunken feature space so each assemble costs milliseconds. */
FeatureConfig
tinyConfig()
{
    return golden::smallFeatures();
}

ConcordePredictor
tinyPredictor(uint64_t seed)
{
    const FeatureConfig cfg = tinyConfig();
    return ConcordePredictor(artifacts::untrainedModel(cfg, seed, {16}),
                             cfg);
}

TraceSpan
testSpan(uint64_t num_chunks, const char *code = "S7")
{
    TraceSpan span;
    span.programId = programIdByCode(code);
    span.traceId = 0;
    span.startChunk = 16;
    span.numChunks = num_chunks;
    return span;
}

} // anonymous namespace

// ---- shardSpan / aggregateCpi ----

TEST(ShardSpan, TilesSpanExactly)
{
    TraceSpan span = testSpan(10);
    const auto regions = shardSpan(span, 4);
    ASSERT_EQ(regions.size(), 3u);
    uint64_t at = span.startChunk;
    uint64_t chunks = 0;
    for (const auto &region : regions) {
        EXPECT_EQ(region.programId, span.programId);
        EXPECT_EQ(region.traceId, span.traceId);
        EXPECT_EQ(region.startChunk, at);
        at += region.numChunks;
        chunks += region.numChunks;
    }
    EXPECT_EQ(chunks, span.numChunks);
    EXPECT_EQ(regions.back().numChunks, 2u);    // remainder shard
}

TEST(ShardSpan, SingleShardWhenRegionCoversSpan)
{
    const auto regions = shardSpan(testSpan(4), 8);
    ASSERT_EQ(regions.size(), 1u);
    EXPECT_EQ(regions[0].numChunks, 4u);
}

TEST(AggregateCpi, WeightsByInstructionCount)
{
    TraceSpan span = testSpan(3);
    const auto regions = shardSpan(span, 2);    // 2 chunks + 1 chunk
    ASSERT_EQ(regions.size(), 2u);
    uint64_t instructions = 0;
    const double cpi =
        pipeline::aggregateCpi(regions, {1.0, 4.0}, &instructions);
    EXPECT_EQ(instructions, span.numInstructions());
    EXPECT_DOUBLE_EQ(cpi, (1.0 * 2.0 + 4.0 * 1.0) / 3.0);
}

// ---- boundary stitching ----

namespace
{

struct FullAnalyses
{
    DSideAnalysis dside;
    ISideAnalysis iside;
    BranchAnalysis branches;
};

/** Carried-state analysis of `instrs` split at the given chunk counts. */
FullAnalyses
analyzeWithSplits(const TraceSpan &span,
                  const std::vector<Instruction> &warmup,
                  const std::vector<Instruction> &instrs,
                  const UarchParams &params,
                  const std::vector<size_t> &split_sizes)
{
    AnalyzerCarryState carry(
        params.memory, params.branch,
        branchSeedFor(span.programId, span.traceId, span.startChunk));
    carry.warm(warmup);

    FullAnalyses out;
    size_t at = 0;
    for (size_t size : split_sizes) {
        const std::vector<Instruction> shard(
            instrs.begin() + at, instrs.begin() + at + size);
        at += size;
        const DSideAnalysis d = carry.analyzeDside(shard);
        const ISideAnalysis is = carry.analyzeIside(shard);
        const BranchAnalysis b = carry.analyzeBranches(shard);
        out.dside.execLat.insert(out.dside.execLat.end(),
                                 d.execLat.begin(), d.execLat.end());
        out.dside.loadLevel.insert(out.dside.loadLevel.end(),
                                   d.loadLevel.begin(), d.loadLevel.end());
        out.iside.newLine.insert(out.iside.newLine.end(),
                                 is.newLine.begin(), is.newLine.end());
        out.iside.lineLat.insert(out.iside.lineLat.end(),
                                 is.lineLat.begin(), is.lineLat.end());
        out.branches.mispredict.insert(out.branches.mispredict.end(),
                                       b.mispredict.begin(),
                                       b.mispredict.end());
        out.branches.numBranches += b.numBranches;
        out.branches.numMispredicts += b.numMispredicts;
    }
    EXPECT_EQ(at, instrs.size());
    return out;
}

void
expectAnalysesEqual(const FullAnalyses &a, const FullAnalyses &b)
{
    EXPECT_EQ(a.dside.execLat, b.dside.execLat);
    EXPECT_EQ(a.dside.loadLevel, b.dside.loadLevel);
    EXPECT_EQ(a.iside.newLine, b.iside.newLine);
    EXPECT_EQ(a.iside.lineLat, b.iside.lineLat);
    EXPECT_EQ(a.branches.mispredict, b.branches.mispredict);
    EXPECT_EQ(a.branches.numBranches, b.branches.numBranches);
    EXPECT_EQ(a.branches.numMispredicts, b.branches.numMispredicts);
}

} // anonymous namespace

TEST(BoundaryStitching, EveryChunkSplitMatchesUnsplitRun)
{
    const TraceSpan span = testSpan(6);
    const ProgramModel &model = programModel(span.programId);

    RegionSpec whole;
    whole.programId = span.programId;
    whole.traceId = span.traceId;
    whole.startChunk = span.startChunk;
    whole.numChunks = static_cast<uint32_t>(span.numChunks);
    const auto instrs = model.generateRegion(whole).toInstructions();

    RegionSpec warm = whole;
    warm.numChunks = 2;
    warm.startChunk = span.startChunk - 2;
    const auto warmup = model.generateRegion(warm).toInstructions();

    // One TAGE/prefetch-off point and one Simple/prefetch-on point, so
    // both predictor kinds and the prefetcher path cross boundaries.
    UarchParams tage_point = UarchParams::armN1();
    UarchParams simple_point = UarchParams::armN1();
    simple_point.branch.type = BranchConfig::Type::Simple;
    simple_point.branch.simpleMispredictPct = 10;
    simple_point.memory.prefetchDegree = 4;

    for (const UarchParams &params : {tage_point, simple_point}) {
        const FullAnalyses unsplit = analyzeWithSplits(
            span, warmup, instrs, params, {instrs.size()});
        for (uint64_t split = 1; split < span.numChunks; ++split) {
            const size_t head = split * kChunkLen;
            const FullAnalyses stitched = analyzeWithSplits(
                span, warmup, instrs, params,
                {head, instrs.size() - head});
            expectAnalysesEqual(stitched, unsplit);
        }
        // Finest split: one shard per chunk.
        const FullAnalyses per_chunk = analyzeWithSplits(
            span, warmup, instrs, params,
            std::vector<size_t>(span.numChunks, kChunkLen));
        expectAnalysesEqual(per_chunk, unsplit);
    }
}

TEST(BoundaryStitching, CarryMatchesRegionAnalysisConvention)
{
    // A single-shard carried pass is exactly RegionAnalysis's
    // warmup-then-region analysis of the same span.
    const TraceSpan span = testSpan(4);
    const uint32_t warmup_chunks = 3;
    RegionSpec whole;
    whole.programId = span.programId;
    whole.traceId = span.traceId;
    whole.startChunk = span.startChunk;
    whole.numChunks = static_cast<uint32_t>(span.numChunks);

    RegionAnalysis reference(whole, warmup_chunks);
    const UarchParams params = UarchParams::armN1();
    const DSideAnalysis &ref_d = reference.dside(params.memory);
    const ISideAnalysis &ref_i = reference.iside(params.memory);
    const BranchAnalysis &ref_b = reference.branches(params.branch);

    const FullAnalyses carried = analyzeWithSplits(
        span, reference.warmupColumns().toInstructions(),
        reference.regionColumns().toInstructions(), params,
        {reference.regionSize()});
    EXPECT_EQ(carried.dside.execLat, ref_d.execLat);
    EXPECT_EQ(carried.dside.loadLevel, ref_d.loadLevel);
    EXPECT_EQ(carried.iside.newLine, ref_i.newLine);
    EXPECT_EQ(carried.iside.lineLat, ref_i.lineLat);
    EXPECT_EQ(carried.branches.mispredict, ref_b.mispredict);
    EXPECT_EQ(carried.branches.numBranches, ref_b.numBranches);
}

TEST(MemoryStateMachineSnapshot, SplitRunMatchesUnsplitRun)
{
    RegionSpec spec;
    spec.programId = programIdByCode("S1");
    spec.traceId = 0;
    spec.startChunk = 8;
    spec.numChunks = 2;
    RegionAnalysis analysis(spec, 2);
    const UarchParams params = UarchParams::armN1();
    const auto &exec_lat = analysis.dside(params.memory).execLat;
    const TraceColumns &instrs = analysis.regionColumns();

    // Reference: one unsplit model run with a synthetic issue schedule.
    MemoryStateMachine full(analysis.loadIndex(), exec_lat);
    std::vector<uint64_t> reference(instrs.size());
    for (size_t i = 0; i < instrs.size(); ++i)
        reference[i] = full.respCycle(i / 2, i, instrs.isLoad(i));

    for (size_t split : {size_t(1), instrs.size() / 3,
                         instrs.size() / 2, instrs.size() - 1}) {
        MemoryStateMachine head(analysis.loadIndex(), exec_lat);
        for (size_t i = 0; i < split; ++i)
            EXPECT_EQ(head.respCycle(i / 2, i, instrs.isLoad(i)),
                      reference[i]);

        // Resume the suffix on a fresh machine from the snapshot.
        const MemoryStateMachine::Snapshot state = head.snapshot();
        MemoryStateMachine tail(analysis.loadIndex(), exec_lat);
        tail.restore(state);
        for (size_t i = split; i < instrs.size(); ++i)
            EXPECT_EQ(tail.respCycle(i / 2, i, instrs.isLoad(i)),
                      reference[i]);
    }
}

// ---- execution-mode identity ----

namespace
{

void
expectResultsIdentical(const PipelineResult &a, const PipelineResult &b)
{
    ASSERT_EQ(a.regionCpi.size(), b.regionCpi.size());
    for (size_t i = 0; i < a.regionCpi.size(); ++i)
        EXPECT_EQ(a.regionCpi[i], b.regionCpi[i]) << "region " << i;
    EXPECT_EQ(a.programCpi, b.programCpi);
    EXPECT_EQ(a.instructions, b.instructions);
}

PipelineResult
runPipeline(const ConcordePredictor &predictor, const TraceSpan &span,
            const UarchParams &params, ExecMode mode, StateMode state,
            size_t threads, bool keep_features = false)
{
    PipelineConfig config;
    config.regionChunks = 1;
    config.warmupChunks = 2;
    config.mode = mode;
    config.state = state;
    config.threads = threads;
    config.keepFeatures = keep_features;
    AnalysisPipeline pipe(predictor, config);
    return pipe.run(span, params);
}

} // anonymous namespace

TEST(PipelineModes, ShardedMatchesScalarBitwise)
{
    // Every thread count, on spans of one region, of fewer regions than
    // threads, and of more. Sharded+Carry featurizes region i on the
    // pool while the caller stitches region i + 1, and the caller
    // counts as one of `threads` (1: no pool thread; 0: hardware).
    const ConcordePredictor predictor = tinyPredictor(7);
    const UarchParams params = UarchParams::armN1();
    for (StateMode state : {StateMode::Independent, StateMode::Carry}) {
        for (uint64_t chunks : {uint64_t(1), uint64_t(2), uint64_t(4)}) {
            const TraceSpan span = testSpan(chunks);
            const PipelineResult scalar = runPipeline(
                predictor, span, params, ExecMode::Scalar, state, 1, true);
            ASSERT_EQ(scalar.regionCpi.size(), chunks);
            for (size_t threads : {0, 1, 2, 3, 8}) {
                SCOPED_TRACE(testing::Message()
                             << (state == StateMode::Carry ? "carry, "
                                                           : "independent, ")
                             << chunks << " regions, " << threads
                             << " threads");
                const PipelineResult sharded = runPipeline(
                    predictor, span, params, ExecMode::Sharded, state,
                    threads, true);
                expectResultsIdentical(scalar, sharded);
                // The assembled feature matrices agree bitwise too.
                EXPECT_EQ(scalar.features, sharded.features);
            }
        }
    }
}

TEST(PipelineModes, CarryReusedAcrossSpansMatchesFreshPipelines)
{
    // One Carry pipeline regenerates later spans into the trace buffers
    // of earlier ones (longer, then shorter): every run must equal a
    // fresh pipeline's.
    const ConcordePredictor predictor = tinyPredictor(11);
    const UarchParams params = UarchParams::armN1();
    for (ExecMode mode : {ExecMode::Scalar, ExecMode::Sharded}) {
        for (size_t threads : {1, 2, 3}) {
            PipelineConfig config;
            config.regionChunks = 1;
            config.warmupChunks = 2;
            config.mode = mode;
            config.state = StateMode::Carry;
            config.threads = threads;
            AnalysisPipeline reused(predictor, config);
            for (uint64_t chunks : {uint64_t(2), uint64_t(5), uint64_t(1),
                                    uint64_t(3)}) {
                SCOPED_TRACE(testing::Message()
                             << chunks << " regions, " << threads
                             << " threads");
                const TraceSpan span = testSpan(chunks);
                expectResultsIdentical(
                    runPipeline(predictor, span, params, mode,
                                StateMode::Carry, threads),
                    reused.run(span, params));
            }
        }
    }
}

TEST(PipelineModes, PhaseTimesAddUpWithinTotal)
{
    // The per-phase times never sum past the whole run, in any mode;
    // only Carry has a stitch pass to time.
    const ConcordePredictor predictor = tinyPredictor(13);
    const TraceSpan span = testSpan(3);
    const UarchParams params = UarchParams::armN1();
    for (ExecMode mode : {ExecMode::Scalar, ExecMode::Sharded}) {
        for (StateMode state : {StateMode::Independent, StateMode::Carry}) {
            for (size_t threads : {1, 2}) {
                const PipelineResult res = runPipeline(
                    predictor, span, params, mode, state, threads);
                EXPECT_LE(res.analyzeSeconds + res.featureSeconds
                              + res.inferSeconds,
                          res.totalSeconds);
                if (state == StateMode::Carry)
                    EXPECT_GT(res.analyzeSeconds, 0.0);
                else
                    EXPECT_EQ(res.analyzeSeconds, 0.0);
            }
        }
    }
}

TEST(PipelineModes, IndependentRegionsMatchDirectPredictCpi)
{
    // Independent-state regions are the plain per-region path: the
    // pipeline must reproduce predictCpi on each RegionSpec bitwise.
    const ConcordePredictor predictor = tinyPredictor(9);
    const TraceSpan span = testSpan(3);
    const UarchParams params = UarchParams::armN1();
    const PipelineResult result = runPipeline(
        predictor, span, params, ExecMode::Sharded,
        StateMode::Independent, 2);
    ASSERT_EQ(result.regions.size(), 3u);
    for (size_t i = 0; i < result.regions.size(); ++i) {
        FeatureProvider provider(result.regions[i],
                                 predictor.featureConfig(), 2);
        EXPECT_EQ(result.regionCpi[i],
                  predictor.predictCpi(provider, params));
    }
}

TEST(PipelineModes, CarrySingleShardMatchesIndependent)
{
    // With one shard covering the whole span, Carry's stitch pass is
    // exactly the Independent warmup convention.
    const ConcordePredictor predictor = tinyPredictor(10);
    const TraceSpan span = testSpan(2);
    const UarchParams params = UarchParams::armN1();
    PipelineConfig config;
    config.regionChunks = static_cast<uint32_t>(span.numChunks);
    config.warmupChunks = 2;
    config.mode = ExecMode::Scalar;

    config.state = StateMode::Independent;
    AnalysisPipeline independent(predictor, config);
    config.state = StateMode::Carry;
    AnalysisPipeline carry(predictor, config);
    expectResultsIdentical(independent.run(span, params),
                           carry.run(span, params));
}

TEST(PipelineModes, ServedRegionsMatchScalarPipeline)
{
    const FeatureConfig cfg = tinyConfig();
    const ConcordePredictor predictor(
        artifacts::untrainedModel(cfg, 11, {16}), cfg);
    const TraceSpan span = testSpan(4);
    const UarchParams params = UarchParams::armN1();

    // The service's per-region providers use the default warmup, so the
    // reference pipeline must too.
    PipelineConfig config;
    config.regionChunks = 2;
    config.mode = ExecMode::Scalar;
    config.state = StateMode::Independent;
    AnalysisPipeline pipe(predictor, config);
    const PipelineResult reference = pipe.run(span, params);

    serve::ServeConfig sc;
    sc.poolThreads = 2;
    serve::PredictionService service(sc);
    service.registry().add(
        "m", ConcordePredictor(artifacts::untrainedModel(cfg, 11, {16}),
                               cfg));
    const PipelineResult served =
        golden::serveSpan(service, "m", span, config.regionChunks, params);
    expectResultsIdentical(reference, served);
}

// ---- FeatureProvider thread-safety contract ----

namespace
{

std::vector<UarchParams>
hammerPoints()
{
    UarchParams big = UarchParams::armN1();
    big.robSize = 512;
    big.lqSize = 96;
    big.memory.prefetchDegree = 4;
    UarchParams simple = UarchParams::armN1();
    simple.branch.type = BranchConfig::Type::Simple;
    simple.branch.simpleMispredictPct = 3;
    return {UarchParams::armN1(), big, simple};
}

std::vector<float>
assembleAll(FeatureProvider &provider, const std::vector<UarchParams> &pts)
{
    std::vector<float> rows;
    for (const auto &params : pts)
        provider.assemble(params, rows);
    return rows;
}

} // anonymous namespace

TEST(ProviderConcurrency, ShardLocalProvidersFromPool)
{
    // Contract pattern (a): one provider per worker. Hammer the memo
    // caches of 8 independent instances from the pool; every instance
    // must reproduce the serial reference bitwise.
    const FeatureConfig cfg = tinyConfig();
    RegionSpec spec;
    spec.programId = programIdByCode("P1");
    spec.traceId = 0;
    spec.startChunk = 12;
    spec.numChunks = 1;
    const auto points = hammerPoints();

    FeatureProvider reference_provider(spec, cfg, 2);
    const std::vector<float> reference =
        assembleAll(reference_provider, points);

    ThreadPool pool(4);
    std::vector<std::future<std::vector<float>>> futures;
    for (int t = 0; t < 8; ++t) {
        futures.push_back(pool.submit([&spec, &cfg, &points] {
            FeatureProvider provider(spec, cfg, 2);
            return assembleAll(provider, points);
        }));
    }
    for (auto &future : futures)
        EXPECT_EQ(future.get(), reference);
}

TEST(ProviderConcurrency, SharedProviderSerializedByMutex)
{
    // Contract pattern (b): one shared provider behind an external
    // mutex (the PredictionService pattern). The warm memo caches must
    // serve every thread the same bits.
    const FeatureConfig cfg = tinyConfig();
    RegionSpec spec;
    spec.programId = programIdByCode("C1");
    spec.traceId = 0;
    spec.startChunk = 12;
    spec.numChunks = 1;
    const auto points = hammerPoints();

    FeatureProvider shared(spec, cfg, 2);
    const std::vector<float> reference = assembleAll(shared, points);

    std::mutex mtx;
    ThreadPool pool(4);
    std::vector<std::future<void>> futures;
    for (int t = 0; t < 8; ++t) {
        futures.push_back(pool.submit([&shared, &mtx, &points,
                                       &reference] {
            for (const auto &params : points) {
                std::vector<float> row;
                {
                    std::lock_guard<std::mutex> lock(mtx);
                    shared.assemble(params, row);
                }
                (void)row;
            }
            std::vector<float> all;
            {
                std::lock_guard<std::mutex> lock(mtx);
                for (const auto &params : points)
                    shared.assemble(params, all);
            }
            EXPECT_EQ(all, reference);
        }));
    }
    for (auto &future : futures)
        future.get();
}
