/**
 * @file
 * Tests for the shared AnalysisStore and its consumers: cached-vs-fresh
 * bitwise neutrality, the LRU residency bound, per-key once-init under
 * concurrency, and the dataset-generation regression (grouped,
 * store-backed labeling produces byte-identical shards).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <fstream>
#include <set>
#include <sstream>
#include <thread>

#include "analysis/analysis_store.hh"
#include "core/artifacts.hh"
#include "core/dataset.hh"
#include "core/shapley.hh"
#include "pipeline/analysis_pipeline.hh"
#include "sim/o3_core.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace
{

RegionSpec
regionAt(uint64_t start_chunk, uint32_t num_chunks = 2, int program = 0)
{
    RegionSpec spec;
    spec.programId = program;
    spec.traceId = 0;
    spec.startChunk = start_chunk;
    spec.numChunks = num_chunks;
    return spec;
}

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = "/tmp/concorde_store_" + name;
    const std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

TEST(AnalysisStore, CachedVsFreshBitwiseFeaturesAndLabels)
{
    AnalysisStore store;
    const RegionSpec region = regionAt(16);
    const FeatureConfig cfg;

    Rng rng(99);
    FeatureProvider cached(store.acquire(region), cfg);
    for (int i = 0; i < 4; ++i) {
        const UarchParams params = UarchParams::sampleRandom(rng);

        // A fresh per-sample provider: the pre-store labeling path.
        FeatureProvider fresh(region, cfg);
        std::vector<float> fresh_row, cached_row;
        fresh.assemble(params, fresh_row);
        cached.assemble(params, cached_row);
        ASSERT_EQ(fresh_row.size(), cached_row.size());
        for (size_t j = 0; j < fresh_row.size(); ++j)
            ASSERT_EQ(fresh_row[j], cached_row[j]) << "feature " << j;

        const SimResult sim_fresh = simulateRegion(params, fresh.analysis());
        const SimResult sim_cached =
            simulateRegion(params, cached.analysis());
        EXPECT_EQ(sim_fresh.cycles, sim_cached.cycles);
        EXPECT_EQ(sim_fresh.branchMispredicts, sim_cached.branchMispredicts);
        EXPECT_EQ(sim_fresh.actualLoadLatencySum,
                  sim_cached.actualLoadLatencySum);
    }
}

TEST(AnalysisStore, AcquireSharesOneSnapshot)
{
    AnalysisStore store;
    const RegionSpec region = regionAt(24);

    const auto first = store.acquire(region);
    const auto second = store.acquire(region);
    EXPECT_EQ(first.get(), second.get());

    const AnalysisStoreStats stats = store.stats();
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.entries, 1u);
    // Weight = region + warmup instructions.
    EXPECT_EQ(stats.residentInstructions,
              first->regionSize() + first->warmupSize());

    // A different warmup convention is a different key.
    const auto other = store.acquire(region, 0);
    EXPECT_NE(other.get(), first.get());
    EXPECT_EQ(other->warmupSize(), 0u);
}

TEST(AnalysisStore, LruEvictionRespectsInstructionBound)
{
    // Each (2-chunk region + 8-chunk warmup) entry weighs 10 * kChunkLen
    // instructions; bound the store to just over two entries.
    const uint64_t entry_weight = 10 * kChunkLen;
    AnalysisStore store(2 * entry_weight + 1);

    const auto a = store.acquire(regionAt(16));
    const auto b = store.acquire(regionAt(32));
    EXPECT_EQ(store.stats().evictions, 0u);
    EXPECT_EQ(store.stats().entries, 2u);

    // Third entry exceeds the bound: the LRU one (a) must go.
    const auto c = store.acquire(regionAt(48));
    AnalysisStoreStats stats = store.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.residentInstructions, stats.maxResidentInstructions);

    // b and c still hit; a was evicted and is rebuilt (the old snapshot
    // we hold stays valid but is no longer the store's).
    EXPECT_EQ(store.acquire(regionAt(32)).get(), b.get());
    EXPECT_EQ(store.acquire(regionAt(48)).get(), c.get());
    const auto a2 = store.acquire(regionAt(16));
    EXPECT_NE(a2.get(), a.get());
    EXPECT_EQ(store.stats().built, 4u);

    // The evicted snapshot still answers (live references survive).
    EXPECT_EQ(a->regionSize(), a2->regionSize());

    store.clear();
    EXPECT_EQ(store.stats().entries, 0u);
    EXPECT_EQ(store.stats().residentInstructions, 0u);
}

TEST(AnalysisStore, ConcurrentSameKeyHammerAnalyzesOnce)
{
    AnalysisStore store;
    const RegionSpec region = regionAt(40);

    constexpr int kThreads = 8;
    std::atomic<int> ready{0};
    std::vector<std::shared_ptr<RegionAnalysis>> got(kThreads);
    std::vector<SimResult> sims(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // Crude barrier so the acquires overlap.
            ++ready;
            while (ready.load() < kThreads)
                std::this_thread::yield();
            got[t] = store.acquire(region);
            // Exercise the shared analysis from every thread too: the
            // memo tables are internally locked.
            const UarchParams params = UarchParams::armN1();
            (void)got[t]->dside(params.memory);
            (void)got[t]->branches(params.branch);
            // The serve fallback's pattern: every thread simulates the
            // shared analysis with its own scratch, racing to build the
            // cached combined trace and flags layout.
            SimScratch scratch;
            sims[t] = simulateRegion(params, *got[t], 0, &scratch);
        });
    }
    for (auto &thread : threads)
        thread.join();

    for (int t = 1; t < kThreads; ++t) {
        EXPECT_EQ(got[t].get(), got[0].get());
        EXPECT_EQ(sims[t].cycles, sims[0].cycles);
        EXPECT_EQ(sims[t].instructions, sims[0].instructions);
        EXPECT_EQ(sims[t].avgRobOccupancy, sims[0].avgRobOccupancy);
        EXPECT_EQ(sims[t].avgRenameQOccupancy, sims[0].avgRenameQOccupancy);
        EXPECT_EQ(sims[t].avgLqOccupancy, sims[0].avgLqOccupancy);
        EXPECT_EQ(sims[t].branchMispredicts, sims[0].branchMispredicts);
        EXPECT_EQ(sims[t].actualLoadLatencySum,
                  sims[0].actualLoadLatencySum);
        EXPECT_EQ(sims[t].loadCount, sims[0].loadCount);
    }
    EXPECT_EQ(sims[0].instructions, got[0]->regionSize());
    const AnalysisStoreStats stats = store.stats();
    EXPECT_EQ(stats.built, 1u);
    EXPECT_EQ(stats.hits + stats.misses, static_cast<uint64_t>(kThreads));
    EXPECT_EQ(got[0]->numDsideAnalyses(), 1u);
    EXPECT_EQ(got[0]->numBranchAnalyses(), 1u);
}

// analyzeAll builds or waits for each side in turn, holding one side's
// latch at a time, so it returns with every side ready: configs that
// differ in the d-side but share an i-side and branch analysis -- ready
// beforehand, or missing and raced for -- build every side exactly once,
// bitwise equal to a fresh per-side build.
TEST(AnalysisStore, ConcurrentAnalyzeAllBuildsOnlyMissingSidesOnce)
{
    const BranchConfig branch = UarchParams::armN1().branch;
    const std::vector<uint32_t> l1d_kb = {16, 32, 64, 128};
    for (bool shared_sides_ready : {true, false}) {
        SCOPED_TRACE(shared_sides_ready ? "shared sides ready"
                                        : "shared sides missing");
        const RegionSpec region = regionAt(shared_sides_ready ? 48 : 50);
        RegionAnalysis shared(region);
        if (shared_sides_ready)
            shared.analyzeAll(MemoryConfig{}, branch);

        constexpr int kThreads = 8;
        std::atomic<int> ready{0};
        std::vector<std::thread> threads;
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                ++ready;
                while (ready.load() < kThreads)
                    std::this_thread::yield();
                MemoryConfig mem;
                mem.l1dKb = l1d_kb[t % l1d_kb.size()];
                shared.analyzeAll(mem, branch);
                EXPECT_EQ(shared.numIsideAnalyses(), 1u);
                EXPECT_EQ(shared.numBranchAnalyses(), 1u);
            });
        }
        for (auto &thread : threads)
            thread.join();

        EXPECT_EQ(shared.numDsideAnalyses(), l1d_kb.size());
        RegionAnalysis fresh(region);
        for (uint32_t kb : l1d_kb) {
            MemoryConfig mem;
            mem.l1dKb = kb;
            EXPECT_EQ(shared.dside(mem).execLat, fresh.dside(mem).execLat)
                << kb << " KB L1d";
        }
        EXPECT_EQ(shared.iside(MemoryConfig{}).lineLat,
                  fresh.iside(MemoryConfig{}).lineLat);
        EXPECT_EQ(shared.branches(branch).mispredict,
                  fresh.branches(branch).mispredict);
        EXPECT_EQ(shared.numDsideAnalyses(), l1d_kb.size());
        EXPECT_EQ(shared.numIsideAnalyses(), 1u);
        EXPECT_EQ(shared.numBranchAnalyses(), 1u);
    }
}

/**
 * The PR-4 regression: grouped, store-backed labeling must leave shard
 * bytes and the manifest exactly as the per-sample path wrote them.
 * Every stored sample is re-derived with a fresh single-sample provider
 * (the pre-store semantics) and compared field by field; two builds of
 * the same config must also be byte-identical to each other.
 */
TEST(AnalysisStore, DatasetShardBytesAndManifestUnchanged)
{
    DatasetConfig config;
    config.numSamples = 12;
    config.regionChunks = 2;
    config.seed = 4242;

    const std::string dir_a = freshDir("shards_a");
    const std::string dir_b = freshDir("shards_b");
    const auto built_a = buildDatasetShards(config, dir_a, 5);
    const auto built_b = buildDatasetShards(config, dir_b, 5);
    ASSERT_TRUE(built_a.complete());
    ASSERT_TRUE(built_b.complete());

    EXPECT_EQ(datasetManifestHash(dir_a), datasetManifestHash(dir_b));
    for (size_t shard = 0; shard < 3; ++shard) {
        EXPECT_EQ(fileBytes(DatasetManifest::shardFile(dir_a, shard)),
                  fileBytes(DatasetManifest::shardFile(dir_b, shard)))
            << "shard " << shard;
    }

    const Dataset data = loadDatasetShards(dir_a);
    ASSERT_EQ(data.size(), config.numSamples);
    for (size_t s = 0; s < data.size(); ++s) {
        const SampleMeta &meta = data.meta[s];

        FeatureProvider fresh(meta.region, config.features);
        std::vector<float> row;
        fresh.assemble(meta.params, row);
        ASSERT_EQ(row.size(), data.dim);
        for (size_t j = 0; j < row.size(); ++j)
            ASSERT_EQ(row[j], data.row(s)[j])
                << "sample " << s << " feature " << j;

        const SimResult sim = simulateRegion(meta.params, fresh.analysis());
        EXPECT_EQ(meta.cpi, static_cast<float>(sim.cpi()));
        EXPECT_EQ(meta.avgRobOcc,
                  static_cast<float>(sim.avgRobOccupancy));
        EXPECT_EQ(meta.avgRenameOcc,
                  static_cast<float>(sim.avgRenameQOccupancy));
        EXPECT_EQ(meta.mispredicts,
                  static_cast<uint32_t>(sim.branchMispredicts));
        EXPECT_EQ(data.labels[s], meta.cpi);
    }
}

TEST(AnalysisStore, PipelineWithStoreBitwiseIdenticalAndWarm)
{
    AnalysisStore store;
    const TrainedModel model =
        artifacts::untrainedModel(FeatureConfig{}, 2029);
    const ConcordePredictor predictor(model, FeatureConfig{});

    TraceSpan span;
    span.programId = programIdByCode("S7");
    span.traceId = 0;
    span.startChunk = 16;
    span.numChunks = 8;

    pipeline::PipelineConfig cold_cfg;
    cold_cfg.regionChunks = 2;
    pipeline::PipelineConfig store_cfg = cold_cfg;
    store_cfg.analysisStore = &store;

    const UarchParams params = UarchParams::armN1();
    pipeline::AnalysisPipeline cold(predictor, cold_cfg);
    pipeline::AnalysisPipeline shared(predictor, store_cfg);
    const auto ref = cold.run(span, params);
    const auto first = shared.run(span, params);
    const auto second = shared.run(span, params);

    ASSERT_EQ(ref.regionCpi.size(), first.regionCpi.size());
    for (size_t i = 0; i < ref.regionCpi.size(); ++i) {
        EXPECT_EQ(ref.regionCpi[i], first.regionCpi[i]);
        EXPECT_EQ(ref.regionCpi[i], second.regionCpi[i]);
    }

    const AnalysisStoreStats stats = store.stats();
    EXPECT_EQ(stats.built, ref.regions.size());
    EXPECT_EQ(stats.hits, ref.regions.size());
}

TEST(AnalysisStore, PredictSweepMatchesPerConfigLoop)
{
    AnalysisStore store;
    const ConcordePredictor predictor(
        artifacts::untrainedModel(FeatureConfig{}, 2030), FeatureConfig{});
    const RegionSpec region = regionAt(16, 2, programIdByCode("S3"));

    Rng rng(7);
    std::vector<UarchParams> points;
    for (int i = 0; i < 6; ++i)
        points.push_back(UarchParams::sampleRandom(rng));

    const auto swept =
        predictor.predictSweep(region, points, /*threads=*/1, &store);
    ASSERT_EQ(swept.size(), points.size());
    for (size_t i = 0; i < points.size(); ++i) {
        EXPECT_EQ(swept[i], predictor.predictCpi(region, points[i]))
            << "point " << i;
    }
    EXPECT_EQ(store.stats().built, 1u);
}

// predictSweep assembles its d-side runs on `threads` workers, each with
// its own provider over one shared analysis; the result must not depend
// on the worker count. The cold sweep runs first with 4 workers, so they
// race on the shared analysis's per-side latches (the N1 i-side and
// branch analyses every run needs); the TSan stage runs this suite.
TEST(AnalysisStore, PredictSweepIsThreadCountInvariant)
{
    AnalysisStore store;
    const ConcordePredictor predictor(
        artifacts::untrainedModel(FeatureConfig{}, 2031), FeatureConfig{});
    const RegionSpec region = regionAt(24, 2, programIdByCode("S7"));

    // The quantized one-at-a-time grid around N1 (171 points, 9 d-side
    // runs) plus random points, each likely a d-side run of its own.
    std::vector<UarchParams> points;
    const UarchParams base = UarchParams::armN1();
    for (const ParamInfo &info : paramTable()) {
        for (int64_t value : sweepValues(info.id, /*quantized=*/true)) {
            UarchParams point = base;
            point.set(info.id, value);
            points.push_back(point);
        }
    }
    Rng rng(11);
    for (int i = 0; i < 6; ++i)
        points.push_back(UarchParams::sampleRandom(rng));

    const auto cold4 = predictor.predictSweep(region, points, 4, &store);
    const auto serial = predictor.predictSweep(region, points, 1, &store);
    ASSERT_EQ(serial.size(), points.size());
    EXPECT_EQ(cold4, serial);
    EXPECT_EQ(predictor.predictSweep(region, points, 2, &store), serial);
    EXPECT_EQ(predictor.predictSweep(region, points, 0, &store), serial);

    // A seed-chosen subset against one-at-a-time fresh-provider calls.
    Rng pick(12);
    for (int k = 0; k < 8; ++k) {
        const size_t i = pick.nextBounded(points.size());
        EXPECT_EQ(serial[i], predictor.predictCpi(region, points[i]))
            << "point " << i;
    }
    EXPECT_EQ(store.stats().built, 1u);
}

// Every d-side run of a sweep makes one multi-size ROB-model call, on
// whichever worker takes the run, with a working set of its own. A grid
// of several d-side configs, each with ROB sizes off the sweep (so every
// call has a size of its own), must predict bitwise the same at every
// worker count, for two regions of different lengths in either order.
TEST(AnalysisStore, PredictSweepRobRunsMatchAcrossThreadCounts)
{
    AnalysisStore store;
    const ConcordePredictor predictor(
        artifacts::untrainedModel(FeatureConfig{}, 2032), FeatureConfig{});
    const RegionSpec small = regionAt(8, 2, programIdByCode("C1"));
    const RegionSpec large = regionAt(40, 3, programIdByCode("S5"));

    std::vector<UarchParams> points;
    for (int64_t l1d : {16, 64, 128}) {
        for (int64_t l2 : {512, 2048}) {
            for (int64_t rob : {1, 37, 300, 1000}) {
                UarchParams point = UarchParams::armN1();
                point.set(ParamId::L1dSize, l1d);
                point.set(ParamId::L2Size, l2);
                point.set(ParamId::RobSize, rob);
                points.push_back(point);
            }
        }
    }

    const auto small1 = predictor.predictSweep(small, points, 1, &store);
    const auto large1 = predictor.predictSweep(large, points, 1, &store);
    for (size_t threads : {2, 4}) {
        EXPECT_EQ(predictor.predictSweep(small, points, threads, &store),
                  small1) << threads << " threads";
        EXPECT_EQ(predictor.predictSweep(large, points, threads, &store),
                  large1) << threads << " threads";
    }
    // Back on the calling thread after the longer region.
    EXPECT_EQ(predictor.predictSweep(small, points, 1, &store), small1);
    for (size_t i : {0, 13, 23})
        EXPECT_EQ(small1[i], predictor.predictCpi(small, points[i]));
}

// The design points of a batched Monte Carlo Shapley attribution from
// ARM N1 to the big core over the Figure-16 components: the base plus
// every prefix of every sampled order.
std::vector<UarchParams>
shapleyBatch(int permutations)
{
    std::vector<UarchParams> points;
    ShapleyConfig config;
    config.numPermutations = permutations;
    const BatchEval capture = [&](const std::vector<UarchParams> &pts) {
        points = pts;
        return std::vector<double>(pts.size(), 1.0);
    };
    (void)shapleyAttribution(UarchParams::armN1(), UarchParams::bigCore(),
                             attributionComponents(), capture, config);
    return points;
}

std::set<uint32_t>
dSideKeys(const std::vector<UarchParams> &points)
{
    std::set<uint32_t> keys;
    for (const UarchParams &p : points)
        keys.insert(p.memory.dSideKey());
    return keys;
}

// predictCpiBatch assembles the d-side runs of a batch on `threads`
// workers: the caller's provider and worker-local ones over its analysis.
// Every worker count must give the bits of one-at-a-time predictCpi. The
// 4-worker batch races on the analysis's per-side latches; the TSan
// stage runs this suite.
TEST(AnalysisStore, PredictCpiBatchIsThreadCountInvariant)
{
    AnalysisStore store;
    const FeatureConfig cfg;
    const ConcordePredictor predictor(artifacts::untrainedModel(cfg, 2033),
                                      cfg);
    const RegionSpec region = regionAt(20, 2, programIdByCode("S9"));

    std::vector<UarchParams> points = shapleyBatch(8);
    Rng rng(13);
    for (int i = 0; i < 64; ++i)
        points.push_back(UarchParams::sampleRandom(rng));
    ASSERT_GE(dSideKeys(points).size(), 4u);

    // One fresh provider per point, over one shared analysis.
    std::vector<double> reference;
    for (const UarchParams &p : points) {
        FeatureProvider provider(store.acquire(region), cfg);
        reference.push_back(predictor.predictCpi(provider, p));
    }
    // The caller's provider counts each memoized model run once, however
    // the runs were split: as many as a serial batch.
    size_t serial_runs = 0;
    for (size_t threads : {1, 2, 4, 0}) {
        FeatureProvider provider(region, cfg);
        EXPECT_EQ(predictor.predictCpiBatch(provider, points, threads),
                  reference) << threads << " threads";
        if (threads == 1)
            serial_runs = provider.modelRuns();
        EXPECT_EQ(provider.modelRuns(), serial_runs)
            << threads << " threads";
    }
    EXPECT_GT(serial_runs, 0u);
}

// The caller's provider absorbs the workers' memos: a repeated batch runs
// no analytical model, and a batch that adds one d-side config runs the
// models of that config only -- its ROB sizes and LQ sizes.
TEST(AnalysisStore, PredictCpiBatchLeavesTheCallersProviderWarm)
{
    const FeatureConfig cfg;
    const ConcordePredictor predictor(artifacts::untrainedModel(cfg, 2034),
                                      cfg);
    const RegionSpec region = regionAt(28, 2, programIdByCode("S5"));
    const std::vector<UarchParams> points = shapleyBatch(8);
    ASSERT_GE(dSideKeys(points).size(), 4u);

    FeatureProvider provider(region, cfg);
    const auto first = predictor.predictCpiBatch(provider, points, 4);
    for (const UarchParams &p : points)
        ASSERT_TRUE(provider.hasRobRun(p.robSize, p.memory));
    const size_t runs = provider.modelRuns();
    EXPECT_EQ(predictor.predictCpiBatch(provider, points, 4), first);
    EXPECT_EQ(provider.modelRuns(), runs);

    // N1 with an L1d size no point of the batch has: one new d-side
    // config, every other side and bound already memoized.
    const std::set<uint32_t> keys = dSideKeys(points);
    UarchParams fresh = UarchParams::armN1();
    for (int64_t kb : sweepValues(ParamId::L1dSize, /*quantized=*/false)) {
        fresh.set(ParamId::L1dSize, kb);
        if (!keys.count(fresh.memory.dSideKey()))
            break;
    }
    ASSERT_FALSE(keys.count(fresh.memory.dSideKey()));
    std::vector<UarchParams> extended = points;
    std::set<int> rob_sizes(cfg.robSweep.begin(), cfg.robSweep.end());
    rob_sizes.insert(cfg.latencyRobSizes.begin(), cfg.latencyRobSizes.end());
    std::set<int> lq_sizes;
    for (int rob : {64, 200}) {
        for (int lq : {12, 40}) {
            UarchParams p = fresh;
            p.robSize = rob;
            p.lqSize = lq;
            extended.push_back(p);
            rob_sizes.insert(rob);
            lq_sizes.insert(lq);
        }
    }
    const auto third = predictor.predictCpiBatch(provider, extended, 4);
    EXPECT_EQ(provider.modelRuns(), runs + rob_sizes.size() + lq_sizes.size());
    ASSERT_EQ(third.size(), extended.size());
    for (size_t i = 0; i < extended.size(); ++i) {
        const double expected = i < first.size()
            ? first[i] : predictor.predictCpi(region, extended[i]);
        EXPECT_EQ(third[i], expected) << "point " << i;
    }
}

} // anonymous namespace
} // namespace concorde
