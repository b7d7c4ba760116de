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
#include <sstream>
#include <thread>

#include "analysis/analysis_store.hh"
#include "core/artifacts.hh"
#include "core/dataset.hh"
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

} // anonymous namespace
} // namespace concorde
