#include "pipeline/analysis_pipeline.hh"

#include <algorithm>
#include <atomic>
#include <functional>

#include "common/logging.hh"
#include "common/stopwatch.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace pipeline
{

double
aggregateCpi(const std::vector<RegionSpec> &regions,
             const std::vector<double> &region_cpi,
             uint64_t *instructions_out)
{
    panic_if(regions.size() != region_cpi.size(),
             "%zu regions but %zu CPIs", regions.size(), region_cpi.size());
    // CPI aggregates as total cycles / total instructions, i.e. the
    // instruction-weighted mean of region CPIs, summed in region order.
    double cycles = 0.0;
    uint64_t instructions = 0;
    for (size_t i = 0; i < regions.size(); ++i) {
        const uint64_t instrs = regions[i].numInstructions();
        cycles += region_cpi[i] * static_cast<double>(instrs);
        instructions += instrs;
    }
    if (instructions_out)
        *instructions_out = instructions;
    return instructions
        ? cycles / static_cast<double>(instructions) : 0.0;
}

namespace
{

/**
 * The feature workers for a config. Under Carry the calling thread
 * stitches and then featurizes beside the pool, so it counts as one of
 * `threads` and the pool gets the rest: none at threads = 1. (The
 * count is resolved first: ThreadPool reads 0 as "hardware".)
 */
std::unique_ptr<ThreadPool>
makePool(const PipelineConfig &cfg)
{
    if (cfg.mode != ExecMode::Sharded)
        return nullptr;
    if (cfg.state == StateMode::Independent)
        return std::make_unique<ThreadPool>(cfg.threads);
    const size_t threads = cfg.threads ? cfg.threads : defaultThreads();
    return threads > 1 ? std::make_unique<ThreadPool>(threads - 1)
                       : nullptr;
}

} // anonymous namespace

AnalysisPipeline::AnalysisPipeline(const ConcordePredictor &predictor,
                                   PipelineConfig config)
    : pred(predictor), cfg(config), pool(makePool(cfg))
{
}

AnalysisPipeline::AnalysisPipeline(const ModelArtifact &artifact,
                                   PipelineConfig config)
    : owned(std::make_shared<const ConcordePredictor>(artifact.predictor())),
      pred(*owned), cfg(config), pool(makePool(cfg))
{
}

TraceColumns
AnalysisPipeline::takeSpareColumns()
{
    std::lock_guard<std::mutex> lock(spareMtx);
    if (spareColumns.empty())
        return TraceColumns{};
    TraceColumns cols = std::move(spareColumns.back());
    spareColumns.pop_back();
    return cols;
}

void
AnalysisPipeline::giveSpareColumns(TraceColumns cols)
{
    std::lock_guard<std::mutex> lock(spareMtx);
    if (spareColumns.size() < kMaxSpareColumns)
        spareColumns.push_back(std::move(cols));
}

void
AnalysisPipeline::stitch(const TraceSpan &span,
                         const std::vector<RegionSpec> &regions,
                         const UarchParams &params,
                         std::vector<StitchedRegion> &stitched,
                         const std::function<void(size_t)> &ready)
{
    // The sequential stitch pass: one carried hierarchy/predictor state
    // walks the span in trace order, so every instruction is analyzed
    // exactly once and the per-shard results concatenate to one unsplit
    // pass. Only this walk is serial; a region's trace is a pure
    // function of its spec. So the pool, which has nothing to featurize
    // before region 0 is stitched, generates the first regions while
    // this thread generates and replays the warmup.
    const ProgramModel &model = programModel(span.programId);
    std::vector<std::future<void>> ahead;
    if (pool) {
        const size_t count = std::min(regions.size(), kGenerateAhead);
        for (size_t i = 0; i < count; ++i) {
            ahead.push_back(pool->submit([this, &model, &regions,
                                          &stitched, i] {
                GenScratch scratch;
                stitched[i].cols = takeSpareColumns();
                model.generateRegion(regions[i], stitched[i].cols, scratch);
            }));
        }
    }

    AnalyzerCarryState carry(
        params.memory, params.branch,
        branchSeedFor(span.programId, span.traceId, span.startChunk));
    GenScratch gen_scratch;
    if (cfg.warmupChunks > 0) {
        // Same warmup rule as RegionAnalysis, applied to the whole span:
        // the chunks immediately preceding it (falling back to replaying
        // its head when the span starts at the trace head).
        RegionSpec warm;
        warm.programId = span.programId;
        warm.traceId = span.traceId;
        warm.numChunks = cfg.warmupChunks;
        warm.startChunk = span.startChunk >= cfg.warmupChunks
            ? span.startChunk - cfg.warmupChunks : span.startChunk;
        TraceColumns warm_cols = takeSpareColumns();
        model.generateRegion(warm, warm_cols, gen_scratch);
        carry.warm(warm_cols);
        giveSpareColumns(std::move(warm_cols));
    }

    for (size_t i = 0; i < regions.size(); ++i) {
        StitchedRegion &shard = stitched[i];
        if (i < ahead.size()) {
            ahead[i].get();
        } else {
            shard.cols = takeSpareColumns();
            model.generateRegion(regions[i], shard.cols, gen_scratch);
        }
        shard.analyses = carry.analyzeShard(shard.cols);
        if (ready)
            ready(i);
    }
}

PipelineResult
AnalysisPipeline::run(const TraceSpan &span, const UarchParams &params)
{
    Stopwatch total;
    PipelineResult res;
    res.regions = shardSpan(span, cfg.regionChunks);
    res.featureDim = pred.layout().dim();
    const size_t n = res.regions.size();
    if (n == 0) {
        res.totalSeconds = total.seconds();
        return res;
    }

    // Featurize every shard into one row-major matrix. Every provider
    // is built inside the task, so that work fans out with the
    // featurization: a carried one from its region's stitched trace and
    // analyses, an Independent-state one with its own trace analysis
    // (and warmup replay). A carried provider is dropped as soon as its
    // row is out: it is span-specific, never cached, and nothing reads
    // it again.
    std::vector<StitchedRegion> stitched(
        cfg.state == StateMode::Carry ? n : 0);
    std::vector<float> rows(n * res.featureDim, 0.0f);
    auto featurize = [&](size_t i) {
        std::unique_ptr<FeatureProvider> provider;
        if (cfg.state == StateMode::Carry) {
            StitchedRegion &shard = stitched[i];
            provider = std::make_unique<FeatureProvider>(
                RegionAnalysis(res.regions[i], std::move(shard.cols),
                               params.memory, params.branch,
                               std::move(shard.analyses)),
                pred.featureConfig());
        } else if (cfg.analysisStore) {
            // Independent-state analyses are the store's convention;
            // share them when a store is configured.
            provider = std::make_unique<FeatureProvider>(
                cfg.analysisStore->acquire(res.regions[i],
                                           cfg.warmupChunks),
                pred.featureConfig());
        } else {
            provider = std::make_unique<FeatureProvider>(
                res.regions[i], pred.featureConfig(), cfg.warmupChunks);
        }
        std::vector<float> row;
        row.reserve(res.featureDim);
        provider->assemble(params, row);
        panic_if(row.size() != res.featureDim,
                 "assembled %zu features, layout dim %zu", row.size(),
                 res.featureDim);
        std::copy(row.begin(), row.end(),
                  rows.begin() + i * res.featureDim);
        if (cfg.state == StateMode::Carry)
            giveSpareColumns(provider->analysis().releaseRegionColumns());
    };

    if (cfg.mode == ExecMode::Scalar) {
        if (cfg.state == StateMode::Carry) {
            Stopwatch analyze_timer;
            stitch(span, res.regions, params, stitched, {});
            res.analyzeSeconds = analyze_timer.seconds();
        }
        Stopwatch feature_timer;
        for (size_t i = 0; i < n; ++i)
            featurize(i);
        res.featureSeconds = feature_timer.seconds();

        // The pre-pipeline region loop: one scalar MLP forward per
        // region (exactly what predictCpi runs on an assembled row).
        Stopwatch infer_timer;
        res.regionCpi.resize(n);
        for (size_t i = 0; i < n; ++i) {
            res.regionCpi[i] =
                pred.model().predict(&rows[i * res.featureDim]);
        }
        res.inferSeconds = infer_timer.seconds();
    } else {
        std::vector<std::future<void>> futures;
        futures.reserve(n);
        Stopwatch feature_timer;
        if (cfg.state == StateMode::Independent) {
            for (size_t i = 0; i < n; ++i)
                futures.push_back(pool->submit([&featurize, i] {
                    featurize(i);
                }));
            for (auto &future : futures)
                future.get();
        } else {
            // Overlap the stitch pass with featurization: region i goes
            // to the pool as soon as it is stitched, while this thread
            // stitches region i + 1. After the stitch this thread
            // featurizes whatever no worker has claimed, newest first
            // (its trace is the one still in this core's cache). Each
            // region is claimed exactly once.
            std::vector<std::atomic<bool>> claimed(n);
            auto claim = [&](size_t i) {
                if (!claimed[i].exchange(true))
                    featurize(i);
            };
            Stopwatch analyze_timer;
            stitch(span, res.regions, params, stitched, [&](size_t i) {
                if (pool)
                    futures.push_back(pool->submit([&claim, i] {
                        claim(i);
                    }));
            });
            res.analyzeSeconds = analyze_timer.seconds();
            feature_timer.reset();
            for (size_t i = n; i-- > 0;)
                claim(i);
            for (auto &future : futures)
                future.get();
        }
        res.featureSeconds = feature_timer.seconds();

        Stopwatch infer_timer;
        res.regionCpi =
            pred.predictCpiFromFeatures(rows, n, cfg.mlpThreads);
        res.inferSeconds = infer_timer.seconds();
    }

    res.programCpi =
        aggregateCpi(res.regions, res.regionCpi, &res.instructions);
    if (cfg.keepFeatures)
        res.features = std::move(rows);
    res.totalSeconds = total.seconds();
    return res;
}

} // namespace pipeline
} // namespace concorde
