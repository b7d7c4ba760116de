/**
 * @file
 * AnalysisPipeline: the end-to-end trace -> features -> prediction path
 * (Figure 3 run at program scale). A trace span is sharded into regions;
 * each shard goes through trace analysis (TraceAnalyzer + the memory
 * state machine) and analytical feature encoding (FeatureProvider), and
 * every region's CPI is evaluated in one batched MLP pass
 * (ConcordePredictor::predictCpiFromFeatures).
 *
 * Two execution modes and two state conventions:
 *
 *   ExecMode::Scalar    one region at a time, scalar MLP forward -- the
 *                       pre-pipeline region loop (baseline and golden
 *                       reference).
 *   ExecMode::Sharded   per-shard featurization fanned out on a
 *                       ThreadPool (shard-local FeatureProviders; see
 *                       the provider's thread-safety contract), one
 *                       batched GEMM for all regions.
 *
 *   StateMode::Independent   every region replays its own warmup prefix
 *                       (the RegionAnalysis convention; matches the
 *                       serve layer's per-region providers bitwise).
 *   StateMode::Carry    cache and branch-predictor state is stitched
 *                       across shard boundaries by a sequential
 *                       AnalyzerCarryState pass, so the sharded run
 *                       reproduces one unsplit pass over the span; each
 *                       instruction is analyzed exactly once, instead
 *                       of once per region plus once per overlapping
 *                       warmup replay. The stitch keeps only the serial
 *                       work -- generate a region's trace, run the
 *                       carried per-side sweeps over it -- and hands
 *                       the trace and its analyses on; featurization
 *                       builds the region's RegionAnalysis (its
 *                       load-line index, its memos seeded with the
 *                       carried sides at construction) and provider.
 *                       Sharded, the pool featurizes region i while
 *                       the caller stitches region i+1, and generates
 *                       the first regions' traces while the caller
 *                       replays the warmup.
 *
 * For a fixed StateMode, Scalar and Sharded produce bitwise-identical
 * per-region CPIs (gated by bench_pipeline_e2e and the golden corpus).
 */

#ifndef CONCORDE_PIPELINE_ANALYSIS_PIPELINE_HH
#define CONCORDE_PIPELINE_ANALYSIS_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/analysis_store.hh"
#include "common/thread_pool.hh"
#include "core/concorde.hh"
#include "core/model_artifact.hh"

namespace concorde
{
namespace pipeline
{

/** How shards execute. */
enum class ExecMode { Scalar, Sharded };

/** How analyzer state crosses shard boundaries. */
enum class StateMode { Independent, Carry };

struct PipelineConfig
{
    uint32_t regionChunks = 8;      ///< shard length, in kChunkLen units
    uint32_t warmupChunks = kDefaultWarmupChunks;
    ExecMode mode = ExecMode::Sharded;
    StateMode state = StateMode::Independent;
    /**
     * Sharded threads (0 = hardware). Independent: pool workers, the
     * caller waits. Carry: the caller counts as one -- it stitches and
     * then featurizes beside threads - 1 pool workers.
     */
    size_t threads = 0;
    size_t mlpThreads = 1;          ///< threads of the batched MLP pass
    bool keepFeatures = false;      ///< retain the feature matrix

    /**
     * Optional shared analysis cache for Independent-state runs:
     * region analyses are acquired from (and left in) the store, so
     * repeated runs over overlapping spans -- and any other layer that
     * touches the same regions -- skip trace analysis entirely. Results
     * are bitwise identical with or without it. Deliberately opt-in
     * (nullptr = analyze per run): the pipeline perf gates measure the
     * cold path, and Carry-state analyses are span-position-dependent
     * and never cached.
     */
    AnalysisStore *analysisStore = nullptr;
};

struct PipelineResult
{
    std::vector<RegionSpec> regions;
    std::vector<double> regionCpi;  ///< one per region, region order
    double programCpi = 0.0;        ///< instruction-weighted aggregate
    uint64_t instructions = 0;

    /** keepFeatures: row-major regions.size() x featureDim matrix. */
    std::vector<float> features;
    size_t featureDim = 0;

    /**
     * Wall-clock phase times; they never sum past totalSeconds.
     * analyzeSeconds is the Carry stitch pass -- trace generation and
     * the carried sweeps -- and 0 otherwise. featureSeconds is the
     * featurization after the stitch; under Carry it includes building
     * each region's RegionAnalysis and provider. Sharded+Carry overlaps
     * featurization with the stitch, so there featureSeconds is only
     * the featurization tail after it.
     */
    double analyzeSeconds = 0.0;
    double featureSeconds = 0.0;
    double inferSeconds = 0.0;      ///< MLP pass
    double totalSeconds = 0.0;
};

/**
 * Instruction-weighted whole-program CPI over per-region CPIs, summed in
 * region order (all execution modes share this exact reduction).
 */
double aggregateCpi(const std::vector<RegionSpec> &regions,
                    const std::vector<double> &region_cpi,
                    uint64_t *instructions_out = nullptr);

class AnalysisPipeline
{
  public:
    /** The predictor must outlive the pipeline. */
    explicit AnalysisPipeline(const ConcordePredictor &predictor,
                              PipelineConfig config = PipelineConfig{});

    /**
     * Build from a versioned ModelArtifact: the pipeline owns the
     * predictor it constructs, so the artifact itself need not outlive
     * the pipeline.
     */
    explicit AnalysisPipeline(const ModelArtifact &artifact,
                              PipelineConfig config = PipelineConfig{});

    const PipelineConfig &config() const { return cfg; }

    /** Analyze a span end to end for one design point. */
    PipelineResult run(const TraceSpan &span, const UarchParams &params);

  private:
    /** One region as the Carry stitch leaves it for featurization. */
    struct StitchedRegion
    {
        TraceColumns cols;
        ShardAnalyses analyses;     ///< carried-state d/i/branch sides
    };

    /**
     * Regions whose traces the pool generates while the caller replays
     * the warmup (the pool has nothing to featurize yet). Kept small:
     * each is a region trace held before its sweep.
     */
    static constexpr size_t kGenerateAhead = 2;

    /**
     * The Carry stitch pass on the calling thread: generates each
     * region's trace and runs the carried sweeps over it, fills
     * stitched[i] in region order, and calls ready(i) (when set) as
     * soon as region i is stitched. Building the region's
     * RegionAnalysis and provider is left to featurization.
     */
    void stitch(const TraceSpan &span,
                const std::vector<RegionSpec> &regions,
                const UarchParams &params,
                std::vector<StitchedRegion> &stitched,
                const std::function<void(size_t)> &ready);

    /** A spent region trace's buffers, or empty columns if none. */
    TraceColumns takeSpareColumns();
    void giveSpareColumns(TraceColumns cols);

    /** Set by the artifact ctor; declared before `pred` so the reference
     *  can bind to it during construction. */
    std::shared_ptr<const ConcordePredictor> owned;
    const ConcordePredictor &pred;
    const PipelineConfig cfg;
    std::unique_ptr<ThreadPool> pool;   ///< Sharded mode only; see threads

    /**
     * Carry: region traces whose rows are out, handed back so the next
     * stitch generates into their buffers instead of fresh allocations.
     * At most kMaxSpareColumns are kept; further ones are freed.
     */
    static constexpr size_t kMaxSpareColumns = 16;
    std::mutex spareMtx;
    std::vector<TraceColumns> spareColumns;
};

} // namespace pipeline
} // namespace concorde

#endif // CONCORDE_PIPELINE_ANALYSIS_PIPELINE_HH
