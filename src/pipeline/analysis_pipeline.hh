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
 *                       warmup replay. Sharded, the pool featurizes
 *                       region i while the caller stitches region i+1.
 *
 * For a fixed StateMode, Scalar and Sharded produce bitwise-identical
 * per-region CPIs (gated by bench_pipeline_e2e and the golden corpus).
 */

#ifndef CONCORDE_PIPELINE_ANALYSIS_PIPELINE_HH
#define CONCORDE_PIPELINE_ANALYSIS_PIPELINE_HH

#include <cstdint>
#include <functional>
#include <memory>
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
     * Sharded+Carry overlaps featurization with the stitch, so there
     * featureSeconds is only the featurization tail after it.
     */
    double analyzeSeconds = 0.0;    ///< the stitch pass (Carry; else 0)
    double featureSeconds = 0.0;    ///< featurization after the stitch
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
    /**
     * The Carry stitch pass on the calling thread: fills providers[i]
     * in region order and calls ready(i) (when set) as soon as region
     * i's provider exists.
     */
    void stitch(const TraceSpan &span,
                const std::vector<RegionSpec> &regions,
                const UarchParams &params,
                std::vector<std::unique_ptr<FeatureProvider>> &providers,
                const std::function<void(size_t)> &ready);

    /** Set by the artifact ctor; declared before `pred` so the reference
     *  can bind to it during construction. */
    std::shared_ptr<const ConcordePredictor> owned;
    const ConcordePredictor &pred;
    const PipelineConfig cfg;
    std::unique_ptr<ThreadPool> pool;   ///< Sharded mode only; see threads
};

} // namespace pipeline
} // namespace concorde

#endif // CONCORDE_PIPELINE_ANALYSIS_PIPELINE_HH
