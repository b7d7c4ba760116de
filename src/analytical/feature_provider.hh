/**
 * @file
 * FeatureProvider: the offline stages of Concorde (Figure 3, steps 1-2)
 * plus the per-microarchitecture feature selection (step 3's input).
 *
 * For a program region it memoizes every per-resource analytical-model run
 * and every encoded distribution, so that (a) building the ML input for
 * one microarchitecture touches each (resource, value, memory-config)
 * combination at most once, and (b) sweeping the whole design space
 * (Section 5.2.3's precompute) reuses the same cache.
 *
 * ML input layout (the repo-scaled Table 3):
 *   [ 11 primary throughput distributions            x (2P+1) ]
 *   [ branch misprediction rate                      x 1      ]
 *   [ ISB + 3 branch-type count distributions        x (2P+1) ]
 *   [ ROB-sweep mean throughput                      x |sweep| ]
 *   [ execution-latency distribution (log1p)         x (2P+1) ]
 *   [ issue & commit latency distributions (log1p)   x 2*|latSizes|*(2P+1) ]
 *   [ microarchitecture parameter encoding           x 22     ]
 */

#ifndef CONCORDE_ANALYTICAL_FEATURE_PROVIDER_HH
#define CONCORDE_ANALYTICAL_FEATURE_PROVIDER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "analytical/rob_model.hh"
#include "analytical/windows.hh"
#include "common/stats.hh"
#include "uarch/params.hh"

namespace concorde
{

/** Feature-extraction hyperparameters (paper values are P=50, 11 sizes). */
struct FeatureConfig
{
    int windowK = kDefaultWindowK;
    size_t numPercentiles = 25;
    std::vector<int> robSweep = {1, 2, 4, 8, 16, 32, 64, 128, 256, 512,
                                 1024};
    std::vector<int> latencyRobSizes = {1, 4, 16, 64, 256, 1024};
};

/**
 * Field-wise FeatureConfig serialization, shared by the predictor file
 * format and the versioned ModelArtifact bundle.
 */
void saveFeatureConfig(BinaryWriter &out, const FeatureConfig &cfg);
FeatureConfig loadFeatureConfig(BinaryReader &in);

/** Stable fingerprint of a FeatureConfig (dataset/artifact provenance). */
uint64_t featureConfigFingerprint(const FeatureConfig &cfg);

/** Feature groups used for the Figure-12 ablations. */
enum class FeatureGroup : int
{
    Primary = 0,    ///< 11 per-resource throughput distributions
    MispredRate,    ///< scalar branch misprediction rate
    Stalls,         ///< ISB/branch-count distributions + ROB sweep
    Latency,        ///< ROB-model stage-latency distributions
    Params,         ///< target microarchitecture encoding
    NumGroups,
};

/** Index ranges of each group inside the assembled vector. */
class FeatureLayout
{
  public:
    explicit FeatureLayout(const FeatureConfig &config);

    size_t dim() const { return totalDim; }
    size_t encDim() const { return distDim; }

    struct Range { size_t begin = 0; size_t end = 0; };
    Range group(FeatureGroup g) const { return ranges[static_cast<int>(g)]; }

    /** Named blocks with their widths (Table 3 bench). */
    const std::vector<std::pair<std::string, size_t>> &
    blocks() const
    {
        return namedBlocks;
    }

    /** 1/0 keep-mask including exactly the given groups. */
    std::vector<uint8_t> maskFor(const std::vector<FeatureGroup> &groups)
        const;

  private:
    size_t distDim;
    size_t totalDim;
    Range ranges[static_cast<int>(FeatureGroup::NumGroups)];
    std::vector<std::pair<std::string, size_t>> namedBlocks;
};

/**
 * Per-region feature factory.
 *
 * Thread-safety contract: a provider owns mutable memo caches -- the
 * packed-key analytical-model tables (robCache, lqCache, ...) and the
 * lazily encoded feature blocks inside their entries -- and every public
 * method may write to them, so concurrent calls on ONE instance race.
 * The two supported patterns, regression-tested by test_pipeline and
 * test_analysis_store, are (a) worker-local providers, one instance per
 * worker, as AnalysisPipeline, ConcordePredictor::predictSweep and
 * ConcordePredictor::predictCpiBatch do (the last two absorb() their
 * workers' memos back into the lead provider), and (b) one shared
 * instance serialized by an external mutex, as PredictionService does
 * per (model, region). Results are bitwise identical either way. The
 * underlying RegionAnalysis MAY be shared between providers on different
 * threads (the AnalysisStore hands out such snapshots); its own memo
 * tables are internally locked.
 */
class FeatureProvider
{
  public:
    explicit FeatureProvider(const RegionSpec &spec,
                             FeatureConfig config = FeatureConfig{},
                             uint32_t warmup_chunks = kDefaultWarmupChunks);

    /**
     * Wrap a prebuilt RegionAnalysis -- e.g. one the stitched pipeline
     * seeded with its carried per-shard analyses at construction.
     */
    explicit FeatureProvider(RegionAnalysis analysis,
                             FeatureConfig config = FeatureConfig{});

    /**
     * Share an analysis snapshot (e.g. from an AnalysisStore): the trace
     * and every memoized trace analysis are reused across all providers
     * holding the pointer instead of being recomputed per provider.
     */
    explicit FeatureProvider(std::shared_ptr<RegionAnalysis> analysis,
                             FeatureConfig config = FeatureConfig{});

    const FeatureConfig &config() const { return cfg; }
    const FeatureLayout &layout() const { return lay; }
    RegionAnalysis &analysis() { return *region; }
    const std::shared_ptr<RegionAnalysis> &analysisPtr() const
    {
        return region;
    }

    /** Append layout().dim() floats for the given design point. */
    void assemble(const UarchParams &params, std::vector<float> &out);

    /**
     * Pure-analytical CPI estimate: harmonic combination of the per-window
     * minimum over all resource bounds (the "min bound" ablation line).
     */
    double cpiMinBound(const UarchParams &params);

    /** Raw per-window bounds (Figure 1 / tests). */
    const std::vector<double> &robWindows(int rob_size,
                                          const MemoryConfig &mem);
    const std::vector<double> &lqWindows(int lq_size,
                                         const MemoryConfig &mem);
    const std::vector<double> &sqWindows(int sq_size);
    const std::vector<double> &icacheFillWindows(int max_fills,
                                                 const MemoryConfig &mem);
    const std::vector<double> &fetchBufferWindows(int num_buffers,
                                                  const MemoryConfig &mem);
    double robOverallIpc(int rob_size, const MemoryConfig &mem);
    const WindowCounts &counts();

    /**
     * Sweep every parameter value (Section 5.2.3's one-time precompute).
     * @return number of analytical-model invocations performed.
     */
    size_t precomputeAll(bool quantized);

    /** Total memoized model runs so far (for cost accounting). */
    size_t modelRuns() const { return totalModelRuns; }

    /**
     * Is the ROB-model run of this size and d-side config memoized? A
     * batch keeps a run of equal d-side config on a provider that
     * answers yes for the run's first point.
     */
    bool hasRobRun(int rob_size, const MemoryConfig &mem) const
    {
        return hasRobEntry(rob_size, mem.dSideKey(), false);
    }

    /**
     * Move every memo of `other` -- a provider over the same analysis
     * and FeatureConfig, e.g. a batch worker's -- into this one. On a key
     * both hold, this provider's entry stays (the two are equal by
     * construction); `other` keeps only those duplicates. modelRuns()
     * grows by one per model-run entry taken, not by other's count,
     * so a batch split over workers counts what a serial batch would.
     * Panics if the analysis or the config differs.
     */
    void absorb(FeatureProvider &&other);

    /**
     * Trace-analysis estimate of total load latency over the region (the
     * Figure 11 denominator): the sum of dside(mem).execLat over load
     * instructions. Depends only on (region, d-side config), so it is
     * memoized per d-side key -- labeling many design points of one
     * region computes it once.
     */
    uint64_t estimatedLoadLatencySum(const MemoryConfig &mem);

  private:
    /**
     * One memoized ROB-model run. Stage latencies are kept only in
     * encoded form: issue and commit for every latency size, and
     * execution only for execLatencyRobSize(), the one size whose exec
     * encoding assemble() reads. The other sizes never count exec
     * latencies.
     */
    struct RobEntry
    {
        std::vector<double> windows;
        std::vector<float> encWindows;  ///< memoized encoding (lazy)
        double overallIpc = 0.0;
        bool hasLatencies = false;
        std::vector<float> encIssue;
        std::vector<float> encCommit;
        std::vector<float> encExec;     ///< execLatencyRobSize() only
    };

    /** A memoized per-window bound plus its (lazily) encoded form. */
    struct BoundEntry
    {
        std::vector<double> windows;
        std::vector<float> enc;
    };

    /**
     * Packed 64-bit memo key: (parameter value, memory-config key).
     * Values are small positive ints, memory keys fit 32 bits.
     */
    static uint64_t
    packKey(int value, uint32_t mem_key)
    {
        return (static_cast<uint64_t>(static_cast<uint32_t>(value)) << 32)
            | mem_key;
    }

    using BoundCache = std::unordered_map<uint64_t, BoundEntry>;

    /** The memoized run of one size, running it if missing. */
    RobEntry &robEntry(int rob_size, const MemoryConfig &mem,
                       bool need_latencies);

    /** Is this size's entry memoized, with latencies if needed? */
    bool hasRobEntry(int rob_size, uint32_t mem_key,
                     bool need_latencies) const;

    /** The run request of one size (exec latencies for one size only). */
    RobRunRequest robRequest(int rob_size, bool need_latencies) const;

    /**
     * Run every request in one runRobModels() call, memoize each size's
     * windows and encode its latencies. Counts one model run per
     * request.
     */
    void runRobEntries(const MemoryConfig &mem,
                       const std::vector<RobRunRequest> &requests);

    /** Does this ROB size contribute stage-latency feature blocks? */
    bool needsLatencies(int rob_size) const;

    /** The latency size whose exec-latency encoding assemble() reads. */
    int execLatencyRobSize() const;

    /**
     * Fill every ROB size one assemble() touches (the target size, the
     * sweep sizes, and the latency sizes) whose entry is still missing,
     * all in one runRobModels() call. Warm assembles find every entry
     * memoized and run nothing.
     */
    void ensureRobEntries(const UarchParams &params);

    /** Lookup-or-compute memoization shared by all bound caches. */
    template <typename Compute>
    BoundEntry &
    boundEntry(BoundCache &cache, uint64_t key, Compute &&compute)
    {
        auto it = cache.find(key);
        if (it != cache.end())
            return it->second;
        ++totalModelRuns;
        BoundEntry &entry = cache[key];
        entry.windows = compute();
        return entry;
    }

    BoundEntry &lqEntry(int lq_size, const MemoryConfig &mem);
    BoundEntry &sqEntry(int sq_size);
    BoundEntry &ifillEntry(int max_fills, const MemoryConfig &mem);
    BoundEntry &fbufEntry(int num_buffers, const MemoryConfig &mem);
    void encodeWindows(const std::vector<double> &windows,
                       std::vector<float> &out);
    /** Memoized encoding of a cached bound. */
    const std::vector<float> &encoded(BoundEntry &entry);
    /** Memoized per-width issue bound (ALU / FP / LS). */
    BoundEntry &widthEntry(BoundCache &cache, const std::vector<uint32_t>
                           &class_counts, int width);
    BoundEntry &pipesEntry(bool upper, int ls_pipes, int load_pipes);
    void minBoundWindows(const UarchParams &params,
                         std::vector<double> &out);

    FeatureConfig cfg;
    FeatureLayout lay;
    std::shared_ptr<RegionAnalysis> region;
    DistributionEncoder encoder;

    bool haveCounts = false;
    WindowCounts windowCounts;

    std::unordered_map<uint64_t, RobEntry> robCache;
    BoundCache lqCache;
    BoundCache sqCache;
    BoundCache ifillCache;
    BoundCache fbufCache;
    BoundCache aluCache;
    BoundCache fpCache;
    BoundCache lsCache;
    BoundCache pipesLowerCache;
    BoundCache pipesUpperCache;

    /** Parameter-independent encodings (instruction-mix counts), lazy. */
    std::vector<float> encCountDists;

    /** estimatedLoadLatencySum memo, keyed by MemoryConfig::dSideKey(). */
    std::unordered_map<uint32_t, uint64_t> estLoadLatSums;

    size_t totalModelRuns = 0;
    std::vector<double> scratch;
    /** Reused copy buffer for encoding memoized (const) window vectors. */
    std::vector<double> encodeScratch;
};

} // namespace concorde

#endif // CONCORDE_ANALYTICAL_FEATURE_PROVIDER_HH
