/**
 * @file
 * Trace analysis (paper Section 3.1): turns a raw region trace into a
 * "Concorde trace" -- per-instruction execution-latency estimates from an
 * in-order data-cache simulation (per memory configuration), I-cache
 * access latencies from an in-order instruction-cache simulation, and
 * branch misprediction flags from branch-predictor simulation.
 *
 * The region is held columnar (TraceColumns, the one trace layout); each
 * side is built by its own sweep over the columns, warmup then region.
 * The row-based per-side analyses of AnalyzerCarryState are kept only as
 * the bitwise reference oracle for those sweeps. All analyses are
 * memoized per configuration behind per-key once-init latches, so
 * concurrent consumers of *different* configurations on a shared snapshot
 * build in parallel (instances may be shared through the AnalysisStore);
 * AnalyzerCarryState is inherently sequential and stays single-threaded.
 */

#ifndef CONCORDE_ANALYSIS_TRACE_ANALYZER_HH
#define CONCORDE_ANALYSIS_TRACE_ANALYZER_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "analysis/memory_state_machine.hh"
#include "branch/predictor.hh"
#include "memory/hierarchy.hh"
#include "trace/instruction.hh"
#include "trace/program_model.hh"
#include "trace/trace_columns.hh"

namespace concorde
{

/** D-side analysis for one (L1d, L2, prefetch) configuration. */
struct DSideAnalysis
{
    /** Estimated execution latency per instruction (loads vary by level). */
    std::vector<int32_t> execLat;
    /** Cache level serving each load (L1 for non-loads). */
    std::vector<CacheLevel> loadLevel;
    HierarchyStats stats;
};

/** I-side analysis for one (L1i, L2) configuration. */
struct ISideAnalysis
{
    /** True when instruction i touches a new I-cache line. */
    std::vector<uint8_t> newLine;
    /** Line access latency at i (valid where newLine[i]; 1 = L1i hit). */
    std::vector<int32_t> lineLat;
    HierarchyStats stats;
};

/** Branch-prediction analysis for one predictor configuration. */
struct BranchAnalysis
{
    std::vector<uint8_t> mispredict;    ///< per instruction
    uint64_t numBranches = 0;
    uint64_t numMispredicts = 0;

    double
    mispredictRate() const
    {
        return numBranches ? static_cast<double>(numMispredicts)
            / static_cast<double>(numBranches) : 0.0;
    }
};

/**
 * The three analyses of one shard, as AnalyzerCarryState::analyzeShard
 * produces them and the seeding RegionAnalysis constructor takes them.
 */
struct ShardAnalyses
{
    DSideAnalysis dside;
    ISideAnalysis iside;
    BranchAnalysis branches;
};

/** I-side fetch latency of an L1i hit (fetch-pipeline access). */
constexpr int kL1iHitLat = 1;

/**
 * Default warmup prefix, in chunks: the instructions immediately before
 * the region are replayed to warm caches and predictors before any
 * statistics are taken (both in trace analysis and in the reference
 * simulator), so a region's CPI approximates its steady-state CPI.
 */
constexpr uint32_t kDefaultWarmupChunks = 8;

/**
 * Branch-predictor seed convention shared by RegionAnalysis and the
 * stitched pipeline: a pure function of (program, trace, start chunk),
 * so the carried-state pass over a span and the unsplit analysis of the
 * same span draw identical Simple-predictor outcomes.
 */
uint64_t branchSeedFor(int program_id, int trace_id, uint64_t start_chunk);

/**
 * A region plus all of its memoized trace analyses. The paper's offline
 * stage 1; every downstream consumer (analytical models, the reference
 * simulator's branch flags) reads from here.
 *
 * Memoization is per-key latched: one instance may be shared between
 * threads (the AnalysisStore hands out shared_ptr snapshots), concurrent
 * dside()/iside()/branches()/analyzeAll() calls compute each
 * configuration exactly once, and builds of *different* configurations
 * proceed concurrently. Each side has exactly one sweep and one way into
 * its memo, and a ready entry never changes: returned references stay
 * valid for the lifetime of the instance.
 */
class RegionAnalysis
{
  public:
    /**
     * Generate and index a region. `warmup_chunks` extra chunks are
     * generated before the region and used to warm caches and predictors
     * (both trace analysis and the reference simulator use the same
     * warmup convention). When the warmup window overlaps the region
     * (a region at the trace head), the overlapping chunks are generated
     * once and sliced, not generated twice.
     */
    explicit RegionAnalysis(const RegionSpec &spec,
                            uint32_t warmup_chunks = kDefaultWarmupChunks);

    /**
     * Wrap a pre-generated region with an empty warmup, its memos seeded
     * with `sides` for (mem, branch): the stitched pipeline's
     * carried-state analyses. Any other configuration is analyzed on
     * demand and sees no warmup prefix.
     */
    RegionAnalysis(const RegionSpec &spec, TraceColumns cols,
                   const MemoryConfig &mem, const BranchConfig &branch,
                   ShardAnalyses sides);

    const RegionSpec &spec() const { return regionSpec; }

    /** Region / warmup traces. */
    const TraceColumns &regionColumns() const { return region; }
    const TraceColumns &warmupColumns() const { return warmup; }
    size_t regionSize() const { return region.size(); }
    size_t warmupSize() const { return warmup.size(); }

    /**
     * Warmup + region concatenated with the region's dependency indices
     * rebased by the warmup length -- exactly the combined trace the
     * cycle-level simulator consumes. Built on first call under a
     * once-init latch (safe to call from many threads), then cached for
     * the instance lifetime, so labeling N design points of one region
     * rebuilds nothing.
     */
    const TraceColumns &combinedColumns() const;

    /**
     * Mispredict flags aligned with combinedColumns(): zero across the
     * warmup prefix, branches(config).mispredict across the region.
     * Memoized per branch configuration.
     */
    const std::vector<uint8_t> &combinedFlags(const BranchConfig &config);

    const LoadLineIndex &loadIndex() const { return loadLineIndex; }

    /**
     * Move the region's trace out, for a caller that is done with this
     * analysis and recycles the trace's buffers. Nothing may read the
     * analysis afterwards.
     */
    TraceColumns releaseRegionColumns() { return std::move(region); }

    /** In-order D-cache simulation (memoized per d-side config). */
    const DSideAnalysis &dside(const MemoryConfig &config);
    /** In-order I-cache simulation (memoized per i-side config). */
    const ISideAnalysis &iside(const MemoryConfig &config);
    /** Branch-predictor simulation (memoized per predictor config). */
    const BranchAnalysis &branches(const BranchConfig &config);

    /**
     * Every side of (config, branch): dside(config), iside(config),
     * branches(branch). Sides already memoized (e.g. a sweep config
     * sharing its d-side with a previous config) are not re-analyzed,
     * which is what makes incremental sweep re-analysis cheap. Each
     * getter takes only its own side's latch, so a side another thread
     * is building is waited for without holding any other.
     */
    void analyzeAll(const MemoryConfig &config, const BranchConfig &branch);

    /** Number of memoized d-side / i-side / branch analyses (for tests). */
    size_t numDsideAnalyses() const { return st->dsides.numReady(); }
    size_t numIsideAnalyses() const { return st->isides.numReady(); }
    size_t numBranchAnalyses() const { return st->branchAnalyses.numReady(); }

  private:
    /**
     * Per-key once-init memo (the AnalysisStore idiom): a brief map lock
     * hands out the per-key entry; the build itself runs under that
     * entry's own latch, so different keys build concurrently and
     * completed entries are read lock-free. get() is the only way in.
     */
    template <typename T>
    struct SideMemo
    {
        /** The entry for `key`, built by `build()` on first call. */
        template <typename Build>
        T &
        get(uint32_t key, Build &&build)
        {
            Entry &e = entryFor(key);
            if (T *p = e.ready.load(std::memory_order_acquire))
                return *p;
            std::lock_guard<std::mutex> lock(e.buildMtx);
            if (T *p = e.ready.load(std::memory_order_relaxed))
                return *p;
            e.value = std::make_unique<T>(build());
            e.ready.store(e.value.get(), std::memory_order_release);
            return *e.value;
        }

        size_t
        numReady() const
        {
            std::lock_guard<std::mutex> lock(mapMtx);
            size_t n = 0;
            for (const auto &kv : entries) {
                if (kv.second->ready.load(std::memory_order_acquire))
                    ++n;
            }
            return n;
        }

      private:
        struct Entry
        {
            std::mutex buildMtx;
            std::atomic<T *> ready{nullptr};
            std::unique_ptr<T> value;   ///< set once, under buildMtx
        };

        Entry &
        entryFor(uint32_t key)
        {
            std::lock_guard<std::mutex> lock(mapMtx);
            auto &slot = entries[key];
            if (!slot)
                slot = std::make_unique<Entry>();
            return *slot;
        }

        mutable std::mutex mapMtx;
        std::map<uint32_t, std::unique_ptr<Entry>> entries;
    };

    /** Non-movable innards, boxed so the class stays movable. */
    struct State
    {
        SideMemo<DSideAnalysis> dsides;
        SideMemo<ISideAnalysis> isides;
        SideMemo<BranchAnalysis> branchAnalyses;
        /** Simulator flags layout per branch config (combinedFlags). */
        SideMemo<std::vector<uint8_t>> combinedFlagLayouts;
        /** combinedColumns(), under the single key 0. */
        SideMemo<TraceColumns> combined;
    };

    RegionSpec regionSpec;
    TraceColumns warmup;
    TraceColumns region;
    LoadLineIndex loadLineIndex;
    uint64_t branchSeed;

    std::unique_ptr<State> st{std::make_unique<State>()};
};

/**
 * Carry-over analyzer state for stitched sharded analysis: one d-side
 * hierarchy, one i-side hierarchy, and one branch predictor whose state
 * flows across shard boundaries. Feeding a trace's shards through one
 * instance in order produces, shard by shard, exactly the
 * per-instruction results of a single unsplit pass over the whole trace
 * (the boundary-stitching invariant locked down by test_pipeline).
 *
 * One instance covers one (memory config, branch config) pair. Not
 * thread-safe, and inherently sequential: shards must be analyzed in
 * trace order.
 */
class AnalyzerCarryState
{
  public:
    AnalyzerCarryState(const MemoryConfig &mem, const BranchConfig &branch,
                       uint64_t branch_seed);

    /** Replay instructions into all structures without recording. */
    void warm(const TraceColumns &instrs);
    /** Row variant, the warmup half of the per-side reference oracle. */
    void warm(const std::vector<Instruction> &instrs);

    /**
     * Analyze the next shard in trace order: the three columnar per-side
     * sweeps RegionAnalysis uses, bitwise-identical to calling
     * analyzeDside / analyzeIside / analyzeBranches on the same shard.
     */
    ShardAnalyses analyzeShard(const TraceColumns &shard);

    /**
     * Per-side reference oracle over rows (one sweep each): the bitwise
     * A/B baseline for analyzeShard in tests and bench_analysis_cold.
     */
    DSideAnalysis analyzeDside(const std::vector<Instruction> &shard);
    ISideAnalysis analyzeIside(const std::vector<Instruction> &shard);
    BranchAnalysis analyzeBranches(const std::vector<Instruction> &shard);

  private:
    DataHierarchy dHier;
    InstHierarchy iHier;
    uint64_t lastILine = ~0ULL;     ///< i-side line dedup, carried
    std::unique_ptr<BranchPredictor> predictor;
};

} // namespace concorde

#endif // CONCORDE_ANALYSIS_TRACE_ANALYZER_HH
