/**
 * @file
 * Shared pieces of the end-to-end benchmark program: the workload
 * interface, the per-call output record, the span recorder used by
 * traced runs, and the per-layer counters.
 *
 * A workload is a sequence of calls into the library's public API, call
 * i using inputs derived only from (--seed, i). An untraced run makes
 * calls until the time budget is spent; a traced run makes the first of
 * those calls again through the public per-layer entry points, with
 * spans around each, and must reproduce their outputs bit for bit.
 *
 * Where the library times its own phases, the traced run reports those
 * timings (program_cpi: PipelineResult). Elsewhere it replays the
 * library's orchestration one public layer call at a time, and each such
 * replay must track the function it restates, or its per-layer numbers
 * describe the replay and not the library:
 *   - dse_sweep:   ConcordePredictor::predictSweep (src/core/concorde.cc)
 *   - attribution: ConcordePredictor::predictCpiBatch (src/core/concorde.cc)
 *   - labeling:    labelRange (src/core/dataset.cc)
 * The bitwise output check catches a replay whose results drift, not
 * one whose work drifts.
 */

#ifndef CONCORDE_BENCH_E2E_E2E_HH
#define CONCORDE_BENCH_E2E_E2E_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/concorde.hh"
#include "trace/program_model.hh"

namespace concorde
{
namespace e2e
{

/** Thread budget handed to every library `threads` argument. */
constexpr size_t kThreads = 2;

/** Region length (16,384 instructions) used by every workload. */
constexpr uint32_t kRegionChunks = 8;

/**
 * Seed of the warm-up call that ends each setup, so lazy one-time
 * set-up (program tables, allocator growth, worker threads) is paid in
 * the process's first, cold setup -- the one timed as setup_s -- and not
 * in the first timed call. Fixed, so setup_s does not vary with --seed;
 * nothing it builds is cached across calls.
 */
constexpr uint64_t kWarmupSeed = 0xA11CE;

/** Outputs of one call, compared bitwise between runs and checks. */
struct CallOutput
{
    std::vector<double> values;     ///< CPIs, labels, Shapley values
    std::vector<uint64_t> hashes;   ///< FNV-1a of bulky outputs (rows)
};

/** Which call ran when, in seconds since its pass began, and its ops. */
struct CallTime
{
    uint64_t id = 0;        ///< the same call has the same id in a replay
    double start = 0.0;
    double end = 0.0;
    uint64_t ops = 0;
};

/** One measured (or replayed) pass over a workload's calls. */
struct RunOutput
{
    std::vector<CallOutput> calls;  ///< in input order
    std::vector<CallTime> times;    ///< one per call, same order
    uint64_t ops = 0;               ///< user-visible results produced
    uint64_t failed = 0;            ///< ops that returned an error
    double seconds = 0.0;           ///< wall time of the pass
};

/** Outcome of the off-the-clock correctness checks. */
struct CheckResult
{
    uint64_t attempted = 0;
    uint64_t failed = 0;
};

/**
 * Work counters of the traced pass, reported as per-layer metrics.
 * Incremented from worker threads, hence atomic.
 */
struct LayerCounts
{
    std::atomic<uint64_t> traceInstructions{0};  ///< generated, incl. warmup
    std::atomic<uint64_t> sidesBuilt{0};     ///< d/i/branch analyses held
    std::atomic<uint64_t> l1dHits{0};        ///< at the base d-side config
    std::atomic<uint64_t> dAccesses{0};
    std::atomic<uint64_t> modelRuns{0};      ///< analytical-model runs
    std::atomic<uint64_t> mlRows{0};
    std::atomic<uint64_t> mlCalls{0};

    /** AnalysisPipeline's own phase timings, summed over its runs. */
    double pipelineAnalyzeSeconds = 0.0;
    double pipelineFeatureSeconds = 0.0;
    double pipelineInferSeconds = 0.0;
    uint64_t pipelineRuns = 0;

    /** Serve-side counters, from ServeStats. */
    double cacheHitRatio = 0.0;
    double rowsPerBatch = 0.0;
    uint64_t batches = 0;
    uint64_t nonOk = 0;
    double serverP99Ms = 0.0;
    double clientBurstP99Ms = 0.0;
};

/** One workload: set up, run, check. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /**
     * Build everything the timed phase needs (model, inputs, warm
     * state) from scratch; the process's first call is timed as
     * setup_s. Called again before a traced replay, so the replay starts
     * from the same state.
     */
    virtual void setup() = 0;

    /**
     * Untraced: make calls until `seconds` have elapsed. Traced: make
     * again, with spans, exactly the calls of the last untraced run that
     * started within its first `seconds`, adding to `counts`.
     */
    virtual RunOutput run(double seconds, bool traced,
                          LayerCounts &counts) = 0;

    /** Re-derive a seed-chosen sample of `base`'s outputs another way. */
    virtual CheckResult check(const RunOutput &base) = 0;

    /** What one op is, for the human-readable report. */
    virtual const char *opName() const = 0;

    /**
     * Whether the traced run's spans must cover the workload's time.
     * False where the time is spent behind an interface the benchmark
     * cannot span (a server's threads).
     */
    virtual bool coverageGated() const { return true; }
};

/**
 * Base for workloads whose calls run one after another on the main
 * thread (each call may use kThreads library threads internally).
 */
class SequentialWorkload : public Workload
{
  public:
    RunOutput run(double seconds, bool traced, LayerCounts &counts) override;

  protected:
    /** Call i; returns its outputs and adds its op count to `ops`. */
    virtual CallOutput call(size_t i, bool traced, LayerCounts &counts,
                            uint64_t &ops) = 0;

  private:
    /** Start times of the last untraced run's calls. */
    std::vector<double> untracedStarts;
};

std::unique_ptr<Workload> makeDseSweep(uint64_t seed);
std::unique_ptr<Workload> makeAttribution(uint64_t seed);
std::unique_ptr<Workload> makeProgramCpi(uint64_t seed);
std::unique_ptr<Workload> makeLabeling(uint64_t seed);
std::unique_ptr<Workload> makeServeMixed(uint64_t seed);

// ---- shared inputs ----

/** The production-shape untrained model every workload predicts with. */
ConcordePredictor makePredictor();

/**
 * Seed-drawn region of kRegionChunks chunks (program weighted by trace
 * length, as in dataset sampling); `stream` separates the uses.
 */
RegionSpec drawRegion(uint64_t seed, uint64_t stream, uint64_t index);

/** `count` seed-chosen indices in [0, n), with repeats (none if n = 0). */
std::vector<size_t> pickIndices(uint64_t seed, uint64_t stream, size_t n,
                                size_t count);

/** Build every program's generator tables (lazy one-time set-up). */
void touchAllPrograms();

/** FNV-1a over raw bytes, continuing from `h`. */
uint64_t fnv1a(const void *data, size_t bytes,
               uint64_t h = 0xcbf29ce484222325ULL);

/** Count the d/i/branch analyses held by `analysis`. */
uint64_t sidesHeld(const RegionAnalysis &analysis);

// ---- spans ----

struct SpanBuffer;

/**
 * RAII span: records (name, start, end, parent, request) into a
 * per-thread buffer while tracing is on; a no-op otherwise. Names are
 * string literals. A root span (no open parent on its thread) marks
 * work a thread does for the workload; nested spans name the layer.
 */
class Span
{
  public:
    explicit Span(const char *name, uint64_t request = 0);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

  private:
    SpanBuffer *buf = nullptr;
    size_t index = 0;
};

/** Turn span recording on or off (off by default). */
void setTracing(bool on);

/** Per-layer self times of everything recorded so far. */
struct SpanSummary
{
    std::map<std::string, double> selfSeconds;  ///< nested spans, by name
    double rootSeconds = 0.0;   ///< Σ root-span time over all threads
};

SpanSummary summarizeSpans();

/** Write every recorded span as Chrome trace-event JSON. */
bool writeChromeTrace(const std::string &path);

} // namespace e2e
} // namespace concorde

#endif // CONCORDE_BENCH_E2E_E2E_HH
