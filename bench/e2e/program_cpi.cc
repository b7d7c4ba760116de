/**
 * @file
 * program_cpi: call i predicts the CPI of a seed-drawn span of trace 0
 * of a program (suites P, C, O, S in turn) at ARM N1 with the sharded,
 * carried-state AnalysisPipeline and no analysis store -- the cold
 * whole-program path. Trace generation, the sequential carried analysis
 * pass and per-region assembly dominate; the GEMM is small and the
 * simulator idle.
 */

#include <array>

#include "e2e.hh"
#include "pipeline/analysis_pipeline.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace e2e
{

namespace
{

using pipeline::AnalysisPipeline;
using pipeline::PipelineConfig;

constexpr uint64_t kSpanStream = 0x9C90;
constexpr uint64_t kCheckStream = 0x9C91;

/** Span length in chunks: 8 regions, 131,072 instructions. */
constexpr uint64_t kSpanChunks = 64;

PipelineConfig
pipelineConfig(pipeline::ExecMode mode)
{
    PipelineConfig config;
    config.regionChunks = kRegionChunks;
    config.mode = mode;
    config.state = pipeline::StateMode::Carry;
    config.threads = kThreads;
    config.mlpThreads = kThreads;
    return config;
}

class ProgramCpi : public SequentialWorkload
{
  public:
    explicit ProgramCpi(uint64_t seed) : seed(seed)
    {
        const auto &corpus = workloadCorpus();
        const std::string prefixes = "PCOS";
        for (size_t id = 0; id < corpus.size(); ++id) {
            const size_t suite = prefixes.find(corpus[id].code().at(0));
            if (suite != std::string::npos)
                suites[suite].push_back(static_cast<int>(id));
        }
    }

    void
    setup() override
    {
        pipe.reset();
        predictor = std::make_unique<ConcordePredictor>(makePredictor());
        pipe = std::make_unique<AnalysisPipeline>(
            *predictor, pipelineConfig(pipeline::ExecMode::Sharded));
        touchAllPrograms();
        (void)pipe->run(spanFor(kWarmupSeed, 0), UarchParams::armN1());
    }

    CheckResult
    check(const RunOutput &base) override
    {
        // One seed-chosen span again, one region at a time with the
        // scalar MLP forward.
        CheckResult result;
        AnalysisPipeline scalar(*predictor,
                                pipelineConfig(pipeline::ExecMode::Scalar));
        for (size_t i : pickIndices(seed, kCheckStream, base.calls.size(), 1)) {
            const auto res = scalar.run(spanFor(seed, i), UarchParams::armN1());
            std::vector<double> expect = res.regionCpi;
            expect.push_back(res.programCpi);
            ++result.attempted;
            if (expect != base.calls[i].values)
                ++result.failed;
        }
        return result;
    }

    const char *opName() const override { return "region CPIs"; }

  protected:
    CallOutput
    call(size_t i, bool traced, LayerCounts &counts, uint64_t &ops) override
    {
        // The same call traced or not: the pipeline times its own
        // phases, so the traced run reports those instead of restating
        // AnalysisPipeline::run one layer call at a time.
        pipeline::PipelineResult res;
        {
            Span root("program_cpi", i + 1);
            Span span("pipeline");
            res = pipe->run(spanFor(seed, i), UarchParams::armN1());
        }
        CallOutput out;
        out.values = res.regionCpi;
        out.values.push_back(res.programCpi);
        ops += res.regions.size();
        if (traced) {
            counts.traceInstructions += res.instructions;
            counts.pipelineAnalyzeSeconds += res.analyzeSeconds;
            counts.pipelineFeatureSeconds += res.featureSeconds;
            counts.pipelineInferSeconds += res.inferSeconds;
            ++counts.pipelineRuns;
        }
        return out;
    }

  private:
    TraceSpan
    spanFor(uint64_t input_seed, size_t i) const
    {
        Rng rng(hashMix(input_seed, kSpanStream, i));
        const auto &programs = suites[i % suites.size()];
        TraceSpan span;
        span.programId = programs[rng.nextBounded(programs.size())];
        span.traceId = 0;
        span.numChunks = kSpanChunks;
        const uint64_t length =
            workloadCorpus()[span.programId].chunksPerTrace;
        span.startChunk = kDefaultWarmupChunks
            + rng.nextBounded(length - kSpanChunks - kDefaultWarmupChunks);
        return span;
    }

    const uint64_t seed;
    std::array<std::vector<int>, 4> suites;
    std::unique_ptr<ConcordePredictor> predictor;
    std::unique_ptr<AnalysisPipeline> pipe;     ///< borrows *predictor
};

} // anonymous namespace

std::unique_ptr<Workload>
makeProgramCpi(uint64_t seed)
{
    return std::make_unique<ProgramCpi>(seed);
}

} // namespace e2e
} // namespace concorde
