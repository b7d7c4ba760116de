/**
 * @file
 * GoldenHarness: the committed golden-reference corpus for the
 * end-to-end pipeline. Each case pins a small canned trace span, a
 * design point, a feature configuration, and a deterministic untrained
 * model; the committed file holds the expected per-region CPIs, the
 * whole-program CPI, and the first region's full feature row for BOTH
 * state conventions (independent warmup replay and carried state).
 *
 * Every pipeline configuration must reproduce these numbers: the scalar
 * region loop is the reference executor, and the sharded pipeline and
 * the serve layer (each region submitted on the Bulk class) must match
 * it bitwise (test_golden).
 *
 * Regeneration: CONCORDE_REGEN_GOLDEN=1 ./tests/test_golden rewrites
 * the corpus in place (see tests/golden/README.md). CI only ever diffs.
 */

#ifndef CONCORDE_TESTS_GOLDEN_HARNESS_HH
#define CONCORDE_TESTS_GOLDEN_HARNESS_HH

#include <cstdio>
#include <cstdlib>
#include <future>
#include <string>
#include <vector>

#include "core/artifacts.hh"
#include "pipeline/analysis_pipeline.hh"
#include "serve/prediction_service.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace golden
{

/** One committed golden case. */
struct GoldenCase
{
    std::string name;
    TraceSpan span;
    uint32_t regionChunks = 2;
    UarchParams params;
    FeatureConfig features;
    std::vector<size_t> hidden;     ///< untrained-model hidden widths
    uint64_t modelSeed = 0;
};

/** Expected outputs of a case, one block per state convention. */
struct GoldenRecord
{
    std::vector<double> cpiIndependent;
    std::vector<double> cpiCarry;
    double programCpiIndependent = 0.0;
    double programCpiCarry = 0.0;
    /** First region's full feature row under each convention. */
    std::vector<float> featuresIndependent;
    std::vector<float> featuresCarry;
};

/** Shrunken feature space shared by the fast cases. */
inline FeatureConfig
smallFeatures()
{
    FeatureConfig cfg;
    cfg.numPercentiles = 5;
    cfg.robSweep = {4, 64};
    cfg.latencyRobSizes = {4, 64};
    return cfg;
}

/** The committed corpus (stable names; files live in tests/golden/). */
inline std::vector<GoldenCase>
corpus()
{
    std::vector<GoldenCase> cases;

    {
        GoldenCase c;
        c.name = "s7_tage_small";
        c.span.programId = programIdByCode("S7");
        c.span.startChunk = 16;
        c.span.numChunks = 4;
        c.regionChunks = 2;
        c.params = UarchParams::armN1();
        c.features = smallFeatures();
        c.hidden = {16};
        c.modelSeed = 101;
        cases.push_back(std::move(c));
    }
    {
        GoldenCase c;
        c.name = "p1_simplebp_prefetch";
        c.span.programId = programIdByCode("P1");
        c.span.startChunk = 24;
        c.span.numChunks = 3;
        c.regionChunks = 1;
        c.params = UarchParams::armN1();
        c.params.robSize = 512;
        c.params.branch.type = BranchConfig::Type::Simple;
        c.params.branch.simpleMispredictPct = 10;
        c.params.memory.prefetchDegree = 4;
        c.features = smallFeatures();
        c.hidden = {16};
        c.modelSeed = 102;
        cases.push_back(std::move(c));
    }
    {
        // One case on the full Table-3 layout: locks the production
        // feature dimension and block order against silent drift.
        GoldenCase c;
        c.name = "c1_full_layout";
        c.span.programId = programIdByCode("C1");
        c.span.startChunk = 16;
        c.span.numChunks = 2;
        c.regionChunks = 1;
        c.params = UarchParams::armN1();
        c.params.lqSize = 64;
        c.features = FeatureConfig{};
        c.hidden = {32};
        c.modelSeed = 103;
        cases.push_back(std::move(c));
    }
    return cases;
}

inline ConcordePredictor
predictorFor(const GoldenCase &c)
{
    return ConcordePredictor(
        artifacts::untrainedModel(c.features, c.modelSeed, c.hidden),
        c.features);
}

/**
 * Compute a case's record with the reference executor: the scalar
 * region loop under both state conventions, default warmup (the serve
 * layer's convention).
 */
inline GoldenRecord
compute(const GoldenCase &c)
{
    const ConcordePredictor predictor = predictorFor(c);
    GoldenRecord record;

    pipeline::PipelineConfig config;
    config.regionChunks = c.regionChunks;
    config.mode = pipeline::ExecMode::Scalar;
    config.keepFeatures = true;

    config.state = pipeline::StateMode::Independent;
    {
        pipeline::AnalysisPipeline pipe(predictor, config);
        const auto result = pipe.run(c.span, c.params);
        record.cpiIndependent = result.regionCpi;
        record.programCpiIndependent = result.programCpi;
        record.featuresIndependent.assign(
            result.features.begin(),
            result.features.begin() + result.featureDim);
    }
    config.state = pipeline::StateMode::Carry;
    {
        pipeline::AnalysisPipeline pipe(predictor, config);
        const auto result = pipe.run(c.span, c.params);
        record.cpiCarry = result.regionCpi;
        record.programCpiCarry = result.programCpi;
        record.featuresCarry.assign(
            result.features.begin(),
            result.features.begin() + result.featureDim);
    }
    return record;
}

/**
 * Serve a whole span through the typed API: every region of
 * shardSpan(span, region_chunks) is submitted at once on the Bulk class,
 * and the answers are aggregated with pipeline::aggregateCpi. Fills the
 * regions, regionCpi, programCpi and instructions of the result; a
 * non-OK answer is a test failure.
 */
inline pipeline::PipelineResult
serveSpan(serve::PredictionService &service, const std::string &model,
          const TraceSpan &span, uint32_t region_chunks,
          const UarchParams &params)
{
    pipeline::PipelineResult result;
    result.regions = shardSpan(span, region_chunks);
    std::vector<std::future<serve::PredictResponse>> futures;
    for (const RegionSpec &region : result.regions) {
        futures.push_back(service.submit(
            {model, region, params, serve::RequestClass::Bulk}));
    }
    for (auto &future : futures) {
        const serve::PredictResponse response = future.get();
        EXPECT_TRUE(response.ok()) << response.message;
        result.regionCpi.push_back(response.cpi);
    }
    result.programCpi = pipeline::aggregateCpi(
        result.regions, result.regionCpi, &result.instructions);
    return result;
}

/** Directory of the committed corpus (env overrides the build-time path). */
inline std::string
directory()
{
    const char *env = std::getenv("CONCORDE_GOLDEN_DIR");
    if (env && *env)
        return env;
#ifdef CONCORDE_GOLDEN_DIR
    return CONCORDE_GOLDEN_DIR;
#else
    return "tests/golden";
#endif
}

inline std::string
path(const GoldenCase &c)
{
    return directory() + "/" + c.name + ".golden";
}

inline bool
regenRequested()
{
    const char *env = std::getenv("CONCORDE_REGEN_GOLDEN");
    return env && *env && std::string(env) != "0";
}

inline void
write(const std::string &file, const GoldenRecord &record)
{
    FILE *f = std::fopen(file.c_str(), "w");
    if (!f) {
        std::perror(file.c_str());
        std::abort();
    }
    std::fprintf(f, "concorde-golden v1\n");
    auto put_doubles = [&](const char *key,
                           const std::vector<double> &values) {
        std::fprintf(f, "%s %zu", key, values.size());
        for (double v : values)
            std::fprintf(f, " %.17g", v);
        std::fprintf(f, "\n");
    };
    auto put_floats = [&](const char *key,
                          const std::vector<float> &values) {
        std::fprintf(f, "%s %zu", key, values.size());
        for (float v : values)
            std::fprintf(f, " %.9g", static_cast<double>(v));
        std::fprintf(f, "\n");
    };
    put_doubles("cpi_independent", record.cpiIndependent);
    std::fprintf(f, "program_cpi_independent %.17g\n",
                 record.programCpiIndependent);
    put_doubles("cpi_carry", record.cpiCarry);
    std::fprintf(f, "program_cpi_carry %.17g\n", record.programCpiCarry);
    put_floats("features_independent", record.featuresIndependent);
    put_floats("features_carry", record.featuresCarry);
    std::fclose(f);
}

inline bool
read(const std::string &file, GoldenRecord &record)
{
    FILE *f = std::fopen(file.c_str(), "r");
    if (!f)
        return false;
    char header[64] = {0};
    bool ok = std::fscanf(f, "concorde-golden v%63s", header) == 1
        && std::string(header) == "1";

    auto get_doubles = [&](const char *key, std::vector<double> &values) {
        char name[64] = {0};
        size_t n = 0;
        if (std::fscanf(f, "%63s %zu", name, &n) != 2
            || std::string(name) != key) {
            return false;
        }
        values.resize(n);
        for (size_t i = 0; i < n; ++i) {
            if (std::fscanf(f, "%lg", &values[i]) != 1)
                return false;
        }
        return true;
    };
    auto get_scalar = [&](const char *key, double &value) {
        char name[64] = {0};
        return std::fscanf(f, "%63s %lg", name, &value) == 2
            && std::string(name) == key;
    };
    auto get_floats = [&](const char *key, std::vector<float> &values) {
        char name[64] = {0};
        size_t n = 0;
        if (std::fscanf(f, "%63s %zu", name, &n) != 2
            || std::string(name) != key) {
            return false;
        }
        values.resize(n);
        for (size_t i = 0; i < n; ++i) {
            if (std::fscanf(f, "%g", &values[i]) != 1)
                return false;
        }
        return true;
    };

    ok = ok && get_doubles("cpi_independent", record.cpiIndependent);
    ok = ok && get_scalar("program_cpi_independent",
                          record.programCpiIndependent);
    ok = ok && get_doubles("cpi_carry", record.cpiCarry);
    ok = ok && get_scalar("program_cpi_carry", record.programCpiCarry);
    ok = ok && get_floats("features_independent",
                          record.featuresIndependent);
    ok = ok && get_floats("features_carry", record.featuresCarry);
    std::fclose(f);
    return ok;
}

} // namespace golden
} // namespace concorde

#endif // CONCORDE_TESTS_GOLDEN_HARNESS_HH
