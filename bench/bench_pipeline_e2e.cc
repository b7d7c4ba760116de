/**
 * @file
 * End-to-end pipeline benchmark and CI regression gate (trace ->
 * features -> prediction over a whole span).
 *
 * Four executions of the same span are timed (best of N runs):
 *
 *   scalar    the pre-pipeline region loop (Independent state, scalar
 *             MLP forward per region) -- the baseline
 *   sharded   ThreadPool featurization + one batched GEMM
 *             (Independent state; must match scalar bitwise)
 *   stitched  sharded + carried analyzer state (Carry; every
 *             instruction analyzed once instead of once per region
 *             plus once per overlapping warmup replay; must match the
 *             scalar Carry run bitwise) -- the COLD number
 *   warm      sharded with every region analysis already resident in
 *             an AnalysisStore (trace analysis skipped entirely; must
 *             match scalar bitwise) -- the WARM number
 *
 * Gates (exit 1 on failure; margins are 1-core-VM safe):
 *   - sharded per-region CPIs identical to scalar (max |diff| == 0)
 *   - stitched per-region CPIs identical to scalar Carry (== 0)
 *   - sharded throughput >= 0.90x scalar (same work, batched GEMM)
 *   - stitched throughput >= 1.0x scalar (warmup elision must win)
 *
 * Modes: default uses the full model from artifacts/ (trains on first
 * run); --smoke or CONCORDE_SMOKE=1 uses an untrained model of the
 * production layout (no artifacts, seconds). Writes a JSON summary to
 * $CONCORDE_BENCH_JSON (default BENCH_pipeline.json).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "ml/mlp.hh"
#include "pipeline/analysis_pipeline.hh"

using namespace concorde;
using pipeline::AnalysisPipeline;
using pipeline::ExecMode;
using pipeline::PipelineConfig;
using pipeline::PipelineResult;
using pipeline::StateMode;

namespace
{

struct RunConfig
{
    bool smoke = false;
    uint64_t spanChunks = 64;
    uint32_t regionChunks = 4;
    int reps = 3;
};

struct TimedRun
{
    double seconds = 0.0;           ///< best over reps
    PipelineResult result;          ///< last run (results are identical)
};

double
maxAbsDiff(const std::vector<double> &a, const std::vector<double> &b)
{
    double diff = a.size() == b.size() ? 0.0 : 1e30;
    for (size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        diff = std::max(diff, std::abs(a[i] - b[i]));
    return diff;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    if (!benchutil::parseBenchMode(argc, argv, "bench_pipeline_e2e", cfg.smoke))
        return 2;
    if (cfg.smoke) {
        cfg.spanChunks = 24;
        cfg.regionChunks = 2;
    }

    std::printf("=== end-to-end pipeline throughput (%s mode) ===\n",
                cfg.smoke ? "smoke" : "full");

    const FeatureConfig feature_cfg = cfg.smoke
        ? FeatureConfig{} : artifacts::featureConfig();
    const ConcordePredictor predictor = cfg.smoke
        ? ConcordePredictor(artifacts::untrainedModel(feature_cfg, 2027),
                            feature_cfg)
        : ConcordePredictor(artifacts::fullModel(), feature_cfg);

    TraceSpan span;
    span.programId = programIdByCode("S7");
    span.traceId = 0;
    span.startChunk = 16;
    span.numChunks = cfg.spanChunks;
    const UarchParams params = UarchParams::armN1();
    const double minstr = static_cast<double>(span.numInstructions()) / 1e6;

    auto best_run = [&](ExecMode mode, StateMode state,
                        AnalysisStore *store = nullptr) {
        PipelineConfig config;
        config.regionChunks = cfg.regionChunks;
        config.mode = mode;
        config.state = state;
        config.analysisStore = store;
        AnalysisPipeline pipe(predictor, config);
        if (store)
            pipe.run(span, params);    // prime the store off the clock
        TimedRun run;
        run.seconds = 1e30;
        for (int r = 0; r < cfg.reps; ++r) {
            Stopwatch timer;
            run.result = pipe.run(span, params);
            run.seconds = std::min(run.seconds, timer.seconds());
        }
        return run;
    };

    const TimedRun scalar =
        best_run(ExecMode::Scalar, StateMode::Independent);
    const double scalar_rate = minstr / scalar.seconds;
    std::printf("  scalar region loop:      %8.2f Minstr/s  (%zu regions, "
                "%.3fs)\n", scalar_rate, scalar.result.regions.size(),
                scalar.seconds);

    const TimedRun sharded =
        best_run(ExecMode::Sharded, StateMode::Independent);
    const double sharded_rate = minstr / sharded.seconds;
    std::printf("  sharded pipeline:        %8.2f Minstr/s  (%.2fx)\n",
                sharded_rate, sharded_rate / scalar_rate);

    const TimedRun scalar_carry =
        best_run(ExecMode::Scalar, StateMode::Carry);
    const TimedRun stitched =
        best_run(ExecMode::Sharded, StateMode::Carry);
    const double stitched_rate = minstr / stitched.seconds;
    std::printf("  stitched sharded:        %8.2f Minstr/s  (%.2fx, "
                "analyze %.3fs of %.3fs)\n", stitched_rate,
                stitched_rate / scalar_rate,
                stitched.result.analyzeSeconds, stitched.seconds);

    // Warm path: the same sharded run with every region analysis already
    // resident in an AnalysisStore (Independent state; carried analyses
    // are span-position-dependent and never cached). The cold/warm split
    // separates the cost of trace analysis itself from featurization +
    // inference.
    AnalysisStore store;
    const TimedRun warm =
        best_run(ExecMode::Sharded, StateMode::Independent, &store);
    const double warm_rate = minstr / warm.seconds;
    std::printf("  warm (store-hit) sharded:%8.2f Minstr/s  (%.2fx)\n",
                warm_rate, warm_rate / scalar_rate);

    const double diff_indep =
        maxAbsDiff(scalar.result.regionCpi, sharded.result.regionCpi);
    const double diff_carry = maxAbsDiff(scalar_carry.result.regionCpi,
                                         stitched.result.regionCpi);
    const double diff_warm =
        maxAbsDiff(scalar.result.regionCpi, warm.result.regionCpi);
    std::printf("  max |scalar - sharded| CPI:  %.2e (independent), "
                "%.2e (carry), %.2e (warm)\n", diff_indep, diff_carry,
                diff_warm);

    // ---- gates ----
    bool pass = true;
    if (diff_indep != 0.0 || diff_carry != 0.0 || diff_warm != 0.0) {
        std::printf("  GATE FAIL: parallel pipeline CPIs diverge from "
                    "the scalar region loop\n");
        pass = false;
    }
    if (sharded_rate < 0.90 * scalar_rate) {
        std::printf("  GATE FAIL: sharded pipeline (%.2f Minstr/s) "
                    "slower than scalar loop (%.2f)\n", sharded_rate,
                    scalar_rate);
        pass = false;
    }
    if (stitched_rate < scalar_rate) {
        std::printf("  GATE FAIL: stitched pipeline (%.2f Minstr/s) not "
                    "faster than scalar loop (%.2f)\n", stitched_rate,
                    scalar_rate);
        pass = false;
    }

    {
        benchutil::BenchJson json("BENCH_pipeline.json");
        json.text("bench", "pipeline_e2e");
        json.text("mode", cfg.smoke ? "smoke" : "full");
        json.text("gemm_kernel", Mlp::batchKernelName());
        json.field("span_chunks", "%llu",
                   static_cast<unsigned long long>(cfg.spanChunks));
        json.field("region_chunks", "%u", cfg.regionChunks);
        json.field("regions", "%zu", scalar.result.regions.size());
        json.field("instructions", "%llu",
                   static_cast<unsigned long long>(span.numInstructions()));
        json.field("scalar_minstr_s", "%.3f", scalar_rate);
        json.field("sharded_minstr_s", "%.3f", sharded_rate);
        json.field("stitched_minstr_s", "%.3f", stitched_rate);
        // Cold = the stitched run above (every instruction analyzed this
        // run); warm = sharded with a primed AnalysisStore (analysis
        // skipped entirely). stitched_minstr_s stays the cold number so
        // its history remains comparable.
        json.field("stitched_cold_minstr_s", "%.3f", stitched_rate);
        json.field("stitched_warm_minstr_s", "%.3f", warm_rate);
        json.field("sharded_speedup", "%.3f", sharded_rate / scalar_rate);
        json.field("stitched_speedup", "%.3f", stitched_rate / scalar_rate);
        json.field("max_abs_diff_independent", "%.3e", diff_indep);
        json.field("max_abs_diff_carry", "%.3e", diff_carry);
        json.field("max_abs_diff_warm", "%.3e", diff_warm);
        json.flag("gate_pass", pass);
    }

    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
