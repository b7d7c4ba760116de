/**
 * @file
 * Design-space-sweep benchmark and CI regression gate: the Section 5.2.3
 * claim that per-region analysis is paid once and amortized across the
 * whole microarchitecture design space.
 *
 * One region is swept across every Table-1 parameter's (quantized) grid
 * two ways:
 *
 *   scalar   one predictCpi(region, params) call per design point -- a
 *            fresh FeatureProvider (trace generation, warmup replay,
 *            d/i-side + branch analysis, every analytical model) per
 *            point; the naive DSE loop
 *   sweep    ConcordePredictor::predictSweep -- one AnalysisStore-shared
 *            region analysis, one provider per d-side run whose memoized
 *            model runs and encoded blocks are reused across its points,
 *            one batched GEMM; timed with the default thread count and
 *            with threads = 1
 *
 * and a cold Shapley-shaped batch (the 1,089 points of a 64-permutation
 * Figure-16 attribution from ARM N1 to the big core) through
 * ConcordePredictor::predictCpiBatch on a fresh provider per attempt,
 * timed with threads = 1 and with the default thread count. Its rates
 * are reported, not gated.
 *
 * Gates (exit 1 on failure; margins are 1-core-VM safe):
 *   - both sweeps' CPIs identical to the scalar loop, and both batches'
 *     CPIs identical to a per-point predictCpi loop (max |diff| == 0)
 *   - the threads = 1 sweep's throughput >= 3x the scalar loop, so the
 *     gate measures memoization, not core count
 *
 * Modes: default uses the full model from artifacts/ (trains on first
 * run); --smoke or CONCORDE_SMOKE=1 uses an untrained model of the
 * production layout (no artifacts, seconds). Writes a JSON summary to
 * $CONCORDE_BENCH_JSON (default BENCH_sweep.json), including the
 * ROB-model kernel this host runs multi-size calls with as rob_kernel
 * ("avx512f" or "portable"; see analytical/rob_model.hh).
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analytical/rob_model.hh"
#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "core/concorde.hh"
#include "core/shapley.hh"

using namespace concorde;

namespace
{

struct RunConfig
{
    bool smoke = false;
    uint32_t regionChunks = 4;
    int scalarReps = 2;
    int sweepReps = 3;
};

/**
 * Every (parameter, quantized grid value) design point around the ARM N1
 * base: the per-parameter sweeps of Section 5.2.3, covering all 20
 * Table-1 axes.
 */
std::vector<UarchParams>
designSpacePoints()
{
    std::vector<UarchParams> points;
    const UarchParams base = UarchParams::armN1();
    for (const ParamInfo &info : paramTable()) {
        for (int64_t value : sweepValues(info.id, /*quantized=*/true)) {
            UarchParams point = base;
            point.set(info.id, value);
            points.push_back(point);
        }
    }
    return points;
}

/**
 * The design points of a batched 64-permutation Shapley attribution from
 * ARM N1 to the big core over the Figure-16 components: the base plus
 * every prefix of every sampled order.
 */
std::vector<UarchParams>
shapleyPoints()
{
    std::vector<UarchParams> points;
    ShapleyConfig config;
    config.numPermutations = 64;
    const BatchEval capture = [&](const std::vector<UarchParams> &pts) {
        points = pts;
        return std::vector<double>(pts.size(), 1.0);
    };
    (void)shapleyAttribution(UarchParams::armN1(), UarchParams::bigCore(),
                             attributionComponents(), capture, config);
    return points;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    if (!benchutil::parseBenchMode(argc, argv, "bench_sweep_dse", cfg.smoke))
        return 2;
    if (cfg.smoke) {
        cfg.regionChunks = 2;
        cfg.scalarReps = 1;
    }

    std::printf("=== design-space sweep throughput (%s mode) ===\n",
                cfg.smoke ? "smoke" : "full");

    const FeatureConfig feature_cfg = cfg.smoke
        ? FeatureConfig{} : artifacts::featureConfig();
    const ConcordePredictor predictor = cfg.smoke
        ? ConcordePredictor(artifacts::untrainedModel(feature_cfg, 2028),
                            feature_cfg)
        : ConcordePredictor(artifacts::fullModel(), feature_cfg);

    RegionSpec region;
    region.programId = programIdByCode("S7");
    region.traceId = 0;
    region.startChunk = 16;
    region.numChunks = cfg.regionChunks;

    const std::vector<UarchParams> points = designSpacePoints();
    std::printf("  region %u chunks, %zu design points over %d "
                "parameters\n", cfg.regionChunks, points.size(),
                kNumParams);

    // ---- scalar baseline: a fresh provider per design point ----
    std::vector<double> scalar_cpis(points.size());
    double scalar_s = 1e30;
    for (int r = 0; r < cfg.scalarReps; ++r) {
        Stopwatch timer;
        for (size_t i = 0; i < points.size(); ++i)
            scalar_cpis[i] = predictor.predictCpi(region, points[i]);
        scalar_s = std::min(scalar_s, timer.seconds());
    }
    const double scalar_rate =
        static_cast<double>(points.size()) / scalar_s;
    std::printf("  scalar per-config loop:  %8.1f predictions/s "
                "(%.3fs)\n", scalar_rate, scalar_s);

    // ---- sweep fast path: shared analysis, memoized providers, one GEMM
    auto time_sweep = [&](size_t threads, std::vector<double> &cpis) {
        double best_s = 1e30;
        for (int r = 0; r < cfg.sweepReps; ++r) {
            Stopwatch timer;
            cpis = predictor.predictSweep(region, points, threads);
            best_s = std::min(best_s, timer.seconds());
        }
        return static_cast<double>(points.size()) / best_s;
    };
    std::vector<double> sweep_cpis;
    std::vector<double> sweep_1t_cpis;
    const double sweep_rate = time_sweep(0, sweep_cpis);
    const double sweep_1t_rate = time_sweep(1, sweep_1t_cpis);
    const double speedup = sweep_rate / scalar_rate;
    const double speedup_1t = sweep_1t_rate / scalar_rate;
    std::printf("  predictSweep fast path:  %8.1f predictions/s "
                "(%.1fx)\n", sweep_rate, speedup);
    std::printf("  predictSweep threads=1:  %8.1f predictions/s "
                "(%.1fx)\n", sweep_1t_rate, speedup_1t);

    const AnalysisStoreStats store = AnalysisStore::global().stats();
    std::printf("  ROB-model kernel: %s\n", robKernelName());
    std::printf("  analysis store: %llu built, %llu hits\n",
                static_cast<unsigned long long>(store.built),
                static_cast<unsigned long long>(store.hits));

    double max_diff = 0.0;
    for (size_t i = 0; i < points.size(); ++i) {
        max_diff = std::max({max_diff,
                             std::abs(scalar_cpis[i] - sweep_cpis[i]),
                             std::abs(scalar_cpis[i] - sweep_1t_cpis[i])});
    }
    std::printf("  max |scalar - sweep| CPI: %.2e\n", max_diff);

    // ---- cold Shapley-shaped predictCpiBatch: a fresh provider (trace
    // generated off the clock) per attempt, so every attempt runs every
    // analysis and analytical model of the batch
    const std::vector<UarchParams> shapley = shapleyPoints();
    auto time_batch = [&](size_t threads, std::vector<double> &cpis) {
        double best_s = 1e30;
        for (int r = 0; r < cfg.sweepReps; ++r) {
            FeatureProvider provider(region, feature_cfg);
            Stopwatch timer;
            cpis = predictor.predictCpiBatch(provider, shapley, threads);
            best_s = std::min(best_s, timer.seconds());
        }
        return static_cast<double>(shapley.size()) / best_s;
    };
    std::vector<double> batch_cpis;
    std::vector<double> batch_1t_cpis;
    const double batch_1t_rate = time_batch(1, batch_1t_cpis);
    const double batch_rate = time_batch(0, batch_cpis);
    std::printf("  cold Shapley batch (%zu points), predictCpiBatch:\n",
                shapley.size());
    std::printf("    threads=1:              %8.1f predictions/s\n",
                batch_1t_rate);
    std::printf("    default threads:        %8.1f predictions/s "
                "(%.2fx)\n", batch_rate, batch_rate / batch_1t_rate);

    double batch_diff = 0.0;
    {
        FeatureProvider provider(region, feature_cfg);
        for (size_t i = 0; i < shapley.size(); ++i) {
            const double cpi = predictor.predictCpi(provider, shapley[i]);
            batch_diff = std::max({batch_diff,
                                   std::abs(cpi - batch_cpis[i]),
                                   std::abs(cpi - batch_1t_cpis[i])});
        }
    }
    std::printf("  max |per-point - batch| CPI: %.2e\n", batch_diff);
    max_diff = std::max(max_diff, batch_diff);

    // ---- gates ----
    bool pass = true;
    if (max_diff != 0.0) {
        std::printf("  GATE FAIL: sweep or batch CPIs diverge from the "
                    "per-point loop\n");
        pass = false;
    }
    if (speedup_1t < 3.0) {
        std::printf("  GATE FAIL: predictSweep threads=1 (%.1f pred/s) not "
                    ">= 3x the per-config loop (%.1f)\n", sweep_1t_rate,
                    scalar_rate);
        pass = false;
    }

    {
        benchutil::BenchJson json("BENCH_sweep.json");
        json.text("bench", "sweep_dse");
        json.text("mode", cfg.smoke ? "smoke" : "full");
        json.field("region_chunks", "%u", cfg.regionChunks);
        json.field("design_points", "%zu", points.size());
        json.field("scalar_pred_s", "%.1f", scalar_rate);
        json.field("sweep_pred_s", "%.1f", sweep_rate);
        json.field("sweep_1t_pred_s", "%.1f", sweep_1t_rate);
        json.field("speedup", "%.3f", speedup);
        json.field("batch_points", "%zu", shapley.size());
        json.field("batch_1t_pred_s", "%.1f", batch_1t_rate);
        json.field("batch_pred_s", "%.1f", batch_rate);
        json.text("rob_kernel", robKernelName());
        json.field("store_built", "%llu",
                   static_cast<unsigned long long>(store.built));
        json.field("store_hits", "%llu",
                   static_cast<unsigned long long>(store.hits));
        json.field("max_abs_diff", "%.3e", max_diff);
        json.flag("gate_pass", pass);
    }

    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
