/**
 * @file
 * Uncertainty-serving gate: runs the calibrated lifecycle end to end --
 * train with a validation split, ship the conformal calibration inside
 * the ModelArtifact, serve with intervals, OOD guardrails, and the
 * simulator fallback -- and fails CI when any of its guarantees break:
 *
 *   1. Coverage: the served (1 - alpha) conformal interval must cover
 *      at least (1 - alpha - tol) of a held-out test set. Exact: the
 *      dataset and training seeds are fixed, so there is no VM noise.
 *   2. Compatibility: a v1 (pre-calibration) artifact must load, report
 *      uncalibrated, and serve point-only responses whose predictions
 *      are bitwise identical to the v2 artifact's model -- the
 *      calibration section cannot perturb the model.
 *   3. OOD guardrail: the training-split envelope must score every
 *      training row 0.0 (in distribution) and an absurd synthetic row
 *      as OOD.
 *   4. Fallback: with a width SLO that flags everything, every served
 *      answer must come from the simulator, bitwise identical to a
 *      direct simulateRegion call, and the feedback file must hold
 *      exactly those (features, label) pairs, labels bitwise.
 *
 * Modes:
 *   default / CONCORDE_SMOKE=1   small sizes (CI bench-smoke)
 *   --full                       larger datasets and more epochs
 *
 * Writes a JSON summary to $CONCORDE_BENCH_JSON (default
 * BENCH_uncertainty.json).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/analysis_store.hh"
#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "core/model_artifact.hh"
#include "serve/prediction_service.hh"
#include "sim/o3_core.hh"

using namespace concorde;

namespace
{

/** Finite-sample slack on empirical held-out coverage. */
constexpr double kCoverageTol = 0.05;

struct RunConfig
{
    bool full = false;
    size_t trainSamples = 512;
    size_t testSamples = 128;
    size_t shardSamples = 128;
    uint32_t regionChunks = 2;
    size_t epochs = 8;
    size_t batchSize = 64;
    double valFraction = 0.2;
    double alpha = 0.1;
    size_t fallbackChecks = 12;
};

struct GateResults
{
    double coverage = 0.0;
    double meanRelWidth = 0.0;
    size_t calibrationScores = 0;
    double v1MaxPredDiff = 0.0;
    double maxTrainOod = 0.0;
    double syntheticOod = 0.0;
    double fallbackMaxDiff = 0.0;
    double feedbackMaxDiff = 0.0;
    uint64_t servedFallbackSim = 0;
    uint64_t feedbackAppended = 0;
    double trainSeconds = 0.0;
};

/**
 * Forge a genuine v1 artifact file from an uncalibrated v2 save: the
 * v2 format is v1 plus the version bump and one trailing
 * has-calibration byte.
 */
bool
forgeV1Artifact(const ModelArtifact &artifact, const std::string &path)
{
    ModelArtifact uncal = artifact;
    uncal.calibration = ConformalCalibration{};
    const std::string staged = path + ".v2staged";
    uncal.save(staged);

    FILE *in = std::fopen(staged.c_str(), "rb");
    if (!in)
        return false;
    std::fseek(in, 0, SEEK_END);
    std::vector<uint8_t> bytes(static_cast<size_t>(std::ftell(in)));
    std::fseek(in, 0, SEEK_SET);
    const bool read_ok =
        std::fread(bytes.data(), 1, bytes.size(), in) == bytes.size();
    std::fclose(in);
    std::remove(staged.c_str());
    if (!read_ok || bytes.size() < 14)
        return false;
    bytes[8] = 1;       // u32 version field at offset 8, little-endian
    bytes.pop_back();   // drop the v2 has-calibration flag byte
    FILE *out = std::fopen(path.c_str(), "wb");
    if (!out)
        return false;
    const bool write_ok =
        std::fwrite(bytes.data(), 1, bytes.size(), out) == bytes.size();
    std::fclose(out);
    return write_ok;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    bool smoke = true;
    if (!benchutil::parseBenchMode(argc, argv, "bench_uncertainty", smoke))
        return 2;
    cfg.full = !smoke;
    if (cfg.full) {
        cfg.trainSamples = 4096;
        cfg.testSamples = 512;
        cfg.shardSamples = 512;
        cfg.epochs = 24;
        cfg.batchSize = 256;
        cfg.fallbackChecks = 32;
    }

    const char *dir_env = std::getenv("CONCORDE_UNCERTAINTY_DIR");
    const std::string base =
        dir_env && *dir_env ? dir_env : "uncertainty-artifacts";
    const std::string train_dir = base + "/train";
    const std::string test_dir = base + "/test";
    const std::string artifact_path = base + "/model.artifact";
    const std::string v1_path = base + "/model.v1.artifact";
    const std::string feedback_path = base + "/feedback.dataset";

    std::printf("=== uncertainty-serving gate (%s mode) ===\n",
                cfg.full ? "full" : "smoke");
    GateResults r;
    bool pass = true;

    // ---- stage 1: datasets + calibrated training ----
    DatasetConfig dc;
    dc.numSamples = cfg.trainSamples;
    dc.regionChunks = cfg.regionChunks;
    dc.seed = 9171;
    dc.features = artifacts::featureConfig();
    buildDatasetShards(dc, train_dir, cfg.shardSamples);
    dc.numSamples = cfg.testSamples;
    dc.seed = 9172;
    buildDatasetShards(dc, test_dir, cfg.shardSamples);
    const Dataset train = loadDatasetShards(train_dir);
    const Dataset test = loadDatasetShards(test_dir);

    TrainConfig tc;
    tc.epochs = cfg.epochs;
    tc.batchSize = cfg.batchSize;
    tc.seed = 171;
    tc.valFraction = cfg.valFraction;
    Stopwatch train_timer;
    const TrainRun run =
        trainMlpResumable(train.features, train.labels, train.dim, tc);
    r.trainSeconds = train_timer.seconds();

    ModelArtifact artifact;
    artifact.features = dc.features;
    artifact.model = run.model;
    artifact.provenance.datasetManifestHash =
        datasetManifestHash(train_dir);
    artifact.provenance.trainConfig = tc;
    artifact.provenance.trainedEpochs = run.epochsCompleted();
    artifact.calibration = run.calibration;
    artifact.save(artifact_path);
    const ModelArtifact loaded = ModelArtifact::load(artifact_path);
    r.calibrationScores = loaded.calibration.size();
    std::printf("  trained %zu epochs in %.1fs; calibration ships %zu "
                "held-out conformity scores\n", run.epochsCompleted(),
                r.trainSeconds, r.calibrationScores);
    if (!loaded.calibrated()) {
        std::printf("  GATE FAIL: artifact round trip lost the "
                    "calibration\n");
        pass = false;
    }

    // ---- stage 2: held-out conformal coverage ----
    const auto preds = loaded.model.predictBatch(test.features, test.dim,
                                                 /*threads=*/1);
    size_t covered = 0;
    double width_sum = 0.0;
    for (size_t i = 0; i < test.size(); ++i) {
        double lo = 0.0, hi = 0.0;
        loaded.calibration.intervalAround(preds[i], cfg.alpha, lo, hi);
        if (test.labels[i] >= lo && test.labels[i] <= hi)
            ++covered;
        if (preds[i] > 0.0)
            width_sum += (hi - lo) / preds[i];
    }
    r.coverage = static_cast<double>(covered)
        / static_cast<double>(test.size());
    r.meanRelWidth = width_sum / static_cast<double>(test.size());
    std::printf("  coverage at alpha=%.2f: %.1f%% of %zu held-out "
                "samples (target >= %.1f%%), mean rel width %.1f%%\n",
                cfg.alpha, 100.0 * r.coverage, test.size(),
                100.0 * (1.0 - cfg.alpha - kCoverageTol),
                100.0 * r.meanRelWidth);
    if (r.coverage < 1.0 - cfg.alpha - kCoverageTol) {
        std::printf("  GATE FAIL: conformal intervals undercover\n");
        pass = false;
    }

    // ---- stage 3: v1 artifact compatibility, predictions bitwise ----
    if (!forgeV1Artifact(loaded, v1_path)) {
        std::printf("  GATE FAIL: could not forge the v1 artifact\n");
        pass = false;
    } else {
        const ModelArtifact v1 = ModelArtifact::load(v1_path);
        if (v1.calibrated()) {
            std::printf("  GATE FAIL: a v1 artifact claims to be "
                        "calibrated\n");
            pass = false;
        }
        const auto v1_preds =
            v1.model.predictBatch(test.features, test.dim, 1);
        for (size_t i = 0; i < v1_preds.size(); ++i) {
            r.v1MaxPredDiff =
                std::max(r.v1MaxPredDiff,
                         std::abs(static_cast<double>(v1_preds[i])
                                  - static_cast<double>(preds[i])));
        }
        std::printf("  v1-compat: loads uncalibrated, max |pred diff| "
                    "vs v2 = %.1e\n", r.v1MaxPredDiff);
        if (r.v1MaxPredDiff != 0.0) {
            std::printf("  GATE FAIL: calibration section perturbed "
                        "the model\n");
            pass = false;
        }
    }

    // ---- stage 4: OOD guardrail sanity ----
    // Exact check of the envelope math: an envelope fitted on the full
    // training set must score every training row 0.0 by construction.
    const ConformalCalibration full_env = fitConformalCalibration(
        {1.0f}, {1.0f}, train.features, train.dim);
    for (size_t i = 0; i < train.size(); ++i) {
        r.maxTrainOod = std::max(
            r.maxTrainOod, full_env.oodScore(train.row(i), train.dim));
    }
    // The shipped envelope covers the training *split* only (the
    // held-out split feeds the scores), so a few training rows may
    // poke slightly outside -- but almost all must stay clean at the
    // serving default threshold.
    const serve::UncertaintyConfig defaults;
    size_t flagged = 0;
    for (size_t i = 0; i < train.size(); ++i) {
        if (loaded.calibration.oodScore(train.row(i), train.dim)
            > defaults.oodThreshold)
            ++flagged;
    }
    const double flagged_frac =
        static_cast<double>(flagged) / static_cast<double>(train.size());
    const std::vector<float> absurd(train.dim, 1e9f);
    r.syntheticOod = loaded.calibration.oodScore(absurd.data(), train.dim);
    std::printf("  OOD: full-envelope max train score %.3f (must be 0); "
                "shipped envelope flags %.1f%% of train rows; synthetic "
                "far-out row scores %.3f\n", r.maxTrainOod,
                100.0 * flagged_frac, r.syntheticOod);
    if (r.maxTrainOod != 0.0 || r.syntheticOod < 0.5
        || flagged_frac > 0.10) {
        std::printf("  GATE FAIL: calibration envelope misclassifies\n");
        pass = false;
    }

    // ---- stage 5: fallback bitwise identity + durable feedback ----
    std::remove(feedback_path.c_str());
    {
        serve::ServeConfig sc;
        sc.cacheCapacity = 0;
        sc.uncertainty.alpha = cfg.alpha;
        // A width SLO nothing can meet: every request is flagged and,
        // with fallback on, answered by the simulator.
        sc.uncertainty.maxRelWidth = 1e-9;
        sc.uncertainty.fallbackEnabled = true;
        sc.uncertainty.maxFallbackInFlight = 2;
        sc.uncertainty.feedbackPath = feedback_path;
        serve::PredictionService service(sc);
        service.registry().addArtifact("prod", loaded);

        const size_t checks =
            std::min<size_t>(test.size(), cfg.fallbackChecks);
        for (size_t i = 0; i < checks; ++i) {
            const auto &meta = test.meta[i];
            serve::PredictRequest request;
            request.model = "prod";
            request.region = meta.region;
            request.params = meta.params;
            const serve::PredictResponse response =
                service.predict(request);
            if (!response.ok() || !response.fallback) {
                std::printf("  GATE FAIL: flagged request %zu did not "
                            "reach the simulator\n", i);
                pass = false;
                continue;
            }
            const auto analysis =
                AnalysisStore::global().acquire(meta.region);
            SimScratch scratch;
            const double direct =
                simulateRegion(meta.params, *analysis, 0, &scratch).cpi();
            r.fallbackMaxDiff = std::max(
                r.fallbackMaxDiff, std::abs(response.cpi - direct));
        }
        const serve::ServeStats stats = service.stats();
        r.servedFallbackSim = stats.servedFallbackSim;
        r.feedbackAppended = stats.feedbackAppended;
        service.shutdown();

        std::printf("  fallback: %llu simulator answers, max |diff| vs "
                    "direct simulateRegion = %.1e\n",
                    static_cast<unsigned long long>(r.servedFallbackSim),
                    r.fallbackMaxDiff);
        if (r.fallbackMaxDiff != 0.0 || r.servedFallbackSim != checks) {
            std::printf("  GATE FAIL: fallback answers are not the "
                        "simulator's\n");
            pass = false;
        }

        // The feedback file holds exactly the simulated pairs, labels
        // bitwise equal to the simulator's CPI.
        const Dataset feedback = Dataset::load(feedback_path);
        if (feedback.size() != checks || feedback.dim != test.dim) {
            std::printf("  GATE FAIL: feedback file has %zu x %zu, "
                        "expected %zu x %zu\n", feedback.size(),
                        feedback.dim, checks, test.dim);
            pass = false;
        }
        for (size_t i = 0; i < feedback.size(); ++i) {
            const auto analysis = AnalysisStore::global().acquire(
                feedback.meta[i].region);
            SimScratch scratch;
            const float direct = static_cast<float>(
                simulateRegion(feedback.meta[i].params, *analysis, 0,
                               &scratch)
                    .cpi());
            r.feedbackMaxDiff =
                std::max(r.feedbackMaxDiff,
                         static_cast<double>(
                             std::abs(feedback.labels[i] - direct)));
        }
        std::printf("  feedback: %llu rows appended durably, max label "
                    "|diff| = %.1e\n",
                    static_cast<unsigned long long>(r.feedbackAppended),
                    r.feedbackMaxDiff);
        if (r.feedbackMaxDiff != 0.0) {
            std::printf("  GATE FAIL: feedback labels diverge from the "
                        "simulator\n");
            pass = false;
        }
    }

    {
        benchutil::BenchJson json("BENCH_uncertainty.json");
        json.text("bench", "uncertainty");
        json.text("mode", cfg.full ? "full" : "smoke");
        json.field("train_samples", "%zu", cfg.trainSamples);
        json.field("test_samples", "%zu", cfg.testSamples);
        json.field("alpha", "%.3f", cfg.alpha);
        json.field("target_coverage", "%.3f", 1.0 - cfg.alpha);
        json.field("coverage_tolerance", "%.3f", kCoverageTol);
        json.field("empirical_coverage", "%.4f", r.coverage);
        json.field("mean_rel_interval_width", "%.4f", r.meanRelWidth);
        json.field("calibration_scores", "%zu", r.calibrationScores);
        json.field("v1_artifact_max_pred_diff", "%.3e", r.v1MaxPredDiff);
        json.field("max_train_ood_score", "%.4f", r.maxTrainOod);
        json.field("synthetic_ood_score", "%.4f", r.syntheticOod);
        json.field("fallback_max_abs_diff", "%.3e", r.fallbackMaxDiff);
        json.field("served_fallback_sim", "%llu",
                   static_cast<unsigned long long>(r.servedFallbackSim));
        json.field("feedback_appended", "%llu",
                   static_cast<unsigned long long>(r.feedbackAppended));
        json.field("feedback_label_max_abs_diff", "%.3e", r.feedbackMaxDiff);
        json.field("train_seconds", "%.2f", r.trainSeconds);
        json.flag("gate_pass", pass);
    }
    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
