/**
 * @file
 * Model-lifecycle accuracy gate: runs the full dataset -> train ->
 * artifact -> registry path end to end and fails CI if training buys
 * nothing.
 *
 *   1. Generate sharded train/test datasets (deterministic seeds; a
 *      rerun resumes from completed shards).
 *   2. Train with a validation split and per-epoch checkpointing, and
 *      bundle the result into a versioned ModelArtifact.
 *   3. Reload the artifact, hot-load it into a PredictionService, and
 *      check the served predictions match the artifact's model.
 *   4. Gate: held-out mean relative CPI error of the trained model must
 *      beat an untrained stub of the same layout by a wide margin.
 *      Accuracy is timing-free, so the threshold is exact -- no VM
 *      noise allowance needed.
 *
 * Modes:
 *   default / CONCORDE_SMOKE=1   small sizes (CI bench-smoke, ~20 s)
 *   --full                       larger datasets and more epochs
 *
 * Writes a JSON summary to $CONCORDE_BENCH_JSON (default
 * BENCH_accuracy.json).
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "core/model_artifact.hh"
#include "serve/prediction_service.hh"

using namespace concorde;

namespace
{

/** Trained model must be at least this factor better than the stub. */
constexpr double kGateRatio = 0.5;

struct RunConfig
{
    bool full = false;
    size_t trainSamples = 512;
    size_t testSamples = 128;
    size_t shardSamples = 128;
    uint32_t regionChunks = 2;
    size_t epochs = 24;
    size_t batchSize = 64;
    double valFraction = 0.15;
};

} // anonymous namespace

int
main(int argc, char **argv)
{
    RunConfig cfg;
    bool smoke = true;
    if (!benchutil::parseBenchMode(argc, argv, "bench_accuracy", smoke))
        return 2;
    cfg.full = !smoke;
    if (cfg.full) {
        cfg.trainSamples = 4096;
        cfg.testSamples = 512;
        cfg.shardSamples = 512;
        cfg.regionChunks = artifacts::kShortRegionChunks;
        cfg.epochs = 40;
        cfg.batchSize = 256;
    }

    const char *dir_env = std::getenv("CONCORDE_ACCURACY_DIR");
    const std::string base =
        dir_env && *dir_env ? dir_env : "accuracy-artifacts";
    const std::string train_dir = base + "/train";
    const std::string test_dir = base + "/test";
    const std::string artifact_path = base + "/model.artifact";
    const std::string checkpoint_path = base + "/train.ckpt";

    std::printf("=== model-lifecycle accuracy gate (%s mode) ===\n",
                cfg.full ? "full" : "smoke");

    // ---- stage 1: sharded dataset generation (resumable) ----
    DatasetConfig dc;
    dc.numSamples = cfg.trainSamples;
    dc.regionChunks = cfg.regionChunks;
    dc.seed = 7341;
    dc.features = artifacts::featureConfig();
    Stopwatch dataset_timer;
    const auto train_built =
        buildDatasetShards(dc, train_dir, cfg.shardSamples);
    dc.numSamples = cfg.testSamples;
    dc.seed = 7342;
    const auto test_built =
        buildDatasetShards(dc, test_dir, cfg.shardSamples);
    const double dataset_s = dataset_timer.seconds();
    const Dataset train = loadDatasetShards(train_dir);
    const Dataset test = loadDatasetShards(test_dir);
    const uint64_t train_hash = datasetManifestHash(train_dir);
    const uint64_t test_hash = datasetManifestHash(test_dir);
    std::printf("  datasets: %zu train + %zu test samples in %.1fs "
                "(%zu shards built, %zu resumed)\n", train.size(),
                test.size(), dataset_s,
                train_built.shardsBuilt + test_built.shardsBuilt,
                train_built.shardsSkipped + test_built.shardsSkipped);

    // ---- stage 2: checkpointed training -> versioned artifact ----
    TrainConfig tc;
    tc.epochs = cfg.epochs;
    tc.batchSize = cfg.batchSize;
    tc.seed = 99;
    tc.valFraction = cfg.valFraction;
    Stopwatch train_timer;
    const TrainRun run = trainMlpResumable(
        train.features, train.labels, train.dim, tc, nullptr,
        checkpoint_path);
    const double train_s = train_timer.seconds();
    const double val_err = run.history.back().valRelErr;
    std::printf("  trained %zu epochs in %.1fs (val rel-err %.4f)\n",
                run.epochsCompleted(), train_s, val_err);

    ModelArtifact artifact;
    artifact.features = artifacts::featureConfig();
    artifact.model = run.model;
    artifact.provenance.datasetManifestHash = train_hash;
    artifact.provenance.datasetPath = train_dir;
    artifact.provenance.gitDescribe = buildGitDescribe();
    artifact.provenance.trainConfig = tc;
    artifact.provenance.trainedEpochs = run.epochsCompleted();
    artifact.provenance.heldOutRelErr = val_err;
    artifact.save(artifact_path);
    const ModelArtifact loaded = ModelArtifact::load(artifact_path);

    // ---- stage 3: held-out accuracy, artifact vs untrained stub ----
    const double trained_err = loaded.model.meanRelativeError(
        test.features, test.labels, test.dim);
    const TrainedModel stub =
        artifacts::untrainedModel(loaded.features, 2026);
    const double stub_err =
        stub.meanRelativeError(test.features, test.labels, test.dim);
    std::printf("  held-out mean rel CPI err: trained %.4f vs untrained "
                "stub %.4f (%.2fx better)\n", trained_err, stub_err,
                stub_err / std::max(trained_err, 1e-9));

    // ---- stage 4: the served artifact answers like the local model ----
    double serve_diff = 0.0;
    {
        serve::PredictionService service{};
        service.loadModel("prod", artifact_path);
        const ConcordePredictor direct = loaded.predictor();
        const size_t checks = std::min<size_t>(test.size(), 32);
        for (size_t i = 0; i < checks; ++i) {
            const auto &meta = test.meta[i];
            const double served =
                service.predict({"prod", meta.region, meta.params}).cpi;
            const double local =
                direct.predictCpi(meta.region, meta.params);
            serve_diff = std::max(serve_diff,
                                  std::abs(served - local));
        }
        service.shutdown();
    }
    std::printf("  serve-vs-local max |diff|: %.2e\n", serve_diff);

    // ---- gate ----
    bool pass = true;
    if (!(trained_err <= kGateRatio * stub_err)) {
        std::printf("  GATE FAIL: trained model (%.4f) does not beat "
                    "the untrained stub (%.4f) by the required %.1fx\n",
                    trained_err, stub_err, 1.0 / kGateRatio);
        pass = false;
    }
    if (serve_diff > 1e-6) {
        std::printf("  GATE FAIL: served predictions diverge from the "
                    "artifact's model\n");
        pass = false;
    }
    if (!run.finished) {
        std::printf("  GATE FAIL: training did not complete\n");
        pass = false;
    }

    {
        benchutil::BenchJson json("BENCH_accuracy.json");
        json.text("bench", "accuracy");
        json.text("mode", cfg.full ? "full" : "smoke");
        json.field("train_samples", "%zu", cfg.trainSamples);
        json.field("test_samples", "%zu", cfg.testSamples);
        json.field("region_chunks", "%u", cfg.regionChunks);
        json.field("epochs", "%zu", cfg.epochs);
        json.field("train_manifest_hash", "\"%016llx\"",
                   static_cast<unsigned long long>(train_hash));
        json.field("test_manifest_hash", "\"%016llx\"",
                   static_cast<unsigned long long>(test_hash));
        json.field("val_rel_err", "%.6f", val_err);
        json.field("heldout_rel_err_trained", "%.6f", trained_err);
        json.field("heldout_rel_err_untrained", "%.6f", stub_err);
        json.field("ratio", "%.6f",
                   stub_err > 0.0 ? trained_err / stub_err : 0.0);
        json.field("gate_ratio", "%.3f", kGateRatio);
        json.field("serve_max_abs_diff", "%.3e", serve_diff);
        json.field("dataset_seconds", "%.2f", dataset_s);
        json.field("train_seconds", "%.2f", train_s);
        json.flag("gate_pass", pass);
    }
    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
