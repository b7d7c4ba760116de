/**
 * @file
 * End-to-end model-lifecycle tests: sharded checkpointable dataset
 * generation (bitwise resume), resumable training (bitwise resume of
 * the full optimizer state), versioned ModelArtifact round-trips,
 * registry hot-swap under concurrent load, and the CLI's strict
 * exit-code contract for the lifecycle subcommands.
 */

#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <thread>
#include <vector>

#include "common/serialize.hh"
#include "core/artifacts.hh"
#include "core/dataset.hh"
#include "core/model_artifact.hh"
#include "pipeline/analysis_pipeline.hh"
#include "serve/prediction_service.hh"

namespace concorde
{
namespace
{

std::string
fileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << path;
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

std::string
freshDir(const std::string &name)
{
    const std::string dir = "/tmp/concorde_lifecycle_" + name;
    const std::string cmd = "rm -rf '" + dir + "'";
    EXPECT_EQ(std::system(cmd.c_str()), 0);
    return dir;
}

DatasetConfig
smallConfig(size_t n, uint64_t seed)
{
    DatasetConfig config;
    config.numSamples = n;
    config.regionChunks = 2;
    config.seed = seed;
    return config;
}

/** Shared labeled dataset for the training tests (built once). */
const Dataset &
trainingData()
{
    static const Dataset data = buildDataset(smallConfig(48, 4242));
    return data;
}

TrainConfig
smallTrainConfig()
{
    TrainConfig tc;
    tc.epochs = 6;
    tc.batchSize = 16;
    tc.seed = 99;
    tc.threads = 2;
    tc.valFraction = 0.25;
    return tc;
}

// ---- sharded dataset generation ----

TEST(ShardedDataset, MatchesMonolithicBuildBitwise)
{
    const DatasetConfig config = smallConfig(17, 1001);
    const std::string dir = freshDir("shard_match");
    const auto result = buildDatasetShards(config, dir, 5);
    EXPECT_EQ(result.shardsBuilt, 4u);      // 5+5+5+2
    EXPECT_TRUE(result.complete());

    const Dataset sharded = loadDatasetShards(dir);
    const Dataset mono = buildDataset(config);
    ASSERT_EQ(sharded.size(), mono.size());
    EXPECT_EQ(sharded.dim, mono.dim);
    EXPECT_EQ(sharded.features, mono.features);
    EXPECT_EQ(sharded.labels, mono.labels);
    for (size_t i = 0; i < mono.size(); ++i) {
        EXPECT_TRUE(sharded.meta[i].params == mono.meta[i].params);
        EXPECT_EQ(sharded.meta[i].region.startChunk,
                  mono.meta[i].region.startChunk);
        EXPECT_EQ(sharded.meta[i].mispredicts, mono.meta[i].mispredicts);
        EXPECT_EQ(sharded.meta[i].execRatio, mono.meta[i].execRatio);
    }
}

TEST(ShardedDataset, InterruptedResumeIsByteIdentical)
{
    const DatasetConfig config = smallConfig(13, 2002);
    const size_t shard_samples = 4;     // shards of 4,4,4,1

    const std::string dir_full = freshDir("shard_full");
    const auto full = buildDatasetShards(config, dir_full, shard_samples);
    EXPECT_TRUE(full.complete());

    // "Kill" the run after every shard: each call generates one shard
    // and stops, mimicking a job that dies and restarts repeatedly.
    const std::string dir_resumed = freshDir("shard_resumed");
    size_t calls = 0;
    while (true) {
        const auto step =
            buildDatasetShards(config, dir_resumed, shard_samples, 1);
        ++calls;
        ASSERT_LE(calls, 16u) << "resume loop did not converge";
        if (step.complete())
            break;
        EXPECT_EQ(step.shardsBuilt, 1u);
    }
    EXPECT_EQ(calls, 4u);

    // Every artifact of the interrupted run must equal the
    // uninterrupted one byte for byte: manifest and all shards.
    EXPECT_EQ(fileBytes(DatasetManifest::manifestFile(dir_full)),
              fileBytes(DatasetManifest::manifestFile(dir_resumed)));
    const DatasetManifest manifest =
        DatasetManifest::load(DatasetManifest::manifestFile(dir_full));
    ASSERT_EQ(manifest.numShards(), 4u);
    for (size_t s = 0; s < manifest.numShards(); ++s) {
        EXPECT_EQ(fileBytes(DatasetManifest::shardFile(dir_full, s)),
                  fileBytes(DatasetManifest::shardFile(dir_resumed, s)))
            << "shard " << s;
    }

    // And a truncated-tempfile crash must not poison a resume: only
    // atomically renamed shards count.
    EXPECT_EQ(loadDatasetShards(dir_resumed).size(), 13u);
}

TEST(ShardedDataset, ReportsProgressAndSkipsCompletedShards)
{
    const DatasetConfig config = smallConfig(9, 3003);
    const std::string dir = freshDir("shard_progress");

    const auto first = buildDatasetShards(config, dir, 3, 1);
    EXPECT_EQ(first.shardsBuilt, 1u);
    EXPECT_EQ(first.shardsSkipped, 0u);
    EXPECT_EQ(first.shardsRemaining, 2u);
    EXPECT_FALSE(first.complete());

    const auto second = buildDatasetShards(config, dir, 3);
    EXPECT_EQ(second.shardsBuilt, 2u);
    EXPECT_EQ(second.shardsSkipped, 1u);
    EXPECT_TRUE(second.complete());

    // A fully complete rerun is a no-op.
    const auto third = buildDatasetShards(config, dir, 3);
    EXPECT_EQ(third.shardsBuilt, 0u);
    EXPECT_EQ(third.shardsSkipped, 3u);
    EXPECT_TRUE(third.complete());

    EXPECT_NE(datasetManifestHash(dir), 0u);
}

TEST(ShardedDatasetDeathTest, RejectsMismatchedConfig)
{
    DatasetConfig config = smallConfig(6, 4004);
    const std::string dir = freshDir("shard_mismatch");
    buildDatasetShards(config, dir, 3, 1);
    config.seed = 5005;     // different generation plan, same directory
    EXPECT_EXIT(buildDatasetShards(config, dir, 3),
                ::testing::ExitedWithCode(1), "different dataset config");
}

// ---- resumable training ----

TEST(ResumableTraining, ValidationMetricsArePopulated)
{
    const Dataset &data = trainingData();
    const TrainConfig tc = smallTrainConfig();
    const TrainRun run = trainMlpResumable(data.features, data.labels,
                                           data.dim, tc);
    EXPECT_TRUE(run.finished);
    ASSERT_EQ(run.history.size(), tc.epochs);
    for (size_t e = 0; e < run.history.size(); ++e) {
        EXPECT_EQ(run.history[e].epoch, e);
        EXPECT_GT(run.history[e].trainRelErr, 0.0);
        EXPECT_GE(run.history[e].valRelErr, 0.0) << "no held-out metric";
        EXPECT_GT(run.history[e].lr, 0.0);
    }
    // Training must actually reduce training error.
    EXPECT_LT(run.history.back().trainRelErr,
              run.history.front().trainRelErr);
    EXPECT_TRUE(run.model.valid());
}

TEST(ResumableTraining, NoValSplitMatchesLegacyTrainMlp)
{
    // valFraction == 0 must reproduce the historical trainMlp path
    // bit-for-bit (standardization over all rows, identity order).
    const Dataset &data = trainingData();
    TrainConfig tc = smallTrainConfig();
    tc.valFraction = 0.0;
    const TrainedModel via_wrapper =
        trainMlp(data.features, data.labels, data.dim, tc);
    const TrainRun run = trainMlpResumable(data.features, data.labels,
                                           data.dim, tc);
    const std::string path_a = "/tmp/concorde_lifecycle_legacy_a.bin";
    const std::string path_b = "/tmp/concorde_lifecycle_legacy_b.bin";
    via_wrapper.save(path_a);
    run.model.save(path_b);
    EXPECT_EQ(fileBytes(path_a), fileBytes(path_b));
    EXPECT_LT(run.history.back().valRelErr, 0.0) << "no split requested";
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(ResumableTraining, InterruptedResumeIsBitwiseIdentical)
{
    const Dataset &data = trainingData();
    const TrainConfig tc = smallTrainConfig();
    const std::string ckpt_full = "/tmp/concorde_lifecycle_ckpt_full.bin";
    const std::string ckpt_resume =
        "/tmp/concorde_lifecycle_ckpt_resume.bin";
    std::remove(ckpt_full.c_str());
    std::remove(ckpt_resume.c_str());

    const TrainRun full = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_full);
    EXPECT_TRUE(full.finished);

    // Kill training after epochs 2, 3 (1 more), and resume to the end.
    TrainRun resumed = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_resume, 2);
    EXPECT_FALSE(resumed.finished);
    EXPECT_EQ(resumed.epochsCompleted(), 2u);
    resumed = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_resume, 1);
    EXPECT_FALSE(resumed.finished);
    EXPECT_EQ(resumed.epochsCompleted(), 3u);
    resumed = trainMlpResumable(
        data.features, data.labels, data.dim, tc, nullptr, ckpt_resume);
    EXPECT_TRUE(resumed.finished);
    ASSERT_EQ(resumed.history.size(), full.history.size());

    // The resumed run must be indistinguishable from the uninterrupted
    // one: identical per-epoch metrics, identical final checkpoint
    // bytes, identical saved model bytes.
    for (size_t e = 0; e < full.history.size(); ++e) {
        EXPECT_EQ(resumed.history[e].trainRelErr,
                  full.history[e].trainRelErr) << "epoch " << e;
        EXPECT_EQ(resumed.history[e].valRelErr, full.history[e].valRelErr)
            << "epoch " << e;
        EXPECT_EQ(resumed.history[e].lr, full.history[e].lr);
    }
    EXPECT_EQ(fileBytes(ckpt_full), fileBytes(ckpt_resume));

    const std::string model_full = "/tmp/concorde_lifecycle_model_f.bin";
    const std::string model_resume = "/tmp/concorde_lifecycle_model_r.bin";
    full.model.save(model_full);
    resumed.model.save(model_resume);
    EXPECT_EQ(fileBytes(model_full), fileBytes(model_resume));
    std::remove(ckpt_full.c_str());
    std::remove(ckpt_resume.c_str());
    std::remove(model_full.c_str());
    std::remove(model_resume.c_str());
}

TEST(ResumableTrainingDeathTest, RejectsForeignCheckpoint)
{
    const Dataset &data = trainingData();
    TrainConfig tc = smallTrainConfig();
    const std::string ckpt = "/tmp/concorde_lifecycle_ckpt_foreign.bin";
    std::remove(ckpt.c_str());
    trainMlpResumable(data.features, data.labels, data.dim, tc, nullptr,
                      ckpt, 1);
    tc.seed = 1717;     // different run; resuming would corrupt it
    EXPECT_EXIT(trainMlpResumable(data.features, data.labels, data.dim,
                                  tc, nullptr, ckpt),
                ::testing::ExitedWithCode(1), "refusing to resume");
    std::remove(ckpt.c_str());
}

// ---- versioned model artifacts ----

TEST(ModelArtifact, SaveLoadRoundTripsEverything)
{
    const Dataset &data = trainingData();
    TrainConfig tc = smallTrainConfig();
    tc.epochs = 3;
    const TrainRun run = trainMlpResumable(data.features, data.labels,
                                           data.dim, tc);

    ModelArtifact trained;
    trained.features = FeatureConfig{};
    trained.model = run.model;
    trained.provenance.datasetManifestHash = 0xDEADBEEFCAFEF00DULL;
    trained.provenance.datasetPath = "/data/train";
    trained.provenance.gitDescribe = buildGitDescribe();
    trained.provenance.trainConfig = tc;
    trained.provenance.trainedEpochs = run.epochsCompleted();
    trained.provenance.heldOutRelErr = run.history.back().valRelErr;

    // A non-default FeatureConfig must come back exactly: a
    // default-config provider would have the wrong dimensionality.
    ModelArtifact custom;
    custom.features.windowK = 200;
    custom.features.numPercentiles = 9;
    custom.features.robSweep = {2, 8, 32, 128};
    custom.features.latencyRobSizes = {4, 64};
    custom.model = artifacts::untrainedModel(custom.features, 71);

    const std::string path_a = "/tmp/concorde_lifecycle_artifact_a.bin";
    const std::string path_b = "/tmp/concorde_lifecycle_artifact_b.bin";
    for (const ModelArtifact *artifact : {&trained, &custom}) {
        SCOPED_TRACE(artifact == &trained ? "trained" : "custom features");
        artifact->save(path_a);
        const ModelArtifact loaded = ModelArtifact::load(path_a);

        const ArtifactProvenance &want = artifact->provenance;
        EXPECT_EQ(loaded.provenance.datasetManifestHash,
                  want.datasetManifestHash);
        EXPECT_EQ(loaded.provenance.datasetPath, want.datasetPath);
        EXPECT_EQ(loaded.provenance.gitDescribe, want.gitDescribe);
        EXPECT_EQ(loaded.provenance.trainedEpochs, want.trainedEpochs);
        EXPECT_EQ(loaded.provenance.heldOutRelErr, want.heldOutRelErr);
        EXPECT_EQ(loaded.provenance.trainConfig.epochs,
                  want.trainConfig.epochs);
        EXPECT_EQ(loaded.provenance.trainConfig.seed, want.trainConfig.seed);
        EXPECT_EQ(loaded.provenance.trainConfig.valFraction,
                  want.trainConfig.valFraction);

        EXPECT_EQ(loaded.features.windowK, artifact->features.windowK);
        EXPECT_EQ(loaded.features.numPercentiles,
                  artifact->features.numPercentiles);
        EXPECT_EQ(loaded.features.robSweep, artifact->features.robSweep);
        EXPECT_EQ(loaded.features.latencyRobSizes,
                  artifact->features.latencyRobSizes);
        EXPECT_EQ(loaded.predictor().layout().dim(),
                  artifact->predictor().layout().dim());

        // Predictions through the restored feature configuration are the
        // exact same bits.
        const RegionSpec spec{2, 0, 0, 1};
        const UarchParams n1 = UarchParams::armN1();
        EXPECT_EQ(loaded.predictor().predictCpi(spec, n1),
                  artifact->predictor().predictCpi(spec, n1));

        // save -> load -> save is byte-identical.
        loaded.save(path_b);
        EXPECT_EQ(fileBytes(path_a), fileBytes(path_b));
    }
    std::remove(path_a.c_str());
    std::remove(path_b.c_str());
}

TEST(ModelArtifactDeathTest, RejectsShortWeights)
{
    // A real artifact, edited so the first weight matrix is one float
    // short but every length field stays self-consistent: the file
    // parses to the end, and only the shape check can catch it.
    ModelArtifact artifact;
    artifact.model = artifacts::untrainedModel(artifact.features, 5);
    const std::string path = "/tmp/concorde_lifecycle_short_weights.bin";
    artifact.save(path);
    std::string bytes = fileBytes(path);

    const uint64_t dim = FeatureLayout(artifact.features).dim();
    const uint64_t header[] = {4, dim, 192, 96, 1, dim * 192};
    const std::string needle(reinterpret_cast<const char *>(header),
                             sizeof(header));
    const size_t at = bytes.find(needle);
    ASSERT_NE(at, std::string::npos);
    const uint64_t short_count = dim * 192 - 1;
    const size_t count_at = at + sizeof(header) - sizeof(uint64_t);
    bytes.replace(count_at, sizeof(uint64_t),
                  reinterpret_cast<const char *>(&short_count),
                  sizeof(short_count));
    bytes.erase(count_at + sizeof(uint64_t), sizeof(float));
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << bytes;
    }
    EXPECT_EXIT(ModelArtifact::load(path), ::testing::ExitedWithCode(1),
                "malformed MLP: layer 0 has");
    std::remove(path.c_str());
}

TEST(ModelArtifact, ConcurrentWritersOfOnePathNeverClobber)
{
    // Two processes publish different artifacts to one path, over and
    // over. Each must stage under its own name: with a shared staging
    // name one writer truncates the other's half-written file, so a
    // mixed file gets published or the loser's rename finds nothing.
    const std::string path = "/tmp/concorde_lifecycle_two_writers_"
        + std::to_string(::getpid()) + ".bin";
    std::vector<ModelArtifact> versions(2);
    std::vector<std::string> bytes(2);
    for (size_t v = 0; v < versions.size(); ++v) {
        versions[v].model =
            artifacts::untrainedModel(versions[v].features, 200 + v);
        versions[v].save(path);
        bytes[v] = fileBytes(path);
    }
    ASSERT_NE(bytes[0], bytes[1]);

    // Children block on the pipe until both exist, then race.
    int start[2];
    ASSERT_EQ(::pipe(start), 0);
    std::fflush(nullptr);
    std::vector<pid_t> writers;
    for (size_t v = 0; v < versions.size(); ++v) {
        const pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(start[1]);
            char go;
            (void)::read(start[0], &go, 1);
            for (int round = 0; round < 100; ++round) {
                versions[v].save(path);
                std::ifstream in(path, std::ios::binary);
                std::ostringstream published;
                published << in.rdbuf();
                if (published.str() != bytes[0]
                    && published.str() != bytes[1])
                    ::_exit(3);
            }
            ::_exit(0);
        }
        writers.push_back(pid);
    }
    ::close(start[0]);
    ::close(start[1]);
    for (const pid_t pid : writers) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
            << "writer " << pid << " status " << status;
    }
    const std::string final_bytes = fileBytes(path);
    EXPECT_TRUE(final_bytes == bytes[0] || final_bytes == bytes[1]);
    EXPECT_EQ(reclaimStagingDebris(path), 0u) << "staging debris left";
    std::remove(path.c_str());
}

TEST(ModelArtifact, PipelineAndServiceConsumeArtifacts)
{
    const ModelArtifact artifact = [] {
        ModelArtifact a;
        a.features = FeatureConfig{};
        a.model = artifacts::untrainedModel(a.features, 31);
        a.provenance.gitDescribe = buildGitDescribe();
        return a;
    }();
    const std::string path = "/tmp/concorde_lifecycle_artifact_pipe.bin";
    artifact.save(path);

    TraceSpan span;
    span.programId = programIdByCode("S7");
    span.traceId = 0;
    span.startChunk = 16;
    span.numChunks = 8;
    const UarchParams params = UarchParams::armN1();

    // Pipeline from an artifact == pipeline from the bare predictor.
    pipeline::PipelineConfig pc;
    pc.regionChunks = 2;
    pc.mode = pipeline::ExecMode::Scalar;
    pc.state = pipeline::StateMode::Independent;
    const ConcordePredictor bare = artifact.predictor();
    pipeline::AnalysisPipeline from_bare(bare, pc);
    pipeline::AnalysisPipeline from_artifact(ModelArtifact::load(path),
                                             pc);
    const auto res_bare = from_bare.run(span, params);
    const auto res_artifact = from_artifact.run(span, params);
    ASSERT_EQ(res_bare.regionCpi.size(), res_artifact.regionCpi.size());
    for (size_t i = 0; i < res_bare.regionCpi.size(); ++i)
        EXPECT_EQ(res_bare.regionCpi[i], res_artifact.regionCpi[i]);
    EXPECT_EQ(res_bare.programCpi, res_artifact.programCpi);

    // Service hot-loads the artifact and serves matching predictions
    // (provenance travels with the handle).
    serve::PredictionService service{};
    const serve::ModelHandle handle = service.loadModel("prod", path);
    ASSERT_TRUE(handle.valid());
    ASSERT_NE(handle.provenance, nullptr);
    EXPECT_EQ(handle.provenance->gitDescribe,
              artifact.provenance.gitDescribe);
    RegionSpec region;
    region.programId = span.programId;
    region.startChunk = 16;
    region.numChunks = 2;
    EXPECT_EQ(service.predict({"prod", region, params}).cpi,
              bare.predictCpi(region, params));
    service.shutdown();
    std::remove(path.c_str());
}

// ---- registry hot-swap under load ----

TEST(RegistryHotSwap, EveryPredictionAttributableToExactlyOneVersion)
{
    // Three artifact versions of the same name, distinguishable by
    // their weights (different init seeds).
    const FeatureConfig fc;
    std::vector<ModelArtifact> versions;
    std::vector<std::string> paths;
    for (uint64_t v = 0; v < 3; ++v) {
        ModelArtifact a;
        a.features = fc;
        a.model = artifacts::untrainedModel(fc, 100 + v);
        a.provenance.trainedEpochs = v;
        versions.push_back(a);
        const std::string path = "/tmp/concorde_lifecycle_swap_"
            + std::to_string(v) + ".bin";
        a.save(path);
        paths.push_back(path);
    }

    // The request grid: 2 regions x 4 design points.
    std::vector<RegionSpec> regions;
    for (int r = 0; r < 2; ++r) {
        RegionSpec spec;
        spec.programId = programIdByCode("S7");
        spec.traceId = 0;
        spec.startChunk = 16 + 2 * r;
        spec.numChunks = 2;
        regions.push_back(spec);
    }
    std::vector<UarchParams> points;
    for (int p = 0; p < 4; ++p) {
        UarchParams params = UarchParams::armN1();
        params.set(ParamId::RobSize, 64 << p);
        points.push_back(params);
    }

    // Ground truth per version: the exact doubles each version's model
    // produces for every grid cell.
    std::vector<std::vector<double>> expected(versions.size());
    for (size_t v = 0; v < versions.size(); ++v) {
        const ConcordePredictor predictor = versions[v].predictor();
        for (const auto &region : regions) {
            FeatureProvider provider(region, fc);
            for (const auto &params : points) {
                expected[v].push_back(
                    predictor.predictCpi(provider, params));
            }
        }
    }
    // The versions must actually disagree, or attribution is vacuous.
    EXPECT_NE(expected[0][0], expected[1][0]);
    EXPECT_NE(expected[1][0], expected[2][0]);

    serve::PredictionService service{};
    service.registry().addArtifact("prod", versions[0]);

    // Hammer predict() from client threads while the main thread keeps
    // hot-swapping versions under the same name.
    std::atomic<bool> stop{false};
    std::atomic<size_t> checked{0};
    std::atomic<size_t> mismatches{0};
    std::vector<std::thread> clients;
    for (int c = 0; c < 3; ++c) {
        clients.emplace_back([&, c]() {
            size_t i = static_cast<size_t>(c);
            while (!stop.load(std::memory_order_relaxed)) {
                const size_t r = i % regions.size();
                const size_t p = (i / regions.size()) % points.size();
                const double got =
                    service.predict({"prod", regions[r], points[p]}).cpi;
                const size_t cell = r * points.size() + p;
                bool matches_some_version = false;
                for (size_t v = 0; v < versions.size(); ++v) {
                    if (got == expected[v][cell]) {
                        matches_some_version = true;
                        break;
                    }
                }
                if (!matches_some_version)
                    mismatches.fetch_add(1);
                checked.fetch_add(1);
                ++i;
            }
        });
    }
    for (int swap = 0; swap < 30; ++swap) {
        service.registry().addArtifact("prod",
                                       versions[swap % versions.size()]);
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    stop.store(true);
    for (auto &t : clients)
        t.join();

    EXPECT_GT(checked.load(), 0u);
    // No torn reads, no cross-version mixtures: every returned double
    // is bitwise one version's answer.
    EXPECT_EQ(mismatches.load(), 0u);

    // Stale-cache check: the same grid cell served before and after a
    // swap must answer with the *new* version's bits (the registration
    // id salts the cache key, so the old entry cannot hit).
    for (size_t v = 0; v < versions.size(); ++v) {
        service.registry().addFromArtifactFile("prod", paths[v]);
        for (size_t r = 0; r < regions.size(); ++r) {
            for (size_t p = 0; p < points.size(); ++p) {
                EXPECT_EQ(
                    service.predict({"prod", regions[r], points[p]}).cpi,
                    expected[v][r * points.size() + p])
                    << "version " << v;
            }
        }
    }
    service.shutdown();
    for (const auto &path : paths)
        std::remove(path.c_str());
}

// ---- CLI exit-code contract for the lifecycle subcommands ----

#ifdef CONCORDE_CLI_PATH

int
cliExitCode(const std::string &args)
{
    const std::string cmd =
        std::string(CONCORDE_CLI_PATH) + " " + args + " >/dev/null 2>&1";
    const int status = std::system(cmd.c_str());
    EXPECT_NE(status, -1);
    return WEXITSTATUS(status);
}

TEST(CliExitCodes, LifecycleSubcommandsRejectMalformedFlags)
{
    // dataset
    EXPECT_EQ(cliExitCode("dataset"), 2) << "missing out=";
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x bogus=3"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x samples=abc"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x shard=0"), 2);
    EXPECT_EQ(cliExitCode("dataset out=/tmp/x program=NOPE"), 2);
    // train
    EXPECT_EQ(cliExitCode("train data=/tmp/x"), 2) << "missing out=";
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y val=1.5"), 2);
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y val=nan"), 2);
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y epochs=zero"), 2);
    EXPECT_EQ(cliExitCode("train data=/tmp/x out=/tmp/y max_epochs=2"), 2)
        << "partial run without a checkpoint persists nothing";
    EXPECT_EQ(cliExitCode("train frobnicate"), 2);
    // eval
    EXPECT_EQ(cliExitCode("eval model=/tmp/x"), 2) << "missing data=";
    EXPECT_EQ(cliExitCode("eval wat=1"), 2);
    // unknown subcommand keeps exiting 2 too
    EXPECT_EQ(cliExitCode("retrain"), 2);
}

TEST(CliExitCodes, ProgramSubcommandsRejectMalformedFlags)
{
    // Every case fails while parsing, before any model loads or trains.
    EXPECT_EQ(cliExitCode("predict NOPE"), 2);
    EXPECT_EQ(cliExitCode("predict S7 rob=0"), 2);
    EXPECT_EQ(cliExitCode("predict S7 bp=maybe"), 2);
    EXPECT_EQ(cliExitCode("attribute S7 0"), 2);
    EXPECT_EQ(cliExitCode("simulate S7 wat"), 2);
    EXPECT_EQ(cliExitCode("serve S7 alpha=1.5"), 2);
    EXPECT_EQ(cliExitCode("serve S7 clients=abc"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 mode=fast"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 region=0"), 2);
}

TEST(CliExitCodes, IntegersOutsideTheirFieldRangeExit2)
{
    // Each value would silently wrap when narrowed to the field it is
    // stored in (uint32_t chunks/region, uint16_t port).
    const std::string dir = freshDir("cli_range");
    EXPECT_EQ(cliExitCode("dataset out=" + dir + " samples=4 shard=4 "
                          "chunks=4294967296"), 2);
    EXPECT_EQ(cliExitCode("dataset out=" + dir + " samples=4 shard=4 "
                          "chunks=4294967297"), 2);
    EXPECT_FALSE(fileExists(DatasetManifest::manifestFile(dir)));
    EXPECT_EQ(cliExitCode("serve S7 listen=70000"), 2);
    EXPECT_EQ(cliExitCode("pipeline S7 region=4294967296"), 2);
}

#endif // CONCORDE_CLI_PATH

} // anonymous namespace
} // namespace concorde
