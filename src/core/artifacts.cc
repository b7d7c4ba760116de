#include "core/artifacts.hh"

#include <algorithm>
#include <charconv>
#include <cinttypes>
#include <cstdlib>
#include <cstring>
#include <map>
#include <mutex>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/serialize.hh"
#include "common/stopwatch.hh"
#include "common/thread_pool.hh"

namespace concorde
{
namespace artifacts
{

namespace
{

std::mutex &
artifactMutex()
{
    static std::mutex m;
    return m;
}

std::string
hex(uint64_t h)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, h);
    return buf;
}

uint64_t
mixDouble(uint64_t h, double value)
{
    uint64_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    return hashMix(h, bits);
}

/** Every TrainConfig field that shapes the trained weights. */
uint64_t
trainConfigHash(const TrainConfig &config)
{
    uint64_t h = hashMix(0x7A1C0F16ULL, config.batchSize, config.epochs);
    for (size_t hidden : config.hiddenSizes)
        h = hashMix(h, 1, hidden);
    for (double value : {config.learningRate, config.weightDecay,
                         config.beta1, config.beta2, config.adamEps,
                         config.valFraction})
        h = mixDouble(h, value);
    for (double frac : config.lrHalveAt)
        h = mixDouble(hashMix(h, 2), frac);
    return hashMix(h, config.seed, config.threads);
}

} // anonymous namespace

std::string
dir()
{
    const char *override_dir = std::getenv("CONCORDE_ARTIFACTS");
    static const std::string path =
        override_dir && *override_dir ? override_dir : "artifacts";
    ensureDir(path);
    return path;
}

size_t
envSize(const char *name, size_t fallback)
{
    const char *value = std::getenv(name);
    if (!value || !*value)
        return fallback;
    const char *end = value + std::strlen(value);
    size_t parsed = 0;
    const auto [stop, error] = std::from_chars(value, end, parsed);
    fatal_if(error != std::errc() || stop != end || parsed == 0,
             "%s must be a positive decimal integer, got '%s'", name,
             value);
    return parsed;
}

std::string
datasetPath(const std::string &name, const DatasetConfig &config)
{
    return dir() + "/" + name + "_" + std::to_string(config.numSamples)
        + "_" + hex(datasetConfigFingerprint(config, 0)) + ".bin";
}

Dataset
cachedDataset(const std::string &name, const DatasetConfig &config)
{
    const std::string path = datasetPath(name, config);
    if (fileExists(path))
        return Dataset::load(path);
    inform("building dataset '%s' (%zu samples, %u-chunk regions)...",
           name.c_str(), config.numSamples, config.regionChunks);
    Stopwatch timer;
    Dataset data = buildDataset(config);
    inform("dataset '%s' built in %.1fs", name.c_str(), timer.seconds());
    data.save(path);
    return data;
}

std::string
modelPath(const std::string &name, const Dataset &data,
          const std::vector<float> &labels, const TrainConfig &config,
          const std::vector<uint8_t> *mask)
{
    uint64_t h = hashBytes(data.features.data(),
                           data.features.size() * sizeof(float));
    h = hashBytes(labels.data(), labels.size() * sizeof(float), h);
    h = hashMix(h, data.dim, trainConfigHash(config));
    if (mask)
        h = hashBytes(mask->data(), mask->size(), hashMix(h, 3));
    return dir() + "/model_" + name + "_" + std::to_string(data.size())
        + "x" + std::to_string(config.epochs) + "_" + hex(h) + ".bin";
}

std::string
taoModelPath(const TaoConfig &config, const std::vector<RegionSpec> &regions,
             const std::vector<float> &labels)
{
    uint64_t h = hashMix(0x7A0C0F16ULL, config.hidden, config.seqLen);
    h = hashMix(h, config.windowsPerRegion, config.epochs);
    h = mixDouble(hashMix(h, config.batchSize), config.learningRate);
    h = hashMix(h, config.seed,
                config.threads == 0 ? defaultThreads() : config.threads);
    for (const RegionSpec &r : regions) {
        h = hashMix(hashMix(h, static_cast<uint64_t>(r.programId),
                            static_cast<uint64_t>(r.traceId)),
                    r.startChunk, r.numChunks);
    }
    h = hashBytes(labels.data(), labels.size() * sizeof(float), h);
    return dir() + "/model_tao_" + std::to_string(regions.size()) + "x"
        + std::to_string(config.epochs) + "_" + hex(h) + ".bin";
}

size_t trainSamples() { return envSize("CONCORDE_TRAIN_SAMPLES", 24000); }
size_t testSamples() { return envSize("CONCORDE_TEST_SAMPLES", 3000); }
size_t
longTrainSamples()
{
    return envSize("CONCORDE_LONG_TRAIN_SAMPLES", 16000);
}
size_t
longTestSamples()
{
    return envSize("CONCORDE_LONG_TEST_SAMPLES", 1200);
}
size_t specSamples() { return envSize("CONCORDE_SPEC_SAMPLES", 3000); }
size_t epochs() { return envSize("CONCORDE_EPOCHS", 60); }

FeatureConfig
featureConfig()
{
    return FeatureConfig{};
}

TrainConfig
trainConfig()
{
    TrainConfig config;
    config.epochs = epochs();
    return config;
}

const std::vector<int> &
specPrograms()
{
    static const std::vector<int> programs = [] {
        std::vector<int> ids;
        for (int i = 1; i <= 10; ++i) {
            const int id = programIdByCode("S" + std::to_string(i));
            panic_if(id < 0, "SPEC program S%d missing from corpus", i);
            ids.push_back(id);
        }
        return ids;
    }();
    return programs;
}

const Dataset &
mainTrain()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = trainSamples();
        config.regionChunks = kShortRegionChunks;
        config.seed = 1001;
        config.features = featureConfig();
        return cachedDataset("train_main", config);
    }();
    return data;
}

const Dataset &
mainTest()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = testSamples();
        config.regionChunks = kShortRegionChunks;
        config.seed = 2002;
        config.features = featureConfig();
        return cachedDataset("test_main", config);
    }();
    return data;
}

const Dataset &
longTrain()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = longTrainSamples();
        config.regionChunks = kLongRegionChunks;
        config.seed = 3003;
        config.features = featureConfig();
        return cachedDataset("train_long", config);
    }();
    return data;
}

const Dataset &
longTest()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = longTestSamples();
        config.regionChunks = kLongRegionChunks;
        config.seed = 4004;
        config.features = featureConfig();
        return cachedDataset("test_long", config);
    }();
    return data;
}

const Dataset &
specN1Train()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = specSamples();
        config.regionChunks = kShortRegionChunks;
        config.seed = 5005;
        config.features = featureConfig();
        config.useFixedUarch = true;
        config.fixedUarch = UarchParams::armN1();
        config.programFilter = specPrograms();
        return cachedDataset("train_spec_n1", config);
    }();
    return data;
}

const Dataset &
specN1Test()
{
    std::lock_guard<std::mutex> lock(artifactMutex());
    static const Dataset data = [] {
        DatasetConfig config;
        config.numSamples = std::max<size_t>(specSamples() / 4, 200);
        config.regionChunks = kShortRegionChunks;
        config.seed = 6006;
        config.features = featureConfig();
        config.useFixedUarch = true;
        config.fixedUarch = UarchParams::armN1();
        config.programFilter = specPrograms();
        return cachedDataset("test_spec_n1", config);
    }();
    return data;
}

Dataset
onboardPool(int program_id, size_t samples)
{
    DatasetConfig config;
    config.numSamples = samples;
    config.regionChunks = kShortRegionChunks;
    config.seed = 7007 + static_cast<uint64_t>(program_id) * 131;
    config.features = featureConfig();
    config.programFilter = {program_id};
    return cachedDataset(
        "onboard_p" + std::to_string(program_id), config);
}

TrainedModel
trainOn(const Dataset &data, const std::string &cache_name,
        const std::vector<uint8_t> *mask,
        const std::vector<float> *labels_override,
        const TrainConfig &config)
{
    const auto &labels = labels_override ? *labels_override : data.labels;
    const std::string path =
        modelPath(cache_name, data, labels, config, mask);
    if (fileExists(path))
        return TrainedModel::load(path);
    inform("training model '%s' on %zu samples...", cache_name.c_str(),
           data.size());
    Stopwatch timer;
    TrainedModel model =
        trainMlp(data.features, labels, data.dim, config, mask);
    inform("model '%s' trained in %.1fs (train rel-err %.4f)",
           cache_name.c_str(), timer.seconds(),
           model.meanRelativeError(data.features, labels, data.dim));
    model.save(path);
    return model;
}

TrainedModel
untrainedModel(const FeatureConfig &config, uint64_t seed,
               const std::vector<size_t> &hidden)
{
    const FeatureLayout layout(config);
    std::vector<size_t> sizes;
    sizes.reserve(hidden.size() + 2);
    sizes.push_back(layout.dim());
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(1);
    Mlp net(std::move(sizes), seed);
    std::vector<float> mean(layout.dim(), 0.0f);
    std::vector<float> stdev(layout.dim(), 1.0f);
    return TrainedModel(std::move(net), std::move(mean), std::move(stdev),
                        {});
}

const TrainedModel &
fullModel()
{
    static const TrainedModel model = trainOn(mainTrain(), "full");
    return model;
}

const TrainedModel &
longModel()
{
    static const TrainedModel model = trainOn(longTrain(), "long");
    return model;
}

const TrainedModel &
ablationModel(const std::string &name)
{
    const FeatureLayout layout(featureConfig());
    static std::map<std::string, TrainedModel> cache;
    static std::mutex mutex;
    std::lock_guard<std::mutex> lock(mutex);
    auto it = cache.find(name);
    if (it != cache.end())
        return it->second;

    std::vector<FeatureGroup> groups;
    if (name == "base") {
        groups = {FeatureGroup::Primary, FeatureGroup::MispredRate,
                  FeatureGroup::Params};
    } else if (name == "base_branch") {
        groups = {FeatureGroup::Primary, FeatureGroup::MispredRate,
                  FeatureGroup::Stalls, FeatureGroup::Params};
    } else {
        fatal("unknown ablation '%s'", name.c_str());
    }
    const auto mask = layout.maskFor(groups);
    auto [pos, inserted] =
        cache.emplace(name, trainOn(mainTrain(), "ablation_" + name,
                                    &mask));
    return pos->second;
}

} // namespace artifacts
} // namespace concorde
