/**
 * @file
 * Artifact cache shared by benches, tests, and examples: datasets and
 * trained models are generated once (deterministically) and cached on
 * disk under `artifacts/` (override with CONCORDE_ARTIFACTS). Sizes are
 * env-tunable so the full paper evaluation can be scaled up or down:
 *
 *   CONCORDE_TRAIN_SAMPLES      (default 24000)   main 16k-instr dataset
 *   CONCORDE_TEST_SAMPLES       (default 3000)
 *   CONCORDE_LONG_TRAIN_SAMPLES (default 16000)   64k-instr dataset
 *   CONCORDE_LONG_TEST_SAMPLES  (default 1200)
 *   CONCORDE_SPEC_SAMPLES       (default 3000)    SPEC@N1 (TAO comparison)
 *   CONCORDE_EPOCHS             (default 60)
 *
 * A size that is set must be a positive decimal integer; anything else
 * exits through fatal(). Cache file names carry a hash of the file's
 * configuration, so a changed configuration never reloads a stale file.
 * The code that builds a file is not in the hash: after a change to
 * features, labels or training, start from an empty directory.
 */

#ifndef CONCORDE_CORE_ARTIFACTS_HH
#define CONCORDE_CORE_ARTIFACTS_HH

#include <string>

#include "baseline/tao.hh"
#include "core/concorde.hh"
#include "core/dataset.hh"

namespace concorde
{
namespace artifacts
{

/** Artifact directory (created on demand). */
std::string dir();

/** Canonical feature configuration used by all shared artifacts. */
FeatureConfig featureConfig();

/** Canonical training configuration (epochs env-tunable). */
TrainConfig trainConfig();

/** Region lengths, in chunks: "100k-analogue" and "1M-analogue". */
constexpr uint32_t kShortRegionChunks = 8;   // 16,384 instructions
constexpr uint32_t kLongRegionChunks = 32;   // 65,536 instructions

// ---- datasets (memoized in memory, cached on disk) ----
const Dataset &mainTrain();
const Dataset &mainTest();
const Dataset &longTrain();
const Dataset &longTest();
/** SPEC programs at fixed ARM N1 (TAO's training/eval distribution). */
const Dataset &specN1Train();
const Dataset &specN1Test();
/** Per-program sample pool for the Figure-14 onboarding study. */
Dataset onboardPool(int program_id, size_t samples);

// ---- models ----
/** Concorde trained with all feature groups on mainTrain(). */
const TrainedModel &fullModel();
/** Concorde trained on the long-region dataset. */
const TrainedModel &longModel();
/**
 * Ablation variants (Figure 12): name is "base" (primary + mispredict
 * rate + params) or "base_branch" (+ pipeline-stall features).
 */
const TrainedModel &ablationModel(const std::string &name);

/**
 * Cache file of a dataset: `<dir>/<name>_<samples>_<h>.bin`, where h is
 * datasetConfigFingerprint(config) in hex.
 */
std::string datasetPath(const std::string &name,
                        const DatasetConfig &config);

/** Load `datasetPath(name, config)`, building and saving it if absent. */
Dataset cachedDataset(const std::string &name, const DatasetConfig &config);

/**
 * Cache file of a trainOn model: `<dir>/model_<name>_<n>x<epochs>_<h>.bin`,
 * where h hashes the training rows and labels, `config` and `mask`.
 */
std::string modelPath(const std::string &name, const Dataset &data,
                      const std::vector<float> &labels,
                      const TrainConfig &config,
                      const std::vector<uint8_t> *mask);

/**
 * Train a model on an arbitrary dataset (cached at modelPath). Labels
 * default to `data.labels`, the configuration to trainConfig().
 */
TrainedModel trainOn(const Dataset &data, const std::string &cache_name,
                     const std::vector<uint8_t> *mask = nullptr,
                     const std::vector<float> *labels_override = nullptr,
                     const TrainConfig &config = trainConfig());

/**
 * Cache file of a TAO baseline: `<dir>/model_tao_<n>x<epochs>_<h>.bin`,
 * where h hashes every TaoConfig field and the training regions and
 * labels. The thread count is hashed as resolved (0 = this host's
 * hardware threads), since it sets the gradient summation order.
 */
std::string taoModelPath(const TaoConfig &config,
                         const std::vector<RegionSpec> &regions,
                         const std::vector<float> &labels);

/**
 * Deterministic untrained model over `config`'s feature layout: He-init
 * weights from `seed`, identity standardization, no mask. Exercises the
 * full prediction pipeline at the real per-request cost without any
 * training artifacts -- the smoke benches and the golden-reference
 * corpus are built on it.
 *
 * @param hidden hidden-layer widths ({192, 96} = the production layout)
 */
TrainedModel untrainedModel(const FeatureConfig &config, uint64_t seed,
                            const std::vector<size_t> &hidden = {192, 96});

// ---- env-tunable sizes ----
/**
 * The positive decimal integer in env var `name`, or `fallback` when it
 * is unset or empty; fatal() on anything else ("abc", "0", "1e3").
 */
size_t envSize(const char *name, size_t fallback);
size_t trainSamples();
size_t testSamples();
size_t longTrainSamples();
size_t longTestSamples();
size_t specSamples();
size_t epochs();

/** The SPEC2017 program ids (S1..S10). */
const std::vector<int> &specPrograms();

} // namespace artifacts
} // namespace concorde

#endif // CONCORDE_CORE_ARTIFACTS_HH
