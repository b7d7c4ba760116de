/**
 * @file
 * Dataset construction (paper Section 4): independently sample a program
 * region and a microarchitecture per data point, extract Concorde's
 * features, and label with the reference cycle-level simulator's CPI
 * (plus occupancy metrics for Section 5.2.6 and diagnostics for
 * Figures 4 and 11).
 */

#ifndef CONCORDE_CORE_DATASET_HH
#define CONCORDE_CORE_DATASET_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analytical/feature_provider.hh"
#include "trace/workloads.hh"
#include "uarch/params.hh"

namespace concorde
{

/** Per-sample metadata (POD; serialized alongside features). */
struct SampleMeta
{
    RegionSpec region;
    UarchParams params;
    float cpi = 0.0f;
    float avgRobOcc = 0.0f;     ///< % (Section 5.2.6 target)
    float avgRenameOcc = 0.0f;  ///< % (Section 5.2.6 target)
    uint32_t mispredicts = 0;   ///< Table 4 bucketing
    float execRatio = 1.0f;     ///< actual/estimated load time (Figure 11)
};

/** Feature matrix + CPI labels + metadata. */
struct Dataset
{
    size_t dim = 0;
    std::vector<float> features;    ///< size() x dim, row-major
    std::vector<float> labels;      ///< ground-truth CPI
    std::vector<SampleMeta> meta;

    size_t size() const { return labels.size(); }
    const float *row(size_t i) const { return features.data() + i * dim; }

    /** Alternative label vectors for Section 5.2.6. */
    std::vector<float> robOccLabels() const;
    std::vector<float> renameOccLabels() const;

    /** Subset by sample indices. */
    Dataset subset(const std::vector<size_t> &indices) const;

    /** Append another dataset of the same dim (shard concatenation). */
    void append(const Dataset &other);

    /**
     * Versioned on-disk format: field-wise SampleMeta serialization, so
     * the bytes are independent of struct padding and ABI, and identical
     * save() calls produce identical files.
     */
    void save(const std::string &path) const;
    static Dataset load(const std::string &path);
};

/** Knobs for dataset construction. */
struct DatasetConfig
{
    size_t numSamples = 1000;
    uint32_t regionChunks = 8;      ///< 8 x 2048 = 16k-instruction regions
    uint64_t seed = 99;
    FeatureConfig features;
    size_t threads = 0;

    /** Fixed microarchitecture (e.g. ARM N1) instead of random draws. */
    bool useFixedUarch = false;
    UarchParams fixedUarch;

    /** Restrict sampling to these programs (empty = whole corpus). */
    std::vector<int> programFilter;
};

/** Build a dataset (deterministic given config.seed). */
Dataset buildDataset(const DatasetConfig &config);

// ---- sharded, checkpointable generation ----
//
// A dataset directory holds a manifest plus fixed-size shard files:
//
//   <dir>/manifest.bin       plan: config fingerprint + shard geometry
//   <dir>/shard_00000.bin    samples [0, shardSamples)      (v2 Dataset)
//   <dir>/shard_00001.bin    samples [shardSamples, ...)
//   ...
//
// Every (region, microarchitecture) spec is drawn by one serial pass of
// the config RNG, so a sample's content depends only on (config, sample
// index) -- never on which run, thread count, or resume point produced
// it. Shards are written to a temporary name and atomically renamed, so
// a killed run leaves only complete shards, and re-running the same
// build resumes from the missing ones with bitwise-identical results.

/** The shard plan of a dataset directory. */
struct DatasetManifest
{
    uint64_t configFingerprint = 0; ///< datasetConfigFingerprint(...)
    uint64_t seed = 0;
    uint64_t numSamples = 0;
    uint64_t shardSamples = 0;      ///< samples per shard (last may be short)
    uint32_t regionChunks = 0;

    size_t numShards() const;
    size_t shardBegin(size_t shard) const;
    size_t shardEnd(size_t shard) const;

    /** Path of one shard file inside `dir`. */
    static std::string shardFile(const std::string &dir, size_t shard);
    static std::string manifestFile(const std::string &dir);

    void save(const std::string &path) const;
    static DatasetManifest load(const std::string &path);
};

/**
 * Fingerprint of everything that affects generated sample bytes (seed,
 * sizes, feature config, uarch restriction, program filter -- but not
 * thread count). A resumed build with a different fingerprint is
 * rejected instead of silently mixing incompatible shards.
 */
uint64_t datasetConfigFingerprint(const DatasetConfig &config,
                                  size_t shard_samples);

/** Outcome of one (possibly partial) sharded build run. */
struct ShardedBuildResult
{
    size_t shardsBuilt = 0;     ///< generated by this run
    size_t shardsSkipped = 0;   ///< already present (resume)
    size_t shardsRemaining = 0; ///< still missing (run again to resume)

    bool complete() const { return shardsRemaining == 0; }
};

/**
 * Build (or resume building) a sharded dataset in `dir`.
 *
 * @param shard_samples samples per shard
 * @param max_shards_this_run stop after generating this many new shards
 *        (0 = run to completion); used to bound one run's work and by
 *        the interruption tests
 */
ShardedBuildResult buildDatasetShards(const DatasetConfig &config,
                                      const std::string &dir,
                                      size_t shard_samples,
                                      size_t max_shards_this_run = 0);

// ---- multi-process scale-out ----
//
// Shards are a pure function of (config, index) and publish by durable
// atomic rename, so a fleet of worker *processes* can split the shard
// list and generate concurrently: the supervisor writes the manifest
// once, partitions the missing shards across workers, and the resulting
// directory is bitwise-identical to a serial run -- including after a
// worker is SIGKILLed mid-shard and its partition re-run. Shard staging
// files carry the writer's pid (uniqueTmpName), so concurrent or
// respawned workers never clobber each other, and leftovers from dead
// writers are identifiable and reclaimed on resume.

/**
 * Create the manifest for (config, shard_samples) in `dir`, or load and
 * fingerprint-check the existing one (fatal on a mismatch). This is the
 * serialization point of a scaled-out build: the supervisor calls it
 * once before spawning workers.
 */
DatasetManifest ensureDatasetManifest(const DatasetConfig &config,
                                      const std::string &dir,
                                      size_t shard_samples);

/**
 * True if `path` plausibly holds a dataset shard: non-empty with the
 * current (v2) magic. A zero-length or garbage file -- the footprint of
 * a crash between file creation and durable publish on a
 * pre-durability writer, or of disk corruption -- and a pre-v2 shard
 * are treated as missing, not trusted by resume; repairDatasetDir
 * deletes them so the build regenerates them.
 */
bool datasetShardValid(const std::string &path);

/**
 * Reclaim crash debris in a dataset directory: staging files whose
 * writer pid is dead (reclaimStagingFiles) and published shards that
 * fail datasetShardValid are deleted so the next build regenerates them. Live writers' staging files are left alone, making
 * this safe to run while other workers are mid-shard. Returns the
 * number of files removed.
 */
size_t repairDatasetDir(const std::string &dir,
                        const DatasetManifest &manifest);

/** Indices of manifest shards not yet (validly) present in `dir`. */
std::vector<size_t> missingDatasetShards(const std::string &dir,
                                         const DatasetManifest &manifest);

/**
 * Worker entry point of a scaled-out build: generate exactly the listed
 * shards (skipping any already published), sharing one spec pass and
 * analysis store across them. Bitwise-identical to the same shards of a
 * serial buildDatasetShards run.
 *
 * @param max_shards_this_run stop after this many new shards (0 = all);
 *        used by the interruption/crash-injection tests
 */
ShardedBuildResult buildDatasetShardSet(const DatasetConfig &config,
                                        const std::string &dir,
                                        size_t shard_samples,
                                        const std::vector<size_t> &shards,
                                        size_t max_shards_this_run = 0);

/**
 * Load a complete sharded dataset (fatal if shards are missing or
 * corrupt; run the sharded build again to resume generation). The
 * concatenation in shard order is bitwise-identical to buildDataset
 * with the same config.
 */
Dataset loadDatasetShards(const std::string &dir);

/** Hash of the manifest file: the dataset identity artifact provenance
 *  records. */
uint64_t datasetManifestHash(const std::string &dir);

} // namespace concorde

#endif // CONCORDE_CORE_DATASET_HH
