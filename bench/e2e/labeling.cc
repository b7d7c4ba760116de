/**
 * @file
 * labeling: call i builds a small training dataset with buildDataset --
 * seed-drawn regions, each with a random microarchitecture, features
 * plus a cycle-level simulator label per sample. No region repeats, so
 * the analysis caches do not help; the simulator dominates.
 */

#include <map>
#include <tuple>

#include "common/thread_pool.hh"
#include "core/dataset.hh"
#include "e2e.hh"
#include "sim/o3_core.hh"

namespace concorde
{
namespace e2e
{

namespace
{

constexpr uint64_t kCallStream = 0x1AB0;
constexpr uint64_t kCheckStream = 0x1AB1;

/** Samples per buildDataset call: two per worker thread. */
constexpr size_t kSamplesPerCall = 4;

DatasetConfig
configFor(uint64_t seed, size_t i)
{
    DatasetConfig config;
    config.numSamples = kSamplesPerCall;
    config.regionChunks = kRegionChunks;
    config.seed = hashMix(seed, kCallStream, i);
    config.threads = kThreads;
    return config;
}

/** FNV-1a of one feature row. */
uint64_t
rowHash(const float *row, size_t dim)
{
    return fnv1a(row, dim * sizeof(float));
}

/**
 * Label one sample the way buildDataset does, one public layer call at
 * a time: analyses, feature row, simulator label, and the Figure 11
 * load-latency estimate.
 */
void
labelOne(FeatureProvider &provider, const UarchParams &params,
         std::vector<float> &row, SimScratch &scratch, double &label,
         uint64_t &hash, LayerCounts &counts)
{
    RegionAnalysis &analysis = provider.analysis();
    {
        Span span("analysis");
        analysis.analyzeAll(params.memory, params.branch);
    }
    {
        Span span("analytical");
        row.clear();
        provider.assemble(params, row);
    }
    SimResult sim;
    {
        Span span("sim");
        sim = simulateRegion(params, analysis, 0, &scratch);
    }
    {
        Span span("analysis");
        (void)provider.estimatedLoadLatencySum(params.memory);
    }
    label = static_cast<float>(sim.cpi());
    hash = rowHash(row.data(), row.size());

    const HierarchyStats &d = analysis.dside(params.memory).stats;
    counts.l1dHits += d.l1Hits;
    counts.dAccesses += d.accesses();
}

class Labeling : public SequentialWorkload
{
  public:
    explicit Labeling(uint64_t seed) : seed(seed) {}

    void
    setup() override
    {
        touchAllPrograms();
        (void)buildDataset(configFor(kWarmupSeed, 0));
    }

    CheckResult
    check(const RunOutput &base) override
    {
        // 32 seed-chosen samples, each relabeled alone with a fresh
        // analysis and simulator scratch.
        CheckResult result;
        LayerCounts unused;
        std::vector<float> row;
        const size_t total = base.calls.size() * kSamplesPerCall;
        for (size_t pick : pickIndices(seed, kCheckStream, total, 32)) {
            const size_t c = pick / kSamplesPerCall;
            const size_t s = pick % kSamplesPerCall;
            const CallOutput &out = base.calls[c];
            ++result.attempted;
            if (c >= specs.size() || s >= specs[c].size()
                || s >= out.values.size()) {
                ++result.failed;
                continue;
            }
            FeatureProvider provider(
                std::make_shared<RegionAnalysis>(specs[c][s].region));
            SimScratch scratch;
            double label = 0.0;
            uint64_t hash = 0;
            labelOne(provider, specs[c][s].params, row, scratch, label, hash,
                     unused);
            if (label != out.values[s] || hash != out.hashes[s])
                ++result.failed;
        }
        return result;
    }

    const char *opName() const override { return "labels"; }

  protected:
    CallOutput
    call(size_t i, bool traced, LayerCounts &counts, uint64_t &ops) override
    {
        CallOutput out;
        if (!traced) {
            const Dataset data = buildDataset(configFor(seed, i));
            for (size_t s = 0; s < data.size(); ++s) {
                out.values.push_back(data.labels[s]);
                out.hashes.push_back(rowHash(data.row(s), data.dim));
            }
            // The samples' (region, design point) pairs, which the
            // replay and the checks label again.
            specs.resize(std::max(specs.size(), i + 1));
            specs[i] = data.meta;
            ops += data.size();
            return out;
        }

        // buildDataset's labeling pass: samples grouped by region, the
        // groups split into contiguous shards over kThreads workers.
        const std::vector<SampleMeta> &metas = specs.at(i);
        std::map<std::tuple<int, int, uint64_t, uint32_t>,
                 std::vector<size_t>> groups;
        for (size_t s = 0; s < metas.size(); ++s) {
            const RegionSpec &r = metas[s].region;
            groups[{r.programId, r.traceId, r.startChunk, r.numChunks}]
                .push_back(s);
        }
        std::vector<const std::vector<size_t> *> group_list;
        for (const auto &kv : groups)
            group_list.push_back(&kv.second);

        out.values.assign(metas.size(), 0.0);
        out.hashes.assign(metas.size(), 0);
        parallelShards(group_list.size(), [&](size_t, size_t begin,
                                              size_t end) {
            Span root("labeling.shard", i + 1);
            SimScratch scratch;
            std::vector<float> row;
            for (size_t g = begin; g < end; ++g) {
                const std::vector<size_t> &members = *group_list[g];
                std::shared_ptr<RegionAnalysis> analysis;
                {
                    Span span("trace");
                    analysis = std::make_shared<RegionAnalysis>(
                        metas[members.front()].region);
                }
                FeatureProvider provider(analysis);
                for (size_t s : members) {
                    labelOne(provider, metas[s].params, row, scratch,
                             out.values[s], out.hashes[s], counts);
                }
                counts.traceInstructions +=
                    analysis->regionSize() + analysis->warmupSize();
                counts.sidesBuilt += sidesHeld(*analysis);
                counts.modelRuns += provider.modelRuns();
            }
        }, kThreads);
        ops += metas.size();
        return out;
    }

  private:
    const uint64_t seed;
    /** Per call, the samples the untraced run labeled. */
    std::vector<std::vector<SampleMeta>> specs;
};

} // anonymous namespace

std::unique_ptr<Workload>
makeLabeling(uint64_t seed)
{
    return std::make_unique<Labeling>(seed);
}

} // namespace e2e
} // namespace concorde
