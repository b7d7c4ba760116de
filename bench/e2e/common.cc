#include <algorithm>
#include <cstdio>
#include <exception>

#include "common/stopwatch.hh"
#include "core/artifacts.hh"
#include "e2e.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace e2e
{

RunOutput
SequentialWorkload::run(double seconds, bool traced, LayerCounts &counts)
{
    // Calls are independent, so a replay of the first calls is exact.
    const size_t replay_calls = traced
        ? std::max<size_t>(1, std::lower_bound(untracedStarts.begin(),
                                               untracedStarts.end(), seconds)
                                  - untracedStarts.begin())
        : 0;
    RunOutput out;
    Stopwatch wall;
    for (size_t i = 0;
         traced ? i < replay_calls : wall.seconds() < seconds; ++i) {
        CallTime time;
        time.id = i;
        time.start = wall.seconds();
        const uint64_t ops_before = out.ops;
        try {
            out.calls.push_back(call(i, traced, counts, out.ops));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "call %zu failed: %s\n", i, e.what());
            out.calls.emplace_back();
            ++out.ops;
            ++out.failed;
        }
        time.end = wall.seconds();
        time.ops = out.ops - ops_before;
        out.times.push_back(time);
    }
    out.seconds = wall.seconds();
    if (!traced) {
        untracedStarts.clear();
        for (const CallTime &time : out.times)
            untracedStarts.push_back(time.start);
    }
    return out;
}

ConcordePredictor
makePredictor()
{
    const FeatureConfig config;
    return ConcordePredictor(artifacts::untrainedModel(config, 2026), config);
}

RegionSpec
drawRegion(uint64_t seed, uint64_t stream, uint64_t index)
{
    Rng rng(hashMix(seed, stream, index));
    return sampleRegion(rng, kRegionChunks);
}

std::vector<size_t>
pickIndices(uint64_t seed, uint64_t stream, size_t n, size_t count)
{
    std::vector<size_t> picks;
    if (n == 0)
        return picks;
    Rng rng(hashMix(seed, stream));
    for (size_t k = 0; k < count; ++k)
        picks.push_back(static_cast<size_t>(rng.nextBounded(n)));
    return picks;
}

void
touchAllPrograms()
{
    for (size_t id = 0; id < workloadCorpus().size(); ++id)
        (void)programModel(static_cast<int>(id));
}

uint64_t
fnv1a(const void *data, size_t bytes, uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (size_t i = 0; i < bytes; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

uint64_t
sidesHeld(const RegionAnalysis &analysis)
{
    return analysis.numDsideAnalyses() + analysis.numIsideAnalyses()
        + analysis.numBranchAnalyses();
}

} // namespace e2e
} // namespace concorde
