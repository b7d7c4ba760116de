/**
 * @file
 * The simulator-label corpus: 8 regions (4 fixed spans of S7/P1 plus 4
 * seeded random draws) x 12 design points (ARM N1, the big core and 10
 * seeded random points, both prefetcher settings pinned). It is the
 * corpus of bench/bench_sim_labeler and of the committed golden labels
 * in tests/golden/sim_labels.golden, which pin every field of every
 * SimResult the fast simulator returns for it.
 *
 * Free of gtest so the bench can include it. The file format is the
 * plain-text `concorde-sim-labels v1` layout: one line per label, in
 * region-major order, integers exact and doubles printed with %.17g
 * (exact round-trip).
 */

#ifndef CONCORDE_TESTS_SIM_LABEL_CORPUS_HH
#define CONCORDE_TESTS_SIM_LABEL_CORPUS_HH

#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "sim/o3_core.hh"
#include "trace/workloads.hh"

namespace concorde
{
namespace simcorpus
{

constexpr size_t kGoldenRegions = 4;
constexpr size_t kRandomRegions = 4;
constexpr size_t kDesignPoints = 12;
constexpr uint32_t kRegionChunks = 2;
constexpr uint64_t kStartChunk = 16;
/** Window length of the golden labels (pins windowCommitCycles too). */
constexpr int kGoldenWindow = 512;

inline std::vector<RegionAnalysis>
analyses()
{
    std::vector<RegionAnalysis> out;
    out.reserve(kGoldenRegions + kRandomRegions);
    for (size_t i = 0; i < kGoldenRegions; ++i) {
        RegionSpec spec;
        spec.programId = programIdByCode(i % 2 == 0 ? "S7" : "P1");
        spec.traceId = 0;
        spec.startChunk = kStartChunk + i * kRegionChunks;
        spec.numChunks = kRegionChunks;
        out.emplace_back(spec, 1);
    }
    Rng rng(2025);
    for (size_t i = 0; i < kRandomRegions; ++i)
        out.emplace_back(sampleRegion(rng, kRegionChunks), 1);
    return out;
}

inline std::vector<UarchParams>
designPoints()
{
    std::vector<UarchParams> points;
    points.push_back(UarchParams::armN1());
    points.push_back(UarchParams::bigCore());
    Rng rng(4242);
    while (points.size() < kDesignPoints)
        points.push_back(UarchParams::sampleRandom(rng));
    // Pin both prefetcher settings into the corpus.
    points[0].memory.prefetchDegree = 4;
    points[1].memory.prefetchDegree = 0;
    return points;
}

/** Field-by-field exact equality, including the occupancy doubles. */
inline bool
identical(const SimResult &a, const SimResult &b)
{
    return a.cycles == b.cycles && a.instructions == b.instructions
        && a.avgRobOccupancy == b.avgRobOccupancy
        && a.avgRenameQOccupancy == b.avgRenameQOccupancy
        && a.avgLqOccupancy == b.avgLqOccupancy
        && a.branchMispredicts == b.branchMispredicts
        && a.actualLoadLatencySum == b.actualLoadLatencySum
        && a.loadCount == b.loadCount
        && a.windowCommitCycles == b.windowCommitCycles;
}

/** One label as a line of the golden file (no trailing newline). */
inline std::string
format(const SimResult &r)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%llu %llu %.17g %.17g %.17g %llu %llu %llu %zu",
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.instructions),
                  r.avgRobOccupancy, r.avgRenameQOccupancy,
                  r.avgLqOccupancy,
                  static_cast<unsigned long long>(r.branchMispredicts),
                  static_cast<unsigned long long>(r.actualLoadLatencySum),
                  static_cast<unsigned long long>(r.loadCount),
                  r.windowCommitCycles.size());
    std::string line = buf;
    for (uint64_t c : r.windowCommitCycles)
        line += " " + std::to_string(c);
    return line;
}

inline bool
write(const std::string &file, const std::vector<SimResult> &labels)
{
    FILE *f = std::fopen(file.c_str(), "w");
    if (!f)
        return false;
    std::fprintf(f, "concorde-sim-labels v1 %zu\n", labels.size());
    for (const SimResult &r : labels)
        std::fprintf(f, "%s\n", format(r).c_str());
    return std::fclose(f) == 0;
}

inline bool
read(const std::string &file, std::vector<SimResult> &labels)
{
    FILE *f = std::fopen(file.c_str(), "r");
    if (!f)
        return false;
    size_t n = 0;
    bool ok = std::fscanf(f, "concorde-sim-labels v1 %zu", &n) == 1;
    labels.assign(ok ? n : 0, SimResult{});
    for (size_t i = 0; ok && i < n; ++i) {
        SimResult &r = labels[i];
        unsigned long long cycles, instrs, mispredicts, lat_sum, loads;
        size_t windows = 0;
        ok = std::fscanf(f, "%llu %llu %lg %lg %lg %llu %llu %llu %zu",
                         &cycles, &instrs, &r.avgRobOccupancy,
                         &r.avgRenameQOccupancy, &r.avgLqOccupancy,
                         &mispredicts, &lat_sum, &loads, &windows) == 9;
        r.cycles = cycles;
        r.instructions = instrs;
        r.branchMispredicts = mispredicts;
        r.actualLoadLatencySum = lat_sum;
        r.loadCount = loads;
        r.windowCommitCycles.resize(ok ? windows : 0);
        for (uint64_t &c : r.windowCommitCycles) {
            unsigned long long v = 0;
            ok = ok && std::fscanf(f, "%llu", &v) == 1;
            c = v;
        }
    }
    std::fclose(f);
    return ok;
}

} // namespace simcorpus
} // namespace concorde

#endif // CONCORDE_TESTS_SIM_LABEL_CORPUS_HH
