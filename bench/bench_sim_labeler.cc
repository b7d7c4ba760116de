/**
 * @file
 * Ground-truth labeling microbench and CI regression gate.
 *
 * Times the dataset-generation hot loop -- many design points simulated
 * against each region -- in both simulator builds:
 *
 *   reference  simulateTraceReference: fresh engine per call (every
 *              container allocated from scratch), per-call warmup+region
 *              rebase into a combined trace, over row copies of the
 *              region's columns made once off the clock
 *   fast       simulateRegion over one reused SimScratch: allocation-free
 *              steady state, cached combined trace + per-branch-config
 *              mispredict flags on the RegionAnalysis
 *
 * Region analyses (branch runs, combined traces, flag layouts, the
 * reference's row copies) are prewarmed off the clock -- they are
 * computed once per region in production and shared by every design
 * point; only the simulation calls are timed. Timing is best-of-kReps
 * with a fresh SimScratch per attempt (scratch reuse happens across the
 * calls WITHIN an attempt, which is the labelRange shape).
 *
 * Gates (exit 1 on failure; margins are 1-core-VM safe):
 *   - fast results bitwise-identical to the reference engine on every
 *     (region, design point) pair -- golden-corpus regions plus seeded
 *     random draws, including randomized memory/prefetch configs
 *   - fast >= 1.3x reference throughput
 *
 * Writes a JSON summary to $CONCORDE_BENCH_JSON (default
 * BENCH_sim.json). Needs no model artifacts; always smoke-fast.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "sim/o3_core.hh"
#include "trace/workloads.hh"

using namespace concorde;

namespace
{

constexpr int kReps = 3;
constexpr size_t kGoldenRegions = 4;
constexpr size_t kRandomRegions = 4;
constexpr size_t kDesignPoints = 12;
constexpr uint32_t kRegionChunks = 2;
constexpr uint64_t kStartChunk = 16;

std::vector<RegionAnalysis>
benchAnalyses()
{
    std::vector<RegionAnalysis> analyses;
    analyses.reserve(kGoldenRegions + kRandomRegions);
    for (size_t i = 0; i < kGoldenRegions; ++i) {
        RegionSpec spec;
        spec.programId = programIdByCode(i % 2 == 0 ? "S7" : "P1");
        spec.traceId = 0;
        spec.startChunk = kStartChunk + i * kRegionChunks;
        spec.numChunks = kRegionChunks;
        analyses.emplace_back(spec, 1);
    }
    Rng rng(2025);
    for (size_t i = 0; i < kRandomRegions; ++i)
        analyses.emplace_back(sampleRegion(rng, kRegionChunks), 1);
    return analyses;
}

std::vector<UarchParams>
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

bool
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

/** Row copies of one region's traces, the reference engine's input. */
struct RegionRows
{
    std::vector<Instruction> warmup;
    std::vector<Instruction> region;
};

SimResult
referenceLabel(const UarchParams &params, RegionAnalysis &analysis,
               const RegionRows &rows)
{
    const auto &branch_info = analysis.branches(params.branch);
    return simulateTraceReference(params, rows.warmup, rows.region,
                                  branch_info.mispredict);
}

} // anonymous namespace

int
main()
{
    std::printf("=== ground-truth labeling: scratch-reusing fast path vs "
                "fresh-engine reference ===\n");

    std::vector<RegionAnalysis> analyses = benchAnalyses();
    const std::vector<UarchParams> points = designPoints();

    // Prewarm every per-region memo both variants read (branch runs,
    // combined trace, flag layouts): computed once per region in
    // production, shared by all design points, off the clock here. The
    // reference's row copies are built here too.
    uint64_t sim_instrs = 0;
    std::vector<RegionRows> rows;
    rows.reserve(analyses.size());
    for (RegionAnalysis &analysis : analyses) {
        for (const UarchParams &p : points) {
            (void)analysis.branches(p.branch);
            (void)analysis.combinedFlags(p.branch);
        }
        (void)analysis.combinedColumns();
        rows.push_back({analysis.warmupColumns().toInstructions(),
                        analysis.regionColumns().toInstructions()});
        sim_instrs += static_cast<uint64_t>(analysis.warmupSize()
                                            + analysis.regionSize())
            * points.size();
    }
    const double minstr = static_cast<double>(sim_instrs) / 1e6;
    const size_t labels = analyses.size() * points.size();

    // Bitwise-identity gate, off the clock: every (region, point) pair.
    size_t mismatches = 0;
    {
        SimScratch scratch;
        for (size_t r = 0; r < analyses.size(); ++r) {
            RegionAnalysis &analysis = analyses[r];
            for (const UarchParams &p : points) {
                const SimResult ref = referenceLabel(p, analysis, rows[r]);
                const SimResult fast =
                    simulateRegion(p, analysis, 0, &scratch);
                if (!identical(ref, fast))
                    ++mismatches;
            }
        }
    }

    double ref_s = 1e30;
    double fast_s = 1e30;
    for (int rep = 0; rep < kReps; ++rep) {
        Stopwatch ref_timer;
        for (size_t r = 0; r < analyses.size(); ++r)
            for (const UarchParams &p : points)
                (void)referenceLabel(p, analyses[r], rows[r]);
        ref_s = std::min(ref_s, ref_timer.seconds());

        SimScratch scratch;     // fresh per attempt
        Stopwatch fast_timer;
        for (RegionAnalysis &analysis : analyses)
            for (const UarchParams &p : points)
                (void)simulateRegion(p, analysis, 0, &scratch);
        fast_s = std::min(fast_s, fast_timer.seconds());
    }

    const double ref_rate = minstr / ref_s;
    const double fast_rate = minstr / fast_s;
    const double speedup = ref_s / fast_s;
    std::printf("  corpus: %zu regions x %zu design points = %zu labels "
                "(%.2f Minstr simulated/pass)\n", analyses.size(),
                points.size(), labels, minstr);
    std::printf("  reference fresh engine:  %8.2f Minstr/s  (%.4fs)\n",
                ref_rate, ref_s);
    std::printf("  fast scratch-reusing:    %8.2f Minstr/s  (%.2fx, "
                "%.4fs)\n", fast_rate, speedup, fast_s);
    std::printf("  result mismatches:       %zu / %zu\n", mismatches,
                labels);

    bool pass = true;
    if (mismatches != 0) {
        std::printf("  GATE FAIL: fast path diverges from the reference "
                    "engine\n");
        pass = false;
    }
    if (speedup < 1.3) {
        std::printf("  GATE FAIL: fast path %.2fx reference (need >= "
                    "1.3x)\n", speedup);
        pass = false;
    }

    {
        benchutil::BenchJson json("BENCH_sim.json");
        json.text("bench", "sim_labeler");
        json.field("regions", "%zu", analyses.size());
        json.field("design_points", "%zu", points.size());
        json.field("instructions_per_pass", "%llu",
                   static_cast<unsigned long long>(sim_instrs));
        json.field("reference_minstr_s", "%.3f", ref_rate);
        json.field("fast_minstr_s", "%.3f", fast_rate);
        json.field("fast_speedup", "%.3f", speedup);
        json.field("result_mismatches", "%zu", mismatches);
        json.flag("gate_pass", pass);
    }

    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
