/**
 * @file
 * Cold region-analysis microbench and CI regression gate.
 *
 * Times, over a set of freshly generated regions (warmup + region, the
 * dataset-generation shape where every region is analysis-cold):
 *
 *   legacy   the pre-fusion cold path: row-oriented (AoS) instructions
 *            and three independent per-side passes (d-side, i-side,
 *            branches), each replaying the warmup and re-iterating the
 *            region on its own -- six row sweeps per region
 *   fused    the columnar path: one warmup replay plus ONE sweep
 *            feeding the data hierarchy, the instruction hierarchy, and
 *            the branch predictor simultaneously (analyzeShard)
 *
 * Both run through AnalyzerCarryState with the same branch seed, so the
 * outputs must be bitwise identical. Trace generation, the AoS
 * materialization, and analyzer construction happen off the sweeps'
 * clock; only the sweeps are timed there.
 *
 * Trace generation has its own clock: the same warmup + region traces
 * regenerated into reused buffers (gen_minstr_s, reported only).
 *
 * Gates (exit 1 on failure; margins are 1-core-VM safe):
 *   - fused analyses bitwise-identical to the per-side passes
 *     (max |diff| == 0 over every analysis vector)
 *   - fused >= 1.0x legacy: the cache/predictor simulation itself is
 *     identical work in both variants and dominates the sweep, so the
 *     fusion's streaming win is real but bounded (~1.1x on a 1-core
 *     VM); the gate just pins that one columnar sweep never loses to
 *     six row sweeps
 *
 * Writes a JSON summary to $CONCORDE_BENCH_JSON (default
 * BENCH_analysis.json). Needs no model artifacts; always smoke-fast.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "analysis/trace_analyzer.hh"
#include "bench_util.hh"
#include "common/stopwatch.hh"
#include "trace/workloads.hh"

using namespace concorde;

namespace
{

constexpr int kReps = 3;
/** Generation is cheap and noisier: best of more reps. */
constexpr int kGenReps = 10;
constexpr uint64_t kStartChunk = 16;
constexpr uint32_t kRegionChunks = 2;
constexpr size_t kNumRegions = 12;

/** One region's pre-generated traces, in both layouts (built off-clock). */
struct BenchRegion
{
    RegionSpec spec;
    uint64_t branchSeed = 0;
    TraceColumns warmupCols;
    TraceColumns regionCols;
    std::vector<Instruction> warmupRows;
    std::vector<Instruction> regionRows;
};

std::vector<BenchRegion>
benchRegions()
{
    std::vector<BenchRegion> regions;
    for (size_t i = 0; i < kNumRegions; ++i) {
        BenchRegion r;
        r.spec.programId = programIdByCode(i % 2 == 0 ? "S7" : "P1");
        r.spec.traceId = 0;
        r.spec.startChunk = kStartChunk + i * kRegionChunks;
        r.spec.numChunks = kRegionChunks;
        r.branchSeed = branchSeedFor(r.spec.programId, r.spec.traceId,
                                     r.spec.startChunk);

        const ProgramModel &model = programModel(r.spec.programId);
        RegionSpec warm = r.spec;
        warm.startChunk = r.spec.startChunk - kDefaultWarmupChunks;
        warm.numChunks = kDefaultWarmupChunks;
        r.warmupCols = model.generateRegion(warm);
        r.regionCols = model.generateRegion(r.spec);
        r.warmupRows = r.warmupCols.toInstructions();
        r.regionRows = r.regionCols.toInstructions();
        regions.push_back(std::move(r));
    }
    return regions;
}

template <typename A, typename B>
double
vectorDiff(const std::vector<A> &a, const std::vector<B> &b)
{
    if (a.size() != b.size())
        return 1e30;
    double diff = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
        diff = std::max(diff, std::abs(static_cast<double>(a[i])
                                       - static_cast<double>(b[i])));
    }
    return diff;
}

double
shardDiff(const ShardAnalyses &fused, const DSideAnalysis &d,
          const ISideAnalysis &i, const BranchAnalysis &b)
{
    double diff = std::max(
        {vectorDiff(fused.dside.execLat, d.execLat),
         vectorDiff(fused.iside.newLine, i.newLine),
         vectorDiff(fused.iside.lineLat, i.lineLat),
         vectorDiff(fused.branches.mispredict, b.mispredict),
         std::abs(static_cast<double>(fused.branches.numBranches)
                  - static_cast<double>(b.numBranches)),
         std::abs(static_cast<double>(fused.branches.numMispredicts)
                  - static_cast<double>(b.numMispredicts))});
    if (fused.dside.loadLevel != d.loadLevel)
        diff = std::max(diff, 1e30);
    return diff;
}

} // anonymous namespace

int
main()
{
    std::printf("=== cold region analysis: fused columnar vs per-side "
                "rows ===\n");

    const std::vector<BenchRegion> regions = benchRegions();
    const MemoryConfig mem;
    const BranchConfig branch;
    uint64_t instructions = 0;
    for (const BenchRegion &r : regions)
        instructions += r.spec.numInstructions();
    const double minstr = static_cast<double>(instructions) / 1e6;

    double legacy_s = 1e30;
    double fused_s = 1e30;
    double max_diff = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<ShardAnalyses> legacy(regions.size());
        std::vector<ShardAnalyses> fused(regions.size());

        // One analyzer per legacy side (the pre-fusion code kept one
        // d-hierarchy, one i-hierarchy, and one predictor per region,
        // each warming independently), one for the fused sweep; all
        // constructed off the clock.
        std::vector<AnalyzerCarryState> d_carries, i_carries, b_carries;
        std::vector<AnalyzerCarryState> fused_carries;
        for (const BenchRegion &r : regions) {
            d_carries.emplace_back(mem, branch, r.branchSeed);
            i_carries.emplace_back(mem, branch, r.branchSeed);
            b_carries.emplace_back(mem, branch, r.branchSeed);
            fused_carries.emplace_back(mem, branch, r.branchSeed);
        }

        Stopwatch legacy_timer;
        for (size_t i = 0; i < regions.size(); ++i) {
            const BenchRegion &r = regions[i];
            // Each side replays the warmup on its own pass (results
            // discarded), exactly like the lazy per-side memo builds.
            d_carries[i].analyzeDside(r.warmupRows);
            legacy[i].dside = d_carries[i].analyzeDside(r.regionRows);
            i_carries[i].analyzeIside(r.warmupRows);
            legacy[i].iside = i_carries[i].analyzeIside(r.regionRows);
            b_carries[i].analyzeBranches(r.warmupRows);
            legacy[i].branches =
                b_carries[i].analyzeBranches(r.regionRows);
        }
        legacy_s = std::min(legacy_s, legacy_timer.seconds());

        Stopwatch fused_timer;
        for (size_t i = 0; i < regions.size(); ++i) {
            const BenchRegion &r = regions[i];
            fused_carries[i].warm(r.warmupCols);
            fused[i] = fused_carries[i].analyzeShard(r.regionCols);
        }
        fused_s = std::min(fused_s, fused_timer.seconds());

        for (size_t i = 0; i < regions.size(); ++i) {
            max_diff = std::max(
                max_diff, shardDiff(fused[i], legacy[i].dside,
                                    legacy[i].iside, legacy[i].branches));
        }
    }

    // Trace generation, timed apart from the sweeps: every warmup and
    // region trace above, regenerated into buffers reused across reps.
    double gen_s = 1e30;
    uint64_t gen_instructions = 0;
    {
        GenScratch scratch;
        TraceColumns cols;
        for (int rep = 0; rep < kGenReps; ++rep) {
            gen_instructions = 0;
            Stopwatch gen_timer;
            for (const BenchRegion &r : regions) {
                const ProgramModel &model = programModel(r.spec.programId);
                RegionSpec warm = r.spec;
                warm.startChunk = r.spec.startChunk - kDefaultWarmupChunks;
                warm.numChunks = kDefaultWarmupChunks;
                model.generateRegion(warm, cols, scratch);
                gen_instructions += cols.size();
                model.generateRegion(r.spec, cols, scratch);
                gen_instructions += cols.size();
            }
            gen_s = std::min(gen_s, gen_timer.seconds());
        }
    }
    const double gen_rate =
        static_cast<double>(gen_instructions) / 1e6 / gen_s;

    const double legacy_rate = minstr / legacy_s;
    const double fused_rate = minstr / fused_s;
    const double speedup = legacy_s / fused_s;
    std::printf("  legacy per-side rows:    %8.2f Minstr/s  (%zu regions, "
                "%.4fs)\n", legacy_rate, regions.size(), legacy_s);
    std::printf("  fused columnar sweep:    %8.2f Minstr/s  (%.2fx, "
                "%.4fs)\n", fused_rate, speedup, fused_s);
    std::printf("  max |legacy - fused|:    %.2e\n", max_diff);
    std::printf("  trace generation:        %8.2f Minstr/s  (%.4fs)\n",
                gen_rate, gen_s);

    bool pass = true;
    if (max_diff != 0.0) {
        std::printf("  GATE FAIL: fused analyses diverge from the "
                    "per-side passes\n");
        pass = false;
    }
    if (speedup < 1.0) {
        std::printf("  GATE FAIL: fused sweep (%.2f Minstr/s) slower "
                    "than the per-side passes (%.2f)\n", fused_rate,
                    legacy_rate);
        pass = false;
    }

    {
        benchutil::BenchJson json("BENCH_analysis.json");
        json.text("bench", "analysis_cold");
        json.field("regions", "%zu", regions.size());
        json.field("instructions", "%llu",
                   static_cast<unsigned long long>(instructions));
        json.field("legacy_minstr_s", "%.3f", legacy_rate);
        json.field("fused_minstr_s", "%.3f", fused_rate);
        json.field("fused_speedup", "%.3f", speedup);
        json.field("gen_minstr_s", "%.3f", gen_rate);
        json.field("max_abs_diff", "%.3e", max_diff);
        json.flag("gate_pass", pass);
    }

    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
