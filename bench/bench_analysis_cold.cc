/**
 * @file
 * Cold region-analysis microbench and CI regression gate.
 *
 * Times, over a set of freshly generated regions (warmup + region, the
 * dataset-generation shape where every region is analysis-cold):
 *
 *   legacy   the row oracles: row-oriented (AoS) instructions and
 *            three independent per-side passes (d-side, i-side,
 *            branches), each on its own analyzer replaying the warmup
 *            and re-iterating the region -- six row sweeps per region
 *   fused    the columnar per-side sweeps every analysis runs
 *            (RegionAnalysis's getters, the stitched pipeline):
 *            warm() plus analyzeShard() on one analyzer, also one
 *            sweep per side over the warmup and one over the region,
 *            but over the SoA columns
 *
 * The JSON keys keep the "fused" name of the one-sweep path the
 * columnar sweeps replaced. Both variants run through AnalyzerCarryState
 * with the same branch seed, so the outputs must be bitwise identical.
 * Trace generation, the AoS materialization, and analyzer construction
 * happen off the sweeps' clock; only the sweeps are timed there.
 *
 * Trace generation has its own clock: the same warmup + region traces
 * regenerated into reused buffers (gen_minstr_s, reported only).
 *
 * Gates (exit 1 on failure; margins are 1-core-VM safe):
 *   - columnar analyses bitwise-identical to the row oracles
 *     (max |diff| == 0 over every analysis vector)
 *   - columnar >= 1.0x legacy: the cache/predictor simulation itself is
 *     identical work in both variants and dominates the sweeps, so the
 *     columns' win is only what they save in streaming (~1.0-1.1x on a
 *     shared 4-core VM); the gate pins that the columnar sweeps every
 *     analysis runs never lose to the row oracles
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
shardDiff(const ShardAnalyses &columnar, const DSideAnalysis &d,
          const ISideAnalysis &i, const BranchAnalysis &b)
{
    double diff = std::max(
        {vectorDiff(columnar.dside.execLat, d.execLat),
         vectorDiff(columnar.iside.newLine, i.newLine),
         vectorDiff(columnar.iside.lineLat, i.lineLat),
         vectorDiff(columnar.branches.mispredict, b.mispredict),
         std::abs(static_cast<double>(columnar.branches.numBranches)
                  - static_cast<double>(b.numBranches)),
         std::abs(static_cast<double>(columnar.branches.numMispredicts)
                  - static_cast<double>(b.numMispredicts))});
    if (columnar.dside.loadLevel != d.loadLevel)
        diff = std::max(diff, 1e30);
    return diff;
}

} // anonymous namespace

int
main()
{
    std::printf("=== cold region analysis: columnar vs row per-side "
                "sweeps ===\n");

    const std::vector<BenchRegion> regions = benchRegions();
    const MemoryConfig mem;
    const BranchConfig branch;
    uint64_t instructions = 0;
    for (const BenchRegion &r : regions)
        instructions += r.spec.numInstructions();
    const double minstr = static_cast<double>(instructions) / 1e6;

    double legacy_s = 1e30;
    double columnar_s = 1e30;
    double max_diff = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
        std::vector<ShardAnalyses> legacy(regions.size());
        std::vector<ShardAnalyses> columnar(regions.size());

        // One analyzer per legacy side (each warming independently),
        // one for the columnar sweeps; all constructed off the clock.
        std::vector<AnalyzerCarryState> d_carries, i_carries, b_carries;
        std::vector<AnalyzerCarryState> columnar_carries;
        for (const BenchRegion &r : regions) {
            d_carries.emplace_back(mem, branch, r.branchSeed);
            i_carries.emplace_back(mem, branch, r.branchSeed);
            b_carries.emplace_back(mem, branch, r.branchSeed);
            columnar_carries.emplace_back(mem, branch, r.branchSeed);
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

        Stopwatch columnar_timer;
        for (size_t i = 0; i < regions.size(); ++i) {
            const BenchRegion &r = regions[i];
            columnar_carries[i].warm(r.warmupCols);
            columnar[i] = columnar_carries[i].analyzeShard(r.regionCols);
        }
        columnar_s = std::min(columnar_s, columnar_timer.seconds());

        for (size_t i = 0; i < regions.size(); ++i) {
            max_diff = std::max(
                max_diff, shardDiff(columnar[i], legacy[i].dside,
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
    const double columnar_rate = minstr / columnar_s;
    const double speedup = legacy_s / columnar_s;
    std::printf("  row oracles per-side:    %8.2f Minstr/s  (%zu regions, "
                "%.4fs)\n", legacy_rate, regions.size(), legacy_s);
    std::printf("  columnar per-side:       %8.2f Minstr/s  (%.2fx, "
                "%.4fs)\n", columnar_rate, speedup, columnar_s);
    std::printf("  max |rows - columnar|:   %.2e\n", max_diff);
    std::printf("  trace generation:        %8.2f Minstr/s  (%.4fs)\n",
                gen_rate, gen_s);

    bool pass = true;
    if (max_diff != 0.0) {
        std::printf("  GATE FAIL: columnar analyses diverge from the "
                    "row oracles\n");
        pass = false;
    }
    if (speedup < 1.0) {
        std::printf("  GATE FAIL: columnar sweeps (%.2f Minstr/s) slower "
                    "than the row oracles (%.2f)\n", columnar_rate,
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
        json.field("fused_minstr_s", "%.3f", columnar_rate);
        json.field("fused_speedup", "%.3f", speedup);
        json.field("gen_minstr_s", "%.3f", gen_rate);
        json.field("max_abs_diff", "%.3e", max_diff);
        json.flag("gate_pass", pass);
    }

    std::printf(pass ? "  GATE PASS\n" : "  GATE FAIL\n");
    return pass ? 0 : 1;
}
